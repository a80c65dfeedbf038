"""``service-mix``: ``repro serve`` under two closed-loop clients.

The server runs as a subprocess with default flags. Two client threads
post ``/estimate-batch`` specs over histogram workloads in lockstep
cycles of four: a spec from a small pool both clients share, a cold
spec with a per-op seed, the other pooled spec, another cold spec. The
pooled specs' samples stay in the 64-sample memory cache and the two
clients' copies coalesce in one round; the cold specs draw new samples.
The path is HTTP, spec parsing, the workload cache, the micro-batch
window, histogram sampling and the closed-form CF models; no index is
built and no size kernel runs.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from common import (BENCH_DIR, ROOT, SRC, SETUP_REPEATS, Outcome,
                    ScratchDir, closed_loop, derive, latency_metrics,
                    mean_abs, peak_rss_mb_of)
from checks import (check_identical, check_ns_bound,
                    estimate_batch_results, sample_rows, shared_workloads)
from probe import layer_metrics

CLIENTS = 2
#: Per client, one cycle is: pooled spec 0, cold, pooled spec 1, cold.
CYCLE = ("pool", "cold", "pool", "cold")
#: (workload, algorithm, fraction); every spec runs each at TRIALS.
REQUESTS = (("names", "null_suppression", 0.01),
            ("names", "global_dictionary", 0.01),
            ("codes", "rle", 0.02),
            ("codes", "null_suppression", 0.02),
            ("skus", "dictionary", 0.01),
            ("skus", "null_suppression", 0.01))
TRIALS = 2
#: Engine requests one submission becomes after trial expansion.
UNITS_PER_SUBMISSION = len(REQUESTS) * TRIALS
#: ``cf_abs_err`` averages every estimate of this many leading cycles.
ERROR_CYCLES = 4
READY_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0


def workloads(seed: int) -> dict:
    return {
        "names": {"n": 400_000, "d": 4_000, "k": 32,
                  "seed": derive(seed, "names")},
        "codes": {"n": 200_000, "d": 40, "k": 12,
                  "seed": derive(seed, "codes")},
        "skus": {"n": 300_000, "d": 2_500, "k": 20,
                 "seed": derive(seed, "skus")},
    }


def make_spec(seed: int, spec_seed: int) -> dict:
    return {"seed": spec_seed, "workloads": workloads(seed),
            "requests": [{"workload": workload, "algorithm": algorithm,
                          "fraction": fraction, "trials": TRIALS}
                         for workload, algorithm, fraction in REQUESTS]}


def spec_for(seed: int, phase: str, index: int) -> dict:
    """Op ``index`` of ``phase``: client ``index % CLIENTS`` sends it."""
    step = index // CLIENTS
    position = step % len(CYCLE)
    if CYCLE[position] == "pool":
        return make_spec(seed, derive(seed, "pool", position))
    return make_spec(seed, derive(seed, phase, index))


class Server:
    """One ``repro serve`` subprocess, stopped with SIGINT."""

    def __init__(self, scratch: Path, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        self.trace_path = scratch / "serve-trace.jsonl"
        self.events_path = scratch / "serve-events.json"
        # Set-up servers share the path; only this one's events count.
        self.events_path.unlink(missing_ok=True)
        if trace:
            command = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                       str(self.events_path), "--trace",
                       str(self.trace_path)]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        self.stderr_path = scratch / "serve-stderr.txt"
        self.stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr)
        try:
            self.base = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stream = self.process.stdout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("repro serve printed no ready line")
            readable, _, _ = select.select([stream], [], [], remaining)
            if readable:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"repro serve exited {self.process.wait()} "
                        f"before it was ready")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if not line.startswith("repro-service-ready "):
            raise RuntimeError(f"unexpected first line {line!r}")
        return "http://" + line.split()[1]

    def post(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request,
                                    timeout=HTTP_TIMEOUT_S) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats",
                                    timeout=HTTP_TIMEOUT_S) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.stderr.close()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    with ScratchDir() as scratch:
        return _run(seed, seconds, trace, scratch)


def _run(seed: int, seconds: float, trace: bool,
         scratch: Path) -> Outcome:
    from repro.core.samplecf import true_cf_histogram
    from repro.service.schemas import build_batch_workload

    def client_op(server: Server, phase: str):
        def op(index: int) -> tuple[dict, list]:
            spec = spec_for(seed, phase, index)
            return spec, server.post("/estimate-batch", spec)["results"]
        return op

    # Set-up: boot to the ready line, then one whole cycle per client
    # so the workload cache is built and the pooled samples are drawn.
    setups = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = Server(scratch, trace)
        warm, _ = closed_loop(client_op(server, f"warm{repeat}"), 0.0,
                              round_size=len(CYCLE), clients=CLIENTS)
        setups.append(time.perf_counter() - start)
        failed = [record.error for record in warm if record.failed]
        if failed:
            server.stop()
            raise RuntimeError(f"warm-up failed: {failed[0]}")
    setup_s = statistics.median(setups)

    try:
        before = server.stats()["batcher"]
        window_start = time.time()
        records, wall = closed_loop(client_op(server, "op"), seconds,
                                    round_size=len(CYCLE), clients=CLIENTS)
        window_end = time.time()
        after = server.stats()["batcher"]
        rss = peak_rss_mb_of(server.process.pid)
    finally:
        server.stop()

    problems: list[str] = []

    def fail(record, problem: str | None) -> None:
        if problem is not None:
            record.failed = True
            problems.append(problem)

    # Every response against the same spec run alone through
    # ``repro estimate-batch``; identical specs are run once.
    references: dict[str, list] = {}
    with shared_workloads():
        for record in records:
            if record.failed:
                continue
            spec, served = record.output
            key = json.dumps(spec, sort_keys=True)
            if key not in references:
                references[key] = estimate_batch_results(spec, scratch)
            fail(record, check_identical(f"op {record.index}", served,
                                         references[key]))

    # Exact CFs from the full histograms, apart from the engine.
    histograms = {name: build_batch_workload(name, spec)["histogram"]
                  for name, spec in workloads(seed).items()}
    exact = {(workload, algorithm): true_cf_histogram(
                 histograms[workload], algorithm, page_size=8192)
             for workload, algorithm, _ in REQUESTS}
    pairs = []
    error_ops = ERROR_CYCLES * len(CYCLE) * CLIENTS
    for record in records:
        if record.failed:
            continue
        _, served = record.output
        for entry in served:
            key = (entry["workload"], entry["algorithm"])
            rows = sample_rows(histograms[key[0]].n, entry["fraction"])
            for value in entry["estimates"]:
                if key[1] == "null_suppression":
                    fail(record, check_ns_bound(
                        f"op {record.index} {key}", value, exact[key],
                        rows))
                if record.index < error_ops:
                    pairs.append((value, exact[key]))

    metrics = latency_metrics(records, wall)
    rounds = after["rounds"] - before["rounds"]
    submissions = after["submissions"] - before["submissions"]
    outcome = Outcome(
        attempted=len(records),
        failed=sum(record.failed for record in records),
        end_to_end={**metrics, "setup_s": setup_s, "peak_rss_mb": rss,
                    "cf_abs_err": mean_abs(pairs)},
        problems=problems)
    coalesced = after["coalesced_rounds"] - before["coalesced_rounds"]
    outcome.notes.append(
        f"service-mix: {len(records)} submissions from {CLIENTS} clients "
        f"in {wall:.1f} s; {rounds} engine rounds, {coalesced} coalesced; "
        f"{len(references)} distinct specs checked against estimate-batch")
    if trace:
        done = [record for record in records if not record.failed]
        outcome.per_layer = traced_layers(
            server, done, window_start, window_end,
            metrics["ops_per_s"], submissions / rounds if rounds else 0.0)
    return outcome


def traced_layers(server: Server, done: list, start: float, end: float,
                  ops_per_s: float, per_round: float) -> dict:
    """Per-layer metrics from the server's probe events and its trace."""
    from repro.obs import read_trace

    if not server.events_path.is_file():
        raise RuntimeError(
            f"the traced server (exit code {server.process.returncode}) "
            f"wrote no events; its stderr: "
            f"{server.stderr_path.read_text(errors='replace')[-2000:]!r}")
    events = [tuple(event) for event in
              json.loads(server.events_path.read_text(encoding="utf-8"))]
    events = [event for event in events if start <= event[1] <= end]
    # The trace's engine.execute spans are the coalesced rounds. A
    # round serves requests / UNITS_PER_SUBMISSION submissions, and
    # each of them waited for the whole round.
    records = read_trace(server.trace_path)
    anchor = next(record["wall_start"] for record in records
                  if record.get("type") == "meta")
    waited = 0.0
    for record in records:
        if record.get("type") == "span" \
                and record["name"] == "engine.execute" \
                and start <= anchor + record["t"] <= end:
            served = record["attrs"]["requests"] / UNITS_PER_SUBMISSION
            waited += record["dur"] * served
    latency = sum(record.seconds for record in done)
    outside = (latency - waited) / len(done) * 1000.0
    return layer_metrics(events, len(done), ops_per_s, service={
        "service.outside_execute_ms": outside,
        "service.submissions_per_round": per_round,
    })
