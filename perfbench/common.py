"""Shared plumbing: seeds, the closed loop, latencies, the run outcome.

Nothing here imports the program under test; workload modules import
``repro`` only after ``run.py`` has put the checkout's ``src`` on the
path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("grid-cold", "advise-whatif", "service-mix")

#: Set-up is repeated this many times per run and its median reported:
#: one set-up lasts a fraction of a second, so a single reading is at
#: the mercy of one scheduler hiccup.
SETUP_REPEATS = 3


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, bounds, run length."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def derive(seed: int, *parts: object) -> int:
    """A stable 62-bit seed from the run seed and a description."""
    text = "\x1f".join(str(part) for part in (seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 62)


def peak_rss_mb_self() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Another process's peak resident set size (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ScratchDir:
    """A per-run directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = Path.cwd() / ".perfbench" / f"run-{os.getpid()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:  # another run still owns a sibling directory
            pass


def timed_setup(build: Callable[[], object],
                repeats: int = SETUP_REPEATS) -> tuple[object, float]:
    """Run ``build`` ``repeats`` times; keep the last result.

    Returns the last result and the median seconds of one set-up.
    """
    seconds = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - start)
    return result, statistics.median(seconds)


@dataclass
class OpRecord:
    """One timed operation: its latency and whether it failed."""

    index: int
    seconds: float
    failed: bool = False
    error: str = ""
    output: object = None


def closed_loop(op: Callable[[int], object], seconds: float,
                round_size: int, clients: int = 1,
                ) -> tuple[list[OpRecord], float]:
    """Run ``op`` back to back from ``clients`` threads.

    Each client issues operation indexes ``client, client + clients,
    ...`` and stops only at the end of a whole round of ``round_size``
    of its own operations once ``seconds`` have passed, so every run
    attempts whole rounds of the same operation mix. An exception
    marks the operation failed; the loop goes on. Returns the records
    in index order and the wall seconds of the timed phase.
    """
    deadline = time.perf_counter() + seconds
    records: list[OpRecord] = []
    lock = threading.Lock()

    def client(offset: int) -> None:
        step = 0
        while True:
            index = offset + step * clients
            start = time.perf_counter()
            try:
                output = op(index)
                record = OpRecord(index, time.perf_counter() - start,
                                  output=output)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                record = OpRecord(index, time.perf_counter() - start,
                                  failed=True,
                                  error=f"{type(exc).__name__}: {exc}")
            with lock:
                records.append(record)
            step += 1
            if step % round_size == 0 and time.perf_counter() >= deadline:
                return

    start = time.perf_counter()
    if clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start
    records.sort(key=lambda record: record.index)
    return records, wall


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Failed reference checks, one line each (empty when correct).
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines printed before the JSON result.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def latency_metrics(records: list[OpRecord], wall: float) -> dict:
    """``ops_per_s`` and the latency percentiles of completed ops."""
    done = [record.seconds for record in records if not record.failed]
    if len(done) < 2:
        raise RuntimeError("fewer than two operations completed")
    cuts = statistics.quantiles(done, n=100, method="inclusive")
    return {
        "ops_per_s": len(done) / wall,
        "op_p50_ms": cuts[49] * 1000.0,
        "op_p90_ms": cuts[89] * 1000.0,
    }


def mean_abs(pairs: list[tuple[float, float]]) -> float:
    """Mean ``|estimate - exact|`` over (estimate, exact) pairs."""
    if not pairs:
        raise RuntimeError("no estimates to compare")
    return sum(abs(estimate - exact) for estimate, exact in pairs) \
        / len(pairs)
