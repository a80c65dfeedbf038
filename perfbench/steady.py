"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --traced

Runs every workload ``--runs`` times in each of two sets, A and B,
interleaved run by run (A then B, then B then A, ...), each run in a
fresh process with its own seed (set A uses seeds 1, 2, ...; set B
1001, 1002, ...) and measuring for the ``run_seconds`` of
``BENCHMARK.json``. Per end-to-end metric it prints each set's median
and quartiles, the spread (interquartile distance over the median), and
whether

* each set's spread stays within the metric's bound (``setup_s`` is
  exempt: set-up is short, so its spread is reported, not judged), and
* set B's median is no worse than set A's by more than the bound,

and whether the share of failed operations is identical in the two
sets. ``--traced`` adds a traced run after every untraced run of set A and
reports the tracing overhead: untraced over traced ``ops_per_s``.
The last line is a JSON summary; the exit code is 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, WORKLOADS, load_spec

SEED_BASE = {"A": 1, "B": 1001}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if not first:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set (>= 4)")
    parser.add_argument("--traced", action="store_true",
                        help="also run traced; report tracing overhead")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs per set")

    seconds = spec["run_seconds"]
    results = {name: {"A": [], "B": []} for name in WORKLOADS}
    traced = {name: [] for name in WORKLOADS}
    for run in range(args.runs):
        order = ("A", "B") if run % 2 == 0 else ("B", "A")
        for label in order:
            for workload in WORKLOADS:
                seed = SEED_BASE[label] + run
                result = run_once(workload, seed, seconds, 0)
                results[workload][label].append(result)
                print(f"run {run} set {label} {workload} seed {seed}: "
                      f"{json.dumps(result)}", flush=True)
                if args.traced and label == "A":
                    probed = run_once(workload, seed, seconds, 1)
                    traced[workload].append((result, probed))
                    print(f"run {run} traced {workload} seed {seed}: "
                          f"{json.dumps(probed)}", flush=True)

    summary: dict = {"agree": True, "workloads": {}}
    for workload in WORKLOADS:
        sets = results[workload]
        rows = {}
        print(f"\n== {workload}")
        print(f"{'metric':14} {'set':3} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = {label: [r["metrics"][name]["value"]
                               for r in sets[label]] for label in "AB"}
            spreads = {label: spread(per_set[label]) for label in "AB"}
            for label in "AB":
                q1, median, q3 = quartiles(per_set[label])
                print(f"{name:14} {label:3} {q1:11.5g} {median:11.5g} "
                      f"{q3:11.5g} {spreads[label]:7.3f} {bound:6.2f}")
            drift = worse_by(statistics.median(per_set["A"]),
                             statistics.median(per_set["B"]),
                             metric["better"])
            steady = name == "setup_s" or max(spreads.values()) <= bound
            ok = steady and drift <= bound
            print(f"{'':14} B worse than A by {drift:+.3f}: "
                  f"{'agree' if ok else 'DISAGREE'}")
            rows[name] = {"spread_A": spreads["A"], "spread_B": spreads["B"],
                          "worse_by": drift, "bound": bound, "agree": ok}
            summary["agree"] = summary["agree"] and ok
        shares = {label: (sum(r["failed"] for r in sets[label]),
                          sum(r["attempted"] for r in sets[label]))
                  for label in "AB"}
        same_failures = (shares["A"][0] * shares["B"][1]
                         == shares["B"][0] * shares["A"][1])
        correct = all(r["correct"] for label in "AB" for r in sets[label])
        print(f"failed/attempted A {shares['A'][0]}/{shares['A'][1]}, "
              f"B {shares['B'][0]}/{shares['B'][1]}: "
              f"{'same share' if same_failures else 'DIFFERENT SHARE'}; "
              f"all correct: {correct}")
        summary["agree"] = summary["agree"] and same_failures and correct
        entry = {"metrics": rows, "failed_share_equal": same_failures,
                 "correct": correct}
        if args.traced:
            plain = statistics.median(
                r["metrics"]["ops_per_s"]["value"]
                for r, _ in traced[workload])
            probed = statistics.median(
                t["metrics"]["trace.ops_per_s"]["value"]
                for _, t in traced[workload])
            entry["tracing_overhead"] = plain / probed
            print(f"tracing: untraced {plain:.4g} ops/s, traced "
                  f"{probed:.4g} ops/s, overhead x{plain / probed:.3f}")
        summary["workloads"][workload] = entry
    print(json.dumps(summary))
    return 0 if summary["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
