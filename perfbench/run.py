"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the layer probe and prints the per-layer ones.
``--workload all`` runs every workload, each in a fresh process. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

from common import ROOT, SRC, WORKLOADS, load_spec



def run_workload(name: str, seed: int, seconds: float, trace: bool):
    sys.path.insert(0, str(SRC))
    if name == "grid-cold":
        import grid_cold as module
    elif name == "advise-whatif":
        import advise_whatif as module
    else:
        import service_mix as module
    return module.run(seed, seconds, trace)


def result_json(outcome, spec: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    missing = [metric["name"] for metric in declared
               if metric["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric["name"]: {"value": measured[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process; metrics keyed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
            check=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the server it started (finally
    # blocks run on SystemExit, not on a bare SIGTERM).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        result = run_all(args)
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        for note in outcome.notes:
            print(note)
        for problem in outcome.problems:
            print(f"CHECK FAILED {problem}")
        result = result_json(outcome, spec, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
