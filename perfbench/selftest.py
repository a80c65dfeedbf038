"""The benchmark's own test: each check passes on real output and fails
when one estimate in it is perturbed.

Run from the root of a checkout, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from repro.advisor import (CostModel, Query, WhatIfAdvisor,  # noqa: E402
                           advise_from_data)
from repro.core.samplecf import true_cf_histogram  # noqa: E402
from repro.engine import EstimationEngine, EstimationRequest  # noqa: E402
from repro.sampling.row_samplers import (  # noqa: E402
    WithoutReplacementSampler)
from repro.storage.index import IndexKind  # noqa: E402
from repro.workloads.generators import (make_histogram,  # noqa: E402
                                        make_multicolumn_table)

PAGE = 4096
KIND = IndexKind.NONCLUSTERED


def small_table():
    return make_multicolumn_table(
        "t", 2_000, [("a", 16, 40), ("b", 12, 300)], page_size=PAGE,
        seed=3)


def estimate(table, algorithm: str, fraction: float, sampler=None):
    request = EstimationRequest(
        table=table, columns=("a",), algorithm=algorithm,
        fraction=fraction, kind=KIND, page_size=PAGE, sampler=sampler)
    return EstimationEngine(seed=5).estimate(request).estimates[0].estimate


def test_ns_bound_check():
    table = small_table()
    exact = checks.exact_table_cfs(table, ("a",), ["null_suppression"],
                                   KIND, PAGE)["null_suppression"]
    rows = checks.sample_rows(table.num_rows, 0.05)
    value = estimate(table, "null_suppression", 0.05)
    assert checks.check_ns_bound("ns", value, exact, rows) is None
    perturbed = exact + 1.01 * checks.theorem1_slack(rows)
    assert checks.check_ns_bound("ns", perturbed, exact, rows) is not None


def test_full_fraction_check():
    table = small_table()
    exact = checks.exact_table_cfs(table, ("a",), ["prefix"], KIND,
                                   PAGE)["prefix"]
    value = estimate(table, "prefix", 1.0, WithoutReplacementSampler())
    assert checks.check_equal("f=1", value, exact) is None
    assert checks.check_equal("f=1", value + 1e-12, exact) is not None


def test_histogram_reference():
    histogram = make_histogram(50_000, 400, 24, seed=9)
    exact = true_cf_histogram(histogram, "null_suppression")
    request = EstimationRequest(histogram=histogram, fraction=0.02,
                                algorithm="null_suppression")
    value = EstimationEngine(seed=2).estimate(request).estimates[0].estimate
    rows = checks.sample_rows(histogram.n, 0.02)
    assert checks.check_ns_bound("hist", value, exact, rows) is None
    perturbed = value + 2 * checks.theorem1_slack(rows)
    assert checks.check_ns_bound("hist", perturbed, exact, rows) is not None


def test_design_checks():
    tables = {"t": small_table()}
    queries = [Query("qa", "t", ("a",), selectivity=0.1, weight=5),
               Query("qb", "t", ("b",), selectivity=0.02, weight=3)]
    bound = 2_000 * 36 * 0.5
    kwargs = dict(algorithms=("null_suppression", "dictionary"),
                  fraction=0.05, model=CostModel(PAGE))
    lazy = WhatIfAdvisor(tables, queries, max_trials=3, seed=4,
                         use_probabilistic=False, **kwargs).advise(bound)
    eager = advise_from_data(tables, queries, bound, trials=3,
                             engine=EstimationEngine(seed=4), **kwargs)
    assert lazy.chosen, "the bound should admit at least one index"
    assert checks.check_same_design("d", lazy, eager) is None
    first = lazy.chosen[0]
    moved = dataclasses.replace(first, size_bytes=first.size_bytes + 1)
    perturbed = dataclasses.replace(lazy, chosen=(moved, *lazy.chosen[1:]))
    assert checks.check_same_design("d", perturbed, eager) is not None
    assert checks.check_fits("fit", lazy.bytes_used, bound) is None
    assert checks.check_fits("fit", lazy.bytes_used,
                             lazy.bytes_used - 1) is not None


def test_service_identity_check():
    spec = {"seed": 8,
            "workloads": {"w": {"n": 20_000, "d": 100, "k": 16,
                                "seed": 1}},
            "requests": [{"workload": "w", "algorithm": "null_suppression",
                          "fraction": 0.05, "trials": 2},
                         {"workload": "w", "algorithm": "rle",
                          "fraction": 0.05, "trials": 2}]}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as scratch:
        with checks.shared_workloads():
            served = checks.estimate_batch_results(spec, Path(scratch))
            reference = checks.estimate_batch_results(spec, Path(scratch))
    assert checks.check_identical("s", served, reference) is None
    served[1]["estimates"][0] += 1e-9
    assert checks.check_identical("s", served, reference) is not None


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} checks fail on a perturbed estimate")
