"""``advise-whatif``: the lazy what-if advisor, one advise call per op.

Each op builds a ``WhatIfAdvisor`` with a per-op seed over three tables
and eight queries and answers one storage bound; the bound cycles
through a fixed list, and a run holds whole cycles. The advisor issues
many small incremental engine batches (``expand_trials``) and reuses
samples across its greedy rounds from the memory cache, so per-batch
planning and bookkeeping, cache hits and bound pruning weigh more here
than index build does.
"""

from __future__ import annotations

from common import (Outcome, closed_loop, derive, latency_metrics,
                    mean_abs, peak_rss_mb_self, timed_setup)
from checks import (check_fits, check_same_design, exact_table_cfs)
from probe import LayerProbe, install, layer_metrics

PAGE = 4096
TABLES = {
    "orders": (9_000, [("status", 10, 6), ("customer", 24, 500),
                       ("region", 12, 20)]),
    "parts": (6_000, [("sku", 24, 400), ("brand", 16, 30)]),
    "events": (4_800, [("kind", 8, 12), ("source", 20, 150)]),
}
#: (name, table, columns, selectivity, weight)
QUERIES = [
    ("q_status", "orders", ("status",), 0.15, 10),
    ("q_customer", "orders", ("customer",), 0.03, 6),
    ("q_region", "orders", ("region",), 0.2, 4),
    ("q_cust_reg", "orders", ("customer", "region"), 0.02, 3),
    ("q_sku", "parts", ("sku",), 0.05, 5),
    ("q_brand", "parts", ("brand",), 0.25, 3),
    ("q_kind", "events", ("kind",), 0.3, 4),
    ("q_source", "events", ("source",), 0.04, 2),
]
ALGORITHMS = ("null_suppression", "dictionary", "global_dictionary",
              "rle", "prefix")
FRACTION = 0.05
MAX_TRIALS = 4
#: Storage bounds, as shares of all tables' uncompressed row bytes.
BOUND_SHARES = (0.1, 0.2, 0.3, 0.45)
#: The ops of the first two whole cycles are compared with the eager
#: advisor, and their trial estimates give ``cf_abs_err``.
CHECKED_OPS = 2 * len(BOUND_SHARES)


def make_inputs(seed: int) -> tuple[dict, list, list[float]]:
    from repro.advisor import Query
    from repro.workloads.generators import make_multicolumn_table

    tables = {name: make_multicolumn_table(name, rows, columns,
                                           page_size=PAGE,
                                           seed=derive(seed, "table", name))
              for name, (rows, columns) in TABLES.items()}
    queries = [Query(name, table, columns, selectivity=selectivity,
                     weight=weight)
               for name, table, columns, selectivity, weight in QUERIES]
    plain = sum(table.num_rows
                * (sum(column.dtype.fixed_size
                       for column in table.schema.columns) + 8)
                for table in tables.values())
    return tables, queries, [plain * share for share in BOUND_SHARES]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.advisor import CostModel, WhatIfAdvisor, advise_from_data
    from repro.advisor.candidates import workload_key_sets
    from repro.engine import EstimationEngine
    from repro.storage.index import IndexKind

    model = CostModel(PAGE)

    def advisor_for(index: int, tables: dict, queries: list,
                    probabilistic: bool = True):
        return WhatIfAdvisor(tables, queries, algorithms=ALGORITHMS,
                             fraction=FRACTION, max_trials=MAX_TRIALS,
                             model=model, seed=derive(seed, "op", index),
                             use_probabilistic=probabilistic)

    def setup():
        tables, queries, bounds = make_inputs(seed)
        advisor_for(-1, tables, queries).advise(bounds[-1])  # warm-up
        return tables, queries, bounds

    (tables, queries, bounds), setup_s = timed_setup(setup)

    def op(index: int):
        advisor = advisor_for(index, tables, queries)
        result = advisor.advise(bounds[index % len(bounds)])
        if index >= CHECKED_OPS:
            return result, []
        # Keep the trial estimates, not the advisor: its engine would
        # pin a sample cache per checked op and inflate peak RSS.
        return result, [((state.table_name, state.key_columns,
                          state.algorithm.name), list(state.values))
                        for state in advisor.states if state.compressed]

    probe = install(LayerProbe()) if trace else None
    try:
        records, wall = closed_loop(op, seconds,
                                    round_size=len(BOUND_SHARES))
    finally:
        if probe is not None:
            probe.uninstall()
    rss = peak_rss_mb_self()

    problems: list[str] = []

    def fail(record, problem: str | None) -> None:
        if problem is not None:
            record.failed = True
            problems.append(problem)

    for record in records:
        if not record.failed:
            result, _ = record.output
            fail(record, check_fits(f"op {record.index}", result.bytes_used,
                                    bounds[record.index % len(bounds)]))

    exact: dict[tuple, float] = {}
    for table, columns in workload_key_sets(tables, queries):
        for algorithm, cf in exact_table_cfs(
                tables[table], columns, ALGORITHMS,
                IndexKind.NONCLUSTERED, PAGE).items():
            exact[(table, columns, algorithm)] = cf

    # The lazy design must equal the eager one. With deterministic
    # pruning (use_probabilistic=False) that is checked: a difference
    # fails the op. The timed ops use the default probabilistic
    # pruning, whose design differs from the eager one on a few seeds
    # (a fault of the advisor's empirical intervals, see README); that
    # divergence is printed as a note.
    pairs: list[tuple[float, float]] = []
    diverged: list[str] = []
    for record in records[:CHECKED_OPS]:
        if record.failed:
            continue
        lazy, trials = record.output
        bound = bounds[record.index % len(bounds)]
        label = f"op {record.index}"
        eager = advise_from_data(
            tables, queries, bound,
            algorithms=ALGORITHMS, fraction=FRACTION, trials=MAX_TRIALS,
            model=model,
            engine=EstimationEngine(seed=derive(seed, "op", record.index)))
        exhaustive = advisor_for(record.index, tables, queries,
                                 probabilistic=False).advise(bound)
        fail(record, check_same_design(f"{label} (deterministic pruning)",
                                       exhaustive, eager))
        problem = check_same_design(label, lazy, eager)
        if problem is not None:
            diverged.append(problem)
        for key, values in trials:
            pairs.extend((value, exact[key]) for value in values)

    metrics = latency_metrics(records, wall)
    outcome = Outcome(
        attempted=len(records),
        failed=sum(record.failed for record in records),
        end_to_end={**metrics, "setup_s": setup_s, "peak_rss_mb": rss,
                    "cf_abs_err": mean_abs(pairs)},
        problems=problems)
    outcome.notes.append(
        f"advise-whatif: {len(records)} ops over {len(bounds)} bounds in "
        f"{wall:.1f} s; {len(pairs)} trial estimates in cf_abs_err; "
        f"lazy design with deterministic pruning checked against eager "
        f"on {CHECKED_OPS} ops; with the default probabilistic pruning "
        f"it equals eager on {CHECKED_OPS - len(diverged)} of them")
    outcome.notes.extend(f"DIVERGED {problem}" for problem in diverged)
    if probe is not None:
        ops = sum(not record.failed for record in records)
        outcome.per_layer = layer_metrics(probe.events, ops,
                                          metrics["ops_per_s"])
    return outcome
