"""``grid-cold``: an advisor's candidate grid on the storage path, cold.

One op is one ``EstimationEngine.execute`` over every (key set x
algorithm) request on two multi-column tables, several trials each, on
a fresh default (serial) engine with a new master seed — so every
sample, sample index and compressed size is computed cold. This is the
paper's Figure 2 path end to end: index build on the sample and
compressed sizing dominate, the service and advisor do no work.
"""

from __future__ import annotations

from common import (Outcome, closed_loop, derive, latency_metrics,
                    mean_abs, peak_rss_mb_self, timed_setup)
from checks import (check_equal, check_ns_bound, exact_table_cfs,
                    sample_rows)
from probe import LayerProbe, install, layer_metrics

PAGE = 4096
#: (rows, [(column, CHAR width, distinct values)]) per table.
TABLES = {
    "orders": (12_000, [("status", 10, 6), ("customer", 24, 500),
                        ("region", 12, 20)]),
    "parts": (8_000, [("sku", 24, 400), ("brand", 16, 30)]),
}
KEY_SETS = [("orders", ("status",)), ("orders", ("customer",)),
            ("orders", ("region",)), ("orders", ("status", "region")),
            ("parts", ("sku",)), ("parts", ("brand",))]
ALGORITHMS = ("null_suppression", "global_dictionary", "dictionary",
              "prefix", "rle")
FRACTION = 0.05
TRIALS = 3
#: ``cf_abs_err`` averages every estimate of this many leading ops.
ERROR_OPS = 8


def make_tables(seed: int) -> dict:
    from repro.workloads.generators import make_multicolumn_table

    return {name: make_multicolumn_table(name, rows, columns,
                                         page_size=PAGE,
                                         seed=derive(seed, "table", name))
            for name, (rows, columns) in TABLES.items()}


def grid(tables: dict, fraction: float = FRACTION, trials: int = TRIALS,
         sampler=None) -> list:
    from repro.engine import EstimationRequest
    from repro.storage.index import IndexKind

    return [EstimationRequest(table=tables[table], columns=columns,
                              algorithm=algorithm, fraction=fraction,
                              trials=trials, kind=IndexKind.NONCLUSTERED,
                              page_size=PAGE, sampler=sampler,
                              label=f"{table}:{','.join(columns)}:"
                                    f"{algorithm}")
            for table, columns in KEY_SETS for algorithm in ALGORITHMS]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine import EstimationEngine
    from repro.sampling.row_samplers import WithoutReplacementSampler
    from repro.storage.index import IndexKind

    def op(index: int, tables: dict, requests: list) -> list:
        engine = EstimationEngine(seed=derive(seed, "op", index))
        batch = engine.execute(requests)
        return [[estimate.estimate for estimate in result.estimates]
                for result in batch.results]

    def setup() -> tuple[dict, list]:
        tables = make_tables(seed)
        requests = grid(tables)
        op(-1, tables, requests)  # warm-up: imports, kernel tables
        return tables, requests

    (tables, requests), setup_s = timed_setup(setup)
    probe = install(LayerProbe()) if trace else None
    try:
        records, wall = closed_loop(
            lambda index: op(index, tables, requests), seconds,
            round_size=1)
    finally:
        if probe is not None:
            probe.uninstall()
    rss = peak_rss_mb_self()

    exact: dict[tuple, float] = {}
    kind = IndexKind.NONCLUSTERED
    for table, columns in KEY_SETS:
        for algorithm, cf in exact_table_cfs(tables[table], columns,
                                             ALGORITHMS, kind,
                                             PAGE).items():
            exact[(table, columns, algorithm)] = cf
    keys = [(table, columns, algorithm)
            for table, columns in KEY_SETS for algorithm in ALGORITHMS]

    problems: list[str] = []
    for record in records:
        if record.failed:
            continue
        for key, values in zip(keys, record.output):
            if key[2] != "null_suppression":
                continue
            rows = sample_rows(tables[key[0]].num_rows, FRACTION)
            for value in values:
                problem = check_ns_bound(f"op {record.index} {key}",
                                         value, exact[key], rows)
                if problem is not None:
                    record.failed = True
                    problems.append(problem)

    # Once per run: f = 1.0 without replacement samples every row, so
    # the engine must return the exact CF bit for bit.
    full = EstimationEngine(seed=derive(seed, "full")).execute(
        grid(tables, fraction=1.0, trials=1,
             sampler=WithoutReplacementSampler()))
    for key, result in zip(keys, full.results):
        problem = check_equal(f"f=1.0 {key}", result.estimates[0].estimate,
                              exact[key])
        if problem is not None:
            problems.append(problem)

    pairs = [(value, exact[key])
             for record in records[:ERROR_OPS] if not record.failed
             for key, values in zip(keys, record.output)
             for value in values]
    metrics = latency_metrics(records, wall)
    outcome = Outcome(
        attempted=len(records),
        failed=sum(record.failed for record in records),
        end_to_end={**metrics, "setup_s": setup_s, "peak_rss_mb": rss,
                    "cf_abs_err": mean_abs(pairs)},
        problems=problems)
    outcome.notes.append(
        f"grid-cold: {len(records)} ops of {len(requests)} requests x "
        f"{TRIALS} trials in {wall:.1f} s")
    if probe is not None:
        ops = sum(not record.failed for record in records)
        outcome.per_layer = layer_metrics(probe.events, ops,
                                          metrics["ops_per_s"])
    return outcome
