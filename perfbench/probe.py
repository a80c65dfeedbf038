"""Per-layer timing from outside the program.

:func:`install` replaces public functions of the ``repro`` layers on
the request path with wrappers that time each call, then restores
them. What the calls did (rows drawn, cache hits, kernel hits, batch
sizes) is read from the ``stats`` of each ``EstimationEngine.execute``
result. The
program's source is not touched: the same wrappers run inside the
benchmark process and, through ``traced_serve.py``, inside a
``repro serve`` process.

A layer calling itself (a subclass method delegating to its base) is
timed once, by the outermost call.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Event tuple: (layer call name, wall-clock start, seconds, info dict).
Event = tuple[str, float, float, dict]

#: ``BatchResult.stats`` counters recorded with each ``engine.execute``.
BATCH_STATS = ("requests", "unique_requests", "trials",
               "samples_materialized", "sample_cache_hits",
               "sample_rows_drawn", "indexes_built", "size_kernel_hits",
               "size_scalar_fallbacks")


class LayerProbe:
    """Collects one event per timed call; thread-safe."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._lock = threading.Lock()
        self._active = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict | None]:
        """Time one call; yields the info dict (``None`` when nested)."""
        if getattr(self._active, name, False):
            yield None
            return
        setattr(self._active, name, True)
        info: dict = {}
        wall = time.time()
        start = time.perf_counter()
        try:
            yield info
        finally:
            seconds = time.perf_counter() - start
            setattr(self._active, name, False)
            with self._lock:
                self.events.append((name, wall, seconds, info))

    def wrap(self, owner: Any, attr: str, name: str,
             describe: "Callable[[Any], dict] | None" = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``describe`` maps the call's result to the info recorded with
        it. Only attributes defined on ``owner`` itself are replaced,
        so a class inheriting a method is covered through its base.
        """
        original = vars(owner)[attr]
        probe = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            with probe.span(name) as info:
                result = original(*args, **kwargs)
                if info is not None and describe is not None:
                    info.update(describe(result))
                return result

        self.patch(owner, attr, timed)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def install(probe: LayerProbe) -> LayerProbe:
    """Wrap the request-path layers of ``repro``; returns ``probe``."""
    import repro.compression as compression
    import repro.engine.units as units
    from repro.advisor.whatif import WhatIfAdvisor
    from repro.compression.base import CompressionAlgorithm
    from repro.engine.engine import EstimationEngine
    from repro.storage.index import Index

    # storage: the index build on each sample (MaterializedSample
    # .index_for calls Index.build only on a miss).
    probe.wrap(Index, "build", "storage.index_build")

    # compression: size-only sizing of each sample index.
    probe.wrap(Index, "estimate_compression", "compression.size")

    # sampling: the engine's unit path looks both draws up in its own
    # module namespace at call time.
    probe.wrap(units, "materialize_table_sample", "sampling.materialize")
    probe.wrap(units, "materialize_histogram_sample",
               "sampling.materialize")

    # core: the closed-form CF models, reached through each algorithm
    # class that defines ``cf_from_histogram``.
    for name in dir(compression):
        cls = getattr(compression, name)
        if isinstance(cls, type) and issubclass(cls, CompressionAlgorithm) \
                and "cf_from_histogram" in vars(cls):
            probe.wrap(cls, "cf_from_histogram", "core.histogram_cf")

    # engine
    probe.wrap(EstimationEngine, "plan", "engine.plan")

    # The counts of every layer come from the batch's own stats; the
    # wrappers above only time the calls.
    def batch(result) -> dict:
        return {key: int(result.stats[key]) for key in BATCH_STATS}

    probe.wrap(EstimationEngine, "execute", "engine.execute", batch)

    # advisor
    def advised(result) -> dict:
        report = result.report
        return {"rounds": report.rounds,
                "units": report.units_executed,
                "saved": report.units_saved}

    probe.wrap(WhatIfAdvisor, "advise", "advisor.advise", advised)
    return probe


def totals(events: list[Event]) -> dict[str, dict[str, float]]:
    """Per call name: ``calls``, ``seconds`` and summed info fields."""
    table: dict[str, dict[str, float]] = {}
    for name, _, seconds, info in events:
        entry = table.setdefault(name, {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += seconds
        for key, value in info.items():
            entry[key] = entry.get(key, 0) + value
    return table


def layer_metrics(events: list[Event], ops: int, ops_per_s: float,
                  service: dict[str, float] | None = None,
                  ) -> dict[str, float]:
    """The per-layer metrics every workload reports, per op.

    ``ops_per_s`` is the traced run's own throughput, which set beside
    the untraced run's gives the tracing overhead. ``service`` holds
    the service-layer figures only ``service-mix`` measures. A layer
    the workload does not reach reads 0.
    """
    table = totals(events)

    def get(name: str, key: str) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    ms_per_op = 1000.0 / ops
    build = get("storage.index_build", "seconds")
    size = get("compression.size", "seconds")
    draw = get("sampling.materialize", "seconds")
    model = get("core.histogram_cf", "seconds")
    plan = get("engine.plan", "seconds")
    execute = get("engine.execute", "seconds")
    kernel = get("engine.execute", "size_kernel_hits")
    fallback = get("engine.execute", "size_scalar_fallbacks")
    hits = get("engine.execute", "sample_cache_hits")
    drawn = get("engine.execute", "samples_materialized")
    advise = get("advisor.advise", "seconds")
    return {
        "storage.index_build_ms": build * ms_per_op,
        "storage.indexes_built": get("engine.execute", "indexes_built") / ops,
        "compression.size_ms": size * ms_per_op,
        "compression.kernel_share": ratio(kernel, kernel + fallback),
        "sampling.materialize_ms": draw * ms_per_op,
        "sampling.rows_drawn": get("engine.execute",
                                   "sample_rows_drawn") / ops,
        "sampling.cache_hit_share": ratio(hits, hits + drawn),
        "core.histogram_cf_ms": model * ms_per_op,
        "engine.plan_ms": plan * ms_per_op,
        "engine.execute_ms": execute * ms_per_op,
        "engine.bookkeeping_ms": max(
            0.0, execute - build - size - draw - model - plan) * ms_per_op,
        "engine.batches": get("engine.execute", "calls") / ops,
        "engine.units": get("engine.execute", "trials") / ops,
        "engine.dedup_share": ratio(get("engine.execute", "unique_requests"),
                                    get("engine.execute", "requests")),
        "advisor.self_ms": (max(0.0, advise - execute) * ms_per_op
                            if advise else 0.0),
        "advisor.rounds": get("advisor.advise", "rounds") / ops,
        "advisor.units_executed": get("advisor.advise", "units") / ops,
        "advisor.trials_saved": get("advisor.advise", "saved") / ops,
        "service.outside_execute_ms": 0.0,
        "service.submissions_per_round": 0.0,
        **(service or {}),
        "trace.ops_per_s": ops_per_s,
    }
