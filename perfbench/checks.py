"""Reference values computed apart from the estimation path, and checks.

The exact CF of a table index comes from the full-table index sized
with the scalar :meth:`Index.compress` — no engine, no sampler, no
size kernel. The exact CF of a histogram comes from
:func:`true_cf_histogram` on the full histogram. Every check returns a
one-line problem, or ``None`` when the output is right;
``selftest.py`` feeds each one a perturbed value and expects a
problem back.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Any, Sequence

#: Theorem 1 bounds the standard deviation of one null-suppression
#: trial by 1/2 * sqrt(1/r). An estimate farther than this many of
#: those from the exact CF fails; a correct estimator gets there with
#: probability below 1e-8 per estimate, so a failure is a fault.
THEOREM1_Z = 6.0


def exact_table_cfs(table: Any, columns: Sequence[str],
                    algorithms: Sequence[str], kind: Any,
                    page_size: int) -> dict[str, float]:
    """Exact CF per algorithm of the full index on ``columns``."""
    from repro.compression.registry import get_algorithm
    from repro.storage.index import Index

    index = Index("reference", table.schema, tuple(columns), kind=kind,
                  page_size=page_size)
    index.build([(row, table.rid_at(position))
                 for position, row in enumerate(table.rows())])
    return {name: index.compress(get_algorithm(name)).compression_fraction
            for name in algorithms}


def sample_rows(n: int, fraction: float) -> int:
    """The paper's sample size ``r = f * n``, rounded, at least one."""
    return max(1, round(fraction * n))


def theorem1_slack(rows: int) -> float:
    """How far one null-suppression trial may sit from the exact CF."""
    return THEOREM1_Z * 0.5 * math.sqrt(1.0 / rows)


def check_ns_bound(label: str, estimate: float, exact: float,
                   rows: int) -> str | None:
    slack = theorem1_slack(rows)
    if abs(estimate - exact) <= slack:
        return None
    return (f"{label}: null-suppression estimate {estimate!r} is "
            f"{abs(estimate - exact):.4f} from the exact CF {exact!r}, "
            f"beyond Theorem 1's {slack:.4f} at r={rows}")


def check_equal(label: str, value: float, exact: float) -> str | None:
    if value == exact:
        return None
    return f"{label}: {value!r} != exact {exact!r}"


def check_fits(label: str, bytes_used: float,
               bound: float) -> str | None:
    if bytes_used <= bound:
        return None
    return f"{label}: design uses {bytes_used!r} B over the {bound!r} B bound"


def design_of(result: Any) -> tuple:
    """Everything that makes two advisor designs the same design."""
    return (tuple((c.table, c.key_columns, c.compressed, c.algorithm,
                   c.size_bytes) for c in result.chosen),
            tuple(result.steps), result.bytes_used, result.cost_after)


def check_same_design(label: str, lazy: Any, eager: Any) -> str | None:
    if design_of(lazy) == design_of(eager):
        return None
    return (f"{label}: lazy design {design_of(lazy)[0]} differs from "
            f"eager {design_of(eager)[0]}")


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def check_identical(label: str, served: Any, reference: Any) -> str | None:
    if canonical(served) == canonical(reference):
        return None
    return f"{label}: service results differ from estimate-batch"


def estimate_batch_results(spec: dict, scratch: Path) -> list:
    """``results`` of ``repro estimate-batch`` run on ``spec`` alone.

    Runs the CLI entry point in this process on a spec file, with a
    fresh engine, exactly as ``python -m repro estimate-batch`` would.
    """
    from repro import cli

    path = scratch / "reference-spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["estimate-batch", str(path)])
    if code != 0:
        raise RuntimeError(f"estimate-batch exited {code}")
    return json.loads(out.getvalue())["results"]


@contextlib.contextmanager
def shared_workloads():
    """Build each distinct workload spec once across CLI reference runs.

    Workload generation is a pure function of its spec, so sharing the
    built histogram changes no result; it keeps hundreds of reference
    runs from regenerating the same inputs.
    """
    from repro.service import schemas

    original = schemas.build_batch_workload
    built: dict[str, dict] = {}

    def build(name: str, spec: Any) -> dict:
        key = schemas.canonical_spec_key(name, spec)
        if key not in built:
            built[key] = original(name, spec)
        return built[key]

    schemas.build_batch_workload = build
    try:
        yield
    finally:
        schemas.build_batch_workload = original
