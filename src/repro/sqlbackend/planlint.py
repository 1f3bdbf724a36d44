"""Plan linter: every join of the compiled pipeline runs on a key.

Works on the plans a :class:`~repro.sqlbackend.engine.Session` captures
(``SqlMetaBlocker.plans``: stage → ``(sql, [PlanRow, ...])``).  sqlite
reports a join as sibling ``SCAN``/``SEARCH`` rows under one parent:
the first is the outer loop, each later one runs once per row of the
loops before it.  An inner ``SEARCH`` probes an index; an inner ``SCAN``
reads its whole table per outer row — the quadratic plan this backend
must never ship.  DuckDB plans are flat text (hash joins, no loops) and
lint clean by construction.
"""

from __future__ import annotations

from repro.sqlbackend.engine import PlanRow, statement_head

Plans = dict[str, list[tuple[str, list[PlanRow]]]]


def nested_scans(plan: list[PlanRow]) -> list[str]:
    """Details of the plan's inner-loop full scans (empty = keyed)."""
    joined: set[int] = set()  # parents that already have an outer loop
    found = []
    for row in plan:
        if row.detail.startswith(("SCAN ", "SEARCH ")):
            if row.parent in joined and row.detail.startswith("SCAN "):
                found.append(row.detail)
            joined.add(row.parent)
    return found


def automatic_indexes(plan: list[PlanRow]) -> list[str]:
    """Details of the probes answered by a per-run automatic index."""
    return [row.detail for row in plan if "AUTOMATIC" in row.detail]


def _statements(plans: Plans, check):
    for stage, entries in plans.items():
        for sql, plan in entries:
            for detail in check(plan):
                yield f"{stage}: {statement_head(sql)}: {detail}"


def lint(plans: Plans) -> list[str]:
    """``stage: statement head: detail`` per nested scan; empty = pass."""
    return list(_statements(plans, nested_scans))


def automatic(plans: Plans) -> list[str]:
    """Same shape as :func:`lint`, for automatic-index probes."""
    return list(_statements(plans, automatic_indexes))


def render(plan: list[PlanRow]) -> list[str]:
    """Plan rows as text, indented by their depth in the plan tree."""
    depth = {0: 0}
    lines = []
    for row in plan:
        depth[row.id] = depth.get(row.parent, 0) + 1
        lines.append("  " * (depth[row.id] - 1) + row.detail)
    return lines
