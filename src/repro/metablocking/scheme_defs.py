"""The six weighting-scheme formulas, defined exactly once.

Every execution surface — the array kernels and the string plugin API of
:mod:`repro.metablocking.weighting` (which the sequential and MapReduce
backends flow through, and which a stream query calls over its star of
candidates, :meth:`~repro.stream.pairs.DeltaPairTable.weigh`) and the
relational backend's SQL compiler (:mod:`repro.sqlbackend.compile`) —
consumes the definitions in this module, so a formula lives in one
place and the cross-backend bit-identity contract has a single source
of truth.

Three kinds of definition per scheme:

* **factor kernels** (:func:`ecbs_log_factors`, :func:`ejs_log_factors`)
  — the per-entity log discounts, computed with ``math.log`` (never
  ``np.log``, which can differ in the last ulp) once per entity;
* **weight kernels** — the per-pair expressions.  Where the expression
  is a plain arithmetic product it is written polymorphically (the same
  function serves python scalars and numpy arrays); where a guard is
  needed (JS's ``union > 0``, χ²'s ``expected > 0``) scalar and array
  variants share the cell/term enumeration;
* **SQL expressions** (:data:`SQL_WEIGHT_EXPRS`) — the identical
  formulas as SQL over a joined pair-statistics row ``ps`` (columns
  ``common``, ``arcs``) and per-entity factor rows ``fa``/``fb``
  (columns ``placements``, ``ecbs``, ``ejs``) with the named parameter
  ``:total_blocks``.  Expression shapes mirror the array kernels
  operator for operator (same associativity, same int→float promotion
  points), which keeps sqlite/DuckDB REAL results bit-identical to the
  numpy float64 path.
"""

from __future__ import annotations

import math

import numpy as _np

#: canonical scheme names, in the table order used by sweeps
SCHEME_NAMES = ("CBS", "ECBS", "JS", "EJS", "ARCS", "X2")


# -- per-entity factor kernels ----------------------------------------------


def ecbs_log_factor(total_blocks: int, count: int) -> float:
    """ECBS discount for one entity: ``log((B + 1) / |B_i|)``.

    The +1 smoothing keeps entities present in *every* block from
    zeroing the weight outright while preserving the discount ordering.
    An unplaced entity (count 0) falls back to one placement, matching
    the scalar path's ``.get(uri, 1)`` smoothing.
    """
    return math.log((total_blocks + 1) / (count if count else 1))


def ecbs_log_factors(total_blocks: int, placement_counts) -> list[float]:
    """ECBS discounts for all entities, one ``math.log`` per entity."""
    return [ecbs_log_factor(total_blocks, count) for count in placement_counts]


def ejs_log_factor(edge_count: int, degree: int) -> float:
    """EJS discount for one entity: ``log((E + 1) / deg_i)``.

    Isolated entities (degree 0) fall back to degree 1, matching the
    scalar path's ``.get(uri, 1)`` smoothing.
    """
    return math.log((edge_count + 1) / (degree if degree else 1))


def ejs_log_factors(edge_count: int, degrees) -> list[float]:
    """EJS discounts for all entities, one ``math.log`` per entity."""
    return [ejs_log_factor(edge_count, degree) for degree in degrees]


# -- weight kernels ---------------------------------------------------------


def cbs_weight(common):
    """CBS: the raw common-block count as a float."""
    return float(common)


def cbs_weights(common):
    """CBS, vectorized: float64 view of the common-block counts."""
    return common.astype(_np.float64)


def factor_product(base, factor_a, factor_b):
    """``base · f_a · f_b`` — the ECBS/EJS shape, scalar or array.

    Left-to-right association is part of the bit-identity contract;
    callers must pass ``factor_a`` for the endpoint whose URI sorts
    first.
    """
    return base * factor_a * factor_b


def js_union(count_a, count_b, common):
    """Size of the union of two entities' block sets, scalar or array."""
    return count_a + count_b - common


def js_weight(common, union) -> float:
    """JS scalar: ``common / union`` guarded against an empty union."""
    if union <= 0:
        return 0.0
    return common / union


def js_weights(common, union):
    """JS vectorized: guarded elementwise division (zeros elsewhere)."""
    weights = _np.zeros(len(common), dtype=_np.float64)
    _np.divide(common, union, out=weights, where=union > 0)
    return weights


def arcs_weight(arcs):
    """ARCS: the precomputed reciprocal-cardinality sum, as-is."""
    return arcs


def contingency_cells(in_a, in_b, common, total):
    """χ²'s 2×2 contingency cells as ``(row_sum, col_sum, observed)``.

    Fixed (row, col) iteration order — the accumulation order of the
    four (O−E)²/E terms is observable in the float result, so every
    path iterates these cells identically.  Works elementwise on numpy
    arrays and on python ints alike.
    """
    return (
        (in_a, in_b, common),
        (in_a, total - in_b, in_a - common),
        (total - in_a, in_b, in_b - common),
        (total - in_a, total - in_b, total - in_a - in_b + common),
    )


def chi_square_statistic(common, in_a, in_b, total) -> float:
    """χ² scalar: sum of (O−E)²/E over the contingency cells."""
    statistic = 0.0
    for row, col, observed in contingency_cells(in_a, in_b, common, total):
        expected = row * col / total
        if expected > 0:
            deviation = observed - expected
            statistic += deviation * deviation / expected
    return statistic


def chi_square_weights(common, in_a, in_b, total):
    """χ² vectorized: same cells, same order, terms zeroed where E≤0."""
    statistic = _np.zeros(len(common), dtype=_np.float64)
    for row, col, observed in contingency_cells(in_a, in_b, common, total):
        expected = row * col / total
        term = _np.zeros_like(statistic)
        deviation = observed - expected
        _np.divide(deviation * deviation, expected, out=term, where=expected > 0)
        statistic = statistic + term
    return statistic


# -- SQL expressions --------------------------------------------------------

_JS_UNION_SQL = "(fa.placements + fb.placements - ps.common)"

#: JS as SQL: the CAST promotes the division to REAL before the guard's
#: zero fallback — int/int would truncate on sqlite.
_JS_SQL = (
    f"(CASE WHEN {_JS_UNION_SQL} > 0 "
    f"THEN CAST(ps.common AS REAL) / {_JS_UNION_SQL} ELSE 0.0 END)"
)


class _Sym:
    """Symbolic SQL operand: lets :func:`contingency_cells` itself emit
    the SQL cell expressions, so the SQL cell order provably matches
    the python/numpy kernels."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __add__(self, other: "_Sym") -> "_Sym":
        return _Sym(f"({self.text} + {other.text})")

    def __sub__(self, other: "_Sym") -> "_Sym":
        return _Sym(f"({self.text} - {other.text})")


def _chi_square_sql() -> str:
    """χ² as SQL: four guarded (O−E)²/E terms, summed left-to-right."""
    terms = []
    cells = contingency_cells(
        _Sym("fa.placements"),
        _Sym("fb.placements"),
        _Sym("ps.common"),
        _Sym(":total_blocks"),
    )
    for row, col, observed in cells:
        expected = f"(CAST({row.text} * {col.text} AS REAL) / :total_blocks)"
        deviation = f"({observed.text} - {expected})"
        terms.append(
            f"(CASE WHEN {expected} > 0 "
            f"THEN ({deviation} * {deviation}) / {expected} ELSE 0.0 END)"
        )
    return " + ".join(terms)


#: scheme name → SQL weight expression (see module docstring for the
#: ps/fa/fb alias contract)
SQL_WEIGHT_EXPRS: dict[str, str] = {
    "CBS": "CAST(ps.common AS REAL)",
    "ECBS": "ps.common * fa.ecbs * fb.ecbs",
    "JS": _JS_SQL,
    "EJS": f"{_JS_SQL} * fa.ejs * fb.ejs",
    "ARCS": "ps.arcs",
    "X2": _chi_square_sql(),
}
