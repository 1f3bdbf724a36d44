"""The update phase: propagating matches as neighbour similarity evidence.

Blocking "may miss highly heterogeneous matching descriptions featuring
few common tokens" — the somehow-similar periphery pairs.  MinoanER's
answer is to exploit partial matching results: once descriptions *a₁*
(in KB1) and *a₂* (in KB2) are confirmed to match, every pair ``(n₁, n₂)``
of their respective neighbours becomes more plausible — two descriptions
related to the same real-world entity in the same way are themselves
candidates for co-reference.  The propagator therefore:

* **boosts** queued neighbour pairs by ``boost_factor`` (scaled by how
  many confirmed matches support them), and
* **discovers** neighbour pairs the blocking graph never proposed,
  injecting them with a baseline weight — the mechanism by which matches
  token blocking missed become reachable at all.

Propagation fan-out is capped to keep the update phase's cost bounded (it
is charged to the budget as scheduling operations).  Neighbourhoods are
the resolution context's memoised out∪in id tuples, in out-then-in
order, and the match is propagated in URI order (left endpoint's
neighbours outermost) — the cap makes both orders observable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ResolutionContext
    from repro.core.scheduler import ComparisonScheduler


class NeighborEvidencePropagator:
    """Propagates confirmed matches to neighbour comparisons.

    Args:
        boost_factor: evidence weight added to each influenced pair per
            confirmed supporting match (E7 sweeps this).
        discovery_weight: base weight given to newly discovered pairs
            (those blocking missed); ``0`` disables discovery and the
            update phase only re-ranks existing candidates.
        max_neighbor_pairs: fan-out cap per confirmed match — at most this
            many neighbour pairs are touched, keeping per-match update
            cost constant.
        use_inverse_neighbors: also propagate along incoming relationship
            edges (descriptions that *reference* the matched ones).
    """

    def __init__(
        self,
        boost_factor: float = 1.0,
        discovery_weight: float = 0.5,
        max_neighbor_pairs: int = 64,
        use_inverse_neighbors: bool = True,
    ) -> None:
        if boost_factor < 0:
            raise ValueError("boost_factor must be non-negative")
        if discovery_weight < 0:
            raise ValueError("discovery_weight must be non-negative")
        if max_neighbor_pairs < 1:
            raise ValueError("max_neighbor_pairs must be >= 1")
        self.boost_factor = boost_factor
        self.discovery_weight = discovery_weight
        self.max_neighbor_pairs = max_neighbor_pairs
        self.use_inverse_neighbors = use_inverse_neighbors
        #: counters for diagnostics / E7
        self.boosted = 0
        self.discovered = 0

    def on_match(
        self,
        left: int,
        right: int,
        scheduler: "ComparisonScheduler",
        context: "ResolutionContext",
    ) -> int:
        """Propagate the confirmed match of context ids *left* and
        *right* (in URI order).

        Returns:
            The number of scheduling operations performed (to be charged
            to the budget).
        """
        neighborhood = (
            context.neighborhood_ids if self.use_inverse_neighbors else context.neighbor_ids
        )
        neighbors_left = neighborhood(left)
        neighbors_right = neighborhood(right)
        if not neighbors_left or not neighbors_right:
            return 0

        are_matched = context.match_graph.are_matched_ids
        operations = 0
        touched = 0
        for n_left in neighbors_left:
            for n_right in neighbors_right:
                if touched >= self.max_neighbor_pairs:
                    return operations
                if n_left == n_right:
                    continue
                # Neighbours already known to co-refer need no evidence.
                if are_matched(n_left, n_right):
                    continue
                # Descriptions of the same KB never match in clean-clean ER.
                if context.same_source_ids(n_left, n_right):
                    continue
                touched += 1
                operations += 1
                if scheduler.boost_ids(n_left, n_right, self.boost_factor):
                    self.boosted += 1
                elif self.discovery_weight > 0:
                    if scheduler.discover_ids(n_left, n_right, self.discovery_weight):
                        self.discovered += 1
        return operations
