"""The progressive loop as it ran before its update phase became a delta.

Kept as a test-local oracle (classes renamed, the scheduler the session
builds swapped for :class:`SweepScheduler`, URIs interned at its edge —
the decision's URI pair, a matcher's URI arguments):
``tests/core/test_progressive_differential.py`` drives these and the
classes in :mod:`repro.core` over the same corpora and requires equal
answers, pop for pop and float for float.

What the oracle still does and ``src/`` no longer does:

* :meth:`SweepSession.advance` re-estimates, after every match, every
  queued pair of both endpoints and of all their neighbours — whatever
  the benefit model — and charges the pairs it touched;
* :meth:`SweepScheduler.add_edges` fills the frontier one
  :meth:`~repro.core.scheduler.ComparisonScheduler.add_keys` call per
  edge;
* :class:`CopyingPropagator` and :class:`PairwiseEvidenceMatcher` build
  the out∪in neighbourhood union afresh, from two list copies, for every
  decision;
* :meth:`PairwiseEvidenceMatcher.neighbor_evidence` asks
  ``are_matched_ids`` for every neighbour pair.  Its *value* is the
  symmetric definition (the smaller of the two directed counts); the
  directed count it took over verbatim is :func:`_matched_into`.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.budget import CostBudget
from repro.core.benefit import QuantityBenefit
from repro.core.engine import ProgressiveResult, ResolutionContext
from repro.core.evidence_matcher import NeighborAwareMatcher
from repro.core.scheduler import ComparisonScheduler
from repro.core.session import ProgressiveSession
from repro.core.updater import NeighborEvidencePropagator
from repro.evaluation.progressive import ProgressiveCurve
from repro.metablocking.graph import WeightedEdge


class SweepScheduler(ComparisonScheduler):
    """Per-edge initial fill."""

    def add_edges(self, edges: Iterable[WeightedEdge]) -> int:
        added = 0
        key = self.context.key
        for edge in edges:
            added += self.add_keys([key(edge.left, edge.right)], [edge.weight])
        return added


class CopyingPropagator(NeighborEvidencePropagator):
    """Update phase over per-decision neighbourhood copies."""

    def on_match(self, left, right, scheduler, context) -> int:
        neighbors_left = self._neighborhood(left, context)
        neighbors_right = self._neighborhood(right, context)
        if not neighbors_left or not neighbors_right:
            return 0

        operations = 0
        touched = 0
        for n_left in neighbors_left:
            for n_right in neighbors_right:
                if touched >= self.max_neighbor_pairs:
                    return operations
                if n_left == n_right:
                    continue
                # Neighbours already known to co-refer need no evidence.
                if context.match_graph.are_matched_ids(n_left, n_right):
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

    def _neighborhood(self, entity_id: int, context) -> list[int]:
        neighbors = list(context.neighbor_ids(entity_id))
        if self.use_inverse_neighbors:
            seen = dict.fromkeys(neighbors)
            for other in context.inverse_neighbor_ids(entity_id):
                seen.setdefault(other)
            neighbors = list(seen)
        return neighbors


def _neighborhood(context, entity_id: int) -> list[int]:
    seen = dict.fromkeys(context.neighbor_ids(entity_id))
    for other in context.inverse_neighbor_ids(entity_id):
        seen.setdefault(other)
    return list(seen)


def _matched_into(graph, neighbors_a: list[int], neighbors_b: list[int]) -> int:
    """Members of *neighbors_a* matched with some member of *neighbors_b*."""
    matched = 0
    for left in neighbors_a:
        if left not in graph.partner_ids:  # not resolved
            continue
        if any(graph.are_matched_ids(left, right) for right in neighbors_b):
            matched += 1
    return matched


class PairwiseEvidenceMatcher(NeighborAwareMatcher):
    """Evidence from |Nₐ|·|N_b| ``are_matched_ids`` calls."""

    def neighbor_evidence(self, uri_a: str, uri_b: str) -> float:
        context = self._context
        if context is None or self.evidence_weight == 0:
            return 0.0
        get = context.interner.get
        neighbors_a = _neighborhood(context, get(uri_a))
        neighbors_b = _neighborhood(context, get(uri_b))
        if not neighbors_a or not neighbors_b:
            return 0.0
        graph = context.match_graph
        matched = min(
            _matched_into(graph, neighbors_a, neighbors_b),
            _matched_into(graph, neighbors_b, neighbors_a),
        )
        return matched / min(len(neighbors_a), len(neighbors_b))


class SweepSession(ProgressiveSession):
    """Full re-estimation sweep after every match."""

    def __init__(
        self,
        matcher,
        edges,
        collections,
        benefit=None,
        updater=None,
        gold=None,
        label=None,
        checkpoint_every: int = 10,
        scheduling_cost_weight: float = 0.0,
        refresh_estimates: bool = True,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.matcher = matcher
        self.benefit = benefit or QuantityBenefit()
        self.updater = updater
        self.gold = gold
        self.checkpoint_every = checkpoint_every
        self.refresh_estimates = refresh_estimates

        self.context = ResolutionContext(collections)
        self.matcher.bind(self.context)
        self.scheduler = SweepScheduler(self.benefit, self.context)
        self.scheduler.add_edges(edges)
        self.budget = CostBudget(0, scheduling_cost_weight=scheduling_cost_weight)

        self._blocked = {self.context.key(edge.left, edge.right) for edge in edges}
        self._found_gold = 0
        self._gold_total = len(gold.matches) if gold is not None else 0
        curve = ProgressiveCurve(label=label or self.benefit.name)
        self.result = ProgressiveResult(
            match_graph=self.context.match_graph, curve=curve, budget=self.budget
        )
        self._checkpoint()

    def advance(self, instalment: int | None = None) -> ProgressiveResult:
        if instalment is not None:
            if instalment < 0:
                raise ValueError("instalment must be non-negative")
            self.budget.grant(instalment)
        else:
            self.budget.max_cost = None

        scheduler = self.scheduler
        budget = self.budget
        context = self.context
        uris = context.uris
        graph = context.match_graph
        while scheduler and not budget.exhausted:
            key, _priority = scheduler.pop_key()
            if key in graph.rows:
                self.result.skipped_decided += 1
                continue
            a, b = context.oriented(key)
            decision = self.matcher.decide(uris[a], uris[b])
            budget.charge_comparison()
            graph.record_ids(a, b, decision.similarity, decision.is_match)
            if decision.is_match:
                self.result.benefit_total += self.benefit.realized_ids(a, b, context)
                if self.gold is not None and (uris[a], uris[b]) in self.gold.matches:
                    self._found_gold += 1
                if key not in self._blocked:
                    self.result.discovered_matches += 1
                if self.updater is not None:
                    operations = self.updater.on_match(a, b, scheduler, context)
                    budget.charge_scheduling(operations)
                if self.refresh_estimates:
                    refreshed = 0
                    touched = {a, b}
                    for entity_id in (a, b):
                        touched.update(context.neighbor_ids(entity_id))
                        touched.update(context.inverse_neighbor_ids(entity_id))
                    for entity_id in touched:
                        refreshed += scheduler.refresh_involving_ids((entity_id,))
                    budget.charge_scheduling(refreshed)
            if budget.comparisons_executed % self.checkpoint_every == 0:
                self._checkpoint()
        self._checkpoint()
        self.result.discovered_pairs = scheduler.discovered_pairs
        return self.result
