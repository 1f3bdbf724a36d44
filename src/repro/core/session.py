"""Resumable pay-as-you-go resolution sessions.

The poster frames MinoanER as pay-as-you-go: resolution quality grows as
more budget is invested, and the consumer decides when (and whether) to
continue.  :class:`ProgressiveSession` makes that contract literal — it
owns the live state of one resolution (scheduler frontier, match graph,
consumed budget, progressive curve) and exposes :meth:`advance`, which
consumes an *instalment* of comparisons and returns, so the caller can
inspect intermediate quality, change their mind, or grant more budget
later.  ``ProgressiveER.run`` is a session drained in one instalment.

The loop speaks context ids end to end: edges are interned once, the
scheduler pops packed id pairs, the matcher decides them in URI
orientation (:meth:`~repro.matching.matcher.Matcher.decide_ids`) and the
match graph records columns — one call each per comparison; URIs and
``MatchDecision`` objects are derived from it only for the report.

The update phase after a confirmed match is a delta: the propagator
boosts or discovers the neighbour pairs, and only the queued pairs the
benefit model declares stale (:meth:`~repro.core.benefit.BenefitModel.
stale_after`) are re-estimated.  The scheduling charge does not depend
on the model: it is the number of queued pairs touching the match's
endpoints or their neighbours.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.core.benefit import BenefitModel, QuantityBenefit
from repro.core.budget import CostBudget
from repro.core.engine import ProgressiveResult, ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.core.updater import NeighborEvidencePropagator
from repro.datasets.gold import GoldStandard
from repro.evaluation.progressive import ProgressiveCurve
from repro.matching.matcher import Matcher
from repro.metablocking.graph import WeightedEdge, pack_pair_arrays
from repro.model.collection import EntityCollection
from repro.model.interner import PAIR_MASK, PAIR_SHIFT

_LEFT, _RIGHT, _WEIGHT = map(attrgetter, ("left", "right", "weight"))


class ProgressiveSession:
    """Live state of one progressive resolution.

    Args:
        matcher: pairwise decider (bound to the session's context).
        edges: candidate comparisons surviving meta-blocking.
        collections: the input KBs.
        benefit: targeted benefit model (default: quantity).
        updater: neighbour-evidence propagator, or ``None`` for a static
            schedule.
        gold: optional ground truth — recall instrumentation only.
        label: progressive-curve label.
        checkpoint_every: curve sampling period, in comparisons.
        scheduling_cost_weight: forwarded to the session budget.
        refresh_estimates: after each match, re-estimate the queued pairs
            the benefit model declares stale (see
            :class:`~repro.core.engine.ProgressiveER`).

    The session starts with a **zero** budget: nothing is resolved until
    the first :meth:`advance`.
    """

    def __init__(
        self,
        matcher: Matcher,
        edges: list[WeightedEdge],
        collections: list[EntityCollection],
        benefit: BenefitModel | None = None,
        updater: NeighborEvidencePropagator | None = None,
        gold: GoldStandard | None = None,
        label: str | None = None,
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

        self.context = context = ResolutionContext(collections)
        self.matcher.attach(context)
        # The edges become two id columns once; the keys pack from them.
        sides = list(map(_LEFT, edges)), list(map(_RIGHT, edges))
        try:
            columns = list(map(context.interner.ids_of, sides))
        except KeyError:  # a URI no collection describes: intern it as key() does
            for left, right in zip(*sides):
                context.key(left, right)
            columns = list(map(context.interner.ids_of, sides))
        ids_a, ids_b = (np.array(ids, dtype=np.int64) for ids in columns)
        same = np.flatnonzero(ids_a == ids_b)
        if len(same):
            raise ValueError(f"self-comparison: {sides[0][same[0]]!r}")
        keys = pack_pair_arrays(ids_a, ids_b).tolist()
        # Batch pre-scoring: the candidate set is known up front, so
        # matchers with a vectorized path (TF-IDF cosine) score every
        # pair at once; bit-identical to scoring inside the loop.
        self.matcher.prime(ids_a, ids_b)
        self.scheduler = ComparisonScheduler(self.benefit, context)
        self.scheduler.add_keys(keys, list(map(_WEIGHT, edges)))
        self.budget = CostBudget(0, scheduling_cost_weight=scheduling_cost_weight)

        self._blocked_keys = set(keys)
        #: canonical gold pairs: a match is looked up as its URI-ordered pair
        self._gold_pairs = matches = gold.matches if gold is not None else frozenset()
        self._found_gold = 0
        self._gold_total = len(matches)
        curve = ProgressiveCurve(label=label or self.benefit.name)
        self.result = ProgressiveResult(
            match_graph=self.context.match_graph, curve=curve, budget=self.budget
        )
        self._checkpoint()

    # -- state inspection ---------------------------------------------------

    @property
    def pending_comparisons(self) -> int:
        """Comparisons still queued."""
        return len(self.scheduler)

    @property
    def finished(self) -> bool:
        """True when the frontier is empty — no grant can make progress."""
        return not self.scheduler

    @property
    def recall(self) -> float:
        """Current recall against the session gold (0.0 when no gold)."""
        if not self._gold_total:
            return 0.0
        return self._found_gold / self._gold_total

    def matched_pairs(self) -> set[tuple[str, str]]:
        """Pairs matched so far."""
        return self.context.match_graph.matched_pairs()

    # -- execution -------------------------------------------------------------

    def advance(self, instalment: int | None = None) -> ProgressiveResult:
        """Grant *instalment* more comparisons and resolve until consumed.

        Args:
            instalment: comparisons to add to the budget; ``None`` removes
                the limit and drains the frontier completely.

        Returns:
            The live :class:`ProgressiveResult` (shared across instalments;
            its curve spans the whole session).
        """
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
        decided, record = graph.rows, graph.record_ids
        pop_key, decide = scheduler.pop_key, self.matcher.decide_ids
        benefit = self.benefit
        result = self.result
        # A comparison is three calls: pop, decide, record.  The budget
        # test, the orientation and the checkpoint test are inline.
        unlimited = budget.max_cost is None
        while unlimited or not budget.exhausted:
            try:
                key, _priority = pop_key()
            except IndexError:  # the frontier is empty
                break
            if key in decided:
                result.skipped_decided += 1
                continue
            a, b = key >> PAIR_SHIFT, key & PAIR_MASK
            if uris[b] < uris[a]:  # scored and reported in URI order
                a, b = b, a
            score, is_match = decide(a, b)
            budget.comparisons_executed += 1  # charge_comparison: not exhausted
            record(a, b, score, is_match)
            if is_match:
                result.benefit_total += benefit.realized_ids(a, b, context)
                if (uris[a], uris[b]) in self._gold_pairs:
                    self._found_gold += 1
                if key not in self._blocked_keys:
                    result.discovered_matches += 1
                if self.updater is not None:  # charge_scheduling, inlined
                    budget.scheduling_operations += self.updater.on_match(
                        a, b, scheduler, context
                    )
                if self.refresh_estimates:
                    # The charge is the match's queued vicinity whatever
                    # the model; only what it declares stale is re-estimated.
                    budget.scheduling_operations += scheduler.count_involving(
                        context.vicinity_ids(a, b)
                    )
                    stale = set(benefit.stale_after(a, b, context))
                    if stale:
                        scheduler.refresh_involving_ids(stale)
            if budget.comparisons_executed % self.checkpoint_every == 0:
                self._checkpoint()
        self._checkpoint()
        result.discovered_pairs = scheduler.discovered_pairs
        return result

    def _checkpoint(self) -> None:
        values = {"benefit": self.result.benefit_total}
        if self.gold is not None:
            values["recall"] = self.recall
        self.result.curve.record(self.budget.comparisons_executed, **values)
