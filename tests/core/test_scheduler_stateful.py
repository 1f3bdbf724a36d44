"""Stateful test of the comparison scheduler's id API against a naive model."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.core.benefit import QuantityBenefit
from repro.core.engine import ResolutionContext
from repro.core.scheduler import ComparisonScheduler
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription

from .id_views import priorities, unpack

entities = st.integers(0, 12)
weights = st.floats(0.01, 100, allow_nan=False)


def make_context() -> ResolutionContext:
    collection = EntityCollection(
        [EntityDescription(f"http://e/{i}", {"p": [f"v{i}"]}) for i in range(13)],
        name="kb",
    )
    return ResolutionContext([collection])


def at_least(value: float, bound: float) -> bool:
    """``value >= bound`` up to float-order slack: model and scheduler
    accumulate boosts in different orders."""
    return value >= bound - max(1e-9 * abs(bound), 1e-9)


class SchedulerMachine(RuleBasedStateMachine):
    """With the quantity benefit, priority == base weight + boosts; the
    model tracks exactly that, per packed key, and checks pop order and
    bookkeeping.  Entities are drawn as numbers and interned once."""

    def __init__(self):
        super().__init__()
        self.scheduler = ComparisonScheduler(QuantityBenefit(), make_context())
        self.queued: dict[int, float] = {}
        self.popped: set[int] = set()

    def key(self, a: int, b: int) -> int:
        return self.scheduler.context.key(f"http://e/{a}", f"http://e/{b}")

    def priority(self, key: int) -> float:
        return priorities(self.scheduler)[key]

    @rule(a=entities, b=entities, weight=weights)
    def schedule(self, a, b, weight):
        if a == b:
            return
        key = self.key(a, b)
        added = self.scheduler.add_keys([key], [weight])
        if key in self.popped:
            assert added == 0
        elif key in self.queued:
            assert added == 0
            # Base weight merges to the max; boosts are preserved, so the
            # model priority only changes when the new base is larger.
            assert at_least(self.priority(key), max(weight, self.queued[key]))
            self.queued[key] = self.priority(key)
        else:
            assert added == 1
            self.queued[key] = weight

    @precondition(lambda self: self.queued)
    @rule(delta=st.floats(0.01, 20), data=st.data())
    def boost(self, delta, data):
        key = data.draw(st.sampled_from(sorted(self.queued)))
        assert self.scheduler.boost_ids(*unpack(key), delta) is True
        self.queued[key] += delta

    @rule(a=entities, b=entities, delta=weights)
    def boost_unqueued_is_noop(self, a, b, delta):
        if a == b:
            return
        key = self.key(a, b)
        if key not in self.queued:
            assert self.scheduler.boost_ids(*unpack(key), delta) is False

    @precondition(lambda self: self.queued)
    @rule()
    def pop_is_maximal(self):
        key, priority = self.scheduler.pop_key()
        assert priority == pytest.approx(self.queued[key], rel=1e-9, abs=1e-9)  # float order
        assert at_least(priority, max(self.queued.values()))
        del self.queued[key]
        self.popped.add(key)

    @precondition(lambda self: self.popped)
    @rule(data=st.data(), weight=weights)
    def popped_pairs_never_resurrect(self, data, weight):
        key = data.draw(st.sampled_from(sorted(self.popped)))
        assert self.scheduler.add_keys([key], [weight]) == 0
        assert self.scheduler.discover_ids(*unpack(key), weight) is False
        assert key not in self.scheduler._heap

    @invariant()
    def sizes_agree(self):
        assert len(self.scheduler) == len(self.queued)


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
