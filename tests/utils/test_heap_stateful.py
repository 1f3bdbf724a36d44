"""Stateful (model-based) test of the addressable heap.

Hypothesis drives random interleavings of push/update/pop against
a naive dictionary model; any divergence in observable behaviour
(membership, priorities, pop order) is a bug.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from core.id_views import live
from repro.utils.heap import AddressableMaxHeap

keys = st.integers(0, 20)
priorities = st.floats(-1000, 1000, allow_nan=False)


class HeapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.heap: AddressableMaxHeap[int] = AddressableMaxHeap()
        self.model: dict[int, float] = {}
        self.insertion_order: dict[int, int] = {}
        self.counter = 0

    @rule(key=keys, priority=priorities)
    def push_or_update(self, key, priority):
        if key in self.model:
            self.heap.update(key, priority)
        else:
            self.heap.push(key, priority)
            self.insertion_order[key] = self.counter
            self.counter += 1
        self.model[key] = priority

    @precondition(lambda self: self.model)
    @rule()
    def pop_max(self):
        key, priority = self.heap.pop()
        best = max(
            self.model.items(),
            key=lambda kv: (kv[1], -self.insertion_order[kv[0]]),
        )
        assert priority == best[1]
        assert priority == self.model.pop(key)
        del self.insertion_order[key]

    @invariant()
    def sizes_agree(self):
        assert len(self.heap) == len(self.model)

    @invariant()
    def membership_and_priorities_agree(self):
        for key in self.model:
            assert key in self.heap
        assert live(self.heap) == self.model


TestHeapMachine = HeapMachine.TestCase
TestHeapMachine.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
