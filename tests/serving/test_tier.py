"""The real multiprocessing tier: equivalence, faults, recovery.

Each test spawns actual shard processes (fork), injects the fault it
studies — SIGKILL death, SIGSTOP freeze, main-loop stall, torn
durability writes — and pins the robustness contract: queries keep
answering (failover), respawned shards catch up (WAL recovery +
re-drive), results stay bit-identical to a single-store oracle, and
when recovery is disabled the degradation is labelled, never silent.

Process tests are kept small (dozens of events) so the whole module
stays a few seconds; scale behavior lives in the benchmark.
"""

from __future__ import annotations

import os
import threading
import time
import types

import pytest

from repro.datasets import load_restaurants
from repro.model.description import EntityDescription
from repro.serving import messages, router as router_module
from repro.serving import (
    DEAD,
    LIVE,
    HedgePolicy,
    RetryPolicy,
    Router,
    parse_fault,
    run_open_loop,
    verify_equivalence,
)
from repro.stream import StreamResolver
from repro.stream.store import StreamingEntityStore
from repro.stream.workload import uniform_workload

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="the serving tier needs fork + POSIX signals"
)


@pytest.fixture(scope="module")
def events():
    kb1, kb2, _ = load_restaurants()
    return uniform_workload(kb1, kb2, query_every=4, seed=3)


def drive(router, events):
    """Replay events through the tier; returns the non-delete results."""
    results = []
    for event in events:
        if event.kind == "delete":
            router.delete(event.description.uri)
        else:
            results.append(
                router.resolve(
                    event.description,
                    event.source,
                    ingest=event.kind == "insert",
                )
            )
    return results


def oracle_results(events):
    resolver = StreamResolver(StreamingEntityStore(sources=("kb1", "kb2")))
    out = []
    for event in events:
        if event.kind == "delete":
            resolver.delete(event.description.uri)
        else:
            out.append(
                resolver.resolve(
                    event.description,
                    source=event.source,
                    ingest=event.kind == "insert",
                )
            )
    return out


def queries_of(events, limit=15):
    return [
        (event.description, event.source)
        for event in events
        if event.kind != "delete"
    ][:limit]


class TestHealthyTier:
    def test_live_path_bit_identical_to_single_store(self, events, monkeypatch):
        def no_sleep(_seconds):
            raise AssertionError("the router slept on a timer")

        # Only the router module's view of ``time``: the shards' heartbeat
        # threads (forked from this process) keep the real one.
        monkeypatch.setattr(
            router_module, "time",
            types.SimpleNamespace(
                monotonic=time.monotonic, perf_counter=time.perf_counter,
                sleep=no_sleep,
            ),
        )
        threads = set(threading.enumerate())
        with Router(2, query_timeout_s=10.0) as router:
            got = drive(router, events)
            assert router.sync(timeout_s=10.0)
            # One thread, before and after: no queue feeders.
            assert set(threading.enumerate()) == threads
            assert all(t.name != "QueueFeederThread" for t in threads)
            assert router.stats.transit_hist.count == len(got)
        want = oracle_results(events)
        assert len(got) == len(want)
        for tier, oracle in zip(got, want):
            assert tier.matches == oracle.matches
            assert tier.candidates == oracle.candidates
            assert tier.comparisons == oracle.comparisons
            assert not tier.degraded
            # Compute or transport: the two always add up to the fan-out.
            latency = tier.latency
            assert 0.0 <= latency["shard_s"] <= latency["fanout_s"]
            assert latency["shard_s"] + latency["transit_s"] == pytest.approx(
                latency["fanout_s"], abs=1e-12
            )
        assert any(tier.latency["shard_s"] > 0.0 for tier in got)

    def test_verify_equivalence_passes(self, events):
        with Router(3, query_timeout_s=10.0) as router:
            drive(router, events[:40])
            report = verify_equivalence(router, queries_of(events[:40]))
            wnp = verify_equivalence(router, queries_of(events[:40]), pruner="WNP")
        assert report.ok, report.mismatches
        assert report.checked == len(queries_of(events[:40]))
        assert wnp.ok, wnp.mismatches
        assert wnp.checked == report.checked

    def test_bad_source_and_bad_names_never_reach_a_shard(self, events):
        description = events[0].description
        with Router(2, query_timeout_s=10.0) as router:
            with pytest.raises(IndexError):
                router.ingest(description, -1)
            for bad in ({"scheme": "nope"}, {"pruner": "nope"}):
                with pytest.raises(KeyError, match="nope"):
                    router.resolve(description, 0, **bad)
            assert router.log == [] and router.store.version == 0
            assert router.sync(timeout_s=10.0)  # every shard still serving

    def test_sync_reaches_all_shards(self, events):
        with Router(2, query_timeout_s=10.0) as router:
            for event in events[:20]:
                if event.kind != "delete":
                    router.ingest(event.description, event.source)
            assert router.sync(timeout_s=10.0)


class TestKillAndRecovery:
    def test_kill_fails_over_without_degradation(self, events):
        with Router(
            2, query_timeout_s=10.0, heartbeat_deadline_s=0.5,
            retry=RetryPolicy(attempts=3, timeout_s=0.5),
        ) as router:
            results = []
            for index, event in enumerate(events[:60]):
                if index == 15:
                    router.shards[1].kill()
                if event.kind == "delete":
                    router.delete(event.description.uri)
                else:
                    results.append(
                        router.resolve(
                            event.description, event.source,
                            ingest=event.kind == "insert",
                        )
                    )
            assert all(not r.degraded for r in results)
            assert router.stats.shard_deaths == 1
            assert router.stats.respawns == 1
            assert router.stats.failovers >= 1
            assert router.stats.time_to_healthy_hist.count == 1
            # The respawned shard caught up: full-tier sync + oracle
            # equivalence both hold after recovery.
            report = verify_equivalence(router, queries_of(events[:60]))
            assert report.ok, report.mismatches

    def test_post_recovery_results_match_oracle(self, events):
        subset = events[:50]
        with Router(
            2, query_timeout_s=10.0, heartbeat_deadline_s=0.5,
            retry=RetryPolicy(attempts=3, timeout_s=0.5),
        ) as router:
            got = []
            for index, event in enumerate(subset):
                if index == 10:
                    router.shards[0].kill()
                if event.kind == "delete":
                    router.delete(event.description.uri)
                else:
                    got.append(
                        router.resolve(
                            event.description, event.source,
                            ingest=event.kind == "insert",
                        )
                    )
        want = oracle_results(subset)
        for tier, oracle in zip(got, want):
            assert tier.matches == oracle.matches
            assert tier.comparisons == oracle.comparisons

    def test_freeze_detected_as_stuck_and_respawned(self, events):
        with Router(
            2, query_timeout_s=15.0, heartbeat_deadline_s=0.4,
            retry=RetryPolicy(attempts=4, timeout_s=0.3),
        ) as router:
            for event in events[:10]:
                if event.kind != "delete":
                    router.resolve(
                        event.description, event.source,
                        ingest=event.kind == "insert",
                    )
            router.shards[1].freeze()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                router.pump()
                if any(e == "stuck" for _, e, _ in router.supervisor.events):
                    break
                time.sleep(0.05)
            assert any(
                e == "stuck" for _, e, _ in router.supervisor.events
            ), router.supervisor.events
            assert router.sync(timeout_s=10.0)
            report = verify_equivalence(router, queries_of(events[:10], 5))
            assert report.ok, report.mismatches


def kill_and_await_respawn(router, shard_id, timeout_s=10.0):
    """SIGKILL the shard, then idle the router until its successor is live."""
    handle = router.shards[shard_id]
    spawned = handle.spawn_count
    handle.kill()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        router.idle(0.5)
        if handle.spawn_count > spawned and handle.state == LIVE:
            return True
    return False


class TestEventDrivenDataPlane:
    def test_frozen_shard_with_a_full_pipe_never_blocks_ingest(self, events):
        with Router(
            2, query_timeout_s=15.0, heartbeat_deadline_s=3600.0,
            retry=RetryPolicy(attempts=4, timeout_s=0.3),
        ) as router:
            drive(router, events[:10])
            router.shards[1].freeze()
            for number in range(100):  # 4 KiB each, far past the 64 KiB pipe
                router.ingest(
                    EntityDescription(
                        f"http://bulk.example.org/{number}",
                        {"note": [f"bulk{number}" + "x" * 4096]},
                    ),
                    number % 2,
                )
            # Every ingest returned; what the frozen shard's pipe would
            # not take is held for it.
            assert len(router.shards[1].writer.pending) > 256 * 1024
            assert router.stats.shard_deaths == 0

            router.supervisor.heartbeat_deadline_s = 0.3
            assert router.sync(timeout_s=20.0)
            causes = [event for _, event, _ in router.supervisor.events]
            assert "stuck" in causes and "respawn" in causes
            assert router.shards[1].spawn_count == 2
            assert not router.shards[1].writer.pending  # re-drive went through
            report = verify_equivalence(router, queries_of(events[:10], 5))
            assert report.ok, report.mismatches

    def test_respawn_cycles_do_not_leak_descriptors(self, events):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        with Router(2, query_timeout_s=10.0, heartbeat_deadline_s=0.5) as router:
            drive(router, events[:10])
            counts = []
            for _ in range(5):
                assert kill_and_await_respawn(router, 1)
                counts.append(open_fds())
            assert router.stats.respawns == 5
            assert counts == [counts[0]] * 5
            assert router.sync(timeout_s=10.0)

    def test_hedge_delay_reads_latencies_kept_sorted(self, events, monkeypatch):
        handed = []
        real_delay = HedgePolicy.delay_s

        def spy_delay(policy, sorted_latencies):
            handed.append(sorted_latencies)
            return real_delay(policy, sorted_latencies)

        monkeypatch.setattr(HedgePolicy, "delay_s", spy_delay)
        with Router(2, query_timeout_s=10.0) as router:
            history = router.stats.shard_hist.values

            def spy_sorted(iterable, **kwargs):
                assert iterable is not history, "fan-out re-sorted the history"
                return sorted(iterable, **kwargs)

            monkeypatch.setattr(router_module, "sorted", spy_sorted, raising=False)
            drive(router, events[:40])
            for _ in range(4):
                for description, source in queries_of(events[:40], 40):
                    router.resolve(description, source, ingest=False)
            assert router.stats.queries == 200 == len(handed)
            assert len(history) == 400  # two partitions per resolve
            assert handed[-1] is router.stats.shard_latencies
            assert handed[-1] == sorted(history)


class TestGracefulDegradation:
    def test_no_failover_no_respawn_serves_labelled_partials(self, events):
        with Router(
            2, failover=False, auto_respawn=False,
            heartbeat_deadline_s=0.5, query_timeout_s=5.0,
            retry=RetryPolicy(attempts=1, timeout_s=0.2, base_delay_s=0.01),
        ) as router:
            for event in events[:12]:
                if event.kind != "delete":
                    router.ingest(event.description, event.source)
            router.shards[1].kill()
            router.supervisor.tick(force=True)
            assert router.shards[1].state == DEAD
            query = next(e for e in events if e.kind == "query")
            result = router.resolve(
                query.description, query.source, ingest=False
            )
            assert result.degraded
            assert result.coverage == pytest.approx(0.5)
            assert result.missing_partitions == (1,)
            assert router.stats.degraded == 1

    def test_degrade_disabled_raises_instead(self, events):
        with Router(
            2, failover=False, auto_respawn=False, degrade=False,
            heartbeat_deadline_s=0.5, query_timeout_s=5.0,
            retry=RetryPolicy(attempts=1, timeout_s=0.2, base_delay_s=0.01),
        ) as router:
            for event in events[:8]:
                if event.kind != "delete":
                    router.ingest(event.description, event.source)
            router.shards[0].kill()
            router.supervisor.tick(force=True)
            with pytest.raises(RuntimeError, match="unavailable"):
                router.resolve(
                    events[0].description, events[0].source, ingest=False
                )


class TestHedging:
    def test_stall_triggers_hedge_to_other_shard(self, events):
        with Router(
            2, query_timeout_s=15.0,
            hedge=HedgePolicy(
                enabled=True, min_samples=10_000, default_delay_s=0.05
            ),
            retry=RetryPolicy(attempts=2, timeout_s=5.0),
        ) as router:
            for event in events[:12]:
                if event.kind != "delete":
                    router.resolve(
                        event.description, event.source,
                        ingest=event.kind == "insert",
                    )
            assert router.stats.hedges == 0
            # Stall shard 0's main loop well past the hedge delay; its
            # heartbeat keeps beating so it is *slow*, not stuck.
            router.shards[0].send(messages.Stall(1.0))
            query = next(e for e in events if e.kind == "query")
            result = router.resolve(
                query.description, query.source, ingest=False
            )
            assert not result.degraded
            assert router.stats.hedges >= 1
            assert router.stats.hedge_wins >= 1
            assert not any(
                e in ("died", "stuck") for _, e, _ in router.supervisor.events
            )


class TestDurabilityIntegration:
    def test_torn_write_crash_recovers_from_wal(self, events, tmp_path):
        root = str(tmp_path / "tier")
        with Router(
            2, durability_root=root, heartbeat_deadline_s=0.5,
            query_timeout_s=15.0,
            retry=RetryPolicy(attempts=4, timeout_s=0.5),
            crash_budgets={1: 6_000},
        ) as router:
            results = drive(router, events[:60])
            # The budget ran out mid-stream: shard 1 crashed like a
            # power cut and was respawned from its WAL.
            assert router.stats.shard_deaths >= 1
            assert router.stats.respawns >= 1
            assert router.shards[1].spawn_count >= 2
            assert all(not r.degraded for r in results)
            report = verify_equivalence(router, queries_of(events[:60]))
            assert report.ok, report.mismatches
            # The recovered shard's durability dir is the real thing:
            # it reported a recovered version > 0 on its second spawn.
            assert os.path.isdir(os.path.join(root, "shard-1"))

    def test_kill_with_durability_recovers_state_from_disk(
        self, events, tmp_path
    ):
        root = str(tmp_path / "tier")
        with Router(
            2, durability_root=root, heartbeat_deadline_s=0.5,
            query_timeout_s=15.0,
            retry=RetryPolicy(attempts=4, timeout_s=0.5),
        ) as router:
            for event in events[:30]:
                if event.kind != "delete":
                    router.ingest(event.description, event.source)
            assert router.sync(timeout_s=10.0)
            router.shards[0].kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                router.pump()
                if router.shards[0].state == LIVE:
                    break
                time.sleep(0.02)
            assert router.shards[0].state == LIVE
            report = verify_equivalence(router, queries_of(events[:30], 10))
            assert report.ok, report.mismatches


class TestOpenLoopHarness:
    def test_run_with_injected_kill_recovers_cleanly(self, events):
        router = Router(
            2, query_timeout_s=10.0, heartbeat_deadline_s=0.5,
            retry=RetryPolicy(attempts=3, timeout_s=0.5),
        )
        try:
            faults = [parse_fault("kill:1@e=20")]
            report = run_open_loop(
                router, events[:60], rate_eps=400.0, faults=faults,
            )
            assert faults[0].fired
            assert report.fault_log and report.fault_log[0][0] == "kill:1@e=20"
            assert report.queries == len(
                [e for e in events[:60] if e.kind != "delete"]
            )
            recovered_at = max(
                (at - report.start_monotonic
                 for _, e, at in router.supervisor.events if e == "live"),
                default=0.0,
            )
            assert report.degraded_after(recovered_at) == 0
            assert router.stats.respawns == 1
            assert router.stats.time_to_healthy_hist.summary()["max"] <= 10.0
            verdict = verify_equivalence(router, queries_of(events[:60]))
            assert verdict.ok, verdict.mismatches
        finally:
            router.close()

    def test_report_periods_cover_the_run(self, events):
        router = Router(2, query_timeout_s=10.0)
        try:
            report = run_open_loop(router, events[:30], rate_eps=500.0)
            rows = report.period_rows(period_s=0.5)
            assert rows
            assert sum(int(row["ops"]) for row in rows) == report.queries
        finally:
            router.close()


class TestShutdown:
    def test_close_is_idempotent_and_stops_all_shards(self, events):
        router = Router(2, query_timeout_s=10.0)
        drive(router, events[:10])
        pids = [handle.pid for handle in router.shards]
        router.close()
        router.close()
        for handle in router.shards:
            assert not handle.is_alive()
        assert all(pid is not None for pid in pids)
