"""Scheduler edge cases and calendar-vs-heap parity.

The simulation kernel schedules on a calendar queue
(``repro.sim.sched``); ``kernel_oracles.HeapScheduler`` is a plain
binary heap kept as the reference.  Both order events by the same
``(time, seq)`` law, so every observable — event order,
``events_processed``, artifacts — must be identical.  These tests pin
that equivalence plus the edge cases where bucketing could plausibly
diverge from a single heap: same-timestamp FIFO across bucket
boundaries, scheduling at ``now`` from an in-flight event, ``stop()``
mid-bucket, and the lazy-deletion bookkeeping (bounded storage under
cancel-heavy load).  The folded link path is checked the same way
against the two-event channel.
"""

import hashlib

import pytest

from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.sim import MS, Simulator
from repro.sim.sched import (
    COMPACT_MIN_GHOSTS,
    DEFAULT_BUCKET_BITS,
    CalendarScheduler,
)
from repro.workloads import FioSpec, run_fio

from kernel_oracles import HeapScheduler, two_event_links

SCHEDULERS = {"calendar": CalendarScheduler, "heap": HeapScheduler}
SCHEDULER_NAMES = sorted(SCHEDULERS)
BUCKET_NS = 1 << DEFAULT_BUCKET_BITS


@pytest.fixture(params=SCHEDULER_NAMES)
def scheduler(request):
    """A fresh scheduler instance of each implementation."""
    return SCHEDULERS[request.param]()


class TestEdgeCases:
    def test_same_timestamp_fifo_across_bucket_boundary(self, scheduler):
        # Schedule FIFO-tied events exactly at a bucket boundary, plus
        # neighbours one tick either side, interleaved so creation order
        # and time order disagree.  FIFO must hold within each instant.
        sim = Simulator(scheduler=scheduler)
        boundary = 7 * BUCKET_NS
        order = []
        for i in range(5):
            sim.schedule_at(boundary, order.append, ("on", i))
            sim.schedule_at(boundary - 1, order.append, ("before", i))
            sim.schedule_at(boundary + 1, order.append, ("after", i))
        sim.run()
        assert order == (
            [("before", i) for i in range(5)]
            + [("on", i) for i in range(5)]
            + [("after", i) for i in range(5)]
        )

    def test_schedule_at_now_during_inflight_event(self, scheduler):
        # An in-flight event scheduling at the current instant runs
        # after already-pending same-instant events, before later ones.
        sim = Simulator(scheduler=scheduler)
        order = []

        def first():
            order.append("first")
            sim.schedule_at(sim.now, order.append, "nested")
            sim.call_soon(order.append, "soon")

        sim.schedule(100, first)
        sim.schedule(100, order.append, "second")
        sim.schedule(101, order.append, "later")
        sim.run()
        assert order == ["first", "second", "nested", "soon", "later"]

    def test_stop_mid_bucket(self, scheduler):
        # stop() from an event must halt after that event returns, even
        # with same-bucket (and same-instant) events still pending, and
        # a subsequent run() must resume exactly where it left off.
        sim = Simulator(scheduler=scheduler)
        order = []
        sim.schedule(10, order.append, "a")
        sim.schedule(11, lambda: (order.append("b"), sim.stop()))
        sim.schedule(11, order.append, "c")
        sim.schedule(12, order.append, "d")
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 11
        assert sim.pending_events == 2
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_until_ignores_cancelled_head(self, scheduler):
        # A cancelled timer heading the queue must not end a bounded run
        # early: the raw-head ``until`` check sees the ghost at t=50,
        # lets pop() skip it, and fires the live event at t=200 even
        # though 200 > until (matching the original engine, whose
        # ``until`` comparison read the raw heap head).
        sim = Simulator(scheduler=scheduler)
        fired = []
        ghost = sim.schedule(50, fired.append, "ghost")
        sim.schedule(200, fired.append, "live")
        ghost.cancel()
        sim.run(until=100)
        assert fired == ["live"]
        assert sim.now == 200


class TestBookkeeping:
    def test_pending_events_live_counter(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        events = [sim.schedule(10 + i, lambda: None) for i in range(8)]
        assert sim.pending_events == 8
        events[3].cancel()
        events[5].cancel()
        assert sim.pending_events == 6
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 6

    def test_peek_time_skips_cancelled(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.peek_time() == 10
        first.cancel()
        assert sim.peek_time() == 20

    def test_cancel_heavy_storage_stays_bounded(self, scheduler):
        # Re-arming timers (the RTO pattern) cancels one event per push.
        # Lazy deletion alone would grow storage to ~n; compaction must
        # keep physical entries within a constant factor of live ones.
        sim = Simulator(scheduler=scheduler)
        sched = sim._sched
        timers = [sim.schedule(1_000_000 + i, lambda: None) for i in range(64)]
        for round_ in range(200):
            for i in range(64):
                timers[i].cancel()
                timers[i] = sim.schedule(2_000_000 + round_ * 64 + i, lambda: None)
        assert sched.live == 64
        assert sched.compactions > 0
        assert sched.storage_size <= 2 * max(COMPACT_MIN_GHOSTS, sched.live)

    def test_compact_preserves_order(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        sched = sim._sched
        order = []
        keep = []
        for i in range(50):
            keep.append(sim.schedule(100 + 7 * i, order.append, i))
            sim.schedule(100 + 7 * i + 3, order.append, None).cancel()
        sched.compact()
        assert sched.ghosts == 0
        assert sched.storage_size == 50
        sim.run()
        assert order == list(range(50))


def _fio_fingerprint(scheduler_name):
    sim = Simulator(seed=1234, scheduler=SCHEDULERS[scheduler_name]())
    dep = EbsDeployment(DeploymentSpec(stack="solar", seed=1234), sim=sim)
    vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
    spec = FioSpec(block_sizes=(4096,), iodepth=4, read_fraction=0.5, runtime_ns=2 * MS)
    result = run_fio(dep.sim, [vd], spec)["vd0"]
    digest = hashlib.sha256(repr(tuple(result.latency.samples)).encode()).hexdigest()
    return {
        "completed": result.completed,
        "bytes_moved": result.bytes_moved,
        "latency": digest,
        "events_processed": dep.sim.events_processed,
        "now": dep.sim.now,
    }


class TestLinkFastPathParity:
    def test_fastpath_and_legacy_identical_artifacts(self):
        # The folded link path must be observably identical to the
        # two-event channel on a real deployment: same completions, same
        # latency samples, same final clock.  Only the event count
        # differs — the two-event path runs one more event per
        # uncontended frame.
        with two_event_links():
            legacy = _fio_fingerprint("calendar")
        fast = _fio_fingerprint("calendar")
        assert fast.pop("events_processed") < legacy.pop("events_processed")
        assert fast == legacy


class TestCrossImplementationDeterminism:
    def test_heap_and_calendar_identical_artifacts(self):
        # The headline parity pin: a real deployment run (solar stack,
        # fixed seed) yields identical completions, byte counts, latency
        # samples, events_processed, and final clock on every scheduler.
        fingerprints = {name: _fio_fingerprint(name) for name in SCHEDULER_NAMES}
        baseline = fingerprints[SCHEDULER_NAMES[0]]
        assert all(fp == baseline for fp in fingerprints.values())

    def test_synthetic_event_order_identical(self):
        # Deterministic pseudo-random schedule/cancel torture: both
        # implementations must pop the identical event sequence.
        import random

        def trace(name):
            sim = Simulator(scheduler=SCHEDULERS[name]())
            rng = random.Random(9)
            seen = []
            live = []

            def fire(tag):
                seen.append((sim.now, tag))
                for _ in range(rng.randrange(3)):
                    delay = rng.randrange(0, 3 * BUCKET_NS)
                    tag2 = rng.randrange(1 << 30)
                    live.append(sim.schedule(delay, fire, tag2))
                if live and rng.random() < 0.3:
                    live.pop(rng.randrange(len(live))).cancel()

            for i in range(20):
                live.append(sim.schedule(rng.randrange(BUCKET_NS), fire, i))
            sim.run(max_events=4000)
            return seen, sim.events_processed

        traces = [trace(name) for name in SCHEDULER_NAMES]
        assert all(t == traces[0] for t in traces[1:])
