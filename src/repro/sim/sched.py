"""The event scheduler of the simulation kernel.

:class:`CalendarScheduler` is a calendar queue / hashed timer wheel: the
time axis is cut into fixed-width buckets (``2**bucket_bits`` ns) held
in a dict keyed by bucket index, with a small int-heap of active bucket
indices.  Each bucket is itself a little ``(time, seq, event)`` heap.
Most scheduling in this simulator is short-horizon (wire times, switch
forwarding, CPU costs — nanoseconds to microseconds), so pushes land in
the current or a nearby bucket and per-bucket heaps stay tiny; far-out
timers (RTOs, probes) spread across sparse buckets at no cost because
empty buckets simply do not exist.

The *ordering law*: events fire in ``(time, seq)`` order, where ``seq``
is the global creation sequence number — exactly the order of a single
binary heap.  ``tests/test_scheduler_parity.py`` pins that against a
plain heap kept in the tests as the reference.

Entries come in two shapes, distinguished by the third tuple slot:

* ``(time, seq, event)`` — a cancellable :class:`Event` (``schedule`` /
  ``schedule_at`` / ``call_soon``);
* ``(time, seq, None, fn, args)`` — an **anonymous** fire-and-forget
  entry (``schedule_fire`` / ``schedule_at_fire``): no Event object is
  allocated at all.  Most events in a packet simulation (CPU-work
  completions, RPC hops, switch forwards, serialization finishes) are
  never cancelled, so skipping the allocation removes the single
  largest per-event constant.  Ordering is unaffected: ``seq`` is
  globally unique, so tuple comparison never reaches the third slot.

The scheduler keeps **live bookkeeping** instead of scanning:

* ``live`` — count of pending, not-cancelled events (O(1)
  ``pending_events``);
* ``ghosts`` — cancelled events still buried in the structure (lazy
  deletion keeps :meth:`Event.cancel` O(1));
* automatic **compaction**: when ghosts outnumber live events (and exceed
  a floor), the structure is rebuilt without them, so cancel-heavy
  workloads (timeout/retry paths re-arming RTOs per message) cannot grow
  it without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional

from .events import Event

#: Compaction floor: never bother rebuilding tiny structures.
COMPACT_MIN_GHOSTS = 512

#: Calendar bucket width exponent: 2**13 ns = 8.192 us per bucket.
DEFAULT_BUCKET_BITS = 13


class CalendarScheduler:
    """Calendar queue: dict of per-bucket heaps + int-heap of bucket ids.

    Ordering matches a single binary heap exactly: bucket index is
    ``time >> bucket_bits``, so the minimum active bucket contains the
    globally minimum ``(time, seq)`` entry; within a bucket the little
    heap orders entries by that same key.  Same-timestamp FIFO therefore
    holds across bucket boundaries by construction.
    """

    __slots__ = ("bucket_bits", "_buckets", "_ids", "live", "ghosts", "compactions")

    def __init__(self, bucket_bits: int = DEFAULT_BUCKET_BITS) -> None:
        if not 0 < bucket_bits < 40:
            raise ValueError(f"unreasonable bucket_bits: {bucket_bits}")
        self.bucket_bits = bucket_bits
        self._buckets: dict = {}
        self._ids: list = []  # int-heap of active bucket indices
        self.live = 0
        self.ghosts = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    def push(self, event: Event) -> None:
        event._sched = self
        idx = event.time >> self.bucket_bits
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [(event.time, event.seq, event)]
            heappush(self._ids, idx)
        else:
            heappush(bucket, (event.time, event.seq, event))
        self.live += 1

    def push_fire(self, time: int, seq: int, fn, args) -> None:
        """Queue an anonymous fire-and-forget entry (no Event object)."""
        idx = time >> self.bucket_bits
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [(time, seq, None, fn, args)]
            heappush(self._ids, idx)
        else:
            heappush(bucket, (time, seq, None, fn, args))
        self.live += 1

    def pop(self) -> Optional[Event]:
        ids, buckets = self._ids, self._buckets
        while ids:
            idx = ids[0]
            bucket = buckets[idx]
            while bucket:
                entry = heappop(bucket)
                event = entry[2]
                if event is not None and event.cancelled:
                    self.ghosts -= 1
                    continue
                self.live -= 1
                if not bucket:
                    heappop(ids)
                    del buckets[idx]
                if event is None:
                    return Event(entry[0], entry[1], entry[3], entry[4])
                event._sched = None
                return event
            heappop(ids)
            del buckets[idx]
        return None

    def peek_time(self) -> Optional[int]:
        ids, buckets = self._ids, self._buckets
        while ids:
            idx = ids[0]
            bucket = buckets[idx]
            while bucket:
                entry = bucket[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    heappop(bucket)
                    self.ghosts -= 1
                    continue
                return entry[0]
            heappop(ids)
            del buckets[idx]
        return None

    def drain(self, sim, until: Optional[int], max_events: Optional[int]) -> int:
        """The simulator's run loop, inlined into the data structure.

        Semantically identical to repeated :meth:`pop`, except that the
        ``until`` check reads the *raw* head, ghosts included: a cancelled
        timer at the head does not end a bounded run one event early,
        matching the original single-heap engine.  Ghosts are skipped
        unconditionally once popping starts.  One Python frame per event
        instead of three.  ``compact`` rebuilds in place, so the
        local aliases below stay valid across event callbacks.
        """
        ids, buckets = self._ids, self._buckets
        pop = heappop
        processed = 0
        while ids and not sim._stopped:
            if until is not None and buckets[ids[0]][0][0] > until:
                break
            if max_events is not None and processed >= max_events:
                break
            entry = None
            while ids:
                idx = ids[0]
                bucket = buckets[idx]
                candidate = pop(bucket)
                if not bucket:
                    pop(ids)
                    del buckets[idx]
                event = candidate[2]
                if event is not None and event.cancelled:
                    self.ghosts -= 1
                    continue
                entry = candidate
                break
            if entry is None:
                break
            self.live -= 1
            sim.now = entry[0]
            sim.events_processed += 1
            processed += 1
            event = entry[2]
            if event is None:
                entry[3](*entry[4])
            else:
                event._sched = None
                event.fn(*event.args)
        return processed

    # ------------------------------------------------------------------
    def note_cancel(self) -> None:
        self.live -= 1
        self.ghosts += 1
        if self.ghosts > COMPACT_MIN_GHOSTS and self.ghosts > self.live:
            self.compact()

    def compact(self) -> None:
        entries = [
            entry
            for bucket in self._buckets.values()
            for entry in bucket
            if entry[2] is None or not entry[2].cancelled
        ]
        buckets: dict = {}
        bits = self.bucket_bits
        for entry in entries:
            buckets.setdefault(entry[0] >> bits, []).append(entry)
        for bucket in buckets.values():
            heapify(bucket)
        # In place: drain() aliases both containers across callbacks.
        self._buckets.clear()
        self._buckets.update(buckets)
        self._ids[:] = list(buckets)
        heapify(self._ids)
        self.ghosts = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.live

    @property
    def storage_size(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
