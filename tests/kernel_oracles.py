"""Reference implementations the kernel is checked against.

The simulator ships one scheduler (a calendar queue) and one link path
(a channel that folds an uncontended frame's serialization finish into
its delivery event).  Their plain counterparts live here, so the tests
can show that the optimised kernel does exactly what the obvious one
does:

* :class:`HeapScheduler` — a single binary heap of ``(time, seq, ...)``
  tuples, passed to ``Simulator(scheduler=HeapScheduler())``;
* :func:`two_event_links` — patches ``Channel.send`` so that every
  frame costs a serialization-finish event and a delivery event.

The two-event path runs more events than the folded one, so
``events_processed`` is the one observable that differs; everything
the simulation produces must not.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.net.link import Channel
from repro.net.packet import Packet
from repro.profiles import bytes_time_ns
from repro.sim.events import Event
from repro.sim.sched import COMPACT_MIN_GHOSTS


class HeapScheduler:
    """Binary heap of ``(time, seq, event)`` tuples with lazy deletion.

    Same interface and ordering law as
    :class:`repro.sim.sched.CalendarScheduler`: anonymous entries are
    ``(time, seq, None, fn, args)``, cancelled events stay as ghosts
    until popped or compacted away.
    """

    __slots__ = ("_heap", "live", "ghosts", "compactions")

    def __init__(self) -> None:
        self._heap: list = []
        self.live = 0
        self.ghosts = 0
        self.compactions = 0

    def push(self, event: Event) -> None:
        event._sched = self
        heappush(self._heap, (event.time, event.seq, event))
        self.live += 1

    def push_fire(self, time: int, seq: int, fn, args) -> None:
        heappush(self._heap, (time, seq, None, fn, args))
        self.live += 1

    def pop(self) -> Optional[Event]:
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[2]
            if event is None:
                self.live -= 1
                return Event(entry[0], entry[1], entry[3], entry[4])
            if event.cancelled:
                self.ghosts -= 1
                continue
            event._sched = None
            self.live -= 1
            return event
        return None

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is not None and event.cancelled:
                heappop(heap)
                self.ghosts -= 1
                continue
            return entry[0]
        return None

    def drain(self, sim, until: Optional[int], max_events: Optional[int]) -> int:
        # The ``until`` check reads the raw head, ghosts included.
        heap = self._heap
        processed = 0
        while heap and not sim._stopped:
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and processed >= max_events:
                break
            event = self.pop()
            if event is None:
                break
            sim.now = event.time
            sim.events_processed += 1
            processed += 1
            event.fn(*event.args)
        return processed

    def note_cancel(self) -> None:
        self.live -= 1
        self.ghosts += 1
        if self.ghosts > COMPACT_MIN_GHOSTS and self.ghosts > self.live:
            self.compact()

    def compact(self) -> None:
        self._heap[:] = [
            entry for entry in self._heap
            if entry[2] is None or not entry[2].cancelled
        ]
        heapify(self._heap)
        self.ghosts = 0
        self.compactions += 1

    def __len__(self) -> int:
        return self.live

    @property
    def storage_size(self) -> int:
        return len(self._heap)


# ----------------------------------------------------------------------
# The two-event channel
# ----------------------------------------------------------------------
def two_event_send(channel: Channel, packet: Packet) -> bool:
    """``Channel.send`` with one finish and one delivery event per frame."""
    if not channel.up:
        return False
    if not channel.queue.offer(packet):
        return False
    if not getattr(channel, "_oracle_transmitting", False):
        _start_next(channel)
    return True


def _start_next(channel: Channel) -> None:
    packet = channel.queue.poll()
    if packet is None:
        channel._oracle_transmitting = False
        return
    channel._oracle_transmitting = True
    wire_ns = bytes_time_ns(packet.size_bytes, channel.gbps)
    channel.sim.schedule(wire_ns, _finish_serialize, channel, packet)


def _finish_serialize(channel: Channel, packet: Packet) -> None:
    channel._tx_packets += 1
    channel._tx_bytes += packet.size_bytes
    if channel.up:
        channel.sim.schedule(channel.propagation_ns, _deliver, channel, packet)
    _start_next(channel)


def _deliver(channel: Channel, packet: Packet) -> None:
    if channel.up:
        channel.dst.receive(packet, channel)


@contextmanager
def two_event_links():
    """Run every channel built or used inside the block on the
    two-event path.  Build the deployment inside the block: components
    may cache ``channel.send`` at construction."""
    original = Channel.send
    Channel.send = two_event_send
    try:
        yield
    finally:
        Channel.send = original
