"""Reference implementations the kernel is checked against.

The simulator ships one scheduler (a calendar queue), one link path (a
channel that folds an uncontended frame's serialization finish into its
delivery event), one switch path (the delivery event is the end of
the switch pipeline, and the switch forwards from inside it) and walks
(a frame passes every idle switch ahead without an event of its own).
Their plain counterparts live here, so the tests can show that the
optimised kernel does exactly what the obvious one does:

* :class:`HeapScheduler` — a single binary heap of ``(time, seq, ...)``
  tuples, passed to ``Simulator(scheduler=HeapScheduler())``;
* :func:`two_event_links` — patches ``Channel.send`` so that every
  frame costs a serialization-finish event and a delivery event;
* :func:`per_hop_switches` — patches ``Switch`` so that a frame is
  received at arrival and forwarded from a second event one
  ``switch_forward_ns`` later, with no egress or route caching.

Both also patch ``Channel._walk`` out, so no frame walks;
:func:`no_walks` does only that.

The oracles run more events than the folded paths, so
``events_processed`` is the one observable that differs; everything
the simulation produces must not.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.net.ecmp import pick
from repro.net.link import Channel
from repro.net.packet import Packet
from repro.net.switch import Switch
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
    # The line is judged at arrival; a receiver with a pipeline (a
    # switch) acts on the frame when that pipeline ends.
    if channel.up:
        pipeline_ns = getattr(channel.dst, "pipeline_ns", 0)
        if pipeline_ns:
            channel.sim.schedule(pipeline_ns, channel.dst.receive, packet, channel)
        else:
            channel.dst.receive(packet, channel)


def _no_walk(channel: Channel, rec) -> None:
    """``Channel._walk`` patched out: every frame goes hop by hop."""


@contextmanager
def no_walks():
    """Run every channel on the one-event-per-hop path: no frame walks."""
    original = Channel._walk
    Channel._walk = _no_walk
    try:
        yield
    finally:
        Channel._walk = original


@contextmanager
def two_event_links():
    """Run every channel built or used inside the block on the
    two-event path.  Build the deployment inside the block: components
    may cache ``channel.send`` at construction."""
    original = Channel.send, Channel._walk
    Channel.send, Channel._walk = two_event_send, _no_walk
    try:
        yield
    finally:
        Channel.send, Channel._walk = original


# ----------------------------------------------------------------------
# The per-hop switch
# ----------------------------------------------------------------------
def per_hop_receive(switch: Switch, packet: Packet, ingress: Channel) -> None:
    """``Switch.receive`` at arrival: admit now, forward from an event
    ``switch_forward_ns`` later."""
    switch.rx_packets += 1
    if not switch.up:
        switch.dropped_down += 1
        return
    if switch._blackholes(packet):
        switch.dropped_blackhole += 1
        return
    if switch.drop_rate > 0.0 and switch._drop_rng.random() < switch.drop_rate:
        switch.dropped_blackhole += 1
        return
    if packet.ttl <= 0:
        switch.dropped_ttl += 1
        return
    packet.ttl -= 1
    switch.sim.schedule_fire(switch.profile.switch_forward_ns, switch._forward, packet)


def per_hop_forward(switch: Switch, packet: Packet) -> None:
    """Route from scratch, stamp INT and send, with no caching."""
    if not switch.up:
        switch.dropped_down += 1
        return
    candidates = [
        name
        for name in switch._next_hops(switch, packet)
        if name in switch.ports and switch.ports[name].up
    ]
    if not candidates:
        switch.dropped_no_route += 1
        return
    egress = switch.ports[pick(packet.flow, candidates, salt=switch.name)]
    switch._stamp_int(packet, egress)
    switch.forwarded += 1
    egress.send(packet)


@contextmanager
def per_hop_switches():
    """Run every switch built inside the block on the per-hop path:
    channels deliver to it at arrival (``pipeline_ns`` 0) and the
    forward is its own event.  Build the deployment inside the block:
    channels read ``pipeline_ns`` at construction."""
    original = Switch.__init__, Switch.receive, Switch._forward, Channel._walk

    def init(switch, *args, **kwargs):
        original[0](switch, *args, **kwargs)
        switch.pipeline_ns = 0

    Switch.__init__, Switch.receive, Switch._forward, Channel._walk = (
        init, per_hop_receive, per_hop_forward, _no_walk,
    )
    try:
        yield
    finally:
        Switch.__init__, Switch.receive, Switch._forward, Channel._walk = original
