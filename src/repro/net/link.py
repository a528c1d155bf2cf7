"""Point-to-point links.

A :class:`Link` is a full-duplex cable built from two independent
:class:`Channel` directions.  Each channel models:

* store-and-forward serialization at the configured line rate;
* fixed propagation delay;
* a drop-tail egress queue (the *sender's* output buffer) that fills when
  the line is busy.

Receivers are any object with ``receive(packet, ingress)`` where ``ingress``
is the channel the packet arrived on, and optionally ``pipeline_ns``
(default 0): how long it holds a frame before acting on it.

Event plumbing
--------------

A frame is serialized until ``t_f = start + wire``, arrives at
``t_a = t_f + propagation`` and leaves the receiver's pipeline at
``t_a + pipeline_ns``.  That instant is its one kernel event, and the
in-flight record *is* that event: ``receive`` runs then, and a switch
forwards from inside it, so each fabric hop costs one event.  The
line's up/down state is judged as of ``t_f`` and ``t_a`` from a
transition log kept while frames are in flight.  Only when a frame
queues behind the one on the wire is a finish event materialized at
``t_f``, so the next serialization starts on time.

Tx statistics are O(1): a frame counts from the start of its
serialization, and as frames on one channel serialize one after
another, only the tail frame can still be on the wire; reads subtract
it until ``t_f``.  ``tests/kernel_oracles.py`` keeps the two-event
channel and the per-hop switch that the tests compare this against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from ..profiles import bytes_time_ns
from ..sim.engine import Simulator
from ..sim.events import Event
from .packet import Packet
from .queue import DropTailQueue

#: Monotonic generation counter for link-state-derived caches (switch
#: egress choices, endpoint live-uplink lists).  Bumped on every
#: channel up/down transition and on (re)wiring; caches stamp the value
#: they were built at and rebuild when it moved.  A single process-wide
#: counter over-invalidates across simulators, which is harmless — the
#: caches are pure functions of current link state.
LINK_STATE_EPOCH = [0]


class Receiver(Protocol):
    name: str

    def receive(self, packet: Packet, ingress: "Channel") -> None: ...


class _InFlight(Event):
    """A frame from serialization start to the end of the receiver's
    pipeline, and the event that delivers it.  ``materialized_ns``: when
    a finish event at ``finish_ns`` was scheduled (else None)."""

    __slots__ = ("packet", "finish_ns", "materialized_ns", "finished")

    def __init__(self, time: int, seq: int, fn, packet: Packet, finish_ns: int):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = (self,)
        self.cancelled = False
        self._sched = None
        self.packet = packet
        self.finish_ns = finish_ns
        self.materialized_ns: Optional[int] = None
        self.finished = False


class Channel:
    """One direction of a link: sender-side queue + wire."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src: "Receiver",
        dst: "Receiver",
        gbps: float,
        propagation_ns: int,
        queue_capacity_bytes: int,
        priority: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.gbps = gbps
        self.propagation_ns = propagation_ns
        #: The receiver's pipeline: delivery runs this long after arrival.
        self._pipeline_ns = getattr(dst, "pipeline_ns", 0)
        self._hold_ns = propagation_ns + self._pipeline_ns
        #: frame size -> wire time at this channel's rate.
        self._wire_ns: Dict[int, int] = {}
        if priority:
            from .queue import PriorityQueue

            self.queue = PriorityQueue(queue_capacity_bytes, name=f"{name}.q")
        else:
            self.queue = DropTailQueue(queue_capacity_bytes, name=f"{name}.q")
        self._up = True
        #: Frames (bytes) that started serializing, the tail included.
        self._tx_packets = 0
        self._tx_bytes = 0
        #: The frame that started serializing last (the busy test).
        self._tail: Optional[_InFlight] = None
        #: Frames in flight; the transition log lives while > 0.
        self._outstanding = 0
        #: (time, up) transitions while frames are in flight, so a
        #: delivery can evaluate "was the line up at my t_f and t_a?".
        self._up_log: List[Tuple[int, bool]] = []
        #: tx_bytes at the previous INT stamp, for utilization hints.
        self.tx_bytes_window_start = 0
        self.window_start_ns = 0

    # ------------------------------------------------------------------
    # Tx statistics: everything started, less the tail while on the wire
    # ------------------------------------------------------------------
    @property
    def tx_packets(self) -> int:
        tail = self._tail
        if tail is not None and tail.finish_ns > self.sim.now:
            return self._tx_packets - 1
        return self._tx_packets

    @property
    def tx_bytes(self) -> int:
        tail = self._tail
        if tail is not None and tail.finish_ns > self.sim.now:
            return self._tx_bytes - tail.packet.size_bytes
        return self._tx_bytes

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission.  Returns False if dropped.

        A downed channel silently drops (fail-stop port/cable failure);
        the sender has no signal other than missing ACKs, matching how a
        real fabric fails (§3.3).
        """
        if not self._up:
            return False
        tail = self._tail
        # Busy iff the tail frame is still serializing.  The tie case
        # (now == finish_ns with a materialized finish event not yet
        # fired this instant) must count as busy, or a same-ns send
        # would start an overlapping serialization.
        if tail is not None and (
            tail.finish_ns > self.sim.now
            or (tail.materialized_ns is not None and not tail.finished)
        ):
            if not self.queue.offer(packet):
                return False
            # Line busy: the new frame starts when the current one
            # finishes, so that instant must exist as a real event.
            if tail.materialized_ns is None:
                tail.materialized_ns = self.sim.now
                self.sim.schedule_at_fire(tail.finish_ns, self._finish_fast, tail)
            return True
        # Line idle (hence the queue is empty): serialize immediately.
        if not self.queue.admit(packet):
            return False
        self._begin(packet)
        return True

    def _begin(self, packet: Packet) -> _InFlight:
        sim = self.sim
        size = packet.size_bytes
        wire_ns = self._wire_ns.get(size)
        if wire_ns is None:
            wire_ns = self._wire_ns[size] = bytes_time_ns(size, self.gbps)
        finish_ns = sim.now + wire_ns
        # Pushed the way Simulator.schedule pushes an Event, without
        # allocating a second object for it.
        rec = _InFlight(
            finish_ns + self._hold_ns, sim._seq, self._deliver_fast, packet, finish_ns
        )
        sim._seq += 1
        sim._push(rec)
        self._tail = rec
        self._outstanding += 1
        self._tx_packets += 1
        self._tx_bytes += size
        return rec

    def _finish_fast(self, rec: _InFlight) -> None:
        # Fires at rec.finish_ns, only for materialized (contended)
        # frames.  A forward may have run it already at this instant
        # (see Switch._forward); then there is nothing left to do.
        if rec.finished:
            return
        rec.finished = True
        if not self._up:
            rec.cancel()
            rec.args = ()
            self._retire(rec)
        packet = self.queue.poll()
        if packet is not None:
            rec = self._begin(packet)
            if len(self.queue):
                rec.materialized_ns = self.sim.now
                self.sim.schedule_at_fire(rec.finish_ns, self._finish_fast, rec)

    def _deliver_fast(self, rec: _InFlight) -> None:
        # Break rec -> args -> rec so reference counting frees the record.
        rec.args = ()
        if self._up_log:
            # A materialized frame reaching here was up at its finish
            # (a down line cancels the delivery there).
            up = (rec.materialized_ns is not None or self._up_at(rec.finish_ns)) and (
                self._up_at(self.sim.now - self._pipeline_ns)
                if self._pipeline_ns else self._up
            )
        else:
            up = self._up
        self._retire(rec)
        if up:
            self.dst.receive(rec.packet, self)

    def _up_at(self, time_ns: int) -> bool:
        state = True
        for when, up in self._up_log:
            if when <= time_ns:
                state = up
        return state

    def _retire(self, rec: _InFlight) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            if self._up_log:
                self._up_log.clear()
            self._tail = None
        elif self._tail is rec:
            self._tail = None

    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        # A property so that direct writes (fault injection shorthand in
        # tests: ``channel.up = False``) keep the cache epoch and the
        # in-flight transition log coherent, same as :meth:`set_up`.
        if value != self._up:
            LINK_STATE_EPOCH[0] += 1
            if self._outstanding:
                self._up_log.append((self.sim.now, value))
        self._up = value

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the channel.

        Going down flushes the queue (those frames are lost, as on a real
        port failure).
        """
        if self._up and not up:
            self.queue.clear()
        self.up = up

    def queue_delay_estimate_ns(self) -> int:
        """Serialization time of everything currently queued."""
        return bytes_time_ns(self.queue.bytes, self.gbps)

    def take_tx_window(self, now_ns: int) -> tuple[int, int]:
        """Return (bytes, window_ns) transmitted since the previous call."""
        tx_bytes = self.tx_bytes
        delta = tx_bytes - self.tx_bytes_window_start
        window = now_ns - self.window_start_ns
        self.tx_bytes_window_start = tx_bytes
        self.window_start_ns = now_ns
        return delta, window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<Channel {self.name} {self.gbps}G {state}>"


class Link:
    """Full-duplex link: two mirrored channels."""

    def __init__(
        self,
        sim: Simulator,
        a: "Receiver",
        b: "Receiver",
        gbps: float,
        propagation_ns: int,
        queue_capacity_bytes: int,
        priority: bool = False,
    ):
        self.a = a
        self.b = b
        self.ab = Channel(
            sim, f"{a.name}->{b.name}", a, b, gbps, propagation_ns,
            queue_capacity_bytes, priority,
        )
        self.ba = Channel(
            sim, f"{b.name}->{a.name}", b, a, gbps, propagation_ns,
            queue_capacity_bytes, priority,
        )

    def channel_from(self, node: "Receiver") -> Channel:
        if node is self.a:
            return self.ab
        if node is self.b:
            return self.ba
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def other(self, node: "Receiver") -> "Receiver":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def set_up(self, up: bool) -> None:
        self.ab.set_up(up)
        self.ba.set_up(up)
