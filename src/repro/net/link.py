"""Point-to-point links.

A :class:`Link` is a full-duplex cable built from two independent
:class:`Channel` directions.  Each channel models:

* store-and-forward serialization at the configured line rate;
* fixed propagation delay;
* a drop-tail egress queue (the *sender's* output buffer) that fills when
  the line is busy.

Receivers are any object with ``receive(packet, ingress)`` where ``ingress``
is the channel the packet arrived on.

Event plumbing
--------------

A frame crossing a channel is serialized from ``start`` to
``t_f = start + wire`` and delivered at ``t_d = t_f + propagation``.
On an uncontended line nothing observes the instant ``t_f``, so the
channel schedules one delivery event at ``t_d`` and settles the tx
statistics lazily (they are re-derived on read for any observer that
looks between ``t_f`` and ``t_d``).  When the line *is* contended
(another frame is queued behind the one in flight), a finish event is
materialized at exactly ``t_f`` so the next serialization starts on
time.  ``tests/kernel_oracles.py`` keeps the plain two-event channel
(finish event, then delivery event, for every frame) that the tests
compare this against.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Protocol, Tuple

from ..profiles import bytes_time_ns
from ..sim.engine import Simulator
from .packet import Packet
from .queue import DropTailQueue

#: Monotonic generation counter for link-state-derived caches (switch
#: route candidates, endpoint live-uplink lists).  Bumped on every
#: channel up/down transition and on (re)wiring; caches stamp the value
#: they were built at and rebuild when it moved.  A single process-wide
#: counter over-invalidates across simulators, which is harmless — the
#: caches are pure functions of current link state.
LINK_STATE_EPOCH = [0]


class Receiver(Protocol):
    name: str

    def receive(self, packet: Packet, ingress: "Channel") -> None: ...


class _InFlight:
    """A frame between serialization start and delivery.

    ``materialized`` — a real finish event exists at ``finish_ns``
    (scheduled because another frame queued up behind this one, or the
    line was already contended when it started).  ``up_at_finish`` is
    recorded by that event; un-materialized frames reconstruct the
    channel state at ``finish_ns`` from the up/down transition log.
    """

    __slots__ = (
        "packet", "finish_ns", "materialized", "finished", "up_at_finish", "combined",
    )

    def __init__(self, packet: Packet, finish_ns: int):
        self.packet = packet
        self.finish_ns = finish_ns
        self.materialized = False
        self.finished = False
        self.up_at_finish = True
        self.combined = None


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
        if priority:
            from .queue import PriorityQueue

            self.queue = PriorityQueue(queue_capacity_bytes, name=f"{name}.q")
        else:
            self.queue = DropTailQueue(queue_capacity_bytes, name=f"{name}.q")
        self._up = True
        self._tx_packets = 0
        self._tx_bytes = 0
        #: Frames serialized (logically) but with stats not yet settled.
        self._pending: "deque[_InFlight]" = deque()
        #: The frame currently on the wire (the busy test).
        self._tail: Optional[_InFlight] = None
        #: Combined events outstanding; the transition log lives while > 0.
        self._outstanding = 0
        #: (time, up) transitions while frames are in flight, so a
        #: combined event can evaluate "was the line up at my t_f?".
        self._up_log: List[Tuple[int, bool]] = []
        #: tx_bytes at the previous INT stamp, for utilization hints.
        self.tx_bytes_window_start = 0
        self.window_start_ns = 0

    # ------------------------------------------------------------------
    # Lazily settled tx statistics
    # ------------------------------------------------------------------
    def _settle(self, now: int) -> None:
        pending = self._pending
        while pending and pending[0].finish_ns <= now:
            rec = pending.popleft()
            self._tx_packets += 1
            self._tx_bytes += rec.packet.size_bytes

    @property
    def tx_packets(self) -> int:
        self._settle(self.sim.now)
        return self._tx_packets

    @property
    def tx_bytes(self) -> int:
        self._settle(self.sim.now)
        return self._tx_bytes

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission.  Returns False if dropped.

        A downed channel silently drops (fail-stop port/cable failure);
        the sender has no signal other than missing ACKs, matching how a
        real fabric fails (§3.3).
        """
        if not self.up:
            return False
        if not self.queue.offer(packet):
            return False
        tail = self._tail
        # Busy iff the tail frame is still serializing.  The tie case
        # (now == finish_ns with a materialized finish event not yet
        # fired this instant) must count as busy, or a same-ns send
        # would start an overlapping serialization.
        if tail is not None and (
            tail.finish_ns > self.sim.now
            or (tail.materialized and not tail.finished)
        ):
            # Line busy: the new frame starts when the current one
            # finishes, so that instant must exist as a real event.
            if not tail.materialized:
                tail.materialized = True
                self.sim.schedule_at_fire(tail.finish_ns, self._finish_fast, tail)
            return True
        # Line idle (hence the queue was empty): serialize immediately.
        self._begin(self.queue.poll())
        return True

    def _begin(self, packet: Packet) -> None:
        wire_ns = bytes_time_ns(packet.size_bytes, self.gbps)
        rec = _InFlight(packet, self.sim.now + wire_ns)
        rec.combined = self.sim.schedule(
            wire_ns + self.propagation_ns, self._deliver_fast, rec
        )
        self._tail = rec
        self._pending.append(rec)
        self._outstanding += 1
        if len(self.queue):
            rec.materialized = True
            self.sim.schedule_fire(wire_ns, self._finish_fast, rec)

    def _finish_fast(self, rec: _InFlight) -> None:
        # Fires at rec.finish_ns, only for materialized (contended)
        # frames.
        rec.finished = True
        rec.up_at_finish = self.up
        if not self.up:
            rec.combined.cancel()
            self._retire(rec)
        packet = self.queue.poll()
        if packet is not None:
            self._begin(packet)

    def _deliver_fast(self, rec: _InFlight) -> None:
        if rec.materialized:
            up_at_finish = rec.up_at_finish
        else:
            up_at_finish = self._up_at(rec.finish_ns)
        self._retire(rec)
        if up_at_finish and self.up:
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
            # Everything in flight has been delivered, so every pending
            # stats record has finish_ns <= now: settle them all, keeping
            # ``_pending`` bounded even if the tx counters of this channel
            # are never read (only reads settle otherwise).
            if self._pending:
                self._settle(self.sim.now)
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
