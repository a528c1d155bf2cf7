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

Walks
-----

When a frame starts toward a switch, :meth:`Channel._walk` follows its
route ahead through every switch that would forward it at once: the
switch admits it plainly and its egress is idle, unclaimed and has room
when the frame gets there.  Each such hop records a *claim*
``(start, finish, walk, index, switch, egress, vtime)`` on the egress.
A claim books nothing until it starts; it is booked (:func:`_book`:
switch counters, ttl, INT stamp, queue and tx statistics) when its
channel is next touched or its packet delivered.  A real frame that
would overlap an unstarted claim, and any switch admission write,
channel up/down, rewiring or route change, *roll the walk back*
(:func:`_rollback`): its later claims are dropped and its packet is
delivered per hop from the hop it is on.  A real frame sent while a
claimed frame is on the wire queues behind a stand-in record for it
(the walk's ``tails``), and the walk goes on.

Event order.  Per hop, a frame's delivery is pushed by its previous
forward, and same-instant events run in push order.  A walk's record
fires twice: at its last forward, where it pushes itself for the end of
the walk as that forward would have, and at the end.  Events that a
walk schedules out of turn (its last-forward event, and the hop that a
rollback delivers) take the ``seq`` of the begin that started their
packet's chain of forwards, plus a fraction, so they keep the order of
their packets among themselves.  Against events of other kinds pushed
for the same nanosecond after that begin, the order can still differ
from per hop (see ARCHITECTURE §15).

Tx statistics are O(1): a frame counts from the start of its
serialization, and as frames on one channel serialize one after
another, only the last one can still be on the wire; reads subtract
it until ``t_f``.  ``tests/kernel_oracles.py`` keeps the two-event
channel and the per-hop switch that the tests compare this against.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
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
    a finish event at ``finish_ns`` was scheduled (else None).  A walk's
    record also holds its ``claims``, how many are ``booked``, and the
    ``tails`` its claims on the wire left for frames queued behind them:
    ``(index, channel, record)``.  ``vtime`` is when the frame's last hop
    was pushed per hop, and ``vseq`` the ``seq`` of the begin that
    started its packet's chain of forwards: together they order
    same-instant deliveries the way per-hop events would run."""

    __slots__ = ("packet", "finish_ns", "materialized_ns", "finished",
                 "claims", "booked", "tails", "vtime", "vseq")

    def __init__(self, time: int, seq: int, fn, packet: Packet, finish_ns: int,
                 vtime: int, vseq: int):
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
        self.claims: Optional[tuple] = None
        self.booked = 0
        self.tails: Optional[tuple] = None
        self.vtime = vtime
        self.vseq = vseq


class _Walks:
    """The outstanding walks of one simulator, and two counts of what
    became of the rest: walks that ended at a receiver that is not a
    switch, and walks rolled back."""

    __slots__ = ("live", "current", "to_endpoint", "rollbacks")

    def __init__(self) -> None:
        #: walk record -> None, in creation order.
        self.live: Dict[_InFlight, None] = {}
        #: The record whose delivery is running, if any.
        self.current: Optional[_InFlight] = None
        self.to_endpoint = 0
        self.rollbacks = 0


_WALKS: "weakref.WeakKeyDictionary[Simulator, _Walks]" = weakref.WeakKeyDictionary()


def walks_of(sim: Simulator) -> _Walks:
    walks = _WALKS.get(sim)
    if walks is None:
        walks = _WALKS[sim] = _Walks()
    return walks


def _horizon(sim: Simulator) -> int:
    """Claims that start before this instant have started.  During a
    run that is now; between runs every event at now has run too."""
    return sim.now if sim._running else sim.now + 1


def _started(rec: _InFlight, horizon: int) -> int:
    claims = rec.claims
    n = rec.booked
    while n < len(claims) and claims[n][0] < horizon:
        n += 1
    return n


def _book(rec: _InFlight, upto: int, now: int) -> None:
    """Book ``rec``'s claims before index ``upto`` as their forwards
    would have.  A channel books its claims in start order (its tx bytes
    go into the INT stamp), so earlier claims of other walks go first;
    those never need this walk's later claims, which start later still."""
    i = rec.booked
    if i >= upto:
        return
    rec.booked = upto
    packet = rec.packet
    packet.ttl -= upto - i
    size = packet.size_bytes
    stamp = packet.int_stamps.append
    for claim in rec.claims[i:upto]:
        start, finish, _, _, switch, egress, _ = claim
        pending = egress._claims
        while pending[0] is not claim:
            first = pending[0]
            _book(first[2], first[3] + 1, now)
        del pending[0]
        switch._rx_packets += 1
        switch._forwarded += 1
        # The egress was idle with an empty queue at the claim's start.
        queue = egress.queue
        if type(queue) is DropTailQueue:
            queue.enqueued += 1
            if size > queue.peak_bytes:
                queue.peak_bytes = size
        else:
            queue.admit(packet)
        stamp((switch.name, start, 0, egress._tx_bytes, egress.gbps))
        egress._tx_packets += 1
        egress._tx_bytes += size
        # Kept only while its frame may be on the wire.
        egress._last_claim = claim if finish > now else None


def _fire_if_live(rec: _InFlight) -> None:
    if rec.args:
        rec.fn(*rec.args)


def _rollback(rec: _InFlight, walks: _Walks, sim: Simulator) -> None:
    """Deliver a walk per hop from the hop it is on (its started claims
    are booked): drop its later claims and cancel its final event."""
    claims = rec.claims
    keep = rec.booked
    del walks.live[rec]
    walks.rollbacks += 1
    for claim in claims[keep:]:
        claim[5]._claims.remove(claim)
    rec.cancel()
    if keep == 0:
        # Still on its first channel: that channel's delivery, with
        # rec kept as its frame (a down line at the finish clears
        # ``args``, and then nothing is delivered).
        rec.claims = None
        rec.args = (rec,)
        sim._push_fire(claims[0][0], rec.vseq + 0.25, _fire_if_live, (rec,))
        return
    claim = claims[keep - 1]
    channel = claim[5]
    at = claims[keep][0] if keep < len(claims) else claim[1] + channel._hold_ns
    hop = None
    for index, tail_channel, tail in rec.tails or ():
        if index == keep - 1:
            hop = tail  # already the channel's frame, outstanding there
        else:
            tail_channel._retire(tail)
    if hop is None:
        hop = _InFlight(at, 0, None, rec.packet, claim[1], claim[0], rec.vseq)
        channel._outstanding += 1
        tail = channel._tail
        if tail is None or tail.finish_ns <= claim[0]:
            channel._tail = hop
    hop.time = at
    # Where a walk's last forward pushed its end, the hop takes that
    # place; elsewhere the place of its packet's first forward.
    hop.seq = rec.seq if at == rec.time else rec.vseq + 0.5
    hop.fn = channel._deliver_fast
    hop.args = (hop,)
    sim._push(hop)
    if channel._last_claim is claim:
        channel._last_claim = None
    rec.args = ()
    rec.claims = rec.tails = None
    # ``fn`` is the delivery method bound to the channel rec started on.
    rec.fn.__self__._retire(rec)


def _rollback_walks(walks: _Walks, recs: List[_InFlight], sim: Simulator) -> None:
    horizon = _horizon(sim)
    for rec in recs:
        _book(rec, _started(rec, horizon), sim.now)
    for rec in recs:
        _rollback(rec, walks, sim)


def rollback_all(walks: _Walks, sim: Simulator) -> None:
    """Roll every outstanding walk back: the state it relied on changes."""
    if walks.live:
        _rollback_walks(walks, list(walks.live), sim)


def settle_all(walks: _Walks, sim: Simulator) -> None:
    """Book every claim that has started, for exact counter reads."""
    horizon = _horizon(sim)
    for rec in list(walks.live):
        _book(rec, _started(rec, horizon), sim.now)


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
        #: Frames (bytes) that started serializing, the tail included,
        #: and booked claims.
        self._tx_packets = 0
        self._tx_bytes = 0
        #: The frame that started serializing last (the busy test).
        self._tail: Optional[_InFlight] = None
        #: Frames in flight; the transition log lives while > 0.
        self._outstanding = 0
        #: (time, up) transitions while frames are in flight, so a
        #: delivery can evaluate "was the line up at my t_f and t_a?".
        self._up_log: List[Tuple[int, bool]] = []
        #: Walks go on through a switch receiver (see ``_walk``).
        self._to_switch = dst if getattr(dst, "_walkable", False) else None
        self._walks = walks_of(sim)
        #: Unbooked claims on this channel, by start.
        self._claims: List[tuple] = []
        #: The claim booked last, while it may still be on the wire.
        self._last_claim: Optional[tuple] = None
        #: The largest frame the empty queue admits in every class.
        queue = self.queue
        self._walk_max_bytes = (
            min(queue.high.capacity_bytes, queue.low.capacity_bytes)
            if priority else queue.capacity_bytes
        )

    # ------------------------------------------------------------------
    # Tx statistics: everything started, less the frame on the wire
    # ------------------------------------------------------------------
    def _on_wire(self) -> Optional[Packet]:
        if self._claims:
            self._settle()
        now = self.sim.now
        tail = self._tail
        if tail is not None and tail.finish_ns > now:
            return tail.packet
        claim = self._last_claim
        if claim is not None and claim[1] > now:
            return claim[2].packet
        return None

    @property
    def tx_packets(self) -> int:
        if self._on_wire() is not None:
            return self._tx_packets - 1
        return self._tx_packets

    @property
    def tx_bytes(self) -> int:
        packet = self._on_wire()
        if packet is not None:
            return self._tx_bytes - packet.size_bytes
        return self._tx_bytes

    def _settle(self) -> None:
        """Book the claims on this channel that have started."""
        sim = self.sim
        horizon = _horizon(sim)
        pending = self._claims
        while pending and pending[0][0] < horizon:
            first = pending[0]
            _book(first[2], first[3] + 1, sim.now)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission.  Returns False if dropped.

        A downed channel silently drops (fail-stop port/cable failure);
        the sender has no signal other than missing ACKs, matching how a
        real fabric fails (§3.3).
        """
        if not self._up:
            return False
        if self._claims or self._last_claim is not None:
            self._make_room(packet)
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

    def _make_room(self, packet: Packet) -> None:
        """A real frame starts or queues here now: book the claims that
        started, and roll back the walks whose frames would overlap it."""
        sim = self.sim
        now = sim.now
        walks = self._walks
        self._settle()
        pending = self._claims
        if pending and pending[0][0] == now:
            # Same-ns tie: per hop, the claim's forward and this send
            # run in the order their delivery events were pushed.
            claim = pending[0]
            current = walks.current
            if current is not None and (claim[6], claim[2].vseq) < (current.vtime, current.vseq):
                _book(claim[2], claim[3] + 1, now)
        claim = self._last_claim
        if claim is not None:
            if claim[1] > now:
                # Its frame is on the wire: give it a record for this
                # frame to queue behind.  The walk goes on.
                rec = claim[2]
                tail = _InFlight(0, 0, None, rec.packet, claim[1], claim[0], rec.vseq)
                tail.args = ()
                self._tail = tail
                self._outstanding += 1
                rec.tails = (rec.tails or ()) + ((claim[3], self, tail),)
            self._last_claim = None
        if not pending:
            return
        tail = self._tail
        if tail is not None and (
            tail.finish_ns > now or (tail.materialized_ns is not None and not tail.finished)
        ):
            queue = self.queue
            if type(queue) is DropTailQueue:
                # First in, first out: it starts when the frame on the
                # wire and every frame queued before it have gone.
                until = tail.finish_ns + self._wire_time(packet.size_bytes)
                for queued in queue._items:
                    until += self._wire_time(queued.size_bytes)
                doomed = [claim[2] for claim in pending if claim[0] < until]
            else:
                doomed = [claim[2] for claim in pending]
        else:
            until = now + self._wire_time(packet.size_bytes)
            doomed = [claim[2] for claim in pending if claim[0] < until]
        if doomed:
            _rollback_walks(walks, doomed, sim)

    def _wire_time(self, size: int) -> int:
        wire_ns = self._wire_ns.get(size)
        if wire_ns is None:
            wire_ns = self._wire_ns[size] = bytes_time_ns(size, self.gbps)
        return wire_ns

    def _begin(self, packet: Packet) -> _InFlight:
        sim = self.sim
        size = packet.size_bytes
        wire_ns = self._wire_ns.get(size)
        if wire_ns is None:
            wire_ns = self._wire_ns[size] = bytes_time_ns(size, self.gbps)
        now = sim.now
        finish_ns = now + wire_ns
        seq = sim._seq
        sim._seq = seq + 1
        # Pushed the way Simulator.schedule pushes an Event, without
        # allocating a second object for it.
        rec = _InFlight(finish_ns + self._hold_ns, seq, self._deliver_fast, packet,
                        finish_ns, now, seq)
        if self._to_switch is not None:
            current = self._walks.current
            if current is not None and current.packet is packet:
                rec.vseq = current.vseq  # the same packet's chain goes on
            self._walk(rec)
        sim._push(rec)
        self._tail = rec
        self._outstanding += 1
        self._tx_packets += 1
        self._tx_bytes += size
        return rec

    def _walk(self, rec: _InFlight) -> None:
        """Claim every hop ahead of ``rec`` that would forward it at once,
        and retime ``rec`` to the walk's last forward (see the module doc)."""
        switch = self._to_switch
        packet = rec.packet
        ttl = packet.ttl
        if ttl <= 0 or not switch._plain:
            return
        flow = packet.flow
        size = packet.size_bytes
        epoch = LINK_STATE_EPOCH[0]
        t = rec.time
        vtime = rec.vtime
        claims = ()
        n = 0
        while True:
            egress = switch._egress.get(flow) if switch._egress_epoch == epoch else None
            if egress is None:
                if switch._next_hops is None:
                    break
                egress = switch._route(packet)
                if egress is None:
                    break
            if not egress._up or size > egress._walk_max_bytes:
                break
            tail = egress._tail
            if tail is not None and (
                tail.finish_ns > t or (tail.materialized_ns is not None and not tail.finished)
            ):
                break
            wire_ns = egress._wire_ns.get(size)
            if wire_ns is None:
                wire_ns = egress._wire_ns[size] = bytes_time_ns(size, egress.gbps)
            finish = t + wire_ns
            pending = egress._claims
            claim = (t, finish, rec, n, switch, egress, vtime)
            if not pending or pending[-1][1] <= t:
                pending.append(claim)
            else:
                i = bisect_left(pending, (t,))
                if (i and pending[i - 1][1] > t) or (i < len(pending) and pending[i][0] < finish):
                    break
                pending.insert(i, claim)
            claims += (claim,)
            n += 1
            ttl -= 1
            vtime = t
            t = finish + egress._hold_ns
            switch = egress._to_switch
            if switch is None or ttl <= 0 or not switch._plain:
                break
        if claims:
            rec.time = claims[-1][0]
            rec.claims = claims
            if rec.vseq != rec.seq:
                # Among the forwards of its instant, a walk's last one
                # takes the place of its packet's first.
                rec.seq = rec.vseq + 0.5
            self._walks.live[rec] = None

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
        claims = rec.claims
        if claims is not None:
            last = claims[-1]
            sim = self.sim
            if rec.time == last[0]:
                # The walk's last forward: push its end now, so that it
                # takes its place among the events of that instant as
                # the forward's push would have.
                rec.time = last[1] + last[5]._hold_ns
                rec.seq = sim._seq
                sim._seq += 1
                sim._push(rec)
                return
            # The end of a walk: no line or switch on it changed state
            # (that rolls the walk back), so only the booking is left.
            rec.args = ()
            walks = self._walks
            del walks.live[rec]
            _book(rec, len(claims), sim.now)
            if rec.tails is not None:
                for _, channel, tail in rec.tails:
                    channel._retire(tail)
                rec.tails = None
            # No cycle left through the claims; the delivery's order key
            # is now that of its last hop.
            rec.claims = None
            rec.vtime = last[0]
            self._retire(rec)
            ingress = last[5]
            if ingress._to_switch is None:
                walks.to_endpoint += 1
                ingress.dst.receive(rec.packet, ingress)
            else:
                walks.current = rec
                ingress.dst.receive(rec.packet, ingress)
                walks.current = None
            return
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
        if not up:
            return
        if self._to_switch is None:
            self.dst.receive(rec.packet, self)
        else:
            # A forward from inside it may tie with a claim, or walk on.
            walks = self._walks
            walks.current = rec
            self.dst.receive(rec.packet, self)
            walks.current = None

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
            # First, so that frames on walks are in flight here (and
            # logged) before the line changes.
            rollback_all(self._walks, self.sim)
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
