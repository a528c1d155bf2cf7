"""Store-and-forward switch model with ECMP, INT, and failure modes.

Failure modes (the Table 2 / Figure 8 scenarios):

* **fail-stop** (``set_up(False)``): the whole switch drops everything —
  routing around it happens naturally because neighbors' ECMP candidate
  sets exclude downed channels once the failure detector marks them;
* **port failure**: an individual channel goes down (handled by
  :class:`repro.net.link.Channel`);
* **blackhole**: the switch silently drops a *subset* of flows chosen by
  consistent hash — the paper's hardest case ("the traffic blackhole on a
  subset of traffic is hard to detect and mitigate via network
  operations", §4.7);
* **reboot**: fail-stop for a duration, then recovery.

A frame spends ``pipeline_ns`` (``switch_forward_ns``) inside the
switch.  The ingress channel delivers it when that pipeline ends, and
:meth:`Switch.receive` admits it *as of its arrival* (up, blackhole,
drop-rate draw, ttl; state changes made meanwhile are logged) and
forwards it in the same call: one kernel event per hop.  So
``rx_packets`` and the ``dropped_*`` counters are booked when the
pipeline ends; nothing in ``src/`` reads them mid-run.

A frame on a walk (see :mod:`repro.net.link`) passes a plainly
admitting switch without an event of its own; its claim books
``rx_packets``, ``forwarded``, the ttl and the INT stamp later, so
reading those two counters first books every claim that has started.
Any admission write, rewiring or route change rolls the walks back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..profiles import NetworkProfile
from ..sim.engine import Simulator
from .ecmp import flow_hash, pick
from .link import LINK_STATE_EPOCH, Channel, rollback_all, settle_all, walks_of
from .packet import FiveTuple, Packet

#: Flows whose egress one switch remembers before it starts over.
EGRESS_CACHE_FLOWS = 4096


def _admission_field(index: int) -> property:
    """One field of the admission state.  Frames already inside the
    pipeline must not see it change: every write logs the old state."""

    def set_field(self: "Switch", value) -> None:
        rollback_all(self._walks, self.sim)
        self._log_state()
        state = self._admission[:index] + (value,) + self._admission[index + 1:]
        self._admission = state
        self._plain = state[0] and state[1] <= 0.0 and state[3] <= 0.0

    return property(lambda self: self._admission[index], set_field)


def _settled_counter(name: str) -> property:
    """A forward counter that claims book lazily: reads book first."""

    def get(self: "Switch") -> int:
        settle_all(self._walks, self.sim)
        return getattr(self, name)

    return property(get, lambda self, value: setattr(self, name, value))


class Switch:
    """A single switch; forwarding policy is delegated to the topology."""

    #: Channels into a switch walk frames on through it.
    _walkable = True
    rx_packets = _settled_counter("_rx_packets")
    forwarded = _settled_counter("_forwarded")

    up = _admission_field(0)
    blackhole_fraction = _admission_field(1)
    blackhole_salt = _admission_field(2)
    drop_rate = _admission_field(3)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tier: str,
        profile: NetworkProfile,
        next_hops: Optional[Callable[["Switch", Packet], List[str]]] = None,
    ):
        self.sim = sim
        self.name = name
        self.tier = tier
        self.profile = profile
        #: Arrival to forward; ingress channels deliver this much later.
        self.pipeline_ns = profile.switch_forward_ns
        #: neighbor name -> egress channel toward that neighbor.
        self.ports: Dict[str, Channel] = {}
        self._next_hops = next_hops
        #: (up, blackhole fraction, blackhole salt, drop rate).
        self._admission = (True, 0.0, "", 0.0)
        #: Up, no blackhole, no drop rate: a walk may pass.
        self._plain = True
        self._walks = walks_of(sim)
        #: (time, admission state before that time), for frames that
        #: arrived before a change and are still inside the pipeline.
        self._state_log: List[Tuple[int, tuple]] = []
        self._drop_rng = sim.rng.stream(f"switch/{name}/drop")
        #: flow -> egress channel, rebuilt when any link state changes.
        #: Routing is a pure function of (switch, dst, link state) and
        #: ECMP hashes the flow, so this is exact, not approximate.
        self._egress: Dict[FiveTuple, Channel] = {}
        self._egress_epoch = -1
        self._rx_packets = 0
        self._forwarded = 0
        self.dropped_no_route = 0
        self.dropped_blackhole = 0
        self.dropped_down = 0
        self.dropped_ttl = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, neighbor_name: str, egress: Channel) -> None:
        rollback_all(self._walks, self.sim)
        self.ports[neighbor_name] = egress
        LINK_STATE_EPOCH[0] += 1

    def set_route_fn(self, fn: Callable[["Switch", Packet], List[str]]) -> None:
        """Install the routing function.

        ``fn`` must depend only on the switch, ``packet.dst``, and
        current link state — its results are cached per flow and
        invalidated on link-state changes (see ``_egress``).
        """
        rollback_all(self._walks, self.sim)
        self._next_hops = fn
        self._egress.clear()

    # ------------------------------------------------------------------
    # Failure controls
    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        self.up = up

    def set_blackhole(self, fraction: float, salt: str = "bh") -> None:
        """Silently drop ``fraction`` of flows (consistent per flow)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"blackhole fraction out of range: {fraction}")
        self.blackhole_fraction = fraction
        self.blackhole_salt = salt

    def set_drop_rate(self, rate: float) -> None:
        """Drop packets uniformly at random (Table 2's 'packet drop rate'
        scenario — e.g. a failing line card corrupting frames)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate out of range: {rate}")
        self.drop_rate = rate

    def reboot(self, downtime_ns: int) -> None:
        """Fail-stop now, come back after ``downtime_ns``."""
        self.set_up(False)
        self.sim.schedule(downtime_ns, self.set_up, True)

    def _blackholes(self, packet: Packet, state: Optional[tuple] = None) -> bool:
        _, fraction, salt, _ = state or self._admission
        if fraction <= 0.0:
            return False
        h = flow_hash(packet.flow, f"{self.name}|{salt}")
        return (h / 0xFFFFFFFF) < fraction

    def _state_at(self, arrival_ns: int) -> tuple:
        """The admission state a frame that arrived at ``arrival_ns``
        sees.  A change at time t applies to frames arriving at t.
        Arrivals only move forward, so older entries are dropped."""
        log = self._state_log
        while log and log[0][0] <= arrival_ns:
            del log[0]
        return log[0][1] if log else self._admission

    def _log_state(self) -> None:
        self._state_at(self.sim.now - self.pipeline_ns)  # prunes the log
        self._state_log.append((self.sim.now, self._admission))

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, ingress: Channel) -> None:
        """The end of ``packet``'s pipeline: admit as of arrival, forward."""
        self._rx_packets += 1
        state = (
            self._state_at(self.sim.now - self.pipeline_ns)
            if self._state_log else self._admission
        )
        up, fraction, _, rate = state
        if not up:
            self.dropped_down += 1
            return
        if fraction > 0.0 and self._blackholes(packet, state):
            self.dropped_blackhole += 1
            return
        if rate > 0.0 and self._drop_rng.random() < rate:
            self.dropped_blackhole += 1
            return
        if packet.ttl <= 0:
            self.dropped_ttl += 1
            return
        packet.ttl -= 1
        self._forward(packet)

    def _route(self, packet: Packet) -> Optional[Channel]:
        """The egress toward ``packet.dst`` (None: no live route)."""
        flow = packet.flow
        cache = self._egress
        epoch = LINK_STATE_EPOCH[0]
        if self._egress_epoch != epoch:
            cache.clear()
            self._egress_epoch = epoch
        egress = cache.get(flow)
        if egress is None:
            if self._next_hops is None:
                raise RuntimeError(f"switch {self.name} has no routing function")
            candidates = [
                name
                for name in self._next_hops(self, packet)
                if name in self.ports and self.ports[name].up
            ]
            if not candidates:
                return None
            if len(cache) >= EGRESS_CACHE_FLOWS:
                cache.clear()
            egress = cache[flow] = self.ports[pick(flow, candidates, salt=self.name)]
        return egress

    def _forward(self, packet: Packet) -> None:
        if not self._admission[0]:
            self.dropped_down += 1
            return
        egress = (
            self._egress.get(packet.flow)
            if self._egress_epoch == LINK_STATE_EPOCH[0] else None
        )
        if egress is None:
            egress = self._route(packet)
            if egress is None:
                self.dropped_no_route += 1
                return
        tail = egress._tail
        now = self.sim.now
        # A finish due now that was scheduled before this packet arrived
        # runs first, as it would before a forward scheduled at arrival.
        if (tail is not None and tail.finish_ns == now and not tail.finished
                and tail.materialized_ns is not None
                and tail.materialized_ns < now - self.pipeline_ns):
            egress._finish_fast(tail)
        self._stamp_int(packet, egress)
        self._forwarded += 1
        egress.send(packet)

    def _stamp_int(self, packet: Packet, egress: Channel) -> None:
        """Append an HPCC-style telemetry stamp (§4.8 per-packet INT)."""
        packet.int_stamps.append(
            (self.name, self.sim.now, egress.queue.bytes, egress.tx_bytes, egress.gbps)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        if self.blackhole_fraction:
            state += f" blackhole={self.blackhole_fraction:.0%}"
        return f"<Switch {self.name} ({self.tier}) {state}>"
