"""The folded switch pipeline against the per-hop switch oracle.

A channel delivers to a switch when the switch's pipeline ends, and the
switch admits the frame as of its arrival and forwards it in the same
call.  ``kernel_oracles.per_hop_switches`` is the obvious model: the
switch receives at arrival and forwards from a second event
``switch_forward_ns`` later.  Everything the simulation produces must be
identical under both; only ``events_processed`` may differ (the oracle
runs one more event per switch hop).  Frames also walk past idle
switches without events of their own (``Channel._walk``); the oracle
patches that out, and the walk cases at the end pin the claims and
their rollbacks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import zlib

import pytest

from repro.dist import SerialExecutor, reference_fleet, run_fleet
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.lab.spec import canonical_json
from repro.net import Channel, Packet
from repro.net.failures import (
    node_failure,
    random_drop,
    switch_blackhole,
    switch_failure,
    switch_reboot,
    tor_port_failure,
)
from repro.net.switch import EGRESS_CACHE_FLOWS, Switch
from repro.net.topology import ClosTopology, PodSpec
from repro.profiles import DEFAULT
from repro.scenario import get_scenario, run_scenario
from repro.sim import MS, US, Simulator
from repro.workloads import FioSpec, run_fio

from kernel_oracles import no_walks, per_hop_switches

#: One delivered packet in this many has its INT records compared in full.
INT_SAMPLE = 4


def _int_sampler(topology):
    """Wrap every host's ``receive`` to keep the full INT records of a
    crc32-sampled subset of delivered packets (keyed by content, not by
    the process-global ``pkt_id``)."""
    sampled = []
    for endpoint in topology.hosts.values():
        def receive(packet, ingress, _inner=endpoint.receive, _ep=endpoint):
            key = f"{packet.flow}|{packet.size_bytes}|{packet.created_ns}"
            if zlib.crc32(key.encode()) % INT_SAMPLE == 0:
                sampled.append((
                    _ep.sim.now, key, ingress.name,
                    [dataclasses.astuple(r) for r in packet.int_records],
                ))
            _inner(packet, ingress)
        endpoint.receive = receive
    return sampled


def _fabric_counters(topology):
    switches = {
        name: (sw.rx_packets, sw.forwarded, sw.dropped_no_route,
               sw.dropped_blackhole, sw.dropped_down, sw.dropped_ttl)
        for name, sw in topology.switches.items()
    }
    channels = {
        ch.name: (ch.tx_packets, ch.tx_bytes, ch.queue.enqueued,
                  ch.queue.dropped, ch.queue.peak_bytes)
        for link in topology.links for ch in (link.ab, link.ba)
    }
    return switches, channels


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _fio_fingerprint(stack, seed=7, fault=None, runtime_ns=2 * MS):
    dep = EbsDeployment(DeploymentSpec(stack=stack, seed=seed))
    vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
    sampled = _int_sampler(dep.topology)
    if fault is not None:
        fault = fault(dep)
        dep.sim.schedule(runtime_ns // 4, fault.apply, dep.topology)
        dep.sim.schedule(runtime_ns * 3 // 4, fault.revert, dep.topology)
    spec = FioSpec(block_sizes=(4096, 16384), iodepth=8, read_fraction=0.5,
                   runtime_ns=runtime_ns)
    result = run_fio(dep.sim, [vd], spec)["vd0"]
    return {
        "completed": result.completed,
        "bytes_moved": result.bytes_moved,
        "latency": _sha(tuple(result.latency.samples)),
        "int_records": _sha(sampled),
        "int_sampled": len(sampled),
        "fabric": _sha(_fabric_counters(dep.topology)),
        "now": dep.sim.now,
        "events_processed": dep.sim.events_processed,
    }


def _assert_same_but_events(folded, oracle):
    folded, oracle = dict(folded), dict(oracle)
    assert folded.pop("events_processed") < oracle.pop("events_processed")
    assert folded == oracle


# ----------------------------------------------------------------------
# Whole deployments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ["solar", "luna"])
def test_fio_identical_to_per_hop_switches(stack):
    with per_hop_switches():
        oracle = _fio_fingerprint(stack)
    folded = _fio_fingerprint(stack)
    assert folded["int_sampled"] > 100
    _assert_same_but_events(folded, oracle)


#: Every scenario kind of ``repro.net.failures``, built for a deployment.
FAILURES = {
    "tor_port_failure": lambda dep: tor_port_failure(dep.compute_host_names()[0]),
    "node_failure": lambda dep: node_failure(dep.topology.hosts_in_pod("sp")[0].name),
    "switch_failure_tor": lambda dep: switch_failure("tor"),
    "switch_failure_spine_link_down": lambda dep: switch_failure("spine", link_down=True),
    "switch_reboot": lambda dep: switch_reboot("tor", downtime_ns=300 * US),
    "switch_blackhole_tor": lambda dep: switch_blackhole("tor", 0.5),
    "switch_blackhole_spine": lambda dep: switch_blackhole("spine", 0.5),
    "random_drop": lambda dep: random_drop("tor", 0.75),
}


@pytest.mark.parametrize("stack", ["solar", "luna"])
@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failure_scenarios_identical_to_per_hop_switches(kind, stack):
    with per_hop_switches():
        oracle = _fio_fingerprint(stack, seed=3, fault=FAILURES[kind])
    folded = _fio_fingerprint(stack, seed=3, fault=FAILURES[kind])
    _assert_same_but_events(folded, oracle)


@pytest.mark.parametrize("name", ["incast-burst", "rebuild-storm"])
def test_catalog_scenarios_identical_to_per_hop_switches(name):
    with per_hop_switches():
        oracle = run_scenario(get_scenario(name), jobs=1)
    folded = run_scenario(get_scenario(name), jobs=1)
    assert canonical_json(folded) == canonical_json(oracle)


@pytest.mark.parametrize("shards", [1, 2])
def test_reference_fleet_identical_to_per_hop_switches(shards):
    spec = dataclasses.replace(
        reference_fleet(deployments=2, runtime_ns=3 * MS), drain_ns=3 * MS
    )
    with per_hop_switches():
        oracle = run_fleet(spec, shards=shards, executor=SerialExecutor())
    folded = run_fleet(spec, shards=shards, executor=SerialExecutor())
    assert folded.digest == oracle.digest
    assert folded.artifacts == oracle.artifacts
    assert folded.events_processed < oracle.events_processed


# ----------------------------------------------------------------------
# State changes inside a packet's [arrival, forward) window
# ----------------------------------------------------------------------
def _burst_outcome(change, at_ns, setup=None):
    """Send a burst of flows across a small Clos, apply ``change`` at
    ``at_ns``, and return everything observable about the outcome."""
    sim = Simulator(seed=11)
    topo = ClosTopology(sim, DEFAULT.network, [
        PodSpec("cp", racks=1, hosts_per_rack=2, role="compute"),
        PodSpec("sp", racks=2, hosts_per_rack=2, role="storage"),
    ])
    if setup is not None:
        setup(topo)
    got = []
    for name, endpoint in topo.hosts.items():
        endpoint.on_default(
            lambda p, name=name: got.append(
                (name, sim.now, p.flow, [dataclasses.astuple(r) for r in p.int_records])
            )
        )
    sim.schedule(at_ns, change, topo)
    for i in range(12):
        dst = ("sp/r0/h0", "sp/r1/h1", "sp/r1/h0")[i % 3]
        sim.schedule(i * 120, topo.hosts["cp/r0/h0"].send,
                     Packet("cp/r0/h0", dst, 1000 + i, 80, "udp", 600 + 150 * i))
    sim.run(until=60 * US)
    return got, _fabric_counters(topo)


def _tors_up(up):
    return lambda topo: [sw.set_up(up) for sw in topo.switches_by_tier("tor")]


def _tors_written_down(topo):
    for sw in topo.switches_by_tier("tor"):
        sw.up = False  # a direct write, not set_up


def _spine_uplinks_down(topo):
    # The channels from the ToRs into the spines: frames already inside
    # a spine's pipeline were delivered before the line went down.
    for sw in topo.switches_by_tier("tor"):
        for name, channel in sw.ports.items():
            if name in topo.switches:
                channel.set_up(False)


#: kind -> (setup at build, change at the swept instant).
CHANGES = {
    "switch_down": (None, _tors_up(False)),
    "switch_up": (_tors_up(False), _tors_up(True)),
    "blackhole": (None, lambda topo: [sw.set_blackhole(0.5, "w")
                                      for sw in topo.switches.values()]),
    "drop_rate": (None, lambda topo: [sw.set_drop_rate(0.5)
                                      for sw in topo.switches.values()]),
    "direct_write_down": (None, _tors_written_down),
    "channel_down": (None, _spine_uplinks_down),
}


def _sweep_instants():
    """A 97 ns grid over the burst, plus every switch visit's arrival and
    forward instants and the ns just inside them."""
    got, _ = _burst_outcome(lambda topo: None, 0)
    pipeline = DEFAULT.network.switch_forward_ns
    forwards = {record[1] for *_, records in got for record in records}
    edges = {t + d for t in forwards for d in (-pipeline, 1 - pipeline, -1, 0)}
    return sorted(edges | set(range(0, 8_000, 97)))


@pytest.mark.parametrize("kind", sorted(CHANGES))
def test_state_change_inside_pipeline_window(kind):
    setup, change = CHANGES[kind]
    outcomes = set()
    for at_ns in _sweep_instants():
        folded = _burst_outcome(change, at_ns, setup)
        with per_hop_switches():
            oracle = _burst_outcome(change, at_ns, setup)
        assert folded == oracle, f"{kind} at {at_ns}ns"
        outcomes.add(len(folded[0]))
    # The sweep crosses packets' windows: the change hits some, not all.
    assert len(outcomes) > 2


# ----------------------------------------------------------------------
# The same-ns finish tie on the egress
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.received = []

    def receive(self, packet, ingress):
        self.received.append(
            (self.sim.now, packet.sport, [dataclasses.astuple(r) for r in packet.int_records])
        )


def _finish_tie(materialize_at_ns):
    """A switch forwards packet A at exactly the instant its egress frame
    X finishes serializing, and X's finish is materialized (by frame Y
    queueing behind it) at ``materialize_at_ns``."""
    net = DEFAULT.network
    sim = Simulator()
    src, dst = _Sink(sim, "src"), _Sink(sim, "dst")
    sw = Switch(sim, "sw", "tor", net, next_hops=lambda s, p: ["dst"])
    ingress = Channel(sim, "src->sw", src, sw, 25.0, 100, 1 << 20)
    egress = Channel(sim, "sw->dst", sw, dst, 25.0, 100, 1 << 20)
    sw.connect("dst", egress)
    # X: 2500B at 25G is 800ns on the wire, so it finishes at t=800.
    sim.schedule(0, egress.send, Packet("sw", "dst", 1, 9, "udp", 2500))
    sim.schedule(materialize_at_ns, egress.send, Packet("sw", "dst", 2, 9, "udp", 700))
    # A: 125B at 25G is 40ns, plus 100ns of propagation.  Sent at 210,
    # it arrives at 350 and leaves the pipeline at 800.
    sim.schedule(800 - net.switch_forward_ns - 100 - 40, ingress.send,
                 Packet("src", "dst", 3, 9, "udp", 125))
    sim.run()
    return dst.received, egress.queue.peak_bytes, sim.now


@pytest.mark.parametrize("materialize_at_ns", [100, 300, 349, 351, 600])
def test_same_ns_finish_tie_matches_per_hop(materialize_at_ns):
    # A arrives at 350.  Materialized before that (100: before A was
    # even sent; 300 and 349: while A was on the ingress wire), X's
    # finish runs before the per-hop forward, which is scheduled at
    # arrival; materialized after it (351, 600), the forward runs first.
    # At exactly 350 the per-hop order depends on the seq of the event
    # that materialized the finish, which the kernel does not expose;
    # the folded switch then forwards first.
    folded = _finish_tie(materialize_at_ns)
    with per_hop_switches():
        oracle = _finish_tie(materialize_at_ns)
    assert folded == oracle
    a_int = next(r for r in folded[0] if r[1] == 3)[2]
    assert a_int[0][1] == 800  # stamped exactly at X's finish
    # Finish first: Y has left the queue when A is stamped.
    assert a_int[0][2] == (0 if materialize_at_ns < 350 else 700)


# ----------------------------------------------------------------------
# The flow -> egress cache
# ----------------------------------------------------------------------
def test_egress_cache_is_bounded_and_follows_the_route_function():
    sim = Simulator()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    sw = Switch(sim, "sw", "tor", DEFAULT.network, next_hops=lambda s, p: ["a"])
    for sink in (a, b):
        sw.connect(sink.name, Channel(sim, f"sw->{sink.name}", sw, sink, 100.0, 0, 1 << 30))
    flows = EGRESS_CACHE_FLOWS + 10
    for sport in range(flows):
        sw.receive(Packet("x", "y", sport, 9, "udp", 64), None)
    assert 0 < len(sw._egress) <= EGRESS_CACHE_FLOWS
    sw.set_route_fn(lambda s, p: ["b"])
    sw.receive(Packet("x", "y", 0, 9, "udp", 64), None)
    sim.run()
    assert len(a.received) == flows
    assert [r[1] for r in b.received] == [0]


# ----------------------------------------------------------------------
# Walks: a frame passes every idle switch ahead without an event
# ----------------------------------------------------------------------
#: Line rates of the walk topology: the 25G hop is where frames meet.
WALK_GBPS = {"a->s0": 100.0, "b->s0": 100.0, "s0->s1": 100.0, "c->s1": 40.0,
             "s1->s2": 25.0, "s2->dst": 50.0}


def _walk_topology(sim):
    """Sources ``a`` and ``b`` meet at ``s0``, ``c`` joins at ``s1``; all
    traffic goes to ``dst`` over ``s1->s2`` (the slowest hop)."""
    net = DEFAULT.network
    sinks = {name: _Sink(sim, name) for name in ("a", "b", "c", "dst")}
    switches = {}
    order = ["s0", "s1", "s2", "dst"]
    for i, name in enumerate(order[:-1]):
        switches[name] = Switch(sim, name, "tor", net,
                                next_hops=lambda s, p, nxt=order[i + 1]: [nxt])
    nodes = {**sinks, **switches}
    channels = {}
    for name, gbps in WALK_GBPS.items():
        src, dst = name.split("->")
        channels[name] = Channel(sim, name, nodes[src], nodes[dst], gbps, 100, 1 << 20)
        if src in switches:
            switches[src].connect(dst, channels[name])
    return switches, channels, sinks["dst"]


def _walk_outcome(sends, change=None, at_ns=0, reads=(), switch_reads=False):
    """Run ``sends`` — ``(time, entry, sport, size)``, entry a source
    name or ``"direct"`` for a real send straight onto ``s1->s2`` — with
    ``change(switches, channels)`` at ``at_ns``, reading every channel's
    counters at each instant of ``reads`` (and with ``switch_reads``,
    every switch's)."""
    sim = Simulator(seed=5)
    switches, channels, dst = _walk_topology(sim)
    seen = []

    def read():
        seen.append((
            sim.now,
            [(ch.tx_packets, ch.tx_bytes, ch.queue.enqueued) for ch in channels.values()],
            [(sw.rx_packets, sw.forwarded) for sw in switches.values()] if switch_reads else (),
        ))

    for t in reads:
        sim.schedule_at(t, read)
    if change is not None:
        sim.schedule_at(at_ns, change, switches, channels)
    for t, entry, sport, size in sends:
        channel = channels["s1->s2" if entry == "direct" else f"{entry}->{'s1' if entry == 'c' else 's0'}"]
        sim.schedule_at(t, channel.send, Packet(entry, "dst", sport, 9, "udp", size))
    sim.run()
    counters = (
        {n: (sw.rx_packets, sw.forwarded, sw.dropped_no_route, sw.dropped_blackhole,
             sw.dropped_down, sw.dropped_ttl) for n, sw in switches.items()},
        {n: (ch.tx_packets, ch.tx_bytes, ch.queue.enqueued, ch.queue.dropped,
             ch.queue.peak_bytes) for n, ch in channels.items()},
    )
    # Not ``sim.now``: a frame dropped at a switch costs the per-hop
    # oracle its last event at arrival, and the folded switch at the
    # end of the pipeline.
    return dst.received, seen, counters, sim.events_processed


def _assert_walk_parity(sends, **kwargs):
    folded = _walk_outcome(sends, **kwargs)
    with per_hop_switches():
        oracle = _walk_outcome(sends, **kwargs)
    assert folded[:-1] == oracle[:-1]
    return folded[-1], oracle[-1]


def test_an_uncontended_packet_runs_three_events():
    # Its send, its walk's last forward (at ``s2``, where the delivery
    # is pushed as that forward would push it) and its delivery at
    # ``dst``; per hop: the send, four deliveries and three forwards.
    folded, oracle = _assert_walk_parity([(0, "a", 1, 1500)])
    assert (folded, oracle) == (3, 8)


@pytest.mark.parametrize("gap_ns", [0, 1, 60, 119, 120, 121, 240, 479, 480, 481, 1000])
def test_walks_meeting_on_a_shared_channel(gap_ns):
    # ``a`` walks first; ``b`` (same path, later) and ``c`` (shorter
    # path, later) reach ``s1->s2`` as ``a``'s claim starts, overlaps or
    # ends there, so later walks stop, take an earlier slot, or roll
    # earlier ones back.
    sends = [(0, "a", 1, 1500), (gap_ns, "b", 2, 1500), (gap_ns, "c", 3, 600),
             (2 * gap_ns, "a", 4, 300)]
    folded, oracle = _assert_walk_parity(sends)
    assert folded < oracle


@pytest.mark.parametrize("at_ns", range(0, 2400, 37))
def test_real_send_into_a_claimed_slot(at_ns):
    # Real frames sent straight onto ``s1->s2`` (outside any delivery)
    # before, inside, at the start of and after the slots the walks
    # claimed there; the second one queues behind the first.
    sends = [(0, "a", 1, 1500), (0, "b", 2, 900), (at_ns, "direct", 3, 700),
             (at_ns + 1, "direct", 4, 100)]
    _assert_walk_parity(sends)


def _claim_starts():
    """The instants the walks of the contended sends start claims."""
    starts = []
    original = Channel._walk

    def spy(channel, rec):
        original(channel, rec)
        starts.extend(claim[0] for claim in rec.claims or ())

    Channel._walk = spy
    try:
        _walk_outcome([(0, "a", 1, 1500), (0, "b", 2, 900), (300, "c", 3, 400)])
    finally:
        Channel._walk = original
    return sorted(set(starts))


def test_real_send_tied_with_a_claim_start():
    # At exactly a claim's start the real send goes first.  Per hop it
    # does too, because it was scheduled before the walk's hops were
    # pushed.  One scheduled after them (mid-run, at the tie instant)
    # would go second per hop but still first here: the kernel does not
    # say when the running event was pushed, and only frame deliveries
    # carry that order (``_InFlight.vtime``/``vseq``).  Only tests send
    # onto a switch's egress outside a delivery.
    starts = _claim_starts()
    assert len(starts) >= 4
    for start in starts:
        sends = [(0, "a", 1, 1500), (0, "b", 2, 900), (300, "c", 3, 400),
                 (start, "direct", 4, 200)]
        _assert_walk_parity(sends)


def _set_route(switches, channels):
    # Same next hop, new function: the walks' cached routes are void.
    switches["s1"].set_route_fn(lambda s, p: ["s2"])


#: change -> what it does to the walk topology.
WALK_CHANGES = {
    "switch_down": lambda sw, ch: sw["s1"].set_up(False),
    "blackhole": lambda sw, ch: sw["s2"].set_blackhole(1.0),
    "drop_rate": lambda sw, ch: sw["s1"].set_drop_rate(0.5),
    "channel_down": lambda sw, ch: ch["s1->s2"].set_up(False),
    "channel_flap": lambda sw, ch: (ch["s0->s1"].set_up(False), ch["s0->s1"].set_up(True)),
    "route_fn": _set_route,
}


@pytest.mark.parametrize("kind", sorted(WALK_CHANGES))
def test_claims_in_flight_when_state_changes(kind):
    sends = [(0, "a", 1, 1500), (0, "b", 2, 900), (150, "c", 3, 400),
             (400, "a", 4, 1500)]
    outcomes = set()
    for at_ns in range(0, 3000, 41):
        _assert_walk_parity(sends, change=WALK_CHANGES[kind], at_ns=at_ns)
        outcomes.add(len(_walk_outcome(sends, change=WALK_CHANGES[kind], at_ns=at_ns)[0]))
    if kind not in ("route_fn", "channel_flap"):  # these lose nothing
        assert len(outcomes) > 1  # the change hits some packets, not all


@pytest.mark.parametrize("ttl", [0, 1, 2, 3, 4])
def test_ttl_running_out_mid_route(ttl):
    def outcome():
        sim = Simulator()
        switches, channels, dst = _walk_topology(sim)
        packet = Packet("a", "dst", 1, 9, "udp", 800, ttl=ttl)
        sim.schedule(0, channels["a->s0"].send, packet)
        sim.run()
        return dst.received, {n: sw.dropped_ttl for n, sw in switches.items()}

    folded = outcome()
    with per_hop_switches():
        oracle = outcome()
    assert folded == oracle
    assert len(folded[0]) == (ttl >= 3)


def test_counter_reads_mid_walk_exclude_unstarted_claims():
    # Every ns of a walk's life, and a coarser grid around the others.
    sends = [(0, "a", 1, 1500), (0, "b", 2, 900), (200, "c", 3, 400)]
    reads = sorted(set(range(0, 2600, 13)) | set(range(640, 700)))
    folded, oracle = _assert_walk_parity(sends, reads=reads)
    # The packets walked, so most reads came before the claims they
    # could see were booked by a delivery.
    assert folded < oracle
    # Switch counters mid-run: the folded switch books a frame when its
    # pipeline ends (the per-hop oracle at arrival), walked or not.
    walked = _walk_outcome(sends, reads=reads, switch_reads=True)
    with no_walks():
        hop_by_hop = _walk_outcome(sends, reads=reads, switch_reads=True)
    assert walked[:-1] == hop_by_hop[:-1]
    assert walked[-1] < hop_by_hop[-1]
