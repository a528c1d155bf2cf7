"""The folded switch pipeline against the per-hop switch oracle.

A channel delivers to a switch when the switch's pipeline ends, and the
switch admits the frame as of its arrival and forwards it in the same
call.  ``kernel_oracles.per_hop_switches`` is the obvious model: the
switch receives at arrival and forwards from a second event
``switch_forward_ns`` later.  Everything the simulation produces must be
identical under both; only ``events_processed`` may differ (the oracle
runs one more event per switch hop).
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

from kernel_oracles import per_hop_switches

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
