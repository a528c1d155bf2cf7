"""Fabric microbench: host cost and kernel events per packet.

Two cases on the default LUNA deployment (16 hosts on a two-pod Clos,
five switches between a compute and a storage host):

* ``uncontended`` — one 4 KB data packet at a time from a compute host
  to a storage host, spaced so that no frame ever waits for a line;
* ``incast48`` — 48 packets from the other 15 hosts, all sent at the
  same instant to one storage host, so they queue on its ToR downlink.

For each case it reports host µs and kernel events per packet (the
event that sends the packet included), as the median of
``common.MEDIAN_RUNS`` runs, and how the fabric's walks fared: the
share of packets whose last hop was walked (their walk ended at the
destination host) and walks rolled back per packet.  Results are
appended to the committed ``BENCH_fabric_history.jsonl``; nothing is
gated.

    cd benchmarks && PYTHONPATH=../src:. python bench_fabric_hop.py
"""

from __future__ import annotations

import json
import os
import platform
import time

from common import MEDIAN_RUNS, format_table, median_run, once, save_output

from repro.ebs import DeploymentSpec, EbsDeployment
from repro.net import Packet
from repro.net.link import walks_of
from repro.sim import US

BENCH_VERSION = 1
SEED = 1
PACKET_BYTES = 4096 + 64
INCAST_WAYS = 48
#: Packets per timed run, per case.
PACKETS = {"uncontended": 4000, "incast48": 48 * 80}
#: Gap between uncontended sends and between incast rounds.
GAP_NS = {"uncontended": 20 * US, "incast48": 400 * US}

HISTORY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_fabric_history.jsonl"
)


def run_case(case: str) -> dict:
    """One timed run of ``case``; returns per-packet host cost and events."""
    dep = EbsDeployment(DeploymentSpec(stack="luna", seed=SEED))
    hosts = dep.topology.hosts
    target = dep.topology.hosts_in_pod("sp")[0]
    received = []
    target.on_proto("bench", received.append)
    if case == "uncontended":
        senders = [dep.compute_host_names()[0]]
        per_round = 1
    else:
        senders = [name for name in hosts if name != target.name]
        per_round = INCAST_WAYS
    count = PACKETS[case]
    for i in range(count):
        src = senders[i % len(senders)]
        packet = Packet(src, target.name, 10_000 + i % per_round, 7000, "bench",
                        PACKET_BYTES)
        dep.sim.schedule(i // per_round * GAP_NS[case], hosts[src].send, packet)
    wall_start = time.perf_counter()
    dep.sim.run()
    wall_s = time.perf_counter() - wall_start
    assert len(received) == count, f"{case}: {len(received)}/{count} delivered"
    walks = walks_of(dep.sim)
    return {
        "packets": count,
        "wall_s": round(wall_s, 4),
        "us_per_packet": round(wall_s * 1e6 / count, 2),
        "events_per_packet": round(dep.sim.events_processed / count, 3),
        "walked_to_host_share": round(walks.to_endpoint / count, 3),
        "rollbacks_per_packet": round(walks.rollbacks / count, 3),
        "sim_ns": dep.sim.now,
    }


def run_fabric_bench() -> dict:
    cases = {
        case: median_run(lambda case=case: run_case(case),
                         ("packets", "events_per_packet", "walked_to_host_share",
                          "rollbacks_per_packet", "sim_ns"))
        for case in PACKETS
    }
    return {
        "bench_version": BENCH_VERSION,
        "seed": SEED,
        "packet_bytes": PACKET_BYTES,
        "runs": MEDIAN_RUNS,
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "cases": cases,
    }


def run_baseline() -> str:
    entry = run_fabric_bench()
    with open(HISTORY_PATH, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    rows = [
        [case, r["packets"], f"{r['us_per_packet']:.1f}", f"{r['events_per_packet']:.2f}",
         f"{r['walked_to_host_share']:.3f}", f"{r['rollbacks_per_packet']:.3f}"]
        for case, r in entry["cases"].items()
    ]
    return (
        f"Fabric hop microbench (v{BENCH_VERSION}, median of {MEDIAN_RUNS} runs):\n"
        + format_table(["case", "packets", "host us/packet", "events/packet",
                        "walked to host", "rollbacks/packet"], rows)
    )


def test_fabric_hop(benchmark):
    text = once(benchmark, run_baseline)
    print("\n" + text)
    save_output("fabric_hop", text)


if __name__ == "__main__":
    print(run_baseline())
