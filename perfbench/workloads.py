"""The four benchmark workloads: input generators and one-rep drivers.

Every input is generated here from the workload seed; the program only
receives the result (a fio job description, trace rows, a
``FleetSpec``).  Each driver runs one repetition in the calling process
and returns a plain dict: I/O accounting, host timings of the timed
phase, the checked outputs (which must repeat exactly for a seed) and a
list of failed checks.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from typing import Any, Callable, Dict, List, Optional

import repro.lab.runner as lab_runner
from repro.dist import LocalPoolExecutor, SerialExecutor
from repro.dist.coordinator import run_fleet
from repro.dist.fleet import FleetDeployment, FleetEvent, FleetSpec
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.scenario import FleetTrace, SloGate, run_scenario, trace_scenario
from repro.sim import MS, US
from repro.workloads import FioJob, FioSpec
from repro.workloads.replay import IoRecord

WORKLOADS = ("solar-fio", "luna-fio", "incast-flood", "fleet-2shard")

#: Simulated issue window of one fio rep.  LUNA costs about twice the
#: host time per I/O, so its window is shorter; both reps take about a
#: second of host time.
FIO_RUNTIME_NS = {"solar": 16 * MS, "luna": 9 * MS}
VD_SIZE = 64 * 1024 * 1024

#: incast-flood: arrival window and shape.
INCAST_WINDOW_NS = 12 * MS
INCAST_PERIOD_NS = 600 * US
INCAST_FANIN = 48
FLOOD_PERIOD_NS = 250 * US
FLOOD_SIZE = 256 * 1024
#: The simulation must drain within this much simulated time after the
#: last arrival; a growing backlog fails the run.
INCAST_DRAIN_ALLOWANCE_NS = 1 * MS
INCAST_SLO = SloGate(max_p99_us=1500.0, min_completed_fraction=1.0, max_failed=0)

#: fleet-2shard: per-deployment fio window and shard count.
FLEET_RUNTIME_NS = 20 * MS
FLEET_SHARDS = 2

COMPONENTS = ("sa", "fn", "bn", "ssd")


# ----------------------------------------------------------------------
# Checked outputs
# ----------------------------------------------------------------------
def nearest_rank(sorted_values: List[int], pct: float) -> int:
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class IoRecorder:
    """Completion observer chained onto a ``VirtualDisk``: fingerprints
    every finished I/O and checks its latency components."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.seen = 0
        self.totals: List[int] = []
        self.components: Dict[str, List[int]] = {c: [] for c in COMPONENTS}
        self.first_submit_ns: Optional[int] = None
        self.last_complete_ns = 0
        self.component_violations = 0

    def __call__(self, io) -> None:
        trace = io.trace
        self.seen += 1
        ok = trace is not None and trace.ok
        submit = trace.submit_ns if trace is not None else -1
        complete = trace.complete_ns if trace is not None else -1
        self._hash.update(
            f"{submit},{io.kind},{io.offset_bytes},{io.size_bytes},{int(ok)},{complete};".encode()
        )
        if trace is None:
            return
        if self.first_submit_ns is None or submit < self.first_submit_ns:
            self.first_submit_ns = submit
        self.last_complete_ns = max(self.last_complete_ns, complete)
        if not ok:
            return
        total = trace.total_ns
        self.totals.append(total)
        for c in COMPONENTS:
            self.components[c].append(trace.components[c])
        if sum(trace.components.values()) > total:
            self.component_violations += 1

    def fingerprint(self) -> str:
        return self._hash.hexdigest()

    def checked(self) -> Dict[str, Any]:
        totals = sorted(self.totals)
        span = self.last_complete_ns - (self.first_submit_ns or 0)
        return {
            "fingerprint": self.fingerprint(),
            "iops": round(len(totals) / (span / 1e9), 3) if span > 0 else 0.0,
            "latency_p50_ns": nearest_rank(totals, 50),
            "latency_p99_ns": nearest_rank(totals, 99),
            "latency_samples": len(totals),
            "component_p50_ns": {
                c: nearest_rank(sorted(v), 50) for c, v in self.components.items()
            },
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(
    issued: int, completed: int, failed: int, wall_s: float, cpu_s: float,
    sim_s: float, setup_end: float, rss_mb: float, checked: Dict[str, Any],
    checks: List[str], **extra: Any,
) -> Dict[str, Any]:
    unfinished = issued - completed - failed
    if unfinished < 0:
        checks.append(f"issued {issued} < completed {completed} + failed {failed}")
    return {
        "issued": issued,
        "completed": completed,
        "failed": failed + max(unfinished, 0),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "sim_s": sim_s,
        "setup_end": setup_end,
        "peak_rss_mb": rss_mb,
        "checked": checked,
        "checks": checks,
        **extra,
    }


# ----------------------------------------------------------------------
# solar-fio / luna-fio: closed loop, one VD, one fio job
# ----------------------------------------------------------------------
def fio_spec(stack: str, seed: int) -> FioSpec:
    return FioSpec(
        block_sizes=(4096, 16384),
        iodepth=8,
        read_fraction=0.5,
        runtime_ns=FIO_RUNTIME_NS[stack],
        name=f"perfbench-{seed}",
    )


def run_fio(stack: str, seed: int) -> Dict[str, Any]:
    dep = EbsDeployment(DeploymentSpec(stack=stack, seed=seed))
    vd = VirtualDisk(dep, "perfbench-vd", dep.compute_host_names()[0], VD_SIZE)
    recorder = IoRecorder()
    vd.subscribe(recorder)
    job = FioJob(dep.sim, vd, fio_spec(stack, seed))
    job.start()
    setup_end = time.monotonic()
    cpu0 = time.process_time()
    dep.run()  # to drain: the job stops issuing at its runtime
    wall_s = time.monotonic() - setup_end
    cpu_s = time.process_time() - cpu0
    checks = []
    if job.inflight:
        checks.append(f"{job.inflight} I/Os still in flight after the drain")
    if recorder.seen != job.completed + job.failed:
        checks.append(f"recorder saw {recorder.seen} I/Os, job finished "
                      f"{job.completed + job.failed}")
    if recorder.component_violations:
        checks.append(f"{recorder.component_violations} I/Os whose components "
                      "exceed their latency")
    return _result(
        job.issues, job.completed, job.failed, wall_s, cpu_s, dep.sim.now / 1e9,
        setup_end, _peak_rss_mb(), recorder.checked(), checks,
    )


# ----------------------------------------------------------------------
# incast-flood: open loop, generated FleetTrace through run_scenario
# ----------------------------------------------------------------------
def incast_trace(seed: int) -> FleetTrace:
    """48 simultaneous 4 KB reads every 600 us beside a sequential
    256 KB write stream every 250 us.  The seed picks the read offsets
    and where the write stream starts."""
    rng = random.Random(seed)
    reads = [
        IoRecord(burst * INCAST_PERIOD_NS, "read", rng.randrange(0, 32 << 20, 4096), 4096)
        for burst in range(INCAST_WINDOW_NS // INCAST_PERIOD_NS)
        for _ in range(INCAST_FANIN)
    ]
    region = 32 << 20
    slots = region // FLOOD_SIZE
    first = rng.randrange(slots)
    writes = [
        IoRecord(k * FLOOD_PERIOD_NS, "write",
                 region + ((first + k) % slots) * FLOOD_SIZE, FLOOD_SIZE)
        for k in range(INCAST_WINDOW_NS // FLOOD_PERIOD_NS)
    ]
    return FleetTrace(name=f"incast-flood-{seed}",
                      streams={"incast": reads, "flood": writes})


def run_incast(seed: int) -> Dict[str, Any]:
    trace = incast_trace(seed)
    scenario = trace_scenario(
        "incast-flood",
        "48-way 4KB read incast beside a 256KB sequential write flood",
        trace, slo=INCAST_SLO, seeds=(seed,),
    )
    recorder = IoRecorder()
    marks: Dict[str, float] = {}
    original = lab_runner.execute_point

    def watch(dep, vd) -> None:
        vd.subscribe(recorder)
        marks["setup_end"] = time.monotonic()
        marks["cpu0"] = time.process_time()

    def execute_point(spec, point_seed, observe=None):
        if observe is not None:
            raise ValueError("the benchmark owns execute_point's observe hook")
        t0 = time.monotonic()
        try:
            return original(spec, point_seed, observe=watch)
        finally:
            marks["point_s"] = time.monotonic() - t0

    lab_runner.execute_point = execute_point
    try:
        t0 = time.monotonic()
        report = run_scenario(scenario, jobs=1)
        end = time.monotonic()
        cpu_end = time.process_time()
    finally:
        lab_runner.execute_point = original
    scenario_s = end - t0
    (point,) = report["points"]
    metrics = point["metrics"]
    checks = [f"SLO: {f}" for f in point["slo_failures"]]
    drain_ns = recorder.last_complete_ns - trace.horizon_ns
    if drain_ns > INCAST_DRAIN_ALLOWANCE_NS:
        checks.append(f"drained {drain_ns}ns after the last arrival, over the "
                      f"{INCAST_DRAIN_ALLOWANCE_NS}ns allowance")
    if recorder.seen != metrics["completed"] + metrics["failed"]:
        checks.append(f"recorder saw {recorder.seen} I/Os, scenario finished "
                      f"{metrics['completed'] + metrics['failed']}")
    if recorder.component_violations:
        checks.append(f"{recorder.component_violations} I/Os whose components "
                      "exceed their latency")
    checked = recorder.checked()
    checked["drain_after_last_arrival_ns"] = drain_ns
    checked["report_digest"] = report["report_digest"]
    return _result(
        metrics["issued"], metrics["completed"], metrics["failed"],
        end - marks["setup_end"], cpu_end - marks["cpu0"],
        recorder.last_complete_ns / 1e9, marks["setup_end"], _peak_rss_mb(),
        checked, checks,
        lab_overhead_ms=(scenario_s - marks["point_s"]) * 1e3,
    )


# ----------------------------------------------------------------------
# fleet-2shard: reference-shaped fleet through run_fleet on 2 shards
# ----------------------------------------------------------------------
def fleet_spec(seed: int) -> FleetSpec:
    """Four deployments alternating SOLAR and LUNA, with a node fault
    (rebuild reads), a migration and a fabric incident between
    neighbours: the shape of ``repro.dist.reference_fleet``."""
    deployments = tuple(
        FleetDeployment(
            stack="solar" if i % 2 == 0 else "luna",
            seed=seed * 16 + i,
            runtime_ns=FLEET_RUNTIME_NS,
            block_sizes=(4096,),
        )
        for i in range(4)
    )
    quarter = FLEET_RUNTIME_NS // 4
    events = (
        FleetEvent(at_ns=quarter, kind="node_fault", src=0, dst=1, size_kb=1024),
        FleetEvent(at_ns=2 * quarter, kind="migration", src=1, dst=2,
                   count=32, size_kb=16),
        FleetEvent(at_ns=3 * quarter, kind="incident", src=2, dst=3, param=0.5),
    )
    return FleetSpec(deployments=deployments, events=events,
                     name=f"perfbench-fleet-{seed}")


def fleet_fingerprint(artifacts: List[Dict[str, Any]]) -> str:
    """Hash of the per-deployment artifacts without their event counts,
    so moving event counts out of digests leaves it unchanged."""
    stripped = [{k: v for k, v in a.items() if k != "events_processed"} for a in artifacts]
    return hashlib.sha256(
        json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def worker_usage() -> Dict[str, float]:
    """Runs inside a pool worker: its CPU seconds and peak RSS so far."""
    return {"cpu_s": time.process_time(), "rss_mb": _peak_rss_mb()}


def run_fleet_rep(seed: int, shards: int = FLEET_SHARDS) -> Dict[str, Any]:
    """One fleet run.  ``shards > 1`` uses a benchmark-owned process
    pool; ``shards == 1`` runs in-process (the traced layer split)."""
    spec = fleet_spec(seed)
    events: List[tuple] = []
    barriers: List[float] = []

    def on_event(event) -> None:
        events.append((time.monotonic(), event.label, event.wall_s, event.status))

    if shards > 1:
        executor = LocalPoolExecutor(shards, on_event=on_event)
    else:
        executor = SerialExecutor(on_event=on_event)
    before: List[Dict[str, float]] = []
    after: List[Dict[str, float]] = []
    try:
        start = time.monotonic()
        if shards > 1:
            # Spawn and import in every worker before the run, so the
            # workers' CPU during the run is measured from here.
            before = _probe(executor, shards)
        cpu0 = time.process_time()
        result = run_fleet(spec, shards=shards, executor=executor,
                           progress=lambda *_: barriers.append(time.monotonic()))
        end = time.monotonic()
        cpu_s = time.process_time() - cpu0
        if shards > 1:
            after = _probe(executor, shards)
    finally:
        executor.shutdown()
    creates = [t for t, label, _, _ in events if label.startswith("create[")]
    setup_end = max(creates)
    cpu_s += sum(a["cpu_s"] - b["cpu_s"] for a, b in zip(after, before))
    rss_mb = _peak_rss_mb() + sum(a["rss_mb"] for a in after)
    advance_walls = [w for _, label, w, _ in events if label.startswith("w")]
    barrier_span = barriers[-1] - setup_end if barriers else 0.0
    summary = result.summary
    issued = summary["issued"] + summary["injected_issued"]
    completed = summary["completed"] + summary["injected_completed"]
    failed = summary["failed"] + sum(a["injected_failed"] for a in result.artifacts)
    checks = [f"task {label} {status}" for _, label, _, status in events
              if status != "done"]
    if len(creates) != shards:
        checks.append(f"{len(creates)} create tasks for {shards} shards")
    horizon_ns = spec.effective_horizon_ns
    checked = {
        "fingerprint": fleet_fingerprint(result.artifacts),
        "iops": round(summary["completed"] / (horizon_ns / 1e9), 3),
        "latency_p50_ns": summary["latency_p50_ns"],
        "latency_p99_ns": summary["latency_p99_ns"],
        "latency_samples": summary["latency_count"],
        "hangs": summary["hangs"],
        "incidents": summary["incidents"],
    }
    return _result(
        issued, completed, failed, end - setup_end, cpu_s, horizon_ns / 1e9,
        setup_end, rss_mb, checked, checks,
        dist={
            "windows": result.windows,
            "messages_routed": result.messages_routed,
            "advance_s": sum(advance_walls),
            "idle_share": (1.0 - sum(advance_walls) / (shards * barrier_span)
                           if barrier_span > 0 else 0.0),
            "spawn_s": setup_end - start,
        },
    )


def _probe(executor, shards: int) -> List[Dict[str, float]]:
    futures = [executor.submit(worker_usage, worker=i, label=f"probe[{i}]")
               for i in range(shards)]
    executor.wait(futures)
    return [f.result() for f in futures]


DRIVERS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "solar-fio": lambda seed: run_fio("solar", seed),
    "luna-fio": lambda seed: run_fio("luna", seed),
    "incast-flood": run_incast,
    "fleet-2shard": run_fleet_rep,
}
