"""Per-shard simulation state: deployment sims, event effects, workers.

A shard owns a subset of the fleet's deployments.  Each deployment runs
in its **own** :class:`~repro.sim.Simulator` — a :class:`DeploymentSim`
bundles the simulator with its EBS deployment, foreground fio load,
hang/health monitoring and the :class:`~repro.net.fabric.FabricBoundary`
through which cross-deployment traffic leaves.  A :class:`ShardState` is
just an ordered collection of those, advanced window by window.

The bottom of the file is the multi-process face: a module-global shard
registry plus three picklable functions (:func:`worker_create`,
:func:`worker_advance`, :func:`worker_finish`) that the coordinator
submits to a pinned executor worker.  Pinning matters — the registry
lives in the worker process, so every call for shard *k* must land on
the same process; the executor's ``worker=`` argument provides exactly
that affinity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..ebs.deployment import DeploymentSpec, EbsDeployment
from ..ebs.virtual_disk import VirtualDisk
from ..faults.injection import IoHangMonitor
from ..control.health import HealthMonitor
from ..net.fabric import FabricBoundary, ShardMessage
from ..net.failures import switch_blackhole
from ..rebuild.planner import spillover_schedule
from ..telemetry.sketch import QuantileSketch
from ..workloads.fio import FioJob, FioSpec
from ..workloads.replay import IoRecord, replay
from .fleet import FleetEvent, FleetSpec

#: Chunk size for injected cross-shard streams (rebuild spillover and
#: migrated rebuild reads) — one BN-friendly unit, block aligned.
INJECT_CHUNK_BYTES = 64 * 1024


class _TraceJob:
    """Trace replay behind a FioJob-shaped face.

    A deployment with ``trace_rows`` drives
    :func:`repro.workloads.replay.replay` instead of a closed-loop fio
    job; this adapter exposes the counter attributes ``finish()`` reads
    (``issues``/``completed``/``failed``/``bytes_moved``/``latency``) so
    the artifact path is one code path for both load kinds.
    """

    def __init__(self, sim, vd, rows, on_issue):
        self._sim = sim
        self._vd = vd
        self._records = [IoRecord(*row) for row in rows]
        self._on_issue = on_issue
        self._result = None

    def start(self) -> None:
        self._result = replay(
            self._sim, self._vd, self._records, on_issue=self._on_issue
        )

    @property
    def issues(self) -> int:
        return self._result.issued if self._result else 0

    @property
    def completed(self) -> int:
        return self._result.completed if self._result else 0

    @property
    def failed(self) -> int:
        return self._result.failed if self._result else 0

    @property
    def bytes_moved(self) -> int:
        return self._result.issued_bytes if self._result else 0

    @property
    def latency(self):
        if self._result is None:
            raise RuntimeError("trace job was never started")
        return self._result.latency


class DeploymentSim:
    """One fleet deployment in its own simulator, ready to window-step."""

    def __init__(self, fleet: FleetSpec, index: int):
        self.fleet = fleet
        self.index = index
        dep = fleet.deployments[index]
        self.deployment = EbsDeployment(
            DeploymentSpec(
                stack=dep.stack,
                seed=dep.seed,
                compute_racks=dep.compute_racks,
                compute_hosts_per_rack=dep.compute_hosts_per_rack,
                storage_racks=dep.storage_racks,
                storage_hosts_per_rack=dep.storage_hosts_per_rack,
            )
        )
        self.sim = self.deployment.sim
        host = self.deployment.compute_host_names()[0]
        self.vd = VirtualDisk(
            self.deployment,
            f"dist-vd{index}",
            host,
            dep.vd_size_mb * 1024 * 1024,
        )
        self.health = HealthMonitor(self.sim)
        self.hangs = IoHangMonitor(self.sim, on_hang=self.health.report_hang)
        if dep.trace_rows:
            self.job = _TraceJob(
                self.sim, self.vd, dep.trace_rows, on_issue=self.hangs.watch
            )
        else:
            self.job = FioJob(
                self.sim,
                self.vd,
                FioSpec(
                    block_sizes=tuple(dep.block_sizes),
                    iodepth=dep.iodepth,
                    read_fraction=dep.read_fraction,
                    runtime_ns=dep.runtime_ns,
                    name=f"dist-d{index}",
                ),
                on_issue=self.hangs.watch,
            )
        self.boundary = FabricBoundary(self.sim, index, fleet.crossing_ns)
        self.received = 0
        self.injected_issued = 0
        self.injected_completed = 0
        self.injected_failed = 0
        self.injected_bytes = 0
        self._inject_cursor = 0
        self.sim.call_soon(self.job.start)
        # Outbound events originate here at fixed times — schedule the
        # local half and the boundary export up front, so a deployment's
        # entire event stream is fixed at construction.
        for event in fleet.events:
            if event.src == index:
                self.sim.schedule_at(event.at_ns, self._fire_event, event)

    # -- source-side event effects --------------------------------------
    def _fire_event(self, event: FleetEvent) -> None:
        if event.kind == "node_fault":
            # The dead node's segments are re-read from survivors here
            # (paced at the rebuild rate) while the re-replication write
            # stream spills over to the destination deployment's BN.
            self.health.declare(
                "node-fault", f"d{self.index}", detail=f"rebuild -> d{event.dst}"
            )
            for at_ns, size in spillover_schedule(
                event.size_kb * 1024,
                INJECT_CHUNK_BYTES,
                event.rate_gbps,
                start_ns=self.sim.now,
            ):
                self.sim.schedule_at(at_ns, self._inject, "read", size)
            self.boundary.export(
                "rebuild",
                event.dst,
                {"size_kb": event.size_kb, "rate_gbps": event.rate_gbps},
            )
        elif event.kind == "migration":
            # The guest leaves: its load stops being ours the moment the
            # destination picks it up.  Locally that is only a ledger
            # entry — the paced write burst happens at the destination.
            self.health.declare(
                "migration-out", f"d{self.index}", detail=f"vd -> d{event.dst}"
            )
            self.boundary.export(
                "migration",
                event.dst,
                {
                    "count": event.count,
                    "size_kb": event.size_kb,
                    "gap_ns": event.gap_ns,
                },
            )
        else:  # incident
            scenario = switch_blackhole("spine", event.param, 0)
            scenario.apply(self.deployment.topology)
            self.sim.schedule(
                event.duration_ns, scenario.revert, self.deployment.topology
            )
            self.health.declare(
                "fabric-incident",
                f"d{self.index}",
                detail=f"spine blackhole {event.param:.0%}",
            )
            self.boundary.export(
                "incident",
                event.dst,
                {"param": event.param, "duration_ns": event.duration_ns,
                 "origin": self.index},
            )

    # -- destination-side message effects -------------------------------
    def deliver(self, msg: ShardMessage) -> None:
        """Schedule one inbound fabric message's local effects.  Must be
        called between windows with ``msg.deliver_at_ns >= sim.now``."""
        self.received += 1
        self.sim.schedule_at(msg.deliver_at_ns, self._apply_message, msg)

    def _apply_message(self, msg: ShardMessage) -> None:
        payload = msg.payload
        if msg.kind == "rebuild":
            # Remote re-replication lands as real paced BN writes.
            for at_ns, size in spillover_schedule(
                int(payload["size_kb"]) * 1024,
                INJECT_CHUNK_BYTES,
                float(payload["rate_gbps"]),
                start_ns=self.sim.now,
            ):
                self.sim.schedule_at(at_ns, self._inject, "write", size)
        elif msg.kind == "migration":
            # The migrated guest's write stream resumes here.
            size = int(payload["size_kb"]) * 1024
            gap = int(payload["gap_ns"])
            for k in range(int(payload["count"])):
                self.sim.schedule_at(
                    self.sim.now + k * gap, self._inject, "write", size
                )
        else:  # incident
            self.health.report_remote(
                f"d{msg.src}", msg.kind, detail=f"spine blackhole {payload['param']}"
            )
            scenario = switch_blackhole(
                "spine", float(payload["param"]), 0, salt=f"remote{msg.src}"
            )
            scenario.apply(self.deployment.topology)
            self.sim.schedule(
                int(payload["duration_ns"]), scenario.revert, self.deployment.topology
            )

    def _inject(self, kind: str, size: int) -> None:
        slots = self.vd.size_bytes // size
        offset = (self._inject_cursor % slots) * size
        self._inject_cursor += 1
        self.injected_issued += 1
        if kind == "read":
            io = self.vd.read(offset, size, self._injected_done)
        else:
            io = self.vd.write(offset, size, self._injected_done)
        self.hangs.watch(io)

    def _injected_done(self, io) -> None:
        if io.trace is not None and io.trace.ok:
            self.injected_completed += 1
            self.injected_bytes += io.size_bytes
        else:
            self.injected_failed += 1

    # -- window protocol -------------------------------------------------
    def advance(self, horizon_ns: int) -> List[ShardMessage]:
        """Run to the barrier and return the window's exported messages."""
        self.sim.run_window(horizon_ns)
        return self.boundary.drain()

    def finish(self) -> Dict[str, Any]:
        """The deployment's artifact — simulated data only, so it is
        byte-identical for every shard layout."""
        sketch = QuantileSketch()
        for sample in self.job.latency.samples:
            sketch.add(sample)
        return {
            "index": self.index,
            "stack": self.fleet.deployments[self.index].stack,
            "issued": self.job.issues,
            "completed": self.job.completed,
            "failed": self.job.failed,
            "bytes_moved": self.job.bytes_moved,
            "hangs": self.hangs.hangs,
            "incidents": len(self.health.incidents),
            "remote_incidents": len(self.health.incidents_of("remote-incident")),
            "messages_out": self.boundary.exported,
            "messages_in": self.received,
            "injected_issued": self.injected_issued,
            "injected_completed": self.injected_completed,
            "injected_failed": self.injected_failed,
            "injected_bytes": self.injected_bytes,
            "end_ns": self.sim.now,
            "latency": sketch.to_dict(),
        }


class ShardState:
    """The deployments one worker owns, advanced in fleet-index order."""

    def __init__(self, fleet: FleetSpec, indices: List[int]):
        self.fleet = fleet
        self.indices = list(indices)
        self.sims = {index: DeploymentSim(fleet, index) for index in self.indices}

    def advance(
        self, horizon_ns: int, inbound: List[ShardMessage]
    ) -> List[ShardMessage]:
        """Deliver this window's inbound messages, run every deployment
        to the barrier, and return the union of exported messages.

        ``inbound`` must arrive pre-sorted in the global delivery order
        (:func:`~repro.net.fabric.message_sort_key`); delivering in that
        order keeps each destination simulator's event sequence numbers
        identical across shard layouts.
        """
        for msg in inbound:
            self.sims[msg.dst].deliver(msg)
        out: List[ShardMessage] = []
        for index in self.indices:
            out.extend(self.sims[index].advance(horizon_ns))
        return out

    def finish(self) -> Dict[int, Dict[str, Any]]:
        return {index: self.sims[index].finish() for index in self.indices}

    @property
    def events_processed(self) -> int:
        return sum(sim.sim.events_processed for sim in self.sims.values())


# ----------------------------------------------------------------------
# Multi-process face: the functions a pinned executor worker runs.  The
# registry is per-process state; the coordinator pins every call for a
# given shard id to one worker slot so the lookups always hit.
# ----------------------------------------------------------------------
_WORKER_SHARDS: Dict[int, ShardState] = {}


def worker_create(shard_id: int, spec_json: str, indices: List[int]) -> int:
    """Build shard ``shard_id``'s deployments in this worker process."""
    _WORKER_SHARDS[shard_id] = ShardState(FleetSpec.from_json(spec_json), indices)
    return shard_id


def worker_advance(
    shard_id: int, horizon_ns: int, inbound: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One window barrier: deliver, advance, return exported messages
    (as dicts — ShardMessage is picklable, but dicts keep the executor
    payloads schema-stable for telemetry and debugging)."""
    state = _WORKER_SHARDS[shard_id]
    out = state.advance(
        horizon_ns, [ShardMessage.from_dict(d) for d in inbound]
    )
    return [msg.to_dict() for msg in out]


def worker_finish(shard_id: int, keep: bool = False) -> Dict[str, Any]:
    """Collect the shard's artifacts (and per-shard totals), releasing
    the shard's simulators unless ``keep``."""
    state = _WORKER_SHARDS[shard_id] if keep else _WORKER_SHARDS.pop(shard_id)
    return {
        "artifacts": state.finish(),
        "events_processed": state.events_processed,
    }


def worker_reset() -> int:
    """Drop every shard registered in this process (test isolation)."""
    count = len(_WORKER_SHARDS)
    _WORKER_SHARDS.clear()
    return count


def make_shard(
    fleet: FleetSpec, indices: List[int], shard_id: Optional[int] = None
) -> ShardState:
    """In-process shard construction (the SerialExecutor path uses the
    worker functions too; this helper serves tests and notebooks)."""
    del shard_id
    return ShardState(fleet, indices)
