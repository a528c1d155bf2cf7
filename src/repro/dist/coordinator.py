"""The fleet coordinator: window barriers, message routing, merging.

:func:`run_fleet` drives a :class:`~repro.dist.fleet.FleetSpec` to its
horizon across *N* shards.  The synchronization protocol is conservative
lookahead: every shard advances one ``window_ns`` at a time, and because
the fabric's minimum crossing latency is at least one window, a shard
can run a full window without observing its peers.  At each barrier the
coordinator collects the window's exported messages, merges them into
one globally-ordered stream (:func:`~repro.net.fabric.message_sort_key`)
and hands each shard the messages due in the *next* window.

Everything that affects the artifacts — message order, delivery times,
per-deployment event streams — is a pure function of the spec, so the
result digest is byte-identical for every shard count.  What sharding
buys is wall-clock: each shard's deployments run in their own process,
so the per-window simulation work proceeds in parallel between barriers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..lab.spec import digest
from ..net.fabric import ShardMessage, message_sort_key
from ..telemetry.sketch import QuantileSketch
from .executor import Executor, LocalPoolExecutor, SerialExecutor
from .fleet import FLEET_SCHEMA_VERSION, FleetSpec, partition
from .shardsim import worker_advance, worker_create, worker_finish

#: Quantiles surfaced in the fleet summary (from the merged sketch).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


@dataclass
class FleetResult:
    """One sharded run's outcome: artifacts, digest, performance."""

    spec: FleetSpec
    shards: int
    #: Per-deployment artifacts, ordered by fleet index.
    artifacts: List[Dict[str, Any]]
    #: Fleet-wide rollup (merged sketch quantiles, counters).
    summary: Dict[str, Any]
    #: sha256 over the simulated content — the determinism anchor.
    digest: str
    windows: int
    messages_routed: int
    messages_dropped: int
    events_processed: int
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "spec_digest": self.spec.digest(),
            "shards": self.shards,
            "deployments": len(self.spec.deployments),
            "digest": self.digest,
            "windows": self.windows,
            "messages_routed": self.messages_routed,
            "messages_dropped": self.messages_dropped,
            "events_processed": self.events_processed,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "summary": self.summary,
            "artifacts": self.artifacts,
        }


def _digest(spec: FleetSpec, artifacts: List[Dict[str, Any]],
            routed: int, dropped: int) -> str:
    """Content address of the simulated outcome.  Wall-clock and
    executor details are deliberately excluded — two runs of the same
    spec must collide regardless of machine or shard count."""
    material = {
        "schema": FLEET_SCHEMA_VERSION,
        "spec": spec.digest(),
        "artifacts": artifacts,
        "messages_routed": routed,
        "messages_dropped": dropped,
    }
    return digest(material)


def _summarize(spec: FleetSpec, artifacts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet rollup: counter sums plus merged-latency quantiles.  The
    merge is the telemetry plane's own sketch merge — per-shard sketches
    combine into one fleet sketch without resampling."""
    merged = QuantileSketch.merged(
        QuantileSketch.from_dict(a["latency"]) for a in artifacts
    )
    summary: Dict[str, Any] = {
        "deployments": len(artifacts),
        "issued": sum(a["issued"] for a in artifacts),
        "completed": sum(a["completed"] for a in artifacts),
        "failed": sum(a["failed"] for a in artifacts),
        "bytes_moved": sum(a["bytes_moved"] for a in artifacts),
        "hangs": sum(a["hangs"] for a in artifacts),
        "incidents": sum(a["incidents"] for a in artifacts),
        "remote_incidents": sum(a["remote_incidents"] for a in artifacts),
        "messages_out": sum(a["messages_out"] for a in artifacts),
        "messages_in": sum(a["messages_in"] for a in artifacts),
        "injected_issued": sum(a["injected_issued"] for a in artifacts),
        "injected_completed": sum(a["injected_completed"] for a in artifacts),
        "latency_count": merged.count,
    }
    for q in SUMMARY_QUANTILES:
        key = f"latency_p{int(q * 100)}_ns"
        summary[key] = round(merged.quantile(q), 1) if merged.count else None
    return summary


def run_fleet(
    spec: FleetSpec,
    shards: int = 1,
    executor: Optional[Executor] = None,
    progress: Optional[Callable[[int, int, int], None]] = None,
) -> FleetResult:
    """Run ``spec`` partitioned over ``shards`` worker processes.

    ``executor`` overrides the execution backend (the default is the
    in-process :class:`SerialExecutor` for one shard and a pinned
    :class:`LocalPoolExecutor` otherwise); it must support ``worker=``
    affinity, because shard state lives in the worker processes.
    ``progress`` (if given) is called after every barrier with
    ``(window_index, delivered_count, exported_count)``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    assignment = partition(len(spec.deployments), shards)
    shards = len(assignment)  # clamped to the deployment count
    own_executor = executor is None
    if own_executor:
        executor = SerialExecutor() if shards == 1 else LocalPoolExecutor(shards)
    owner: Dict[int, int] = {}
    for shard_id, indices in enumerate(assignment):
        for index in indices:
            owner[index] = shard_id

    started = time.perf_counter()
    routed = 0
    try:
        spec_json = spec.to_json()
        creates = [
            executor.submit(
                worker_create, shard_id, spec_json, indices,
                worker=shard_id, label=f"create[{shard_id}]",
            )
            for shard_id, indices in enumerate(assignment)
        ]
        executor.wait(creates)
        for future in creates:
            future.result()

        pending: List[ShardMessage] = []
        horizons = spec.windows()
        for window_index, horizon in enumerate(horizons):
            due = sorted(
                (m for m in pending if m.deliver_at_ns <= horizon),
                key=message_sort_key,
            )
            pending = [m for m in pending if m.deliver_at_ns > horizon]
            routed += len(due)
            inbound: List[List[Dict[str, Any]]] = [[] for _ in range(shards)]
            for msg in due:
                inbound[owner[msg.dst]].append(msg.to_dict())
            advances = [
                executor.submit(
                    worker_advance, shard_id, horizon, inbound[shard_id],
                    worker=shard_id, label=f"w{window_index}[{shard_id}]",
                )
                for shard_id in range(shards)
            ]
            executor.wait(advances)
            exported = 0
            for future in advances:
                out = future.result()
                exported += len(out)
                pending.extend(ShardMessage.from_dict(d) for d in out)
            if progress is not None:
                progress(window_index, len(due), exported)
        # Anything still pending was exported too close to the horizon
        # to ever be delivered — dropped, but *counted*, so the digest
        # still observes it.
        dropped = len(pending)

        finishes = [
            executor.submit(
                worker_finish, shard_id,
                worker=shard_id, label=f"finish[{shard_id}]",
            )
            for shard_id in range(shards)
        ]
        executor.wait(finishes)
        merged_artifacts: Dict[int, Dict[str, Any]] = {}
        events_processed = 0
        for future in finishes:
            shard_out = future.result()
            events_processed += shard_out["events_processed"]
            merged_artifacts.update(shard_out["artifacts"])
    finally:
        if own_executor:
            executor.shutdown()

    artifacts = [merged_artifacts[i] for i in sorted(merged_artifacts)]
    if len(artifacts) != len(spec.deployments):  # pragma: no cover - defensive
        raise RuntimeError(
            f"shards returned {len(artifacts)} artifacts for "
            f"{len(spec.deployments)} deployments"
        )
    wall_s = time.perf_counter() - started
    return FleetResult(
        spec=spec,
        shards=shards,
        artifacts=artifacts,
        summary=_summarize(spec, artifacts),
        digest=_digest(spec, artifacts, routed, dropped),
        windows=len(horizons),
        messages_routed=routed,
        messages_dropped=dropped,
        events_processed=events_processed,
        wall_s=wall_s,
    )
