"""The scenario catalog: fleet behaviors as gated, replayable specs.

A :class:`Scenario` is one curated fleet behavior — a workload envelope
(an inline FleetTrace, a generator recipe, or a control-plane drill)
bound to a deployment shape, a fault schedule and a set of pass/fail
:class:`SloGate` assertions — expressed as a plain
:class:`~repro.lab.spec.ExperimentSpec` so it runs through the lab's
content-addressed, ``REPRO_JOBS``-invariant machinery unchanged.

:data:`CATALOG` seeds the library with the behaviors the paper's
production fleet exhibits (and the ROADMAP demands regression coverage
for): VM boot storms, incast bursts, noisy multi-tenant neighbors, a
diurnal peak colliding with a rolling upgrade, compaction/backup
background floods, and a rebuild storm under foreground load.  Each is
deterministic end to end — trace recipes are generated from fixed seeds
— so the whole catalog is a standing behavior-envelope regression gate.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ebs import DeploymentSpec
from ..lab.spec import (
    ExperimentSpec,
    RebuildSpec,
    UpgradeSpec,
    WorkloadSpec,
    digest,
)
from ..metrics.stats import percentile
from ..sim import MS, US
from ..workloads.replay import IoRecord
from .trace import FleetTrace, from_records

#: Version of the scenario-envelope JSON layout (shared with
#: `repro.chaos.scenario` — chaos counterexamples and workload scenarios
#: serialize into the same envelope, discriminated by ``kind``).
ENVELOPE_VERSION = 2

#: The deployment shape catalog scenarios run on: small enough for CI,
#: big enough for multipath and failover to be exercised.
CATALOG_DEPLOYMENT = DeploymentSpec(
    compute_racks=1,
    compute_hosts_per_rack=2,
    storage_racks=1,
    storage_hosts_per_rack=4,
)


@dataclass(frozen=True)
class SloGate:
    """Pass/fail assertions over one experiment point's artifact.

    ``None`` disables a bound.  Latency bounds are in microseconds
    (the paper's operative unit); fractions are of issued I/Os.
    """

    max_p50_us: Optional[float] = None
    max_p99_us: Optional[float] = None
    min_completed_fraction: float = 0.99
    max_hangs: int = 0
    max_failed: int = 0
    #: For rebuild scenarios: the storm must finish inside the run.
    require_rebuild_complete: bool = False

    def __post_init__(self) -> None:
        for bound in (self.max_p50_us, self.max_p99_us):
            if bound is not None and bound <= 0:
                raise ValueError(f"latency bounds must be positive: {bound}")
        if not 0.0 <= self.min_completed_fraction <= 1.0:
            raise ValueError(
                f"min_completed_fraction out of [0, 1]: "
                f"{self.min_completed_fraction}"
            )
        if self.max_hangs < 0 or self.max_failed < 0:
            raise ValueError(f"counting bounds cannot be negative: {self}")

    # ------------------------------------------------------------------
    def metrics(self, artifact: Dict[str, Any]) -> Dict[str, Any]:
        """The gated observables of one artifact, for reports."""
        samples = sorted(artifact.get("latency_ns", ()))
        issued = artifact.get("issued", 0)
        completed = artifact.get("completed", 0)
        return {
            "issued": issued,
            "completed": completed,
            "failed": artifact.get("failed", 0),
            "hangs": artifact.get("hangs", 0),
            "p50_us": round(percentile(samples, 50) / 1000, 1) if samples else None,
            "p99_us": round(percentile(samples, 99) / 1000, 1) if samples else None,
            "completed_fraction": round(completed / issued, 4) if issued else 0.0,
        }

    def evaluate(self, artifact: Dict[str, Any]) -> List[str]:
        """Every violated assertion, as human-readable strings (empty on
        pass).  Missing-latency artifacts fail latency bounds loudly
        rather than passing vacuously."""
        m = self.metrics(artifact)
        failures: List[str] = []
        for bound, key in ((self.max_p50_us, "p50_us"), (self.max_p99_us, "p99_us")):
            if bound is None:
                continue
            if m[key] is None:
                failures.append(f"{key} unmeasurable: artifact has no latency samples")
            elif m[key] > bound:
                failures.append(f"{key} {m[key]:.1f}us exceeds SLO {bound:.1f}us")
        if m["completed_fraction"] < self.min_completed_fraction:
            failures.append(
                f"completed {m['completed']}/{m['issued']} "
                f"({m['completed_fraction']:.2%}) below "
                f"{self.min_completed_fraction:.2%}"
            )
        if m["hangs"] > self.max_hangs:
            failures.append(f"{m['hangs']} hung I/O(s) exceed budget {self.max_hangs}")
        if m["failed"] > self.max_failed:
            failures.append(
                f"{m['failed']} failed I/O(s) exceed budget {self.max_failed}"
            )
        if self.require_rebuild_complete:
            rebuild = artifact.get("rebuild")
            if rebuild is None:
                failures.append("rebuild section missing from artifact")
            elif not rebuild.get("complete"):
                failures.append(f"rebuild incomplete: {rebuild.get('ledger')}")
        return failures

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SloGate":
        try:
            return cls(**payload)
        except TypeError as exc:  # an unknown or mistyped field
            raise ValueError(f"SLO gate: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """One named, digest-keyed fleet behavior with SLO gates."""

    name: str
    description: str
    spec: ExperimentSpec
    slo: SloGate = field(default_factory=SloGate)
    tags: Tuple[str, ...] = ()

    @property
    def digest(self) -> str:
        """Stable content digest over everything that can change the
        verdict (spec + gates; name/description/tags are presentation)."""
        return digest({"spec": self.spec.to_dict(), "slo": self.slo.to_dict()}, 16)

    # -- envelope serialization (kind="workload") -----------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": ENVELOPE_VERSION,
            "kind": "workload",
            "name": self.name,
            "description": self.description,
            "digest": self.digest,
            "spec": self.spec.to_dict(),
            "slo": self.slo.to_dict(),
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        version = payload.get("version")
        if version != ENVELOPE_VERSION:
            raise ValueError(
                f"unsupported scenario version {version!r} "
                f"(this build reads version {ENVELOPE_VERSION})"
            )
        if payload.get("kind") != "workload":
            raise ValueError(
                f"not a workload scenario (kind={payload.get('kind')!r})"
            )
        for key in ("name", "spec"):
            if key not in payload:
                raise ValueError(f"workload scenario is missing field {key!r}")
        scenario = cls(
            name=payload["name"],
            description=payload.get("description", ""),
            spec=ExperimentSpec.from_dict(payload["spec"]),
            slo=SloGate.from_dict(payload.get("slo", {})),
            tags=tuple(payload.get("tags", ())),
        )
        claimed = payload.get("digest", "")
        if claimed and claimed != scenario.digest:
            raise ValueError(
                f"scenario {scenario.name!r} digest mismatch: header says "
                f"{claimed}, content hashes to {scenario.digest} — the file "
                "was edited without re-deriving its digest"
            )
        return scenario


def trace_scenario(
    name: str,
    description: str,
    trace: FleetTrace,
    stack: str = "solar",
    vd_size_mb: int = 64,
    slo: SloGate = SloGate(),
    seeds: Tuple[int, ...] = (0,),
    tags: Tuple[str, ...] = (),
    rate_scale: float = 1.0,
    size_scale: float = 1.0,
    deployment: Optional[DeploymentSpec] = None,
) -> Scenario:
    """Bind a FleetTrace to a deployment + SLO gate as one scenario.

    The trace's streams are merged into the lab's single-VD replay rows;
    ``rate_scale``/``size_scale`` become the workload's scaling knobs
    (rate_scale 2.0 = replay at twice the recorded arrival rate)."""
    dep = deployment if deployment is not None else CATALOG_DEPLOYMENT
    spec = ExperimentSpec(
        deployment=dataclasses.replace(dep, stack=stack),
        workload=WorkloadSpec(
            mode="trace",
            records=trace.merged_rows(),
            time_scale=1.0 / rate_scale,
            size_scale=size_scale,
        ),
        seeds=seeds,
        name=name,
        vd_size_mb=vd_size_mb,
    )
    return Scenario(name=name, description=description, spec=spec,
                    slo=slo, tags=tags)


# ----------------------------------------------------------------------
# Curated trace recipes.  Pure functions of their fixed seeds: the same
# records, digests and verdicts on every machine.
# ----------------------------------------------------------------------
def _boot_storm_trace() -> FleetTrace:
    """8 guests cold-boot in a staggered storm: each streams its boot
    image (sequential 128KB reads) then settles into scattered 4KB
    config reads — the correlated-start pattern a host reboot or a
    burst of VM launches produces."""
    rng = random.Random(0xB007)
    records: List[IoRecord] = []
    image_mb = 2
    for guest in range(8):
        start = guest * 250 * US
        base = guest * 6 * 1024 * 1024
        offset = base
        at = start
        for _ in range(image_mb * 1024 // 128):  # sequential image pages
            records.append(IoRecord(at, "read", offset, 128 * 1024))
            offset += 128 * 1024
            at += 300 * US
        for _ in range(24):  # post-boot config scatter
            at += rng.randint(20, 120) * US
            records.append(
                IoRecord(at, "read", base + rng.randrange(0, image_mb << 20, 4096),
                         4096)
            )
    return from_records("vm-boot-storm", records, vd_size_mb=64)


def _incast_trace() -> FleetTrace:
    """Synchronized read bursts: every 600us, 48 4KB reads arrive in the
    same nanosecond — the paper's §4 incast pathology in miniature."""
    records: List[IoRecord] = []
    for burst in range(12):
        at = burst * 600 * US
        for i in range(48):
            records.append(
                IoRecord(at, "read", ((burst * 48 + i) * 97 % 12288) * 4096, 4096)
            )
    return from_records("incast-burst", records, vd_size_mb=64)


def _noisy_neighbor_trace() -> FleetTrace:
    """A well-behaved tenant (paced 4KB reads) sharing the device with a
    hog blasting 512KB write bursts — multi-tenant interference."""
    rng = random.Random(0x401)
    victim = [
        IoRecord(i * 100 * US, "read", rng.randrange(0, 32 << 20, 4096), 4096)
        for i in range(180)
    ]
    hog: List[IoRecord] = []
    for wave in range(16):
        at = wave * 1100 * US
        for k in range(6):
            hog.append(
                IoRecord(at + k * 30 * US, "write",
                         (32 << 20) + ((wave * 6 + k) * 512 * 1024) % (24 << 20),
                         512 * 1024)
            )
    return FleetTrace(
        name="noisy-neighbor",
        streams={"victim": victim, "hog": hog},
        meta={},
    )


def _background_flood_trace() -> FleetTrace:
    """Foreground 4KB random reads with three compaction/backup waves of
    back-to-back 256KB sequential writes flooding the backend."""
    rng = random.Random(0xF100D)
    fg = [
        IoRecord(i * 50 * US, "read", rng.randrange(0, 32 << 20, 4096), 4096)
        for i in range(320)
    ]
    flood: List[IoRecord] = []
    for wave in range(3):
        start = (3 + wave * 4) * MS
        for k in range(36):
            flood.append(
                IoRecord(start + k * 60 * US, "write",
                         (32 << 20) + (k * 256 * 1024) % (24 << 20),
                         256 * 1024)
            )
    return FleetTrace(
        name="background-flood",
        streams={"foreground": fg, "flood": flood},
        meta={},
    )


# ----------------------------------------------------------------------
# The catalog proper.
# ----------------------------------------------------------------------
def _build_catalog() -> Dict[str, Callable[[], Scenario]]:
    def vm_boot_storm() -> Scenario:
        return trace_scenario(
            "vm-boot-storm",
            "8 guests cold-boot together: sequential image streaming then "
            "4KB config scatter; the storm must not starve any one guest",
            _boot_storm_trace(),
            slo=SloGate(max_p99_us=2000.0, min_completed_fraction=1.0),
            tags=("trace", "burst"),
        )

    def incast_burst() -> Scenario:
        return trace_scenario(
            "incast-burst",
            "48-way synchronized 4KB read bursts every 600us — fan-in "
            "congestion at the ToR downlink",
            _incast_trace(),
            slo=SloGate(max_p99_us=1500.0, min_completed_fraction=1.0),
            tags=("trace", "incast"),
        )

    def noisy_neighbor() -> Scenario:
        return trace_scenario(
            "noisy-neighbor",
            "a paced 4KB tenant sharing the path with 512KB write bursts; "
            "interference must stay inside the latency envelope",
            _noisy_neighbor_trace(),
            slo=SloGate(max_p99_us=2500.0, min_completed_fraction=1.0),
            tags=("trace", "multi-tenant"),
        )

    def diurnal_upgrade() -> Scenario:
        spec = ExperimentSpec(
            deployment=dataclasses.replace(CATALOG_DEPLOYMENT, stack="kernel"),
            upgrade=UpgradeSpec(
                from_stack="kernel",
                to_stack="luna",
                servers=6,
                waves=3,
                wave_window_ns=3 * MS,
                io_gap_ns=150 * US,  # diurnal-peak cadence, not off-peak
            ),
            seeds=(0,),
            name="diurnal-upgrade",
            vd_size_mb=32,
        )
        return Scenario(
            name="diurnal-upgrade",
            description="rolling kernel->luna upgrade colliding with the "
                        "diurnal traffic peak: no hangs, nothing dropped",
            spec=spec,
            slo=SloGate(min_completed_fraction=0.97, max_hangs=0),
            tags=("upgrade", "control-plane"),
        )

    def background_flood() -> Scenario:
        return trace_scenario(
            "background-flood",
            "compaction/backup waves of 256KB sequential writes under "
            "foreground 4KB reads — background work must not break the SLO",
            _background_flood_trace(),
            slo=SloGate(max_p99_us=2000.0, min_completed_fraction=1.0),
            tags=("trace", "background"),
        )

    def rebuild_storm() -> Scenario:
        spec = ExperimentSpec(
            deployment=CATALOG_DEPLOYMENT,
            workload=WorkloadSpec(
                mode="fio", iodepth=8, read_fraction=0.5, runtime_ns=25 * MS
            ),
            rebuild=RebuildSpec(
                policy="static",
                mode="swarm",
                rate_gbps=8.0,
                fail_at_ns=8 * MS,
                node_index=1,
            ),
            seeds=(0,),
            name="rebuild-storm",
            vd_size_mb=16,
        )
        return Scenario(
            name="rebuild-storm",
            description="a storage node dies mid-load: the re-replication "
                        "storm must finish while foreground I/O keeps its "
                        "envelope",
            spec=spec,
            slo=SloGate(
                min_completed_fraction=0.99,
                require_rebuild_complete=True,
            ),
            tags=("rebuild", "failure"),
        )

    return {
        "vm-boot-storm": vm_boot_storm,
        "incast-burst": incast_burst,
        "noisy-neighbor": noisy_neighbor,
        "diurnal-upgrade": diurnal_upgrade,
        "background-flood": background_flood,
        "rebuild-storm": rebuild_storm,
    }


#: name -> zero-argument builder.  Builders (not instances) so importing
#: the catalog costs nothing and each lookup yields a fresh object.
CATALOG: Dict[str, Callable[[], Scenario]] = _build_catalog()


def catalog_names() -> List[str]:
    return sorted(CATALOG)


def get_scenario(name: str) -> Scenario:
    try:
        builder = CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; catalog: {', '.join(catalog_names())}"
        ) from None
    return builder()
