"""Run and record scenarios: gated reports and trace capture.

``run_scenario`` pushes a :class:`~repro.scenario.catalog.Scenario`
through the lab's sweep machinery (content-addressed store, worker
pool), evaluates its SLO gates against every point artifact, and folds
the verdicts into one canonical, digest-keyed report.  Because the lab
guarantees byte-identical artifacts across serial and ``REPRO_JOBS``
execution, the report digest inherits that invariance — two machines
running the same scenario either agree to the byte or one of them has a
real regression.

``record_scenario`` replays the same spec in-process with a
:class:`~repro.scenario.record.FleetTraceRecorder` attached through
:func:`repro.lab.runner.execute_point`'s ``observe`` hook, yielding the
run's I/O envelope as a replayable :class:`FleetTrace` — the
record-side of the record/replay round trip the determinism tests pin.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..lab.runner import execute_point, run_sweep
from ..lab.spec import digest
from ..lab.store import ResultStore
from ..lab.telemetry import ProgressFn
from .catalog import Scenario
from .record import FleetTraceRecorder
from .trace import FleetTrace

#: Bump when the report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 1


def run_scenario(
    scenario: Scenario,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, Any]:
    """Execute every point of ``scenario`` and gate the artifacts.

    Returns the canonical report dict: per-point metrics, SLO failures
    and verdicts, an overall ``pass``, and a ``report_digest`` derived
    from the canonical bytes of everything above it (so equal reports
    are equal digests, across processes and job counts).
    """
    sweep = run_sweep(
        scenario.spec, jobs=jobs, store=store, force=force, progress=progress
    )
    points = []
    for (_spec, seed, artifact_digest), artifact in zip(sweep.points, sweep.artifacts):
        failures = scenario.slo.evaluate(artifact)
        points.append(
            {
                "seed": seed,
                "artifact_digest": artifact_digest,
                "metrics": scenario.slo.metrics(artifact),
                "slo_failures": failures,
                "pass": not failures,
            }
        )
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA_VERSION,
        "scenario": scenario.name,
        "scenario_digest": scenario.digest,
        "slo": scenario.slo.to_dict(),
        "points": points,
        "pass": all(p["pass"] for p in points),
    }
    report["report_digest"] = digest(report, 16)
    return report


def record_scenario(
    scenario: Scenario,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> Tuple[FleetTrace, Dict[str, Any]]:
    """Run one point of ``scenario`` in-process with a recorder attached.

    Returns the captured :class:`FleetTrace` (the run's I/O envelope,
    replayable on any stack) and the point's result artifact.  Drill
    scenarios (upgrade/rebuild) run their own fleet loops with no lab VD
    to watch, so they cannot be recorded — ``execute_point`` refuses the
    hook for them.
    """
    spec = scenario.spec
    seed = spec.seeds[0] if seed is None else seed
    recorder = FleetTraceRecorder(
        name=scenario.name if name is None else name,
        description=f"recorded from scenario {scenario.name!r} "
        f"(digest {scenario.digest}, seed {seed})",
    )

    def observe(dep, vd) -> None:
        recorder.watch_vd(vd, stream="vd0", source=f"scenario:{scenario.name}")
        recorder.watch_collector(dep.collector)

    artifact = execute_point(spec, seed, observe=observe)
    return recorder.trace(), artifact
