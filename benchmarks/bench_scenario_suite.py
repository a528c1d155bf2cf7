"""Scenario-suite smoke: catalog SLO gates + report-digest determinism.

The scenario catalog (`repro.scenario`) is a standing behavior-envelope
regression gate: each curated scenario binds a deterministic workload to
pass/fail SLO assertions, and its report digest is a pure function of
the scenario.  This bench pins both properties on a CI-sized subset:

* **gates** — every suite scenario must pass its SLO assertions;
* **determinism** — each scenario runs twice and the two report digests
  must match exactly (asserted unconditionally, every run); the
  per-scenario digests fold into one ``combined_digest`` that
  ``check_kernel_regression.py --scenario`` compares against the
  committed trajectory;
* **ingestion** — the MSR and Alibaba sample traces import and replay
  end-to-end on both LUNA and SOLAR, and those report digests join the
  combined digest too.

Results land in two places:

* ``out/BENCH_scenario.json`` — the latest run (untracked scratch);
* ``BENCH_scenario_history.jsonl`` — the committed trajectory, one JSON
  line per official run (append via ``--update``).
"""

from __future__ import annotations

import json
import os
import sys
import time

from common import median_run, save_output

from repro.lab.spec import digest
from repro.scenario import (
    SloGate,
    get_scenario,
    import_trace,
    run_scenario,
    trace_scenario,
)

#: Bump when the suite composition changes — baselines only compare
#: within one suite version.
SUITE_VERSION = 1

#: CI-sized catalog subset: the two cheapest scenarios that still cover
#: both workload kinds (trace replay and a rebuild drill).
SUITE_SCENARIOS = ("incast-burst", "rebuild-storm")

#: Sample corpora imported and replayed end-to-end each run.
DATA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data"
)
IMPORTS = (("msr", "msr_sample.csv"), ("alibaba", "alibaba_sample.csv"))
REPLAY_STACKS = ("luna", "solar")

HISTORY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_scenario_history.jsonl"
)


def run_suite_probe() -> dict:
    """One measured pass over the suite; raises on nondeterminism."""
    wall_start = time.perf_counter()
    digests: dict = {}
    events = 0
    passes = True

    for name in SUITE_SCENARIOS:
        first = run_scenario(get_scenario(name))
        second = run_scenario(get_scenario(name))
        if first["report_digest"] != second["report_digest"]:
            raise AssertionError(
                f"{name}: report digest not deterministic — "
                f"{first['report_digest']} vs {second['report_digest']}"
            )
        digests[name] = first["report_digest"]
        passes = passes and first["pass"]
        events += sum(p["metrics"]["issued"] for p in first["points"])

    for fmt, filename in IMPORTS:
        trace = import_trace(os.path.join(DATA_DIR, filename), fmt)
        for stack in REPLAY_STACKS:
            scenario = trace_scenario(
                f"{fmt}@{stack}",
                f"imported {fmt} sample on {stack}",
                trace,
                stack=stack,
                slo=SloGate(min_completed_fraction=1.0),
            )
            report = run_scenario(scenario)
            digests[f"{fmt}@{stack}"] = report["report_digest"]
            passes = passes and report["pass"]
            events += sum(p["metrics"]["issued"] for p in report["points"])

    wall_s = time.perf_counter() - wall_start
    combined = digest(digests, 16)
    return {
        "suite_version": SUITE_VERSION,
        "digests": digests,
        "combined_digest": combined,
        "passes": passes,
        "ios_issued": events,
        "wall_s": round(wall_s, 4),
        "ios_per_sec": round(events / wall_s, 1),
    }


def measure_suite() -> dict:
    """The median of :data:`common.MEDIAN_RUNS` suite runs, by wall time;
    the digests must agree across them."""
    return median_run(run_suite_probe, ("digests", "combined_digest", "passes", "ios_issued"))


def main(argv=None) -> int:
    update = "--update" in (argv if argv is not None else sys.argv[1:])
    result = run_suite_probe()
    save_output("BENCH_scenario.json", json.dumps(result, indent=2, sort_keys=True))
    print(json.dumps(result, indent=2, sort_keys=True))
    if not result["passes"]:
        print("FAIL: a suite scenario violated its SLO gates", file=sys.stderr)
        return 1
    if update:
        with open(HISTORY_PATH, "a") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")
        print(f"appended fresh entry to {os.path.basename(HISTORY_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
