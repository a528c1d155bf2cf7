"""The benchmark's own self-tests.

    python3 perfbench/selftest.py

Checks, in about a minute:

* metric names match ``[A-Za-z0-9_.-]+``, stay within 16 end-to-end and
  128 per-layer names, and agree with BENCHMARK.json;
* a traced run puts every wrapped class attribute back as it was;
* traced self times sum to within 5% of traced wall time;
* an entry point that a refactor removed is reported, not fatal;
* checked outputs (fingerprints included) repeat exactly across
  processes, traced or not;
* a held-out seed changes the fingerprint while the end-to-end metrics
  stay within their bounds.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Never used while the workloads were sized or the bounds were set.
HELD_OUT_SEED = 90_001
SEED = 1
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for table in (run.END_TO_END, run.PER_LAYER):
        for name in table:
            assert NAME.fullmatch(name), f"bad metric name {name!r}"
    assert len(run.END_TO_END) <= 16 and len(run.PER_LAYER) <= 128
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert bench["paths"] == [os.path.basename(HERE)]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def check_traced_run_in_process() -> None:
    """Wrappers restored; self times cover the traced wall time."""
    before = layers.entry_point_attributes()
    saved = dict(workloads.FIO_RUNTIME_NS)
    workloads.FIO_RUNTIME_NS.update(solar=3_000_000, luna=2_000_000)
    try:
        for stack in ("solar", "luna"):
            plain = workloads.run_fio(stack, SEED)
            tracer = layers.Tracer()
            with tracer:
                rep = workloads.run_fio(stack, SEED)
            assert rep["checked"] == plain["checked"], f"{stack}: tracing changed outputs"
            share = sum(tracer.layer_self_ns().values()) / 1e9 / rep["wall_s"]
            assert abs(share - 1.0) <= run.SELF_SUM_TOLERANCE, (
                f"{stack}: self times cover {share:.3f} of traced wall time")
            assert tracer.calls["Channel.send"] > 0
    finally:
        workloads.FIO_RUNTIME_NS.clear()
        workloads.FIO_RUNTIME_NS.update(saved)
    after = layers.entry_point_attributes()
    assert after.keys() == before.keys()
    changed = [f"{cls.__name__}.{name}" for (cls, name), fn in before.items()
               if after[(cls, name)] is not fn]
    assert not changed, f"attributes not restored: {changed}"


def check_stale_table_entry() -> None:
    """An entry point a refactor removed is reported, not fatal."""
    entries = layers.LAYER_ENTRY_POINTS["net"]
    entries.append(("repro.net.link", "Channel", ("no_such_method",)))
    entries.append(("repro.net.no_such_module", "Gone", ("send",)))
    try:
        tracer = layers.Tracer()
        with tracer:
            pass
    finally:
        del entries[-2:]
    assert tracer.missing == ["Channel.no_such_method", "Gone.send"], tracer.missing


def check_fingerprints_across_processes() -> None:
    first = run.run_rep("incast-flood", SEED)
    second = run.run_rep("incast-flood", SEED)
    traced = run.run_rep("incast-flood", SEED, traced=True)
    assert first["checks"] == [], first["checks"]
    assert first["checked"] == second["checked"] == traced["checked"]


def check_held_out_seed() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    base = run.measure("solar-fio", SEED, 1.0, trace=False)
    held = run.measure("solar-fio", HELD_OUT_SEED, 1.0, trace=False)
    assert base["result"]["correct"] and held["result"]["correct"]
    assert base["context"]["checked"]["fingerprint"] != held["context"]["checked"]["fingerprint"]
    for name, bound in bounds.items():
        a = base["result"]["metrics"][name]["value"]
        b = held["result"]["metrics"][name]["value"]
        assert abs(b - a) / a <= bound, f"{name}: {a:.4g} vs held-out {b:.4g}"


CHECKS = (
    check_metric_names,
    check_traced_run_in_process,
    check_stale_table_entry,
    check_fingerprints_across_processes,
    check_held_out_seed,
)


def main() -> int:
    failures = 0
    for check in CHECKS:
        start = time.monotonic()
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__} ({time.monotonic() - start:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
