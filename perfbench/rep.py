"""One benchmark repetition in a fresh interpreter.

Started by ``run.py`` (once per repetition, so every repetition pays
and measures the interpreter start, the ``repro`` import and the
deployment build), it runs one workload once and prints one JSON line.

    python3 perfbench/rep.py --workload solar-fio --seed 1 --t0 <monotonic> [--trace] [--shards N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import layers  # noqa: E402
import workloads  # noqa: E402


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, run right after the workload: a
    host-speed reading that lets a reader tell a slow host from a slow
    commit.  Context only, never a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    if acc < 0:  # uses the result, so the loop cannot be skipped
        raise AssertionError
    return time.perf_counter() - start


def run_rep(workload: str, seed: int, traced: bool, shards: int) -> dict:
    if workload == "fleet-2shard":
        driver = lambda s: workloads.run_fleet_rep(s, shards=shards)  # noqa: E731
    else:
        driver = workloads.DRIVERS[workload]
    if not traced:
        return driver(seed)
    tracer = layers.Tracer()
    with tracer:
        rep = driver(seed)
    self_ns = tracer.layer_self_ns()
    rep["layer_self_ns"] = self_ns
    rep["counters"] = tracer.counters()
    rep["spans"] = len(tracer.starts)
    rep["missing_entry_points"] = tracer.missing
    tracer.write_spans(
        os.path.join(OUT_DIR, f"spans-{workload}.bin"),
        {"workload": workload, "seed": seed, "wall_s": rep["wall_s"],
         "layer_self_ns": self_ns},
    )
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--shards", type=int, default=workloads.FLEET_SHARDS)
    args = parser.parse_args(argv)
    if args.trace and args.workload == "fleet-2shard" and args.shards != 1:
        parser.error("the fleet's traced run is in-process: pass --shards 1")
    rep = run_rep(args.workload, args.seed, args.trace, args.shards)
    rep["setup_s"] = rep.pop("setup_end") - args.t0
    rep["calibration_s"] = calibration_s()
    print(json.dumps(rep, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
