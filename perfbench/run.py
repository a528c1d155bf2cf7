"""The repository benchmark: host cost per simulated I/O, split by layer.

    python3 perfbench/run.py --workload solar-fio --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (``rep.py``) so that it measures its own set-up.
Repetitions are started while they still fit in ``--seconds`` (at least
``MIN_REPS``), and each metric is the median over them.  The simulated outputs of every repetition
must be identical, because the seed fixes them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced repetition and reports the per-layer metrics
(see README.md).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's context (host calibration, ``nproc``, the
checked outputs).  A missing ``src/repro`` or a failed repetition exits
non-zero without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
OUT_DIR = os.path.join(HERE, "out")
FINGERPRINTS = os.path.join(OUT_DIR, "fingerprints.json")

WORKLOADS = ("solar-fio", "luna-fio", "incast-flood", "fleet-2shard")
MIN_REPS = 4
MIN_TRACED = 1
#: No single repetition may take longer than this.
REP_TIMEOUT_S = 150
#: Traced self times must cover the traced wall time to within this share.
SELF_SUM_TOLERANCE = 0.05

#: name -> unit.  Units and names are mirrored in BENCHMARK.json.
END_TO_END = {
    "wall_us_per_io": "us",
    "cpu_us_per_io": "us",
    "sim_time_ratio": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

DATAPATH_LAYERS = ("sim", "net", "core", "transport", "agent", "host", "storage")

PER_LAYER = {
    "sim.events_run_per_io": "1/io",
    "sim.events_credited_per_io": "1/io",
    "sim.self_us_per_io": "us/io",
    "net.link_sends_per_io": "1/io",
    "net.busy_send_share": "ratio",
    "net.switch_forwards_per_io": "1/io",
    "net.drops": "count",
    "net.self_us_per_io": "us/io",
    "core.cc_acks_per_io": "1/io",
    "core.retransmissions": "count",
    "core.crc_checks_per_io": "1/io",
    "core.self_us_per_io": "us/io",
    "transport.rpcs_per_io": "1/io",
    "transport.segments_per_io": "1/io",
    "transport.self_us_per_io": "us/io",
    "agent.self_us_per_io": "us/io",
    "agent.ios_failed": "count",
    "host.cpu_jobs_per_io": "1/io",
    "host.cpu_busy_share": "ratio",
    "host.pcie_transfers_per_io": "1/io",
    "host.self_us_per_io": "us/io",
    "storage.chunk_ops_per_io": "1/io",
    "storage.ssd_ops_per_io": "1/io",
    "storage.bn_calls_per_io": "1/io",
    "storage.self_us_per_io": "us/io",
    "lab.overhead_ms": "ms",
    "dist.windows": "count",
    "dist.messages_routed": "count",
    "dist.advance_s": "s",
    "dist.idle_share": "ratio",
    "dist.spawn_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_share": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition exited non-zero or printed no result."""


# ----------------------------------------------------------------------
# Host context
# ----------------------------------------------------------------------
def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def src_digest() -> str:
    """Content hash of the program under test, to key stored fingerprints."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def run_rep(workload: str, seed: int, traced: bool = False, shards: int = 2) -> Dict[str, Any]:
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--shards", str(shards)]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RepFailed(f"{workload} seed {seed} repetition exited {proc.returncode}")
    return json.loads(lines[-1])


def per_io(rep: Dict[str, Any], value: float) -> float:
    return value / rep["completed"]


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    med = statistics.median
    return {
        "wall_us_per_io": med(per_io(r, r["wall_s"] * 1e6) for r in reps),
        "cpu_us_per_io": med(per_io(r, r["cpu_s"] * 1e6) for r in reps),
        "sim_time_ratio": med(r["sim_s"] / r["wall_s"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


def per_layer(
    traced: List[Dict[str, Any]], plain: List[Dict[str, Any]], dist: List[Dict[str, Any]]
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from the traced repetitions; ``plain`` are the
    untraced repetitions of the same shape, ``dist`` the sharded ones."""
    problems: List[str] = []
    first = traced[0]
    c = first["counters"]
    for rep in traced[1:]:
        if rep["counters"] != c:
            problems.append("per-layer counts differ between traced repetitions")
            break
    ios = first["completed"]
    out: Dict[str, float] = {
        "sim.events_run_per_io": (c["sim.events_total"] - c["sim.events_credited"]) / ios,
        "sim.events_credited_per_io": c["sim.events_credited"] / ios,
        "net.link_sends_per_io": c["net.link_sends"] / ios,
        "net.busy_send_share": (c["net.busy_sends"] / c["net.link_sends"]
                                if c["net.link_sends"] else 0.0),
        "net.switch_forwards_per_io": c["net.switch_forwards"] / ios,
        "net.drops": c["net.switch_drops"] + c["net.queue_drops"],
        "core.cc_acks_per_io": c["core.cc_acks"] / ios,
        "core.retransmissions": c["core.retransmissions"],
        "core.crc_checks_per_io": c["core.crc_checks"] / ios,
        "transport.rpcs_per_io": c["transport.rpcs"] / ios,
        "transport.segments_per_io": c["transport.segments"] / ios,
        "agent.ios_failed": c["agent.ios_failed"],
        "host.cpu_jobs_per_io": c["host.cpu_jobs"] / ios,
        "host.cpu_busy_share": (c["host.cpu_busy_ns"]
                                / (c["host.cpu_cores_used"] * first["sim_s"] * 1e9)
                                if c["host.cpu_cores_used"] else 0.0),
        "host.pcie_transfers_per_io": c["host.pcie_transfers"] / ios,
        "storage.chunk_ops_per_io": c["storage.chunk_ops"] / ios,
        "storage.ssd_ops_per_io": c["storage.ssd_ops"] / ios,
        "storage.bn_calls_per_io": c["storage.bn_calls"] / ios,
    }
    for layer in DATAPATH_LAYERS:
        out[f"{layer}.self_us_per_io"] = statistics.median(
            r["layer_self_ns"][layer] / 1e3 / r["completed"] for r in traced
        )
    shares = [sum(r["layer_self_ns"].values()) / 1e9 / r["wall_s"] for r in traced]
    out["trace.self_sum_share"] = statistics.median(shares)
    for share in shares:
        if abs(share - 1.0) > SELF_SUM_TOLERANCE:
            problems.append(f"traced self times cover {share:.3f} of traced wall time")
    out["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                   / statistics.median(r["wall_s"] for r in plain))
    out["lab.overhead_ms"] = statistics.median(r.get("lab_overhead_ms", 0.0) for r in plain)
    for name in ("windows", "messages_routed", "advance_s", "idle_share", "spawn_s"):
        out[f"dist.{name}"] = (statistics.median(r["dist"][name] for r in dist)
                               if dist else 0.0)
    return out, problems


# ----------------------------------------------------------------------
# Fingerprint store: a seed's checked outputs must not change while the
# program does not.
# ----------------------------------------------------------------------
def check_store(key: str, checked: Dict[str, Any]) -> List[str]:
    try:
        with open(FINGERPRINTS) as handle:
            store = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    known = store.get(key)
    if known is not None:
        return [] if known == checked else [
            f"checked outputs of {key} differ from an earlier run of the same code"
        ]
    store[key] = checked
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = f"{FINGERPRINTS}.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(store, handle, sort_keys=True, indent=1)
    os.replace(tmp, FINGERPRINTS)
    return []


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    context = {"nproc": nproc(), "python": sys.version.split()[0],
               "workload": workload, "seed": seed}
    deadline = time.monotonic() + seconds
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    dist: List[Dict[str, Any]] = []
    fleet = workload == "fleet-2shard"
    while True:
        started = time.monotonic()
        if trace:
            # The fleet's layer split comes from an in-process run of the
            # same spec (the workers cannot be wrapped from outside); its
            # dist metrics from the sharded run.
            shards = 1 if fleet else 2
            if fleet:
                dist.append(run_rep(workload, seed))
            plain.append(run_rep(workload, seed, shards=shards))
            traced.append(run_rep(workload, seed, traced=True, shards=shards))
            enough = len(traced) >= MIN_TRACED
        else:
            plain.append(run_rep(workload, seed))
            enough = len(plain) >= MIN_REPS
        # Start no repetition that would end past the deadline.
        now = time.monotonic()
        if enough and now + (now - started) > deadline:
            break

    reps = plain + traced + dist
    problems = [f"{workload}: {p}" for r in reps for p in r["checks"]]
    checked = reps[0]["checked"]
    if any(r["checked"] != checked for r in reps):
        problems.append("checked outputs differ between repetitions "
                        "(traced and untraced, or sharded and in-process)")
    problems += check_store(f"{workload}:{seed}:{src_digest()}", checked)
    if trace:
        metrics, layer_problems = per_layer(traced, plain, dist)
        problems += layer_problems
        units = PER_LAYER
        context["spans"] = traced[0]["spans"]
        context["missing_entry_points"] = traced[0]["missing_entry_points"]
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    context.update(
        calibration_s=statistics.median(r["calibration_s"] for r in reps),
        repetitions=len(reps), checked=checked, problems=problems,
    )
    return {
        "context": context,
        "result": {
            "correct": not problems,
            "attempted": sum(r["issued"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
                         "is missing; run from the root of a checkout\n")
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps({"context": out["context"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
