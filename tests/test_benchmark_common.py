"""Regression tests for the shared benchmark helpers (`benchmarks/common.py`).

`run_single_ios` walks offsets with modulo arithmetic; for I/O sizes at or
above the VD size the old math divided by zero or produced negative
offsets.  These tests pin the guarded behaviour.
"""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "benchmarks"))
)

from common import (  # noqa: E402
    fanout,
    median_run,
    provisioned_vd,
    run_single_ios,
    small_deployment,
)


def _deployment_and_vd(vd_size_mb: int):
    dep = small_deployment("solar", seed=7)
    vd = provisioned_vd(dep, size_mb=vd_size_mb, vd_id=f"vd-{vd_size_mb}")
    return dep, vd


class TestRunSingleIos:
    def test_typical_sizes_complete(self):
        dep, vd = _deployment_and_vd(4)
        traces = run_single_ios(dep, vd, "write", count=5, size_bytes=4096)
        assert len(traces) == 5
        assert all(t.ok for t in traces)

    def test_io_equal_to_vd_size_lands_at_offset_zero(self):
        # Old math: modulo by (vd.size - size) == 0 -> ZeroDivisionError.
        dep, vd = _deployment_and_vd(1)
        traces = run_single_ios(dep, vd, "write", count=2, size_bytes=vd.size_bytes)
        assert len(traces) == 2
        assert all(t.ok for t in traces)

    def test_io_near_vd_size_stays_in_bounds(self):
        # Old math: a span smaller than the I/O size could produce offsets
        # whose [offset, offset+size) range ran past the end of the VD.
        dep, vd = _deployment_and_vd(1)
        size = vd.size_bytes - 4096
        traces = run_single_ios(dep, vd, "read", count=3, size_bytes=size)
        assert len(traces) == 3

    def test_io_larger_than_vd_rejected_with_clear_error(self):
        # Old math: modulo by a negative span -> negative offsets.
        dep, vd = _deployment_and_vd(1)
        with pytest.raises(ValueError, match="exceeds VD size"):
            run_single_ios(dep, vd, "write", count=1, size_bytes=vd.size_bytes + 4096)


def _double(x):
    return 2 * x


class TestFanout:
    def test_fanout_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert fanout(_double, [(i,) for i in range(4)]) == [0, 2, 4, 6]

    def test_fanout_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert fanout(_double, [(5,)]) == [10]


class TestMedianRun:
    def test_returns_the_median_wall_run_and_every_wall(self):
        walls = iter([3.0, 1.0, 2.0])
        result = median_run(lambda: {"wall_s": next(walls), "ios": 5}, ("ios",))
        assert result["wall_s"] == 2.0
        assert result["wall_s_runs"] == [3.0, 1.0, 2.0]

    def test_deterministic_drift_raises(self):
        ios = iter([5, 5, 6])
        with pytest.raises(AssertionError, match="'ios' differs"):
            median_run(lambda: {"wall_s": 1.0, "ios": next(ios)}, ("ios",))
