"""Tests for the host-speed scaling of pass times.

Run from the repository root: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_probe_gives_the_caller_its_cores_back():
    before = os.sched_getaffinity(0)
    assert speed.Probe().time(sorted(before)[:1]) > 0.0
    assert os.sched_getaffinity(0) == before


def test_each_op_is_scaled_by_the_probes_around_it(tmp_path, monkeypatch):
    probes = iter([0.01, 0.03, 0.03])  # after set-up, after the first op, after the second

    class FixedProbe:
        def time(self, cores):
            return next(probes)

    ops = [
        workloads.Op("slow", lambda: time.sleep(0.2), lambda output: None),
        workloads.Op("instant", lambda: None, lambda output: None),
    ]
    monkeypatch.setattr(speed, "Probe", FixedProbe)
    monkeypatch.setattr(workloads, "ops", lambda *args: ops)
    result = tmp_path / "result.json"
    argv = ["worker.py", "--workload", "scan-geom", "--seed", "0", "--t0", repr(time.monotonic())]
    monkeypatch.setattr(sys, "argv", [*argv, "--result", str(result), "--out", str(tmp_path / "out")])
    assert worker.main() == 0
    doc = json.loads(result.read_text())
    assert doc["probes"] == 3
    assert doc["setup_s"] == pytest.approx(doc["setup_raw_s"] * speed.NOMINAL_S / 0.01)
    # The slow op is scaled by NOMINAL_S / mean(0.01, 0.03); the instant one adds next to nothing.
    assert doc["wall_s"] / doc["wall_raw_s"] == pytest.approx(speed.NOMINAL_S / 0.02, rel=0.02)
    assert all(op["error"] is None for op in doc["ops"])
