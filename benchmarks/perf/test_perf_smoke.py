"""Smoke test of the perf ledger (outside tier-1's ``testpaths``).

Run with ``python -m pytest benchmarks/perf/test_perf_smoke.py``. It drives
``run.py --quick --trace`` twice with the same seed, as a user would, and
checks the three things a later PR relies on: every metric ``BENCHMARK.json``
declares is reported, no op fails, and the exact statistics repeat.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def quick_run() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--seed", "7"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])["workloads"]


@pytest.fixture(scope="module")
def two_runs() -> tuple[dict, dict]:
    return quick_run(), quick_run()


def test_every_declared_metric_is_reported(two_runs: tuple[dict, dict]) -> None:
    first, _ = two_runs
    assert list(first) == [w["name"] for w in SPEC["workloads"]]
    for row in first.values():
        assert set(row["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(row["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(value > 0 for value in row["metrics"].values())


def test_no_op_fails(two_runs: tuple[dict, dict]) -> None:
    for run in two_runs:
        for name, row in run.items():
            assert row["failed"] == 0 and row["attempted"] > 0, name


def test_exact_statistics_repeat(two_runs: tuple[dict, dict]) -> None:
    first, second = two_runs
    for name in first:
        assert first[name]["exact"] == second[name]["exact"], name
        assert first[name]["sim_digest"] == second[name]["sim_digest"], name
        assert first[name]["calls_digest"] == second[name]["calls_digest"], name
