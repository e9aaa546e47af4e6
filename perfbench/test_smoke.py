"""Smoke self-test of the benchmark on tiny inputs.

Runs every workload once untraced and once traced at a few pixels' size and
checks that each metric named in BENCHMARK.json is reported with its unit,
that every operation passes the correctness gate, and that tracing leaves
the package as it found it.  Run with ``python3 perfbench/test_smoke.py`` or
``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_workloads()
import mpgdenoise  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "bca-256": lambda: workloads.SolveWorkload("bca_solve", size=32, target_db=10.0),
    "bcaf-256": lambda: workloads.SolveWorkload("bcaf_solve", size=32, target_db=10.0),
    # default weights over-smooth images this small, so no SNR gain is asked of the grid
    "bench-grid-64": lambda: workloads.GridWorkload(size=16, gain_db=-100.0),
    "cli-1024": lambda: workloads.CliWorkload(size=32, target_db=5.0),
}


def measure_tiny(name: str, trace: bool) -> dict:
    wl = TINY[name]()
    workdir = HERE / f".work-smoke-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        wl.setup(3, workdir)
        return run.measure(wl, 0.01, trace, [time.perf_counter() - start])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check(name: str) -> None:
    originals = {attr: getattr(mpgdenoise.grid, attr) for attr in ("gradient", "divergence")}
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = measure_tiny(name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected(kind), (name, kind, got)
        for metric_name, m in result["metrics"].items():
            assert isinstance(m["value"], float | int), (name, metric_name, m)
    for attr, fn in originals.items():
        assert getattr(mpgdenoise.grid, attr) is fn
        assert getattr(mpgdenoise.chambolle, attr) is fn


def test_bca():
    check("bca-256")


def test_bcaf():
    check("bcaf-256")


def test_grid():
    check("bench-grid-64")


def test_cli():
    check("cli-1024")


if __name__ == "__main__":
    for test in (test_bca, test_bcaf, test_grid, test_cli):
        test()
        print(f"ok {test.__name__}")
