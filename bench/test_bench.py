"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench

Each workload runs end to end in both modes; the printed metric names must
be the ones BENCHMARK.json declares, no timed call may fail, the traced
counts must repeat exactly, and a directory without the program's sources
must be refused.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert line["failed"] == 0
    return line, proc.stdout


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    line, stdout = result(workload, 0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == spec
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "unscaled, wall clock of this host" in stdout
    assert ("strong-coupling probe" in stdout) == (workload == "cli-mix")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_match_spec(workload):
    (first, _), (second, _) = result(workload, 1), result(workload, 1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == spec
    counts = {name: first["metrics"][name]["value"] for name in COUNTS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNTS}
    if workload == "sweep-exact":
        assert counts["hilbert.SpinState.constructions_per_eval"] == 17
        assert counts["scattering.two_impurity_exact.calls_per_eval"] == 1
    if workload == "sweep-filter":
        assert counts["scattering.two_impurity_exact.calls_per_eval"] == 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_calibration_takes_kernel_runs_out_and_scales():
    host = calibrate.HostSpeed()
    # kernel runs at 0.2 s (inside the call) and 0.45 s, at twice the nominal time
    host.starts, host.durations = [200_000_000, 450_000_000], [3_000_000, 3_000_000]
    host.per_iteration = [2 * calibrate.NOMINAL_S] * 2
    (latency, scaled), = host.scaled([[(100_000_000, 400_000_000)]])
    assert latency == 297_000_000
    assert scaled == latency / 2
    with pytest.raises(RuntimeError):
        host.scaled([[(900_000_000, 950_000_000)]])


def test_reference_reproduces_documented_values():
    # values quoted in the package README
    ent = reference.protocol_batch("entangle-particles", {"k": 1.0, "r": 1.0}).point(0)
    assert math.isclose(ent["outcomes"][0][3], 0.9910760598382222, abs_tol=1e-12)
    a, b = math.sqrt(1 / 3), math.sqrt(2 / 3)
    assert math.isclose(reference.optimal_coupling(a, b, 1.0), 0.5, abs_tol=1e-12)
    best = reference.protocol_batch("concentrate", {"a": a, "k": 1.0}).point(0)
    assert math.isclose(best["outcomes"][0][3], 1.0, abs_tol=1e-9)
    assert math.isclose(best["outcomes"][0][1], 2 / 3, abs_tol=1e-12)
