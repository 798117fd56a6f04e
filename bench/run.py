"""spinscatter benchmark: end-to-end and per-layer figures of one workload.

    python3 bench/run.py --workload sweep-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory and nothing is built.  Each workload runs in fresh python3
processes started one at a time, with BLAS and OpenMP pinned to one thread:

- seven set-up processes (import spinscatter, build the inputs, warm up,
  exit), three before and four after the measuring process, give seven
  set-up times, reported as their median;
- the measuring process runs the closed loop untraced (--trace 0) and prints
  the end-to-end metrics, its times scaled block by block by the
  calibration kernel (calibrate.py), or runs the traced passes (--trace 1)
  and prints the per-layer metrics.

Every call's output is checked against bench/reference.py.  A call that
exits non-zero or prints a result that disagrees with the reference counts
as failed, and `correct` is false when any call fails.  After its timed
loop, cli-mix also runs a fixed set of strong-coupling exact-mode calls that
probe a known defect; their failures are printed on their own line and
kept out of `attempted`, `failed` and `correct`.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Scratch
files go to .bench_work/ in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_PROBES = 7
# all processes of one workload together may take --seconds plus this margin
# for the set-ups and output checks
WORKLOAD_MARGIN_S = 135
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker(workload, seed, seconds, mode, tiny, deadline):
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_VARS})
    env.pop("SPINSCATTER_FORMAT", None)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} exceeded --seconds + {WORKLOAD_MARGIN_S} s"
                         f" in a {mode} process") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment():
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "cpu": cpu,
            "threads": {name: "1" for name in _THREAD_VARS}}


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line object, report dict)."""
    deadline = time.monotonic() + seconds + WORKLOAD_MARGIN_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        res = _worker(workload, seed, seconds, "trace", tiny, deadline)
        values = res["metrics"]
        setups = [res["setup_s"]]
    else:
        # set-up probes on both sides of the measuring process, so the median
        # spans the run rather than one moment of a host whose speed drifts.
        # They are not scaled by the calibration kernel: on the development
        # host that made set-up times spread more, not less
        def setup_probe():
            return _worker(workload, seed, seconds, "setup", tiny, deadline)["setup_s"]

        setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
        res = _worker(workload, seed, seconds, "timed", tiny, deadline)
        setups += [setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = dict(res, setup_s=statistics.median(setups))
    missing = set(declared) - set(values)
    if missing:
        raise BenchError(f"{workload} produced no value for {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples_s": setups, "env": environment(),
              **{k: v for k, v in res.items() if k not in declared and k != "metrics"}}
    return line, report


def print_report(line, report):
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
          f"  trace {report['trace']}")
    for name, m in line["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    if "unscaled" in report:
        print("  unscaled, wall clock of this host: "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items()))
    if "timed_ops" in report:
        print(f"  samples: {report['timed_ops']} timed calls,"
              f" {len(report['setup_samples_s'])} set-ups")
    if "trace_info" in report:
        print(f"  trace: {report['trace_info']}")
    attempted, failed = line["attempted"], line["failed"]
    print(f"  error_rate {failed / attempted:.4g} ({failed} failed / {attempted} attempted:"
          f" {report['failed_exit']} exited non-zero, {report['failed_wrong']} wrong results)")
    print(f"  output check: {'PASS' if line['correct'] else 'FAIL'}"
          f" (reference: bench/reference.py)")
    for example in report["failure_examples"]:
        print(f"    failed: {example}")
    probe = report.get("strong_probe")
    if probe:
        print(f"  strong-coupling probe (known exact-mode defect, not in the result line):"
              f" {probe['failed']} of {probe['attempted']} failed,"
              f" {probe['failed_exit']} exited non-zero, {probe['failed_wrong']} wrong results")
        for example in probe["failure_examples"]:
            print(f"    probe failed: {example}")
    print("env: " + json.dumps(report["env"], sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: 5x5 sweeps, 8-call cli-mix blocks")
    args = parser.parse_args()

    if not (ROOT / "src" / "spinscatter" / "__init__.py").is_file():
        print(f"error: no spinscatter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = (ROOT / ".bench_work" / "results")
    try:
        lines = {}
        for name in names:
            line, report = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            results.mkdir(parents=True, exist_ok=True)
            path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps({"result": line, **report}, indent=2) + "\n")
            print_report(line, report)
            lines[name] = line
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {"correct": all(v["correct"] for v in lines.values()),
                 "attempted": sum(v["attempted"] for v in lines.values()),
                 "failed": sum(v["failed"] for v in lines.values()),
                 "metrics": {f"{w}/{m}": v for w, line in lines.items()
                             for m, v in line["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
