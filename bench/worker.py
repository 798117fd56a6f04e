"""One workload in one fresh, single-threaded interpreter.

Started by run.py, never imported by it.  Modes:

- setup: import spinscatter, build the inputs, run the warm-up calls, report
  the time since the parent spawned this process, exit;
- timed: the same set-up, then a closed loop (each call starts when the
  previous one has returned) of untraced CLI calls for --seconds, while a
  timer samples the calibration kernel (calibrate.py) that scales each
  block's times to a host of nominal speed; every output is checked against
  reference.py between blocks;
- trace: the same set-up, then pairs of passes over a fixed list of calls,
  one untraced and one traced, until --seconds have passed; per-layer
  figures come from the traced passes, and the ratio of the two passes' wall
  times is the tracing overhead.

The last line of stdout is one JSON object for run.py.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import reference
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]

TRACE_BLOCKS = 10  # cli-mix blocks in one traced pass
CHUNK = 128  # grid points per batch of the sweep reference


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import spinscatter
    from spinscatter import cli, protocols

    src = (ROOT / "src").resolve()
    if src not in Path(spinscatter.__file__).resolve().parents:
        raise SystemExit(f"spinscatter imported from {spinscatter.__file__}, not from {src}")
    return cli, protocols


def _blocks(workload, seed, out_path, tiny):
    """Endless sequence of op blocks; the timed loop stops only between blocks."""
    if workload == "cli-mix":
        index = 0
        while True:
            block = workloads.mix_block(seed, index)
            yield block[:8] if tiny else block
            index += 1
    op = workloads.sweep_op(workload, seed, out_path, points=5 if tiny else None)
    while True:
        yield [op]


# ---------------------------------------------------------------------------
# Output checks

def _check_sweep(op, code, text, err, protocols, cache):
    if code != 0:
        return [f"exit status {code}: {err.strip()}"]
    if text is None:
        return [f"exit status 0 but no output file {op.argv[-1]}"]
    key = (tuple(op.argv), text)
    if key in cache:
        return cache[key]
    problems = []
    axes = [np.linspace(start, stop, n) for _, start, stop, n in op.grids]
    mesh = [m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")]
    # in chunks, so the reference's arrays stay small next to the program's memory
    chunks = []
    for lo in range(0, len(mesh[0]), CHUNK):
        params = dict(op.params)
        params.update({name: m[lo:lo + CHUNK] for (name, *_), m in zip(op.grids, mesh)})
        chunks.append(reference.protocol_batch(op.protocol, params).sweep_metrics())
    expected = np.concatenate(chunks)
    names = [g[0] for g in op.grids]
    rows = csv.reader(io.StringIO(text, newline=""))
    header = next(rows)
    if header != names + ["probability", "entropy_bits", "concurrence"]:
        problems.append(f"csv header {header}")
    got = np.array([[float(x) for x in row] for row in rows])
    want = np.column_stack(mesh + [expected])
    if got.shape != want.shape:
        problems.append(f"csv shape {got.shape}, expected {want.shape}")
    else:
        atol, rtol = reference.TOL["csv"]
        bad = np.abs(got - want) > atol + rtol * np.abs(want)
        for i, j in zip(*np.nonzero(bad)):
            problems.append(f"row {i} column {header[j]}: got {got[i, j]!r}, expected {want[i, j]!r}")
            if len(problems) > 5:
                break
    best = float(np.max(expected[:, 1]))
    value = [tok for tok in err.split() if tok.startswith("value=")]
    if not value or not reference.close(float(value[0][6:]), best, "csv"):
        problems.append(f"argmax {value}, expected value={best!r}")
    # every grid point through the library API: the event tree is complete
    for point in range(len(mesh[0])):
        params = dict(op.params)
        params.update({name: float(m[point]) for (name, *_), m in zip(op.grids, mesh)})
        total = protocols.run_protocol(op.protocol, params).tree.total_probability()
        if abs(total - 1.0) > reference.TREE_TOTAL_TOL:
            problems.append(f"tree total {total!r} at {params}")
            break
    cache[key] = problems
    return problems


def _check_single(op, code, text, err, protocols):
    if code != 0:
        return [f"exit status {code}: {err.strip()}"]
    if op.kind == "amplitudes":
        return reference.compare(reference.parse_amplitudes(text, op.fmt),
                                 reference.amplitudes(op.params["k"], op.params["r"]), op.fmt)
    if op.kind in ("filter", "kondo"):
        return reference.compare(reference.parse_operators(text, op.fmt),
                                 reference.operators(op.kind, op.params), op.fmt)
    expected = reference.protocol_batch(op.protocol, op.params).point(0)
    problems = reference.compare(reference.parse_protocol(text, op.fmt), expected, op.fmt)
    total = protocols.run_protocol(op.protocol, op.params).tree.total_probability()
    if abs(total - 1.0) > reference.TREE_TOTAL_TOL:
        problems.append(f"tree total {total!r}")
    return problems


class Runner:
    """Issues CLI calls and checks their outputs between timed regions.

    A call fails when it exits non-zero or its output disagrees with the
    reference.  Outputs are checked and dropped after each block, so the
    benchmark's own memory does not grow with the run.
    """

    def __init__(self, cli, protocols, out_path):
        self.cli = cli
        self.protocols = protocols
        self.out_path = out_path
        self.pending = []  # (op, exit code, stdout or file text, stderr)
        self.counts = {"attempted": 0, "failed": 0, "failed_exit": 0, "failed_wrong": 0}
        self.examples = {"wrong": [], "exit": []}
        self.sweep_cache = {}

    def call(self, op):
        if op.grids:
            # a sweep that exits 0 must have written its own output file
            self.out_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            code = self.cli.main(op.argv)
            t1 = time.perf_counter_ns()
        text = out.getvalue()
        if op.grids and code == 0:
            try:
                with open(self.out_path, encoding="utf-8", newline="") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = None
        self.pending.append((op, code, text, err.getvalue()))
        return t0, t1

    def check_pending(self):
        for op, code, text, err in self.pending:
            try:
                if op.grids:
                    problems = _check_sweep(op, code, text, err, self.protocols, self.sweep_cache)
                else:
                    problems = _check_single(op, code, text, err, self.protocols)
            except Exception as exc:  # an unparsable output is a wrong output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.counts["attempted"] += 1
            if not problems:
                continue
            kind = "exit" if code != 0 else "wrong"
            self.counts["failed"] += 1
            self.counts[f"failed_{kind}"] += 1
            if len(self.examples[kind]) < 2:
                self.examples[kind].append({"argv": op.argv, "exit": code, "problems": problems[:3]})
        self.pending.clear()

    def result(self):
        self.check_pending()
        return dict(self.counts,
                    failure_examples=[e for group in self.examples.values() for e in group])


# ---------------------------------------------------------------------------
# Modes

def _quantile(values, q):
    cuts = statistics.quantiles(values, n=100, method="inclusive") if len(values) > 1 else values * 99
    return cuts[q - 1]


def _speed(latencies, evals):
    return {
        "evals_per_s": evals / (sum(latencies) / 1e9),
        "op_p50_ms": _quantile(latencies, 50) / 1e6,
        "op_p90_ms": _quantile(latencies, 90) / 1e6,
    }


def timed(runner, blocks, seconds):
    spans, evals = [], 0
    with calibrate.HostSpeed() as host:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            block = next(blocks)
            spans.append([runner.call(op) for op in block])
            evals += sum(op.evals for op in block)
            runner.check_pending()
    raw, scaled = zip(*host.scaled(spans))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        **_speed(scaled, evals),
        "peak_rss_mb": peak_rss_mb,
        "timed_ops": len(raw),
        "unscaled": _speed(raw, evals),
        "latencies_ms": [x / 1e6 for x in raw],
        "scaled_latencies_ms": [x / 1e6 for x in scaled],
        "block_sizes": [len(block) for block in spans],
        "call_spans_ns": [list(span) for block in spans for span in block],
        "kernel_runs": {"start_ns": host.starts, "duration_ns": host.durations,
                        "s_per_iteration": host.per_iteration},
    }


def traced(runner, ops, seconds, spans_path):
    evals = sum(op.evals for op in ops)
    passes, ratios, missing = [], [], []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        t0 = time.perf_counter_ns()
        for op in ops:
            runner.call(op)
        plain = time.perf_counter_ns() - t0
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter_ns()
            for i, op in enumerate(ops):
                tracer.current_op = i
                runner.call(op)
            traced_ns = time.perf_counter_ns() - t0
        runner.check_pending()
        if not passes:
            tracer.write(spans_path)
            missing = tracer.missing
        passes.append(tracer.summary())
        ratios.append(traced_ns / plain)

    def med(layer, field):
        return statistics.median(p[layer][field] for p in passes)

    first = passes[0]
    hilbert_self = statistics.median(
        sum(v[2] for name, v in p.items() if name.startswith("hilbert.")) for p in passes)
    us = 1e-3
    metrics = {
        "cli.parse_args.us_per_op": med("cli.parse_args", 1) * us / len(ops),
        "cli.run.self_us_per_op": med("cli.run", 2) * us / len(ops),
        "protocols.run_protocol.self_us_per_eval": med("protocols.run_protocol", 2) * us / evals,
        "protocols.sweep.self_us_per_point": med("protocols.sweep", 2) * us / evals,
        "channels.embed.calls_per_eval": first["channels.embed"][0] / evals,
        "channels.embed.us_per_eval": med("channels.embed", 1) * us / evals,
        "channels.exchange_matrix.calls_per_eval": first["channels.exchange_matrix"][0] / evals,
        "channels.exchange_matrix.us_per_eval": med("channels.exchange_matrix", 1) * us / evals,
        "channels.kondo_operators.us_per_eval": med("channels.kondo_operators", 1) * us / evals,
        "channels.fixed_filter_operators.us_per_eval":
            med("channels.fixed_filter_operators", 1) * us / evals,
        "scattering.two_impurity_exact.calls_per_eval":
            first["scattering.two_impurity_exact"][0] / evals,
        "scattering.two_impurity_exact.self_us_per_eval":
            med("scattering.two_impurity_exact", 2) * us / evals,
        "scattering.scalar_amplitudes.calls_per_eval":
            first["scattering.scalar_amplitudes"][0] / evals,
        "hilbert.SpinState.constructions_per_eval": first["hilbert.SpinState"][0] / evals,
        "hilbert.DensityMatrix.constructions_per_eval": first["hilbert.DensityMatrix"][0] / evals,
        "hilbert.von_neumann_entropy.us_per_eval": med("hilbert.von_neumann_entropy", 1) * us / evals,
        "hilbert.self_us_per_eval": hilbert_self * us / evals,
        "trace.overhead_ratio": statistics.median(ratios),
    }
    counts_repeat = all(
        {n: v[0] for n, v in p.items()} == {n: v[0] for n, v in first.items()} for p in passes)
    return metrics, {"passes": len(passes), "ops_per_pass": len(ops), "evals_per_pass": evals,
                     "counts_repeat": counts_repeat, "spans_file": str(spans_path.relative_to(ROOT)),
                     "missing_layers": missing}


def main():
    spawn_ns = int(os.environ["BENCH_SPAWN_NS"])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    cli, protocols = _import_program()
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out_path = work / f"{args.workload}.csv"
    runner = Runner(cli, protocols, out_path)
    blocks = _blocks(args.workload, args.seed, out_path, args.tiny)
    for op in workloads.warmup_ops(args.workload, args.seed, out_path):
        runner.call(op)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if args.mode == "timed":
        result.update(timed(runner, blocks, args.seconds))
    elif args.mode == "trace":
        n_blocks = 1 if args.workload != "cli-mix" else (1 if args.tiny else TRACE_BLOCKS)
        ops = [op for _ in range(n_blocks) for op in next(blocks)]
        spans_path = work / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        metrics, info = traced(runner, ops, args.seconds, spans_path)
        result.update(metrics=metrics, trace_info=info)
    if args.mode != "setup":
        result.update(runner.result())
    if args.mode == "timed" and args.workload == "cli-mix":
        # the known exact-mode defect, outside the timed loop and its counts
        probe = Runner(cli, protocols, out_path)
        for op in workloads.strong_probe(args.seed, calls=4 if args.tiny else None):
            probe.call(op)
        result["strong_probe"] = probe.result()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
