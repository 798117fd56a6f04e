"""Seeded inputs of the three workloads.

Every parameter below is drawn from the `--seed` argument; the program sees
only the generated argument lists.  Numbers travel as repr() text so the CLI
parses back exactly the float the reference uses.

- sweep-exact: one `sweep` of entangle-impurities in exact mode over a 41x41
  (r1, r2) grid on [0, 2]^2, k = 1, half-separation 1, csv to a file.
- sweep-filter: one `sweep` of the fixed-filter concentrate protocol over a
  61x61 (a, r) grid, a in [0.05, 0.7] and r in [0, 3], k = 1, csv to a file.
  In both sweeps the seed shifts each grid window by a fraction of one grid
  step, so seeds differ in the points they hit, not in the amount of work.
- cli-mix: a stream of one-shot CLI calls in blocks of 24, shuffled within
  the block, each in an output format drawn uniformly.  Every command and
  mode of the single-call path has the same weight, 3 calls per block
  (BLOCK below).  Fixing the composition keeps the latency distribution the
  same across seeds.
- strong-coupling probe: a fixed number of exact-mode entangle-impurities
  calls (STRONG) with both couplings drawn log-uniformly from [1, 1e10], the
  regime where exact mode loses accuracy and then stops conserving flux.
  They run after the timed loop of cli-mix and are reported on their own, so
  the known defect shows in every cli-mix run while the timed stream holds
  only calls that must succeed.

No record of real usage exists, so the equal weights, the probe size and
the parameter ranges are choices, not measured traffic.  Ranges keep each
call in the program's valid domain; each optional argument or choice between
preset and custom values is taken with probability 1/2, except where the
program needs the argument.
"""

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep-exact", "sweep-filter", "cli-mix")
FORMATS = ("table", "csv", "json")

# exact-mode calls with couplings drawn log-uniformly from 10**STRONG_LOG10_RANGE
STRONG = "entangle-impurities-strong"
STRONG_LOG10_RANGE = (0.0, 10.0)
STRONG_PROBE_CALLS = 24

# (kind, count) per block of the cli-mix stream: equal weight per command and mode
BLOCK = (
    ("amplitudes", 3),
    ("filter", 3),
    ("kondo", 3),
    ("concentrate", 3),
    ("concentrate-kondo", 3),
    ("entangle-particles", 3),
    ("entangle-impurities", 3),
    ("entangle-impurities-exact", 3),
)


@dataclass
class Op:
    """One CLI invocation and what is needed to check it."""

    kind: str
    argv: list
    fmt: str
    protocol: str | None = None   # run_protocol name, for protocol commands
    params: dict = field(default_factory=dict)
    grids: tuple = ()             # sweeps: ((name, start, stop, points), ...)
    evals: int = 1                # protocol or channel evaluations in the call


def _num(x):
    return repr(float(x))


def sweep_op(workload, seed, out_path, points=None):
    """The sweep a workload repeats; `points` overrides the grid size."""
    if workload == "sweep-exact":
        full, protocol = 41, "entangle-impurities"
        fixed = {"mode": "exact", "k": 1.0, "half_separation": 1.0}
        windows = (("r1", 0.0, 2.0), ("r2", 0.0, 2.0))
    else:
        full, protocol = 61, "concentrate"
        fixed = {"k": 1.0}
        windows = (("a", 0.05, 0.7), ("r", 0.0, 3.0))
    n = points or full
    # shift each window by a seeded fraction of one step of the full-size grid
    shift = np.random.default_rng([seed, 0]).uniform(0.0, 1.0, size=2)
    grids = tuple(
        (name, lo + u * (hi - lo) / (full - 1), hi + u * (hi - lo) / (full - 1), n)
        for (name, lo, hi), u in zip(windows, shift)
    )
    argv = ["sweep", "--protocol", protocol]
    for name, value in fixed.items():
        argv += ["--fixed", f"{name}={value if isinstance(value, str) else _num(value)}"]
    for name, start, stop, count in grids:
        argv += ["--grid", f"{name}:{_num(start)}:{_num(stop)}:{count}"]
    argv += ["--format", "csv", "--output", str(out_path)]
    return Op(workload, argv, "csv", protocol, fixed, grids, n * n)


def _mix_op(kind, rng):
    fmt = str(rng.choice(FORMATS))
    op = _mix_call(kind, rng, fmt)
    # --flag=value throughout: argparse takes a value such as -1.5e-05 after
    # a separate flag for another flag
    command, *pairs = op.argv + ["--format", fmt]
    op.argv = [command] + [f"{flag}={value}" for flag, value in zip(pairs[::2], pairs[1::2])]
    return op


def _mix_call(kind, rng, fmt):
    k = float(rng.uniform(0.5, 3.0))
    if kind == "amplitudes":
        r = float(rng.uniform(-3.0, 3.0))
        return Op(kind, ["amplitudes", "--k", _num(k), "--r", _num(r)], fmt, params={"k": k, "r": r})
    if kind == "filter":
        r = float(rng.uniform(-2.0, 2.0))
        argv = ["filter", "--k", _num(k), "--r", _num(r)]
        params = {"k": k, "r": r}
        if rng.random() < 0.5:
            v = rng.normal(size=3)
            axis = tuple(float(x) for x in v / np.linalg.norm(v))
            argv += ["--axis", ",".join(_num(x) for x in axis)]
            params["axis"] = axis
        return Op(kind, argv, fmt, params=params)
    if kind == "kondo":
        r = float(rng.uniform(-3.0, 3.0))
        if rng.random() < 0.5:
            ev = tuple(float(x) for x in rng.uniform(-3.0, 3.0, size=4))
            ev_text = ",".join(_num(x) for x in ev)
        else:
            ev = ev_text = str(rng.choice(["default", "standard-pauli"]))
        argv = ["kondo", "--k", _num(k), "--r", _num(r), "--eigenvalues", ev_text]
        return Op(kind, argv, fmt, params={"k": k, "r": r, "eigenvalues": ev})
    preset = str(rng.choice(["default", "standard-pauli"]))
    if kind in ("concentrate", "concentrate-kondo"):
        a = float(rng.uniform(0.05, 0.95))
        argv = ["concentrate", "--a-coeff", _num(a), "--k", _num(k)]
        params = {"a": a, "k": k}
        if rng.random() < 0.5:
            phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
            argv += ["--a-phase", _num(phases[0]), "--b-phase", _num(phases[1])]
            params.update(a_phase=float(phases[0]), b_phase=float(phases[1]))
        if kind == "concentrate-kondo":
            r = float(rng.uniform(-3.0, 3.0))
            argv += ["--impurity", "kondo", "--r", _num(r), "--eigenvalues", preset]
            params.update(r=r, eigenvalues=preset)
        # without --r the program uses the optimal coupling, which exists
        # only for a < 1/sqrt(2); keep a margin below that
        elif a > 0.65 or rng.random() < 0.5:
            r = float(rng.uniform(0.0, 3.0))
            argv += ["--r", _num(r)]
            params["r"] = r
        return Op(kind, argv, fmt, kind, params)
    initial = "".join(str(b) for b in rng.integers(0, 2, size=3))
    if kind == "entangle-particles":
        r = float(rng.uniform(-3.0, 3.0))
        argv = ["entangle-particles", "--k", _num(k), "--r", _num(r),
                "--eigenvalues", preset, "--initial", initial]
        params = {"k": k, "r": r, "eigenvalues": preset, "initial": initial}
        return Op(kind, argv, fmt, kind, params)
    mode = "first-order" if kind == "entangle-impurities" else "exact"
    if kind == STRONG:
        k, preset = 1.0, "default"
        r1, r2 = (float(10.0 ** x) for x in rng.uniform(*STRONG_LOG10_RANGE, size=2))
    else:
        r1, r2 = (float(x) for x in rng.uniform(0.05, 3.0, size=2))
    half = float(rng.uniform(0.5, 2.0))
    argv = ["entangle-impurities", "--k", _num(k), "--r1", _num(r1), "--r2", _num(r2),
            "--half-separation", _num(half), "--mode", mode, "--eigenvalues", preset,
            "--initial", initial]
    params = {"k": k, "r1": r1, "r2": r2, "half_separation": half, "mode": mode,
              "eigenvalues": preset, "initial": initial}
    return Op(kind, argv, fmt, "entangle-impurities", params)


def mix_block(seed, index):
    """Block `index` of the cli-mix stream: BLOCK's composition in seeded order."""
    rng = np.random.default_rng([seed, 1, index])
    kinds = [kind for kind, count in BLOCK for _ in range(count)]
    return [_mix_op(kinds[i], rng) for i in rng.permutation(len(kinds))]


def strong_probe(seed, calls=None):
    """The strong-coupling calls run after cli-mix's timed loop."""
    rng = np.random.default_rng([seed, 3])
    return [_mix_op(STRONG, rng) for _ in range(calls or STRONG_PROBE_CALLS)]


def warmup_ops(workload, seed, out_path):
    """Untimed first calls that let lazy set-up finish: one per kind, or a 3x3 sweep."""
    if workload == "cli-mix":
        rng = np.random.default_rng([seed, 2])
        return [_mix_op(kind, rng) for kind, _ in BLOCK]
    return [sweep_op(workload, seed, out_path, points=3)]
