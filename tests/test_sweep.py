"""Sweeps through the batched kernel against single calls and a stored snapshot."""

import math
import os

import numpy as np
import pytest

from spinscatter import GridSpec, InternalFaultError, run_protocol, sweep

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "parent_sweeps.npz")
METRICS = ("probability", "entropy_bits", "concurrence")


def _assert_records_match_single_calls(protocol, grids, fixed):
    res = sweep(protocol, grids, fixed)
    assert len(res.records) == math.prod(g.points for g in grids)
    worst = 0.0
    for rec in res.records:
        out = run_protocol(protocol, {**fixed, **rec.params}).outcomes[0]
        expect = (out.branch_probability, out.entropy_bits or 0.0, out.concurrence or 0.0)
        worst = max(worst, *(abs(rec.metrics[m] - e) for m, e in zip(METRICS, expect)))
    assert worst <= 1e-12
    return res


# Every numeric parameter of every protocol is swept at least once.  Grids
# of more than 256 points cross kernel block boundaries; zero couplings,
# product inputs and the aligned initial state 000 give null branches, and
# log grids reach couplings of 1e10.
CASES = [
    ("concentrate", [GridSpec("a", 0.05, 1.0, 20), GridSpec("r", 0.0, 3.0, 15)], {"k": 1.3}),
    ("concentrate", [GridSpec("k", 0.2, 4.0, 7), GridSpec("axis_theta", 0.0, 3.0, 7)],
     {"a": 0.6, "r": 0.8}),
    ("concentrate", [GridSpec("a_phase", 0.0, 6.0, 5), GridSpec("b_phase", -3.0, 3.0, 5),
                     GridSpec("r", 1.0, 1e10, 6, "log")], {"a": 0.4}),
    ("concentrate", [GridSpec("b", 0.8, 0.8, 1), GridSpec("k", 0.5, 2.0, 9)], {"a": 0.6}),
    ("concentrate", [GridSpec("a", 0.1, 0.7, 13), GridSpec("k", 0.5, 3.0, 5)], {}),
    ("concentrate-kondo", [GridSpec("a", 0.0, 1.0, 17), GridSpec("r", -3.0, 3.0, 17)],
     {"k": 0.9}),
    ("concentrate-kondo", [GridSpec("r", 1.0, 1e10, 9, "log"), GridSpec("k", 0.3, 3.0, 4)],
     {"a": 0.5, "a_phase": 0.4, "eigenvalues": "standard-pauli"}),
    ("entangle-particles", [GridSpec("r", 0.0, 3.0, 21), GridSpec("k", 0.4, 2.5, 14)], {}),
    ("entangle-particles", [GridSpec("r", 1e-3, 1e10, 14, "log")], {"initial": "000"}),
    ("entangle-particles", [GridSpec("r", -2.0, 2.0, 9)], {"initial": "011", "k": 0.7}),
    ("entangle-impurities", [GridSpec("r1", 0.0, 2.0, 17), GridSpec("r2", 0.0, 2.0, 17)],
     {"k": 1.1}),
    ("entangle-impurities", [GridSpec("k", 0.3, 3.0, 6), GridSpec("half_separation", 0.5, 4.0, 3),
                             GridSpec("r1", 1.0, 1e10, 6, "log")], {"r2": 0.9}),
    ("entangle-impurities", [GridSpec("r1", 0.0, 2.0, 5)], {"r2": 0.0, "initial": "000"}),
    ("entangle-impurities", [GridSpec("r1", 0.0, 2.0, 17), GridSpec("r2", 0.0, 2.0, 17)],
     {"k": 1.1, "mode": "exact", "half_separation": 0.8}),
    ("entangle-impurities", [GridSpec("half_separation", 0.1, 6.0, 25),
                             GridSpec("k", 0.3, 3.0, 12)], {"r": 0.7, "mode": "exact"}),
    ("entangle-impurities", [GridSpec("r1", 1.0, 1e10, 11, "log"), GridSpec("r2", 1.0, 1e10, 11, "log")],
     {"mode": "exact"}),
    ("entangle-impurities", [GridSpec("r2", 0.0, 2.0, 5)],
     {"r1": 0.0, "mode": "exact", "initial": "000"}),
]


@pytest.mark.parametrize("protocol, grids, fixed", CASES)
def test_sweep_records_equal_single_calls(protocol, grids, fixed):
    _assert_records_match_single_calls(protocol, grids, fixed)


def test_sweep_cases_include_null_branches():
    nulls = 0
    for protocol, grids, fixed in CASES:
        res = sweep(protocol, grids, fixed)
        nulls += sum(rec.metrics["probability"] == 0.0 for rec in res.records)
    assert nulls > 0


def test_benchmark_grids_equal_the_snapshot():
    """The 41x41 exact and 61x61 filter sweeps, against values the 4d x 4d
    matching solve and the eigensolver entropy produced before the kernel."""
    stored = np.load(SNAPSHOT)
    grids = {
        "sweep_exact": ("entangle-impurities",
                        [GridSpec("r1", 0.0, 2.0, 41), GridSpec("r2", 0.0, 2.0, 41)],
                        {"mode": "exact", "k": 1.0, "half_separation": 1.0}),
        "sweep_filter": ("concentrate",
                         [GridSpec("a", 0.05, 0.7, 61), GridSpec("r", 0.0, 3.0, 61)], {"k": 1.0}),
    }
    for name, (protocol, grid, fixed) in grids.items():
        res = sweep(protocol, grid, fixed)
        got = np.array([[rec.metrics[m] for m in METRICS] for rec in res.records])
        assert got.shape == stored[name].shape
        assert np.max(np.abs(got - stored[name])) <= 1e-12


def _first_point_error(protocol, grids, fixed):
    """The error a point-by-point loop in row-major order raises first."""
    for point in np.array(np.meshgrid(*(g.values() for g in grids), indexing="ij")).reshape(len(grids), -1).T:
        params = {**fixed, **{g.name: float(v) for g, v in zip(grids, point)}}
        try:
            run_protocol(protocol, params)
        except (ValueError, InternalFaultError) as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("protocol, grids, fixed, message", [
    # a > 1/sqrt(2) and no r: the optimal coupling does not exist
    ("concentrate", [GridSpec("a", 0.3, 0.9, 4), GridSpec("k", 0.5, 1.0, 2)], {},
     "optimal coupling requires 0 < |a| < |b|"),
    ("concentrate", [GridSpec("k", -1.0, 1.0, 5)], {"a": 0.5, "r": 0.3}, "k must be positive"),
    ("concentrate", [GridSpec("a", 0.3, 0.9, 3), GridSpec("k", -1.0, 1.0, 3)], {},
     "k must be positive"),
    ("concentrate-kondo", [GridSpec("r", 0.0, 1.0, 3), GridSpec("k", -1.0, 1.0, 3)], {"a": 0.5},
     "k must be positive"),
    ("entangle-particles", [GridSpec("k", -2.0, 2.0, 9)], {"r": 1.0}, "k must be positive"),
    ("entangle-impurities", [GridSpec("k", -1.0, 1.0, 4)], {"r": 1.0, "mode": "exact"},
     "k must be positive"),
    ("entangle-impurities", [GridSpec("k", 0.5, 1.0, 2), GridSpec("half_separation", -1.0, 1.0, 3)],
     {"r": 1.0, "mode": "exact"}, "half_separation must be positive"),
    ("concentrate", [GridSpec("r", 0.0, 1.0, 3)], {"a": 0.5, "bogus": 1.0},
     "unknown parameter(s) for concentrate: bogus"),
    ("entangle-impurities", [GridSpec("r1", 0.0, 1.0, 3)], {"mode": "second-order", "r2": 1.0},
     "mode must be 'first-order' or 'exact', got 'second-order'"),
])
def test_sweep_raises_the_first_bad_point_message(protocol, grids, fixed, message):
    expected = _first_point_error(protocol, grids, fixed)
    assert expected is not None and expected[1] == message
    with pytest.raises(expected[0]) as exc:
        sweep(protocol, grids, fixed)
    assert str(exc.value) == message


def test_sweep_rejects_text_parameters():
    with pytest.raises(ValueError, match="not numeric"):
        sweep("entangle-impurities", [GridSpec("mode", 0.0, 1.0, 2)], {"r": 1.0})
