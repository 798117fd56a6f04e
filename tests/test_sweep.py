"""Sweeps through the batched kernel against single calls and a stored snapshot."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscatter import GridSpec, InternalFaultError, SweepRecord, cli, protocols, run_protocol, sweep

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SNAPSHOT = os.path.join(DATA, "parent_sweeps.npz")
with open(os.path.join(DATA, "sweep_digests.json"), encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)
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


# Every numeric parameter of every protocol is swept at least once.  Zero
# couplings, product inputs and the aligned initial state 000 give null
# branches, and log grids reach couplings of 1e10.  Each grid fits in one
# kernel block (protocols._BLOCK points); the block-size test below runs
# them across block boundaries.
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


def test_sweep_columns_do_not_depend_on_the_block(monkeypatch):
    default = [sweep(protocol, grids, fixed).columns for protocol, grids, fixed in CASES]
    monkeypatch.setattr(protocols, "_BLOCK", 7)
    for (protocol, grids, fixed), expected in zip(CASES, default):
        columns = sweep(protocol, grids, fixed).columns
        assert list(columns) == list(expected)
        assert all(np.array_equal(columns[name], expected[name]) for name in expected)


def test_a_sweep_runs_one_kernel_pass_per_block(monkeypatch):
    passes = []
    run = protocols._run

    def counted(*args):
        passes.append(args[2].n)
        return run(*args)

    monkeypatch.setattr(protocols, "_run", counted)
    for points, counts in ((protocols._BLOCK, [protocols._BLOCK]),
                           (protocols._BLOCK + 1, [protocols._BLOCK, 1])):
        passes.clear()
        sweep("concentrate", [GridSpec("r", 0.0, 3.0, points)], {"a": 0.6, "k": 1.0})
        assert passes == counts


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
    ("concentrate", [GridSpec("axis_theta", 0.0, 1.0, 3)], {"a": 0.5, "axis": "1,0,0"},
     "parameters 'axis' and 'axis_theta' exclude each other"),
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


@pytest.mark.parametrize("args, message", [
    (("a", 0.1, 0.5, 2.5), "grid point count must be an integer, got 2.5"),
    (("a", 0.1, 0.5, "3"), "grid point count must be an integer, got '3'"),
    (("a", 0.1, 0.5, True), "grid point count must be an integer, got True"),
    ((5, 0.0, 1.0, 3), "grid parameter name must be a string, got 5"),
])
def test_a_grid_refuses_a_count_that_is_no_integer_and_a_name_that_is_no_string(args, message):
    # sweep failed on each with a TypeError or an AttributeError
    with pytest.raises(ValueError) as exc:
        GridSpec(*args)
    assert str(exc.value) == message


def test_a_grid_takes_a_numpy_integer_count():
    grid = GridSpec("r", 0.0, 1.0, np.int64(3))
    assert grid.values().tolist() == [0.0, 0.5, 1.0]
    assert sweep("concentrate", [grid], {"a": 0.6}).columns["r"].tolist() == [0.0, 0.5, 1.0]


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("protocol, fixed, couplings", [
    ("concentrate", {"a": 0.5}, ("r",)),
    ("concentrate-kondo", {"a": 0.5}, ("r",)),
    ("entangle-particles", {}, ("r",)),
    ("entangle-impurities", {}, ("r1", "r2")),
    ("entangle-impurities", {"mode": "exact"}, ("r1", "r2")),
])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_coupling_in_a_config_fixed_object_is_one_line(protocol, fixed, couplings, bad,
                                                                    tmp_path):
    # json writes and reads these as Infinity, -Infinity and NaN, floats
    # that reach the kernel unread
    for name in couplings:
        pinned = {**fixed, **dict.fromkeys(couplings, 0.5), name: bad}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"protocol": protocol, "grid": ["k:0.5:1:2"], "fixed": pinned}))
        assert _main(["sweep", "--config", str(path)]) == (1, "", "error: coupling must be finite\n")


@pytest.mark.parametrize("name", sorted(DIGESTS))
@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_sweep_output_bytes_equal_the_stored_digests(name, fmt):
    """The benchmark grids at seed 1, against the sha256 of the stdout the
    per-row renderer wrote before sweeps were rendered by column."""
    stored = DIGESTS[name]
    code, out, err = _main(stored["argv"] + ["--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stored["stdout_sha256"][fmt]
    if fmt == "table":
        assert err == "" and out.endswith("\n" + stored["argmax"] + "\n")
    else:
        assert err == stored["argmax"] + "\n"


def test_csv_sweep_builds_no_records(monkeypatch):
    built = []
    init = SweepRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SweepRecord, "__init__", counting_init)
    code, out, _ = _main(DIGESTS["sweep_filter"]["argv"] + ["--format", "csv"])
    assert code == 0 and out.count("\r\n") == 61 * 61 + 1
    assert built == []
    # the counter sees records when something reads them
    assert len(sweep("concentrate", [GridSpec("a", 0.1, 0.6, 3)], {"r": 1.0}).records) == 3
    assert len(built) == 3


# the benchmark grids unshifted: r starts at 0, where the metric columns
# repeat a value and take exact values 0 and 1
UNSHIFTED = {
    "sweep_exact": ["sweep", "--protocol", "entangle-impurities", "--fixed", "mode=exact",
                    "--fixed", "k=1.0", "--fixed", "half_separation=1.0",
                    "--grid", "r1:0:2:41", "--grid", "r2:0:2:41"],
    "sweep_filter": ["sweep", "--protocol", "concentrate", "--fixed", "k=1.0",
                     "--grid", "a:0.05:0.7:61", "--grid", "r:0:3:61"],
}


def test_only_float_array_columns_look_for_repeated_values(monkeypatch):
    """Single-call tables are lists and take the direct pass; of a sweep's
    float arrays, in csv and in json, only the two swept columns of each
    benchmark grid are sorted for their distinct values, also on the
    unshifted grids, where r starts at 0 and a metric column repeats its
    first value (but not its middle one)."""
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    for argv in (["concentrate", "--a-coeff", "0.6", "--k", "1.0"],
                 ["concentrate", "--impurity", "kondo", "--a-coeff", "0.6", "--k", "1.0", "--r", "0.4"],
                 ["kondo", "--k", "1.0", "--r", "0.4"]):
        code, out, _ = _main(argv + ["--format", "csv"])
        assert code == 0 and out
    assert calls == []
    for argv in (DIGESTS["sweep_exact"]["argv"], DIGESTS["sweep_filter"]["argv"], *UNSHIFTED.values()):
        for fmt in ("csv", "json"):
            code, _, _ = _main(argv + ["--format", fmt])
            assert code == 0 and len(calls) == 2, (argv, fmt, len(calls))
            calls.clear()


@pytest.mark.parametrize("name, swept", [("sweep_exact", 41 + 41), ("sweep_filter", 61 + 61)])
def test_json_sweeps_write_their_metric_columns_as_digits(name, swept, monkeypatch):
    """_json_float writes each distinct swept value and no metric value of
    the benchmark grids: their metric columns take the digit path.  On the
    unshifted grids it also writes the metric values that the digit path
    leaves, fewer than 5% of them (exact 0s and 1s among them)."""
    calls = []
    json_float = cli._json_float

    def counting_json_float(x):
        calls.append(x)
        return json_float(x)

    monkeypatch.setattr(cli, "_json_float", counting_json_float)
    assert _main(DIGESTS[name]["argv"] + ["--format", "json"])[0] == 0
    assert len(calls) == swept
    calls.clear()
    assert _main(UNSHIFTED[name] + ["--format", "json"])[0] == 0
    metrics = 3 * (swept // 2) ** 2
    assert swept < len(calls) < swept + 0.05 * metrics


def test_the_digit_writer_writes_each_value_as_its_text(monkeypatch):
    """Each column of the digit block, NULs deleted, against '%.12g' % x and
    _json_float(x), on 200,000 seeded values in and out of the digit path's
    range 1e-4 <= |x| < 1."""
    monkeypatch.setattr(cli, "_DIGIT_SHARE", 0.0)  # no value too many for the digit path
    rng = np.random.default_rng(1606)
    bits = rng.integers(0, 2**63, 21_000, dtype=np.int64).view(np.float64)
    values = np.concatenate([
        rng.uniform(0.0, 1.0, 60_000), -rng.uniform(0.0, 1.0, 20_000),
        10.0 ** rng.uniform(-6.0, 1.0, 30_000) * rng.choice([-1.0, 1.0], 30_000),
        np.arange(8192) / 8192,  # ties at 12 significant digits below 1e-3
        rng.integers(1, 10**6, 20_000) / 1e6, rng.integers(1, 10**12, 20_000) / 1e12,
        rng.integers(1, 10**13, 21_808) / 1e13,  # of 13 digits, some of them ties
        bits[np.isfinite(bits)][:20_000], [0.0, -0.0, 1.0, -1.0]])
    assert len(values) >= 200_000
    for text in ("%.12g".__mod__, cli._json_float):
        block = cli._digit_block(values, text)
        cells = [row.tobytes().replace(b"\0", b"").decode("ascii") for row in block]
        wrong = [x for cell, x in zip(cells, values.tolist(), strict=True) if cell != text(x)]
        assert wrong == []
    assert cli._digit_block(np.array([0.5, math.nan]), cli._json_float) is None


def test_a_sweep_below_the_digit_cut_writes_the_reference_bytes():
    """A 1-D log sweep whose r, probability (below 1e-4) and entropy columns
    take neither the repeated nor the digit route, beside a concurrence
    column that takes the digit route, written as the per-row reference
    writes it."""
    res = sweep("concentrate", [GridSpec("r", 1e3, 1e6, 400, "log")], {"a": 0.001})
    assert res.columns["probability"].max() < 1e-4
    for text in ("%.12g".__mod__, cli._json_float):
        direct = [name for name, column in res.columns.items()
                  if cli._repeated_block(column, text) is None and cli._digit_block(column, text) is None]
        assert direct == ["r", "probability", "entropy_bits"]
    rows = [list(row) for row in zip(*(column.tolist() for column in res.columns.values()))]
    for fmt in ("csv", "json"):
        assert cli.emit_columns(res.columns, fmt) == _reference_emit(list(res.columns), rows, fmt)


def test_an_error_at_a_later_point_reads_a_pinned_value():
    # the optimal coupling underflows at the last point alone, where k is pinned
    code, out, err = _main(["sweep", "--protocol", "concentrate", "--grid", "a:0.5:0.70710678:5",
                            "--fixed", "k=1e-305"])
    assert (code, out) == (1, "")
    assert err == ("error: optimal coupling 4.096e-310 is below the smallest normal float "
                   "(k = 1.000e-305 is too small)\n")


def test_a_flux_fault_at_a_later_point_names_a_pinned_k():
    psi0 = np.array([[1.0, 0.0, 0.0, 0.0]])
    probability = np.array([1.0, 1.0, 0.5])  # point 2 keeps half its flux
    tree = [("transmitted", np.zeros((3, 4)), None, probability)]
    # a pinned k is a column of its one value at every point, as _run makes it
    point = protocols._describe(k=np.full(3, 1.5), r=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(InternalFaultError) as exc:
        protocols._batch(psi0, ("particle-2", "particle-1"), tree, None, {}, point)
    assert str(exc.value) == "flux conservation violated by 5.000e-01 (> 1e-10) at k=1.5, r=0.3"


def test_a_grid_too_large_for_memory_is_a_one_line_error():
    # one axis of 10^15 points: its allocation fails at once, before anything
    # is filled; numpy refuses 10^20 points, beyond its index range, by size
    for points in ("1000000000000000", "100000000000000000000"):
        code, out, err = _main(["sweep", "--protocol", "concentrate", "--grid", f"r:0:1:{points}",
                                "--fixed", "a=0.5"])
        assert (code, out) == (1, "")
        assert err == f"error: a grid of {points} points does not fit in memory\n"


@pytest.mark.parametrize("points", [2 ** 63 - 1, 2 ** 63])
def test_a_grid_beyond_the_index_range_is_a_one_line_error(points):
    # numpy's linspace ends these counts with an IndexError before it allocates
    message = f"a grid of {points} points does not fit in memory"
    with pytest.raises(ValueError) as exc:
        sweep("concentrate", [GridSpec("a", 0.1, 0.5, points)], {"k": 1.0})
    assert str(exc.value) == message
    code, out, err = _main(["sweep", "--protocol", "concentrate", "--grid", f"a:0.1:0.5:{points}",
                            "--fixed", "k=1"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("protocol, grids, fixed", CASES[::4])
def test_records_equal_the_columns_row_for_row(protocol, grids, fixed):
    res = sweep(protocol, grids, fixed)
    names = [g.name for g in grids]
    assert res.fieldnames == tuple(names) + METRICS == tuple(res.columns)
    assert len(res.records) == len(res.columns["probability"])
    for i, rec in enumerate(res.records):
        assert rec.params == {name: res.columns[name][i] for name in names}
        assert rec.metrics == {m: res.columns[m][i] for m in METRICS}
        assert all(type(v) is float for v in (*rec.params.values(), *rec.metrics.values()))
    objective = res.columns["entropy_bits"]
    best = int(np.argmax(objective))
    assert res.argmax == {"objective": "entropy", "value": objective[best],
                          **{name: res.columns[name][best] for name in names}}


# ---------------------------------------------------------------------------
# The columnar renderer against the per-row one it replaced

def _reference_emit(names, rows, fmt):
    """Row-by-row rendering: csv.writer with format(x, '.12g'), json.dumps
    of each float rounded to 12 significant digits, and _f6 with
    ljust-aligned columns."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(names)
        for row in rows:
            writer.writerow(["" if v is None else format(v, ".12g") if isinstance(v, float)
                             else str(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([{n: float(format(v, ".12g")) if isinstance(v, float) else v
                            for n, v in zip(names, row)} for row in rows], indent=2) + "\n"
    cells = [list(names)] + [[cli._f6(v) if isinstance(v, float) or v is None else str(v)
                              for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(names))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in cells) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
CELLS = st.one_of(st.none(), FINITE, st.integers(), st.text(max_size=6))
# a few values that repeat, as a sweep's grid columns do: zeros of both
# signs, subnormals, the ends of the float range and non-finite values
# among them
POOL = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1, 1.0 / 3.0, -7.25,
                        math.nan, math.inf, -math.inf])
# values at the edges of the digit path, which a sweep's metric columns
# meet: exact 0.0, -0.0 and 1.0, ties k/8192 at 12 significant digits, the
# decades 1e-4 .. 1 and their neighbours, and values that round up a decade
EDGES = st.sampled_from([0.0, -0.0, 1.0, *(x for decade in (1e-4, 1e-3, 0.01, 0.1, 1.0)
                                          for x in (np.nextafter(decade, 0.0), decade,
                                                    np.nextafter(decade, 2.0))),
                         0.09999999999995, 0.099999999999996, 0.00099999999999996,
                         0.99999999999996, 9.9999999999996e-05]) | st.integers(1, 8191).map(lambda k: k / 8192)


@st.composite
def tables(draw):
    """(fieldnames, columns) with float-array and mixed-cell columns; float
    arrays hold any values, values drawn from a small pool, or a sweep's
    metric values: dense in [1e-4, 1) with up to one in twenty at an edge.
    Where arrays is drawn, every column is a float array, so that csv and
    json write the table as bytes; a mixed-cell column then holds any
    values and pool values together."""
    names = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=5, unique=True))
    rows = draw(st.integers(0, 12) | st.integers(13, 100))
    arrays = draw(st.booleans())
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["floats", "pool", "cells", "metrics"]))
        if kind == "cells" and arrays:
            columns[name] = np.array(draw(st.lists(FINITE | POOL, min_size=rows, max_size=rows)), dtype=float)
        elif kind == "cells":
            columns[name] = draw(st.lists(CELLS, min_size=rows, max_size=rows))
        elif kind == "metrics":
            values = draw(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=rows, max_size=rows))
            for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows // 20)):
                values[i] = draw(EDGES)
            columns[name] = np.array(values)
        else:
            values = FINITE if kind == "floats" else POOL
            columns[name] = np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=float)
    return names, columns


def test_json_renderer_writes_non_finite_and_boolean_cells_as_json_dumps():
    columns = {"x": np.array([math.nan, math.inf, 1.0 / 3.0]), "y": [True, None, -math.inf],
               'a "%s"': [0.1, 2, "%r"]}
    rows = [[c[i].item() if isinstance(c, np.ndarray) else c[i] for c in columns.values()]
            for i in range(3)]
    assert cli.emit_columns(columns, "json") == _reference_emit(list(columns), rows, "json")
    assert cli.emit_columns({"x": np.array([])}, "json") == cli.emit_columns({}, "json") == "[]\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_int_bool_and_float32_array_columns_are_written_as_their_python_cells(fmt):
    # float32 cells are written as the float64 each widens to
    columns = {"n": np.array([1, 1, 2, -2]), "flag": np.array([True, False, True, True]),
               "x": np.array([0.1, 0.5, -3.0, 1e-9], dtype=np.float32), "y": np.linspace(0.0, 1.0, 4)}
    rows = [[c[i].item() for c in columns.values()] for i in range(4)]
    assert cli.emit_columns(columns, fmt) == _reference_emit(list(columns), rows, fmt)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables(), st.sampled_from(["csv", "json", "table"]))
def test_columnar_renderer_matches_per_row_reference(table, fmt):
    names, columns = table
    rows = [[c[i].item() if isinstance(c, np.ndarray) else c[i] for c in columns.values()]
            for i in range(len(next(iter(columns.values()))))]
    expected = _reference_emit(names, rows, fmt)
    assert cli.emit_columns(columns, fmt) == expected
