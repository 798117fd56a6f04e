"""The command line's fixed surface and its reuse within one process.

The help texts, usage errors and exit statuses are pinned to the bytes the
CLI wrote when it built a new argparse tree for every call
(tests/data/cli_surface.json, taken with COLUMNS=80).  The tree is now built
at most once per process, and only for a line the flag table does not read;
the tests below show that a long mixed stream of cli.main calls gives the
same bytes as running each call with a new tree, that a line the flag table
reads builds no parser, and that a process builds one tree at most.
Last, a bad value is refused alike on every route it can take.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re

import numpy as np
import pytest

from spinscatter import (GridSpec, KondoImpurity, cli, concentrate_fixed, entangle_impurities, protocols,
                         run_protocol, scalar_amplitudes, sweep)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
with open(os.path.join(DATA, "cli_surface.json"), encoding="utf-8") as _fh:
    SURFACE = json.load(_fh)

# Holds an unknown key; "{config}" in an argv stands for its path.
BAD_CONFIG = {"k": 1.0, "r": 1.0, "wavelength": 3}

SURFACE_ARGV = {
    "help": ["--help"],
    **{f"help {command}": [command, "--help"] for command in cli._COMMANDS},
    "no command": [],
    "unknown command": ["bogus"],
    "unknown flag": ["amplitudes", "--k", "1", "--r", "1", "--wavelength", "2"],
    "flag missing its value": ["amplitudes", "--k"],
    "missing required parameter": ["concentrate", "--k", "1"],
    "unparsable number": ["amplitudes", "--k", "fast", "--r", "1"],
    "bad format": ["amplitudes", "--k", "1", "--r", "1", "--format", "yaml"],
    "unknown config key": ["amplitudes", "--config", "{config}"],
}


def capture(argv, config_path=None):
    """cli.main(argv) in process: (exit status, stdout, stderr)."""
    argv = [config_path if arg == "{config}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def bad_config(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli._FORMAT_ENV, raising=False)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CONFIG))
    return str(path)


def test_surface_covers_every_command():
    assert set(SURFACE) == set(SURFACE_ARGV)


@pytest.mark.parametrize("name", sorted(SURFACE_ARGV))
def test_cli_surface_equals_the_stored_bytes(name, bad_config):
    stored = SURFACE[name]
    assert stored["argv"] == SURFACE_ARGV[name]
    code, out, err = capture(stored["argv"], bad_config)
    assert (code, out, err) == (stored["exit"], stored["stdout"], stored["stderr"])
    # help goes to stdout with status 0; a usage error is one stderr line with status 1
    if name.startswith("help"):
        assert code == 0 and err == "" and out.startswith("usage: spinscatter")
    else:
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# One parser per process: repeated calls carry no state

_FORMATS = (None, "table", "csv", "json")


def _mixed_calls(rng, configs):
    """A seeded list of (argv, SPINSCATTER_FORMAT or None) over every command."""
    def draw(lo, hi):
        return f"{rng.uniform(lo, hi):.6g}"

    makers = [
        lambda: ["amplitudes", "--k", draw(0.2, 3), "--r", draw(-2, 2)],
        lambda: ["filter", "--k", draw(0.2, 3), "--r", draw(-2, 2), "--axis", "0.6,0,0.8"],
        lambda: ["kondo", "--k", draw(0.2, 3), "--r", draw(-2, 2),
                 "--eigenvalues", rng.choice(["default", "standard-pauli", "1,1,1,-3"])],
        lambda: ["concentrate", "--a-coeff", draw(0.1, 0.7), "--k", draw(0.5, 2)],
        lambda: ["concentrate", "--a-coeff", draw(0.1, 0.7), "--k", "1", "--r", draw(0, 2),
                 "--impurity", "kondo", "--a-phase", draw(0, 3)],
        lambda: ["entangle-particles", "--k", draw(0.5, 2), "--r", draw(0, 2),
                 "--initial", rng.choice(["001", "011", "000"])],
        lambda: ["entangle-impurities", "--k", draw(0.5, 2), "--r1", draw(0, 2),
                 "--r2", draw(0, 2), "--mode", rng.choice(["first-order", "exact"])],
        lambda: ["sweep", "--protocol", "concentrate", "--grid", "r:0:2:5",
                 "--grid", f"a:0.1:{draw(0.3, 0.7)}:3", "--fixed", "k=1", "--fixed", "axis=0,0,1"],
        lambda: ["sweep", "--protocol", "entangle-impurities", "--grid", "r1:0:2:4",
                 "--fixed", "r2=0.5", "--fixed", "mode=exact", "--fixed", f"k={draw(0.5, 2)}",
                 "--objective", rng.choice(["entropy", "probability"])],
        lambda: ["sweep", "--protocol", "entangle-particles", "--grid", "r:0:1:3",
                 "--grid", "k:0.5:2:2", "--fixed", "initial=011", "--fixed", "eigenvalues=1,1,-2,0"],
        lambda: ["sweep", "--config", configs["sweep"], "--grid", "k:0.5:1.5:2"],
        lambda: ["amplitudes", "--config", configs["amplitudes"], "--r", draw(-1, 1)],
        lambda: ["sweep", "--protocol", "concentrate", "--grid", "r:2:0:5", "--fixed", "a=0.5"],
        lambda: ["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "1", "--mode", "bogus"],
        lambda: ["sweep", "--protocol", "entangle-particles", "--grid", "r:0:1:2",
                 "--fixed", "axis=1,2"],
    ]
    calls = []
    for i in range(150):
        argv = makers[i % len(makers)]()
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(_FORMATS[1:])]
        calls.append((argv, rng.choice(_FORMATS)))
    calls += [(argv, rng.choice(_FORMATS)) for argv in [*SURFACE_ARGV.values(), ["selftest"]]]
    rng.shuffle(calls)
    return calls


def test_repeated_calls_equal_calls_with_a_new_parser(tmp_path, bad_config, monkeypatch):
    configs = {"sweep": str(tmp_path / "sweep.json"), "amplitudes": str(tmp_path / "amp.json")}
    with open(configs["sweep"], "w", encoding="utf-8") as fh:
        json.dump({"protocol": "entangle-particles", "grid": ["r:0:1:3"],
                   "fixed": {"initial": "011", "eigenvalues": "1,1,-2,0"}, "format": "csv"}, fh)
    with open(configs["amplitudes"], "w", encoding="utf-8") as fh:
        json.dump({"k": 1.5, "r": 0.5}, fh)
    calls = _mixed_calls(random.Random(20261018), configs)
    commands = {argv[0] for argv, _ in calls if argv}
    assert set(cli._COMMANDS) | {"--help", "bogus"} <= commands

    def run_all(order, fresh):
        results = {}
        cli._build_parser.cache_clear()
        for i in order:
            argv, fmt = calls[i]
            if fresh:
                cli._build_parser.cache_clear()
            if fmt is None:
                monkeypatch.delenv(cli._FORMAT_ENV, raising=False)
            else:
                monkeypatch.setenv(cli._FORMAT_ENV, fmt)
            results[i] = capture(argv, bad_config)
        return [results[i] for i in range(len(calls))]

    # the reference pass runs in reverse order, so state kept anywhere else shows too
    shared = run_all(range(len(calls)), fresh=False)
    fresh = run_all(reversed(range(len(calls))), fresh=True)
    for (argv, fmt), got, expected in zip(calls, shared, fresh):
        assert got == expected, (argv, fmt)
    codes = [code for code, _, _ in shared]
    assert codes.count(0) > len(calls) // 2 and codes.count(1) > 10


def test_a_scanned_line_builds_no_parser_and_a_process_one_tree_at_most(bad_config, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    scanned = [["amplitudes", "--k", "1", "--r", "1"],
               ["sweep", "--protocol", "concentrate", "--grid", "r:0:1:3", "--fixed", "a=0.5"],
               ["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "1", "--format", "json"],
               SURFACE_ARGV["missing required parameter"], SURFACE_ARGV["bad format"]]
    for argv in scanned:
        capture(argv)
    assert built == []
    # help, an unknown flag and a flag without its value need the tree
    for argv in [*SURFACE_ARGV.values(), *scanned]:
        capture(argv, bad_config)
    assert len(built) == 1 + len(cli._COMMANDS)  # the root parser and one per command


# ---------------------------------------------------------------------------
# sweep --grid, sweep --fixed and the protocol commands derive from
# protocols.PARAMS, and --fixed reads each value as its own flag does

# a value each key takes, as text (0.5 where not listed)
VALUES = {"b": "0.8", "axis": "0.6,0,0.8", "eigenvalues": "1,-0.5,2,0.25", "initial": "011",
          "mode": "exact"}
# the pins each protocol needs besides the key under test
FIXED_BASES = {"concentrate": {"a": "0.6"}, "concentrate-kondo": {"a": "0.6", "r": "0.7"},
               "entangle-particles": {"r": "0.7"}, "entangle-impurities": {"r": "0.7"}}


def test_each_key_reads_alike_in_every_protocol():
    # sweep --fixed reads a value before it knows the protocol (protocols._BY_KEY)
    for params in protocols.PARAMS.values():
        for param in params:
            assert (param.read, param.flag) == (protocols._BY_KEY[param.key].read,
                                                protocols._BY_KEY[param.key].flag)


@pytest.mark.parametrize("protocol", protocols.PARAMS)
def test_sweep_refuses_to_grid_each_non_numeric_key(protocol):
    for param in protocols.PARAMS[protocol]:
        if not param.numeric:
            argv = ["sweep", "--protocol", protocol, "--grid", f"{param.key}:0:1:2"]
            message = f"error: parameter {param.key!r} is not numeric and cannot be swept\n"
            assert capture(argv) == (1, "", message)


@pytest.mark.parametrize("argv, key", [
    (["--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "r=0.5", "--fixed", "a=0.5"], "r"),
    (["--protocol", "entangle-impurities", "--grid", "half-separation:0.5:1:2",
      "--fixed", "r=0.5", "--fixed", "half_separation=2"], "half_separation"),
    (["--protocol", "entangle-impurities", "--grid", "r1:0:1:2", "--fixed", "r=0.5",
      "--fixed", "r1=0.2"], "r1"),
])
def test_sweep_refuses_a_key_both_swept_and_pinned(argv, key):
    message = f"error: parameter {key!r} is both swept and pinned\n"
    assert capture(["sweep", *argv]) == (1, "", message)


@pytest.mark.parametrize("protocol", protocols.PARAMS)
def test_sweep_fixed_takes_every_key_of_the_protocol(protocol):
    for param in protocols.PARAMS[protocol]:
        grid = "r:0.2:0.8:2" if param.key == "k" else "k:0.5:1.5:2"
        direct = {**FIXED_BASES[protocol], param.key: VALUES.get(param.key, "0.5")}
        if param.key == "k":
            direct.pop("r", None)  # swept, so not pinned as well
        argv = ["sweep", "--protocol", protocol, "--grid", grid, "--format", "csv",
                *(f"--fixed={key}={value}" for key, value in direct.items())]
        code, out, err = capture(argv)
        assert err.startswith("argmax:"), (param.key, err)
        _assert_rows_equal_single_calls(protocol, code, out, direct)


def test_protocol_commands_take_the_flags_of_their_entries():
    _, commands = cli._build_parser()
    for command, names in cli._PROTOCOL_COMMANDS.items():
        expected = {}
        for name in names:
            for param in protocols.PARAMS[name]:
                if param.help is not None:
                    expected.setdefault(param.flag, param.help)
        if len(names) > 1:
            expected["impurity"] = "impurity kind (default fixed)"
        flags = {action.dest: action.help for action in commands[command]._actions
                 if action.dest != "help" and not action.dest.startswith("common_")}
        assert flags == expected
        assert [param.flag for param in cli._COMMANDS[command]] == list(flags)


FIXED_TEXT_CASES = [
    ("entangle-particles", ["--grid", "r:0:1:2", "--fixed", "initial=011"], {"initial": "011"}),
    ("entangle-particles", ["--grid", "r:0:1:2", "--fixed", "eigenvalues=1,1,-2,0"],
     {"eigenvalues": (1.0, 1.0, -2.0, 0.0)}),
    ("concentrate", ["--grid", "r:0:1:2", "--fixed", "a=0.6", "--fixed", "axis=0,0,1"],
     {"a": 0.6, "axis": (0.0, 0.0, 1.0)}),
    ("concentrate", ["--grid", "r:0:1:3", "--fixed", "a=0.6", "--fixed", "axis=0.6,0,0.8"],
     {"a": 0.6, "axis": (0.6, 0.0, 0.8)}),
    ("entangle-impurities", ["--grid", "r1:0:1:3", "--fixed", "r2=0.7", "--fixed", "initial=010",
                             "--fixed", "mode=exact"], {"r2": 0.7, "initial": "010", "mode": "exact"}),
]


def _assert_rows_equal_single_calls(protocol, code, out, direct):
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    for row in rows:
        point = {name: float(value) for name, value in row.items()
                 if name not in ("probability", "entropy_bits", "concurrence")}
        first = run_protocol(protocol, {**direct, **point}).outcomes[0]
        expect = (first.branch_probability, first.entropy_bits or 0.0, first.concurrence or 0.0)
        assert [row["probability"], row["entropy_bits"], row["concurrence"]] == \
            [format(x, ".12g") for x in expect]


@pytest.mark.parametrize("protocol, args, direct", FIXED_TEXT_CASES)
def test_sweep_fixed_text_parameters(protocol, args, direct):
    code, out, err = capture(["sweep", "--protocol", protocol, *args, "--format", "csv"])
    assert err.startswith("argmax:"), err
    _assert_rows_equal_single_calls(protocol, code, out, direct)


@pytest.mark.parametrize("protocol, args, direct", FIXED_TEXT_CASES)
def test_config_fixed_text_parameters(protocol, args, direct, tmp_path):
    fixed = dict(arg.split("=", 1) for arg in args[3::2])
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"protocol": protocol, "grid": [args[1]], "fixed": fixed}))
    code, out, _ = capture(["sweep", "--config", str(path), "--format", "csv"])
    _assert_rows_equal_single_calls(protocol, code, out, direct)


# --fixed texts, or a config file's "fixed" object: text a reader cannot
# parse is refused behind the --fixed 'name=value' it came from; any other
# value is refused by the kernel's rule
@pytest.mark.parametrize("protocol, fixed, message", [
    ("concentrate", ["a=0.6", "axis=1,2"], "error: axis must be a finite 3-vector\n"),
    ("entangle-particles", ["eigenvalues=1,2"], "error: eigenvalues must be four finite numbers\n"),
    ("concentrate", ["axis=0,x,1"], "error: --fixed 'axis=0,x,1': unparsable number for --axis: 'x'\n"),
    ("concentrate", ["a=x"], "error: --fixed 'a=x': unparsable number for --a-coeff: 'x'\n"),
    ("concentrate", ["a=0.6", "a_phase=inf"], "error: parameter 'a_phase' must be finite\n"),
    ("concentrate", {"a": [0.5]}, "error: parameter 'a' must lie in [0, 1]\n"),
    ("concentrate", {"a": None}, "error: parameter 'a' must lie in [0, 1]\n"),
    ("concentrate", {"a": True}, "error: parameter 'a' must lie in [0, 1]\n"),
    ("entangle-particles", {"eigenvalues": 5}, "error: eigenvalues must be four finite numbers\n"),
])
def test_sweep_fixed_text_usage_errors(protocol, fixed, message, tmp_path):
    argv = ["sweep", "--protocol", protocol, "--grid", "r:0:1:2"]
    if isinstance(fixed, dict):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"fixed": fixed}))
        argv += ["--config", str(path)]
    else:
        argv += [f"--fixed={text}" for text in fixed]
    assert capture(argv) == (1, "", message)


def _sweep_with_config_fixed(protocol, grid, fixed, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"fixed": fixed}))
    return capture(["sweep", "--protocol", protocol, "--grid", grid, "--config", str(path),
                    "--format", "csv"])


# a JSON integer for a numeric key goes to the protocol's checks as its float
@pytest.mark.parametrize("protocol, grid, integer, number", [
    ("concentrate", "r:0:1:2", {"a": 0.5, "k": 0}, {"a": 0.5, "k": 0.0}),
    ("concentrate", "r:0:1:2", {"a": 0, "k": -1}, {"a": 0.0, "k": -1.0}),
    ("concentrate", "r:0:1:2", {"a": 2}, {"a": 2.0}),
    ("concentrate", "k:0.5:1:2", {"a": 0.5, "r": 1, "axis_theta": 3},
     {"a": 0.5, "r": 1.0, "axis_theta": 3.0}),
    ("concentrate-kondo", "a:0:1:3", {"r": 2, "a_phase": 1}, {"r": 2.0, "a_phase": 1.0}),
    ("entangle-particles", "r:0:1:2", {"k": 0}, {"k": 0.0}),
    ("entangle-impurities", "r:0:1:2", {"half_separation": -1}, {"half_separation": -1.0}),
    ("entangle-impurities", "r:0:1:2", {"half_separation": 0, "mode": "exact"},
     {"half_separation": 0.0, "mode": "exact"}),
    ("entangle-impurities", "r1:0:1:2", {"r2": 3, "k": 2}, {"r2": 3.0, "k": 2.0}),
])
def test_config_fixed_integer_reads_as_its_float(protocol, grid, integer, number, tmp_path):
    assert _sweep_with_config_fixed(protocol, grid, integer, tmp_path) == \
        _sweep_with_config_fixed(protocol, grid, number, tmp_path)
    point = {grid.split(":")[0]: 0.5}
    try:
        expected = run_protocol(protocol, {**number, **point})
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            run_protocol(protocol, {**integer, **point})
        assert str(got.value) == str(exc)
    else:
        got = run_protocol(protocol, {**integer, **point})
        assert cli._render_protocol(got, "json") == cli._render_protocol(expected, "json")


def test_config_fixed_integer_out_of_the_float_range_reads_as_infinity(tmp_path):
    # as the library reads it (scattering._real), so the kernel's rule refuses it
    assert (protocols._read(protocols._K, 10 ** 400), protocols._read(protocols._K, -10 ** 400)) == \
        (math.inf, -math.inf)
    code, out, err = _sweep_with_config_fixed("concentrate", "r:0:1:2", {"a": 0.5, "k": 10 ** 400},
                                              tmp_path)
    assert (code, out, err) == (1, "", "error: k must be positive\n")
    with pytest.raises(ValueError) as exc:
        run_protocol("entangle-impurities", {"r": 1.0, "half_separation": -10 ** 400})
    assert str(exc.value) == "half_separation must be positive"


# ---------------------------------------------------------------------------
# One rule per value: the readers only parse text, any other value is read
# as the library reads it (a bool as NaN, an integer beyond the float range
# as +-inf), and the kernel's rule (or sweep's) refuses a bad value.  So each
# route a value takes gives the same exit status and message: flag text, a
# top-level config value, sweep --fixed text, a config file's "fixed" value,
# run_protocol, sweep and the library call.  The command line may put
# "--fixed 'name=value': " before the message of a pinned value.

def _given(values, *keys):
    return {key: values[key] for key in keys if key in values}


def _impurities_call(v):
    impurities = (KondoImpurity(v[r], **_given(v, "eigenvalues")) for r in ("r1", "r2"))
    return entangle_impurities(v["k"], *impurities, **_given(v, "half_separation", "mode"))


# protocol -> valid parameters, the one its sweeps grid, and its library call
# at the parameters v
ROUTE_BASES = {
    "concentrate": ({"a": 0.6, "k": 1.0, "r": 0.3}, "a_phase",
                    lambda v: concentrate_fixed(v["a"], 0.8, v["k"], v["r"], **_given(v, "axis"))),
    "entangle-impurities": ({"k": 1.0, "r1": 1.0, "r2": 0.5}, "r1", _impurities_call),
}


def _text(value):
    """A value as flag text: a list as its comma-separated items; a bool has none."""
    if isinstance(value, bool):
        return None
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _config_call(argv, config, tmp_path):
    path = tmp_path / "routes.json"
    path.write_text(json.dumps(config))
    code, _, err = capture([*argv, "--config", str(path)])
    return code, err


def _library_call(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    return 0, ""


def _unprefixed(call):
    code, err = call
    return code, re.sub(r"^error: --fixed '[^']*': ", "error: ", err)


def _flags(texts):
    return [f"--{protocols._BY_KEY[key].flag}={text}" for key, text in texts.items()]


K, COUPLING, HALF = "k must be positive", "coupling must be finite", "half_separation must be positive"
PHASE = "2*k*half_separation must be finite"


def _case_id(value):
    """10**400 as itself, not as its 401 digits; other values as pytest names them."""
    if type(value) is int and abs(value) == 10 ** 400:
        return "-10**400" if value < 0 else "10**400"
    return None


@pytest.mark.parametrize("protocol, pins, key, value, message", [
    ("concentrate", {}, "k", 0.0, K),
    ("concentrate", {}, "k", -1.0, K),
    ("entangle-impurities", {}, "k", 0.0, K),
    ("entangle-impurities", {"mode": "exact"}, "k", -1.0, K),
    *[("entangle-impurities", {"mode": mode}, "half_separation", value, HALF)
      for mode in ("first-order", "exact") for value in (0.0, -1.0)],
    ("entangle-impurities", {}, "mode", "x", "mode must be 'first-order' or 'exact', got 'x'"),
    # non-finite numbers, integers beyond the float range and bools
    ("concentrate", {}, "k", math.nan, K),
    ("concentrate", {}, "k", math.inf, K),
    ("concentrate", {}, "k", 10 ** 400, K),
    ("concentrate", {}, "k", True, K),
    ("concentrate", {}, "r", math.inf, COUPLING),
    ("entangle-impurities", {}, "r2", True, COUPLING),
    ("entangle-impurities", {"mode": "exact"}, "half_separation", -10 ** 400, HALF),
    # exact mode's phase e^{2ika} where 2*k*half_separation overflows
    *[("entangle-impurities", {"mode": "exact", "k": k}, "half_separation", a, PHASE)
      for k, a in ((1e200, 1e200), (1e160, 1e150))],
    # lists of the wrong length
    ("concentrate", {}, "axis", [0.0, 1.0], "axis must be a finite 3-vector"),
    ("entangle-impurities", {}, "eigenvalues", [1.0, 2.0], "eigenvalues must be four finite numbers"),
], ids=_case_id)
def test_a_bad_value_is_refused_alike_on_every_route(protocol, pins, key, value, message, tmp_path):
    base, swept, library = ROUTE_BASES[protocol]
    values = {**base, **pins, key: value}
    pinned = {name: v for name, v in values.items() if name != swept}
    sweep_argv = ["sweep", "--protocol", protocol, "--grid", f"{swept}:0:1:2"]
    routes = {
        "config": _config_call([protocol], {protocols._BY_KEY[name].flag: v
                                            for name, v in values.items()}, tmp_path),
        "config fixed": _config_call(sweep_argv, {"fixed": pinned}, tmp_path),
        "run_protocol": _library_call(run_protocol, protocol, values),
        "sweep": _library_call(sweep, protocol, [GridSpec(swept, 0.0, 1.0, 2)], pinned),
        "library": _library_call(library, values),
    }
    if _text(value) is not None:
        texts = {name: _text(v) for name, v in values.items()}
        routes["flag"] = capture([protocol, *_flags(texts)])[::2]
        routes["--fixed"] = capture([*sweep_argv, *(f"--fixed={name}={texts[name]}"
                                                    for name in pinned)])[::2]
    assert {route: _unprefixed(call) for route, call in routes.items()} == \
        dict.fromkeys(routes, (1, f"error: {message}\n"))


@pytest.mark.parametrize("k", [np.array(1.0), np.array([1.0, 2.0]), np.array([[1.0]])], ids=["0-d", "2", "1x1"])
def test_an_array_given_for_a_number_is_refused_by_its_rule_on_every_route(k):
    # an array is no number, whatever its shape: it is read as NaN
    # (scattering._real), and not broadcast against the points
    values = {"a": 0.6, "k": k, "r": 0.3}
    routes = {
        "run_protocol": _library_call(run_protocol, "concentrate", values),
        "sweep": _library_call(sweep, "concentrate", [GridSpec("a_phase", 0.0, 1.0, 2)], values),
        "library": _library_call(ROUTE_BASES["concentrate"][2], values),
    }
    assert routes == dict.fromkeys(routes, (1, f"error: {K}\n"))


@pytest.mark.parametrize("points", [3, protocols._BLOCK, protocols._BLOCK + 1])
def test_a_pinned_array_is_refused_whatever_the_grid_size(points):
    # a pinned array as long as the grid is a value, not a column of it: the
    # answer does not hang on how the grid is cut into kernel blocks
    fixed = {"r": np.linspace(0.5, 1.5, points)}
    assert _library_call(sweep, "concentrate", [GridSpec("a", 0.1, 0.6, points)], fixed) == \
        (1, f"error: {COUPLING}\n")


def test_a_missing_impurity_coupling_is_refused_by_the_runner():
    # the command's own flags require --r1 and --r2; the other routes reach
    # the runner's rule
    message = (1, "error: missing parameter 'r1'/'r2' (or common 'r') for the two couplings\n")
    routes = {
        "run_protocol": _library_call(run_protocol, "entangle-impurities", {"k": 1.0, "r1": 0.5}),
        "sweep": _library_call(sweep, "entangle-impurities", [GridSpec("k", 1.0, 2.0, 2)]),
        "--grid": capture(["sweep", "--protocol", "entangle-impurities", "--grid", "k:1:2:2"])[::2],
    }
    assert routes == dict.fromkeys(routes, message)


@pytest.mark.parametrize("protocol", ["concentrate", "concentrate-kondo"])
@pytest.mark.parametrize("key", ["a_phase", "b_phase"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_phase_is_refused_by_the_phase_rule(protocol, key, value, tmp_path):
    # the pair rule would see |a|^2 + |b|^2 = nan; the phase rule names the phase
    values = {"a": 0.6, "k": 1.0, "r": 0.3, key: value}
    pinned = {name: v for name, v in values.items() if name != "k"}
    sweep_argv = ["sweep", "--protocol", protocol, "--grid", "k:1:2:2"]
    texts = {name: str(v) for name, v in values.items()}
    command = ["concentrate", *(["--impurity=kondo"] if protocol == "concentrate-kondo" else [])]
    routes = {
        "flag": capture([*command, *_flags(texts)])[::2],
        "config": _config_call(command, {protocols._BY_KEY[name].flag: v
                                         for name, v in values.items()}, tmp_path),
        "--fixed": capture([*sweep_argv, *(f"--fixed={name}={texts[name]}" for name in pinned)])[::2],
        "run_protocol": _library_call(run_protocol, protocol, values),
        "sweep": _library_call(sweep, protocol, [GridSpec("k", 1.0, 2.0, 2)], pinned),
    }
    assert {route: _unprefixed(call) for route, call in routes.items()} == \
        dict.fromkeys(routes, (1, f"error: parameter {key!r} must be finite\n"))


@pytest.mark.parametrize("protocol, key, message", [
    ("concentrate", "axis", "axis must be a finite 3-vector"),
    ("entangle-particles", "eigenvalues", "eigenvalues must be four finite numbers"),
])
def test_a_zero_dimensional_array_is_one_value_on_every_route(protocol, key, message):
    # a 0-d array is one value, refused by the kernel's rule of its parameter
    values = {"a": 0.6, "k": 1.0, "r": 0.3} if protocol == "concentrate" else {"k": 1.0, "r": 0.3}
    values[key] = np.array(5.0)
    library = (lambda: concentrate_fixed(0.6, 0.8, 1.0, 0.3, axis=np.array(5.0))) \
        if key == "axis" else (lambda: KondoImpurity(0.3, eigenvalues=np.array(5.0)))
    routes = {
        "run_protocol": _library_call(run_protocol, protocol, values),
        "sweep": _library_call(sweep, protocol, [GridSpec("k", 1.0, 2.0, 2)],
                               {name: v for name, v in values.items() if name != "k"}),
        "library": _library_call(library),
    }
    assert routes == dict.fromkeys(routes, (1, f"error: {message}\n"))


@pytest.mark.parametrize("text", ["0", "-1"])
def test_a_bad_wave_number_is_refused_alike_by_amplitudes(text, tmp_path):
    routes = {
        "flag": capture(["amplitudes", f"--k={text}", "--r=1"])[::2],
        "config": _config_call(["amplitudes"], {"k": float(text), "r": 1.0}, tmp_path),
        "scalar_amplitudes": _library_call(scalar_amplitudes, 1.0, float(text)),
    }
    assert routes == dict.fromkeys(routes, (1, "error: k must be positive\n"))


def test_a_bad_objective_is_refused_alike_on_every_route(tmp_path):
    argv = ["sweep", "--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "a=0.5"]
    routes = {
        "flag": capture([*argv, "--objective", "x"])[::2],
        "config": _config_call(argv, {"objective": "x"}, tmp_path),
        "sweep": _library_call(sweep, "concentrate", [GridSpec("r", 0.0, 1.0, 2)], {"a": 0.5},
                               objective="x"),
    }
    message = "error: objective must be 'probability' or 'entropy', got 'x'\n"
    assert routes == dict.fromkeys(routes, (1, message))
