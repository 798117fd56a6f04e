import csv
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from spinscatter import DEFAULT_TOLERANCES, Tolerances, cli, run_protocol
from spinscatter.errors import InternalFaultError

from conftest import run_cli

SQ13 = "0.5773502691896258"


# ---------------------------------------------------------------------------
# happy paths through the binary

def test_amplitudes_json_matches_closed_form():
    proc = run_cli("amplitudes", "--k", "1", "--r", "1", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["S"] == {"re": 0.5, "im": -0.5}
    assert data["R"] == {"re": -0.5, "im": -0.5}
    assert data["abs_S2"] == 0.5
    assert data["abs_R2"] == 0.5
    assert data["xi"] == 1.0


def test_concentrate_table_shows_the_optimum():
    proc = run_cli("concentrate", "--a-coeff", SQ13, "--k", "1", "--r", "0.5")
    assert proc.returncode == 0
    row = next(line for line in proc.stdout.splitlines() if "transmitted" in line)
    assert "0.666667" in row
    assert "1.000000" in row
    assert "expected_attempts" in proc.stdout


def test_filter_table_runs():
    proc = run_cli("filter", "--k", "2", "--r", "0.3")
    assert proc.returncode == 0
    assert "transmission" in proc.stdout


def test_kondo_json_channel_amplitudes():
    proc = run_cli("kondo", "--k", "1", "--r", "1", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    chans = data["channel_amplitudes"]
    assert chans[0] == {"re": 0.5, "im": -0.5}
    assert chans[2] == {"re": 0.2, "im": 0.4}
    assert chans[3] == {"re": 1.0, "im": 0.0}
    assert data["transmission"][1][2] == {"re": -0.4, "im": 0.2}


def test_kondo_eigenvalue_presets_and_explicit_list():
    by_name = run_cli("kondo", "--k", "1", "--r", "0.7",
                      "--eigenvalues", "standard-pauli", "--format", "json")
    explicit = run_cli("kondo", "--k", "1", "--r", "0.7",
                       "--eigenvalues", "1,1,1,-3", "--format", "json")
    assert by_name.returncode == explicit.returncode == 0
    assert json.loads(by_name.stdout) == json.loads(explicit.stdout)


def test_entangle_particles_runs_all_formats():
    for fmt in ("table", "csv", "json"):
        proc = run_cli("entangle-particles", "--k", "1", "--r", "1", "--format", fmt)
        assert proc.returncode == 0
        assert proc.stdout


def test_entangle_impurities_exact_mode():
    proc = run_cli("entangle-impurities", "--k", "1", "--r1", "0.5", "--r2", "0.5",
                   "--mode", "exact", "--half-separation", "2", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["total_probability"] - 1.0) < 1e-9


@pytest.mark.parametrize("r1, r2", [("1e8", "1e8"), ("1e10", "5")])
def test_entangle_impurities_exact_mode_strong_coupling(r1, r2):
    # the 4d x 4d matching solve lost flux conservation here and exited 2
    proc = run_cli("entangle-impurities", "--k", "1", "--r1", r1, "--r2", r2,
                   "--mode", "exact", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["total_probability"] - 1.0) <= 1e-10
    tree = run_protocol("entangle-impurities",
                        {"k": 1.0, "r1": float(r1), "r2": float(r2), "mode": "exact"}).tree
    assert abs(tree.total_probability() - 1.0) <= 1e-10


@pytest.mark.parametrize("command", [
    ("amplitudes", "--k", "1e-300", "--r", "1e10"),
    ("concentrate", "--a-coeff", "0.5", "--k", "1e-300", "--r", "1e10"),
])
def test_overflowing_xi_is_a_one_line_error(command):
    # r/k overflows to inf: S is its limit 0, but xi itself cannot be printed
    for fmt in ("table", "csv", "json"):
        proc = run_cli(*command, "--format", fmt)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: xi overflows to inf (coupling/k exceeds the float range)\n"


@pytest.mark.parametrize("argv", [
    ["concentrate", "--a-coeff", "0.5", "--k", "1e-320"],
    ["sweep", "--protocol", "concentrate", "--grid", "k:1e-322:1e-300:5:log", "--fixed", "a=0.5"],
])
def test_subnormal_optimal_coupling_is_a_one_line_error(argv, capsys):
    # valid input, but the optimal coupling k sqrt(|b/a|^2 - 1)/2 is subnormal
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: optimal coupling ") and err.count("\n") == 1
    assert "is below the smallest normal float (k = " in err


@pytest.mark.parametrize("command, content", [
    (["entangle-particles", "--r", "1"], "two particles and the impurity"),
    (["entangle-impurities", "--r1", "1", "--r2", "1"], "particle and two impurities"),
])
def test_initial_state_of_the_wrong_size_names_the_register(command, content, capsys):
    assert cli.main([*command, "--k", "1", "--initial", "01"]) == 1
    assert capsys.readouterr() == ("", f"error: initial state must have 3 qubits ({content})\n")


def test_kondo_opaque_limit_when_coupling_over_k_overflows():
    proc = run_cli("kondo", "--k", "1e-300", "--r", "1e10", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    # channels with a nonzero eigenvalue are opaque; the default preset's
    # zero-eigenvalue channel passes
    assert data["channel_amplitudes"] == [{"re": 0.0, "im": 0.0}] * 3 + [{"re": 1.0, "im": 0.0}]
    t = np.array([[z["re"] + 1j * z["im"] for z in row] for row in data["transmission"]])
    r = np.array([[z["re"] + 1j * z["im"] for z in row] for row in data["reflection"]])
    assert np.allclose(r, t - np.eye(4), atol=0.0)
    assert np.max(np.abs(t.conj().T @ t + r.conj().T @ r - np.eye(4))) <= 1e-12


def test_selftest_passes():
    proc = run_cli("selftest")
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 7
    assert "selftest: 7 checks passed" in proc.stdout



def test_selftest_bounds_are_the_tolerance_budgets(capsys):
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cli._SELFTEST_CHECKS) + 1
    for (name, field, _), line in zip(cli._SELFTEST_CHECKS, lines):
        assert field in fields
        assert line.startswith(f"PASS {name} (max deviation ")
        assert float(line[line.rindex("< ") + 2:-1]) == getattr(DEFAULT_TOLERANCES, field)


def test_selftest_fails_on_a_zero_budget(monkeypatch, capsys):
    monkeypatch.setattr(cli, "TOL", Tolerances(algebraic=0.0))
    assert cli.main(["selftest"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal fault: selftest scalar unitarity:")

def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


# ---------------------------------------------------------------------------
# error surface: documented exit codes and one-line diagnostics

def test_nonpositive_k_diagnostic():
    proc = run_cli("kondo", "--k", "0", "--r", "1")
    assert proc.returncode == 1
    assert proc.stderr == "error: k must be positive\n"
    assert proc.stdout == ""


def test_unknown_flag():
    proc = run_cli("amplitudes", "--k", "1", "--r", "1", "--wavelength", "2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "wavelength" in proc.stderr


def test_missing_required_parameter():
    proc = run_cli("concentrate", "--k", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "a-coeff" in proc.stderr


@pytest.mark.parametrize("flags, message", [
    (("--impurity", "kondo", "--r", "0.5", "--axis", "1,0,0"),
     "unknown parameter(s) for concentrate-kondo: axis"),
    (("--eigenvalues", "default"), "unknown parameter(s) for concentrate: eigenvalues"),
])
def test_concentrate_rejects_a_flag_its_impurity_does_not_take(flags, message, capsys):
    assert cli.main(["concentrate", "--a-coeff", "0.5", "--k", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unparsable_number():
    proc = run_cli("amplitudes", "--k", "fast", "--r", "1")
    assert proc.returncode == 1
    assert "unparsable" in proc.stderr


def test_no_command_given():
    proc = run_cli()
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_bad_grid_spec():
    proc = run_cli("sweep", "--protocol", "concentrate", "--grid", "r:2:0:5",
                   "--fixed", "a=0.5", "--fixed", "k=1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_internal_fault_maps_to_exit_2(monkeypatch, capsys):
    def blown_invariant(params, fmt):
        raise InternalFaultError("flux conservation violated in dispatch test")

    monkeypatch.setitem(cli._HANDLERS, "amplitudes", blown_invariant)
    code = cli.run(cli.RunConfig("amplitudes", {"k": 1.0, "r": 1.0}, "table", None))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("internal fault:")


@pytest.mark.parametrize("command, config, message", [
    ("sweep", {"protocol": "concentrate", "grid": 5},
     "--grid 5: expected name:start:stop:points[:scale]"),
    ("sweep", {"protocol": "concentrate", "grid": [5]},
     "--grid 5: expected name:start:stop:points[:scale]"),
    ("sweep", {"protocol": "concentrate", "grid": ["r:0:1:2"], "fixed": 5},
     "--fixed '5': expected name=value"),
    # a number where a list is due is a list of one, refused by the kernel's rule
    ("sweep", {"protocol": "concentrate", "grid": ["r:0:1:2"], "fixed": {"a": 0.6, "axis": 5}},
     "axis must be a finite 3-vector"),
    ("filter", {"k": 1, "r": 1, "axis": 5}, "axis must be a finite 3-vector"),
    ("kondo", {"k": 1, "r": 1, "eigenvalues": 5}, "eigenvalues must be four finite numbers"),
])
def test_config_value_of_the_wrong_type_is_a_one_line_error(command, config, message, tmp_path,
                                                            capsys):
    # each of these ended in a TypeError traceback
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "error: config file is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                    "in position 0: invalid start byte\n"),
    (b'{"k": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "error: config file nests too deeply to read\n"),
])
def test_an_unreadable_config_file_is_a_one_line_error(content, message, tmp_path, capsys):
    # each raised out of main (UnicodeDecodeError, RecursionError)
    path = tmp_path / "run.json"
    path.write_bytes(content)
    assert cli.main(["amplitudes", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("output", [2, 1, 0, True, 2.0, ["out.csv"], {}])
def test_config_output_must_be_a_path(output, tmp_path, capsys):
    # an integer output opened that file descriptor, wrote to it and closed it
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 1, "r": 1, "output": output}))
    assert cli.main(["amplitudes", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: --output must be a path, got {output!r}\n")
    for fd in (0, 1, 2):
        os.fstat(fd)


def test_unwritable_output_path(tmp_path):
    target = tmp_path / "no-such-dir" / "out.csv"
    proc = run_cli("amplitudes", "--k", "1", "--r", "1", "--output", str(target))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


# ---------------------------------------------------------------------------
# sweep output: shape, determinism, stream separation

def test_sweep_csv_shape_and_monotone_column():
    proc = run_cli("sweep", "--protocol", "concentrate", "--grid", "r:0:2:101",
                   "--fixed", "a=" + SQ13, "--fixed", "k=1", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.split("\r\n")
    assert lines[0] == "r,probability,entropy_bits,concurrence"
    rows = [line for line in lines[1:] if line]
    assert len(rows) == 101
    rcol = [float(row.split(",")[0]) for row in rows]
    assert rcol == sorted(rcol)
    assert proc.stderr.startswith("argmax:")
    assert "r=0.5" in proc.stderr


def test_sweep_table_appends_argmax_to_stdout():
    proc = run_cli("sweep", "--protocol", "concentrate", "--grid", "r:0:1:5",
                   "--fixed", "a=" + SQ13, "--fixed", "k=1", "--format", "table")
    assert proc.returncode == 0
    assert "argmax:" in proc.stdout
    assert proc.stderr == ""


def test_sweep_byte_identical_runs():
    args = ("sweep", "--protocol", "entangle-particles", "--grid", "r:0.2:3:40",
            "--fixed", "k=1.3", "--format", "csv")
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


def test_sweep_json_round_trip_precision():
    proc = run_cli("sweep", "--protocol", "concentrate", "--grid", "r:0.1:1.9:7",
                   "--fixed", "a=" + SQ13, "--fixed", "k=1", "--format", "json")
    parsed = json.loads(proc.stdout)
    assert len(parsed) == 7
    from spinscatter import concentrate_fixed
    b = math.sqrt(1 - 1 / 3)
    for row in parsed:
        out = concentrate_fixed(1 / math.sqrt(3), b, 1.0, row["r"]).outcomes[0]
        # serialized at 12 significant digits: round-trip must agree that far
        assert abs(row["probability"] - out.branch_probability) < 1e-11
        assert abs(row["entropy_bits"] - out.entropy_bits) < 1e-11


# ---------------------------------------------------------------------------
# config file, environment, output file

def test_config_file_supplies_parameters(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 1.0, "r": 1.0, "format": "json"}))
    proc = run_cli("amplitudes", "--config", str(cfg))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["xi"] == 1.0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 1.0, "r": 1.0}))
    proc = run_cli("amplitudes", "--config", str(cfg), "--r", "0.5",
                   "--format", "json")
    assert json.loads(proc.stdout)["xi"] == 0.5


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 1.0, "r": 1.0, "wavelength": 3}))
    proc = run_cli("amplitudes", "--config", str(cfg))
    assert proc.returncode == 1
    assert "wavelength" in proc.stderr


def test_format_environment_variable_and_precedence(tmp_path):
    env_json = run_cli("amplitudes", "--k", "1", "--r", "1",
                       env_extra={"SPINSCATTER_FORMAT": "json"})
    assert env_json.stdout.lstrip().startswith("{")
    flag_wins = run_cli("amplitudes", "--k", "1", "--r", "1", "--format", "table",
                        env_extra={"SPINSCATTER_FORMAT": "json"})
    assert not flag_wins.stdout.lstrip().startswith("{")


# a given format, even an empty one, is read by one rule on every route
@pytest.mark.parametrize("argv, config, got", [
    (["--format="], {}, "''"),
    ([], {"format": ""}, "''"),
    ([], {"format": 0}, "'0'"),
    (["--format", "5"], {}, "'5'"),
    ([], {"format": 5}, "'5'"),
    ([], {"format": True}, "'True'"),
])
def test_a_given_format_is_one_of_the_formats(argv, config, got, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 1, "r": 1, **config}))
    assert cli.main(["amplitudes", "--config", str(path), *argv]) == 1
    assert capsys.readouterr() == ("", f"error: --format must be one of: table, csv, json (got {got})\n")


def test_an_empty_format_variable_is_unset(monkeypatch, capsys):
    monkeypatch.delenv(cli._FORMAT_ENV, raising=False)
    assert cli.main(["amplitudes", "--k", "1", "--r", "1"]) == 0
    table = capsys.readouterr()
    monkeypatch.setenv(cli._FORMAT_ENV, "")
    assert cli.main(["amplitudes", "--k", "1", "--r", "1"]) == 0
    assert capsys.readouterr() == table
    assert table.out.startswith("name")


@pytest.mark.parametrize("argv, config", [(["--output="], {}), ([], {"output": ""})])
def test_an_empty_output_path_is_unwritable(argv, config, tmp_path, capsys):
    # it wrote to stdout, as if no path were given
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 1, "r": 1, **config}))
    assert cli.main(["amplitudes", "--config", str(path), *argv]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("argv", [
    ("sweep", "--protocol", "concentrate", "--grid", "r:0:1:3", "--fixed", "a=" + SQ13, "--fixed", "k=1"),
    ("concentrate", "--a-coeff", SQ13, "--k", "1", "--r", "0.5"),
], ids=["sweep", "single"])
def test_output_file_holds_the_stdout_bytes(tmp_path, argv, fmt):
    # the file gets the bytes stdout gets, csv's CRLF row endings included
    target = tmp_path / "out"
    shown = run_cli(*argv, "--format", fmt)
    written = run_cli(*argv, "--format", fmt, "--output", str(target))
    assert shown.returncode == written.returncode == 0
    assert written.stdout == ""
    assert target.read_bytes() == shown.stdout.encode("utf-8")
    if fmt == "csv":
        raw = target.read_bytes()
        assert b"\r\n" in raw and b"\n" not in raw.replace(b"\r\n", b"")


# ---------------------------------------------------------------------------
# emit_columns unit surface

def test_emit_empty_table_is_header_only():
    text = cli.emit_columns({"r": [], "probability": []}, "csv")
    assert text == "r,probability\r\n"


def test_emit_single_row():
    text = cli.emit_columns({"r": [0.5], "probability": [2 / 3]}, "csv")
    header, row, tail = text.split("\r\n")
    assert header == "r,probability"
    assert row == "0.5,0.666666666667"
    assert tail == ""


def test_emit_quotes_awkward_strings():
    text = cli.emit_columns({"label": ['say "hi", twice'], "n": [1]}, "csv")
    assert '"say ""hi"", twice"' in text


def test_emit_json_twelve_significant_digits():
    text = cli.emit_columns({"x": [1.0 / 3.0]}, "json")
    assert json.loads(text) == [{"x": 0.333333333333}]


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        cli.emit_columns({"a": [1]}, "yaml")


@pytest.mark.parametrize("names", [[], [""], ["", "b"], ["a,b", 'say "hi"', "cr\rlf", "new\nline"],
                                   ["\u00e9t\u00e9", "x"]])
@pytest.mark.parametrize("column", [np.array([]), []], ids=["float-array", "cells"])
def test_csv_header_is_quoted_as_csv_writer_quotes_it(names, column):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(names)
    assert cli.emit_columns(dict.fromkeys(names, column), "csv") == buf.getvalue()


def test_main_returns_codes_in_process(monkeypatch, capsys):
    assert cli.main(["amplitudes", "--k", "1", "--r", "1"]) == 0
    capsys.readouterr()
    assert cli.main([]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
