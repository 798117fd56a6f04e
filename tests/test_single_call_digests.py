"""Output bytes of single-call commands, pinned by sha256.

tests/data/single_call_digests.json holds, for a seeded list of cli.main
calls, the sha256 of stdout and stderr and the exit status: every
single-call command and protocol mode in table, csv and json, selftest, the
protocols' validation errors, the usage errors of every flag and of config
files, and every key of each protocol pinned through sweep --fixed.  The
list is rebuilt here from its seed and must equal the stored one, so the
file cannot drift from the calls.  In an argv, the JSON text after
--config is written to a file whose path takes its place.

Regenerate the file from a tree whose bytes are to be pinned with

    PYTHONPATH=src python tests/test_single_call_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

import pytest

from spinscatter import cli

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                            "single_call_digests.json")
SEED = 20261018
DRAWS = 3  # seeded draws per command and mode, each written in every format
FORMATS = ("table", "csv", "json")

# Inputs every protocol refuses, and the known strong-coupling fault of
# exact mode; each is one line on stderr.
ERROR_CALLS = (
    ["concentrate", "--a-coeff", "1.5", "--k", "1"],
    ["concentrate", "--a-coeff", "0.8", "--k", "1"],
    ["concentrate", "--a-coeff", "0.5", "--b-coeff", "0.5", "--k", "1", "--r", "1"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1e-320"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1", "--r", "1e308"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1", "--axis", "1,1,0"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1", "--eigenvalues", "default"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1", "--impurity", "kondo"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1", "--impurity", "kondo", "--r", "1",
     "--axis", "1,0,0"],
    ["concentrate", "--a-coeff", "0.5", "--k", "1", "--impurity", "kondo", "--r", "1e308"],
    ["entangle-particles", "--k", "1", "--r", "1", "--initial", "01"],
    ["entangle-particles", "--k", "1", "--r", "1", "--initial", "0012"],
    ["entangle-particles", "--k", "1", "--r", "1", "--initial", "x01"],
    ["entangle-particles", "--k", "1", "--r", "1", "--eigenvalues", "bogus"],
    ["entangle-particles", "--k", "1", "--r", "2", "--eigenvalues", "1,1,1,1e308"],
    ["entangle-particles", "--k", "1e-320", "--r", "1"],
    ["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "1", "--initial", "01"],
    ["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "1", "--initial", "1100"],
    ["entangle-impurities", "--k", "1", "--r1", "1e308", "--r2", "1"],
    ["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "1e308", "--mode", "exact"],
    ["entangle-impurities", "--k", "1.5968375361207577e-07", "--r1", "0.10099984732649511",
     "--r2", "0.705775586659697", "--half-separation", "7.320449548807124e-06",
     "--mode", "exact"],
    ["amplitudes", "--k", "1e-310", "--r", "1"],
    ["kondo", "--k", "1", "--r", "1", "--eigenvalues", "bogus"],
    ["kondo", "--k", "1", "--r", "1e308", "--eigenvalues", "1,1,1,3"],
    # sweep --fixed values refused by a flag's reader or by the kernel
    ["sweep", "--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "axis=0,x,1"],
    ["sweep", "--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "axis=1,2"],
    ["sweep", "--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "a=2"],
    ["sweep", "--protocol", "concentrate", "--grid", "a:0.1:0.5:2", "--fixed", "k=1e-320"],
    ["sweep", "--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "a=0.5",
     "--fixed", "eigenvalues=default"],
    ["sweep", "--protocol", "entangle-particles", "--grid", "r:0:1:2",
     "--fixed", "eigenvalues=1,2"],
    ["sweep", "--protocol", "entangle-particles", "--grid", "r:0:1:2",
     "--fixed", "eigenvalues=1,1,1,inf"],
    ["sweep", "--protocol", "entangle-impurities", "--grid", "r2:0:1:2", "--fixed", "r1=1",
     "--fixed", "initial=01"],
    ["sweep", "--protocol", "entangle-impurities", "--grid", "r2:0:1:2",
     "--fixed", "r1=1e308"],
    ["sweep", "--protocol", "entangle-impurities", "--grid", "mode:0:1:2", "--fixed", "r=1"],
    ["sweep", "--protocol", "concentrate-kondo", "--grid", "r:0:1:2", "--fixed", "a=0.5",
     "--fixed", "bogus=1"],
    # config files refused with one line
    ["amplitudes", "--config", '{"k": "x", "r": 1}'],
    ["amplitudes", "--config", '{"k": true, "r": 1}'],
    ["amplitudes", "--config", '{"k": [1], "r": 1}'],
    ["amplitudes", "--config", '{"k": {}, "r": 1}'],
    ["amplitudes", "--config", '{"k": 0, "r": 1}'],
    ["amplitudes", "--config", '{"r": 1}'],
    ["amplitudes", "--config", '{"k": 1, "r": 1, "format": "yaml"}'],
    ["amplitudes", "--config", '{"k": 1, "r": 1, "format": 5}'],
    ["amplitudes", "--config", '[1]'],
    ["amplitudes", "--config", '{"k": 1,'],
    ["filter", "--config", '{"k": 1, "r": 1, "axis": [1, 2]}'],
    ["filter", "--config", '{"k": 1, "r": 1, "axis": [1, 0, "x"]}'],
    ["kondo", "--config", '{"k": 1, "r": 1, "eigenvalues": "bogus"}'],
    ["kondo", "--config", '{"k": 1, "r": 1, "eigenvalues": [1, 2, 3]}'],
    ["concentrate", "--config", '{"a-coeff": "x", "k": 1}'],
    ["concentrate", "--config", '{"a-coeff": 0.5, "k": 1, "impurity": "quantum"}'],
    ["concentrate", "--config", '{"a": 0.5, "k": 1}'],
    ["entangle-particles", "--config", '{"k": 1, "r": 1, "initial": "01"}'],
    ["entangle-impurities", "--config", '{"k": 1, "r1": 1, "r2": 1, "mode": "bogus"}'],
    ["entangle-impurities", "--config", '{"k": 1, "r1": 1, "r2": 1, "half_separation": 2}'],
    ["sweep", "--config", '{"protocol": "concentrate", "grid": "r:2:0:5", "fixed": {"a": 0.5}}'],
    ["sweep", "--config", '{"protocol": "concentrate", "grid": ["r:0:1:x"]}'],
    ["sweep", "--config", '{"protocol": "concentrate", "grid": ["r:0:1:2"], '
                          '"fixed": {"axis": "1,2"}}'],
    ["sweep", "--config", '{"protocol": "concentrate", "grid": ["r:0:1:2"], "fixed": ["a"]}'],
    ["sweep", "--config", '{"protocol": "concentrate", "grid": ["r:0:1:2"], "fixed": {"a": 2}}'],
    ["sweep", "--config", '{"protocol": "teleport", "grid": ["r:0:1:2"]}'],
    ["sweep", "--config", '{"grid": ["r:0:1:2"]}'],
    ["selftest", "--config", '{"k": 1}'],
)

# Each command's flags: a valid call, the bad values each flag is given in
# turn (text no reader takes, a non-finite value, and 0 where the flag must
# be positive), and the required flags, each left out in turn.
_NUMBER = ("x", "inf")
_POSITIVE = ("x", "inf", "0")
FLAG_CASES = (
    (["amplitudes", "--k", "1", "--r", "1"],
     {"--k": _POSITIVE, "--r": _NUMBER}, ("--k", "--r")),
    (["filter", "--k", "1", "--r", "1", "--axis", "0,0,1"],
     {"--k": _POSITIVE, "--r": _NUMBER, "--axis": ("x", "0,inf,1")}, ("--k", "--r")),
    (["kondo", "--k", "1", "--r", "1", "--eigenvalues", "default"],
     {"--k": _POSITIVE, "--r": _NUMBER, "--eigenvalues": ("x", "1,1,1,inf")}, ("--k", "--r")),
    (["concentrate", "--a-coeff", "0.6", "--b-coeff", "0.8", "--a-phase", "0.1",
      "--b-phase", "0.2", "--k", "1", "--r", "0.3", "--impurity", "fixed", "--axis", "0,0,1"],
     {"--a-coeff": _NUMBER, "--b-coeff": _NUMBER, "--a-phase": _NUMBER, "--b-phase": _NUMBER,
      "--k": _POSITIVE, "--r": _NUMBER, "--impurity": ("x",), "--axis": ("x", "0,inf,1")},
     ("--a-coeff", "--k")),
    (["concentrate", "--a-coeff", "0.6", "--k", "1", "--r", "0.3", "--impurity", "kondo",
      "--eigenvalues", "default"],
     {"--eigenvalues": ("x", "1,1,1,inf")}, ()),
    (["entangle-particles", "--k", "1", "--r", "1", "--eigenvalues", "default",
      "--initial", "001"],
     {"--k": _POSITIVE, "--r": _NUMBER, "--eigenvalues": ("x", "1,1,1,inf"),
      "--initial": ("x",)}, ("--k", "--r")),
    (["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "0.5", "--half-separation", "1",
      "--mode", "exact", "--eigenvalues", "default", "--initial", "100"],
     {"--k": _POSITIVE, "--r1": _NUMBER, "--r2": _NUMBER, "--half-separation": _POSITIVE,
      "--mode": ("x",), "--eigenvalues": ("x", "1,1,1,inf"), "--initial": ("x",)},
     ("--k", "--r1", "--r2")),
    (["sweep", "--protocol", "concentrate", "--grid", "r:0:1:2", "--fixed", "a=0.5",
      "--objective", "probability"],
     {"--protocol": ("x",), "--grid": ("x", "r:0:inf:2"), "--fixed": ("x",),
      "--objective": ("x",)}, ("--protocol", "--grid")),
)

# Every key of each protocol, pinned through sweep --fixed.
FIXED_CALLS = tuple(
    ["sweep", "--protocol", protocol, "--grid", grid, *(f"--fixed={pin}" for pin in pins)]
    for protocol, grid, pins in (
        ("concentrate", "r:0:1:3", ("a=0.5",)),
        ("concentrate", "r:0:1:3", ("a=0.6", "b=0.8", "a_phase=0.3", "b_phase=-1.1", "k=1.5")),
        ("concentrate", "a:0.1:0.6:3", ("r=0.7", "axis=0.6,0,0.8")),
        ("concentrate", "a:0.1:0.6:3", ("axis_theta=0.4", "a-phase=1")),
        ("concentrate-kondo", "r:0:1:3", ("a=0.6", "b=0.8", "a_phase=0.3", "b_phase=-1.1",
                                          "k=1.5", "eigenvalues=standard-pauli")),
        ("concentrate-kondo", "a:0.1:0.6:3", ("r=0.7", "eigenvalues=1,-0.5,2,0.25")),
        ("entangle-particles", "k:0.5:2:3", ("r=0.7", "eigenvalues=standard-pauli",
                                             "initial=011")),
        ("entangle-particles", "r:0:1:3", ("k=1.3",)),
        ("entangle-impurities", "r1:0:1:3", ("r2=0.4", "k=1.2", "half_separation=0.7",
                                             "mode=exact", "eigenvalues=1,-0.5,2,0.25",
                                             "initial=101")),
        ("entangle-impurities", "k:0.5:2:3", ("r=0.6", "half-separation=2",
                                              "mode=first-order")),
    )
)


def _flag_calls():
    calls = []
    for base, bad, required in FLAG_CASES:
        for flag, values in bad.items():
            i = base.index(flag)
            calls += [[*base[:i + 1], value, *base[i + 2:]] for value in values]
        for flag in required:
            i = base.index(flag)
            calls.append([*base[:i], *base[i + 2:]])
    return calls


def _calls():
    """The pinned argv lists, in a fixed order."""
    rng = random.Random(SEED)

    def num(lo, hi):
        return repr(rng.uniform(lo, hi))

    def bits():
        return "".join(rng.choice("01") for _ in range(3))

    def preset():
        return rng.choice(["default", "standard-pauli", "1,-0.5,2,0.25"])

    makers = {
        "amplitudes": lambda: ["amplitudes", "--k", num(0.2, 3), "--r", num(-3, 3)],
        "filter": lambda: ["filter", "--k", num(0.2, 3), "--r", num(-2, 2),
                           *rng.choice([[], ["--axis", "0.6,0,0.8"], ["--axis", "0,-1,0"]])],
        "kondo": lambda: ["kondo", "--k", num(0.2, 3), "--r", num(-3, 3),
                          "--eigenvalues", preset()],
        "concentrate": lambda: ["concentrate", "--a-coeff", num(0.05, 0.65), "--k", num(0.5, 3),
                                *rng.choice([[], ["--r", num(0, 3)],
                                             ["--a-phase", num(0, 6), "--b-phase", num(0, 6)]])],
        "concentrate-kondo": lambda: ["concentrate", "--impurity", "kondo",
                                      "--a-coeff", num(0.05, 0.95), "--k", num(0.5, 3),
                                      "--r", num(-3, 3), "--eigenvalues", preset()],
        "entangle-particles": lambda: ["entangle-particles", "--k", num(0.5, 3), "--r", num(-3, 3),
                                       "--eigenvalues", preset(), "--initial", bits()],
        "entangle-impurities": lambda: ["entangle-impurities", "--k", num(0.5, 3),
                                        "--r1", num(0.05, 3), "--r2", num(0.05, 3),
                                        "--half-separation", num(0.5, 2),
                                        "--eigenvalues", preset(), "--initial", bits()],
        "entangle-impurities-exact": lambda: ["entangle-impurities", "--mode", "exact",
                                              "--k", num(0.5, 3), "--r1", num(0.05, 3),
                                              "--r2", num(0.05, 3),
                                              "--half-separation", num(0.5, 2),
                                              "--eigenvalues", preset(), "--initial", bits()],
    }
    calls = []
    for name, make in makers.items():
        for draw in range(DRAWS):
            argv = make()
            calls += [(f"{name} {draw} {fmt}", [*argv, "--format", fmt]) for fmt in FORMATS]
    calls.append(("selftest", ["selftest"]))
    calls += [(f"error {i}", list(argv)) for i, argv in enumerate(ERROR_CALLS)]
    calls += [(f"flag {i}", argv) for i, argv in enumerate(_flag_calls())]
    calls += [(f"fixed {i}", list(argv)) for i, argv in enumerate(FIXED_CALLS)]
    return calls


def _digest(argv, workdir):
    args = list(argv)
    if "--config" in args:
        i = args.index("--config") + 1
        args[i] = os.path.join(workdir, "config.json")
        with open(args[i], "w", encoding="utf-8") as fh:
            fh.write(argv[i])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()}


CALLS = _calls()

if os.path.exists(DIGESTS_PATH):
    with open(DIGESTS_PATH, encoding="utf-8") as _fh:
        STORED = json.load(_fh)
else:
    STORED = {}


def test_stored_calls_are_the_seeded_calls():
    assert [(name, STORED[name]["argv"]) for name in STORED] == CALLS


@pytest.mark.parametrize("name", [name for name, _ in CALLS])
def test_single_call_bytes_equal_the_stored_digests(name, monkeypatch, tmp_path):
    monkeypatch.delenv(cli._FORMAT_ENV, raising=False)
    assert _digest(STORED[name]["argv"], str(tmp_path)) == STORED[name]


if __name__ == "__main__":
    os.environ.pop(cli._FORMAT_ENV, None)
    with tempfile.TemporaryDirectory() as workdir, \
            open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: _digest(argv, workdir) for name, argv in CALLS}, fh, indent=1)
        fh.write("\n")
