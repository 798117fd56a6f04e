"""Output bytes of single-call commands, pinned by sha256.

tests/data/single_call_digests.json holds, for a seeded list of cli.main
calls, the sha256 of stdout and stderr and the exit status: every
single-call command and protocol mode in table, csv and json, selftest, and
the protocols' validation errors.  The list is rebuilt here from its seed
and must equal the stored one, so the file cannot drift from the calls.

Regenerate the file from a tree whose bytes are to be pinned with

    PYTHONPATH=src python tests/test_single_call_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import random

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
)


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
    return calls


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
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
def test_single_call_bytes_equal_the_stored_digests(name, monkeypatch):
    monkeypatch.delenv(cli._FORMAT_ENV, raising=False)
    assert _digest(STORED[name]["argv"]) == STORED[name]


if __name__ == "__main__":
    os.environ.pop(cli._FORMAT_ENV, None)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: _digest(argv) for name, argv in CALLS}, fh, indent=1)
        fh.write("\n")
