"""Well-formed command lines read straight from the flag table.

cli.parse_args reads the tokens after a known command from that command's
flag table (cli._scan) when each is an exact flag with one value, and hands
every other token list to the command's argparse subparser.  The scan must
give the namespace the subparser gives wherever it answers, and must defer
wherever the subparser exits (help, abbreviations, usage errors).
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscatter import cli

# values that argparse reads in telling ways: empty, flag-like, negative
# numbers, '=' inside, spaces, and the '--' it drops from a value
VALUES = ["", "-", "--", "-0.5", "-.5", "-1e-05", "0,0,1", "-1,0,0", "a=0.5", "r:0:1:3",
          "a b", "1=2", "1.5"]
STRAYS = ["--bogus", "--help", "-h", "--", "-"]


def _subparser_namespace(command, tokens):
    """vars() of the subparser's namespace for tokens, or None where it exits."""
    _, commands = cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(commands[command].parse_args(tokens))
        except SystemExit:
            return None


@st.composite
def command_lines(draw):
    """A command and a token list: its exact flags, each with a value in the
    '=' form or as a separate token, and at times one more item, which may be
    an abbreviation, a stray or a flag without its value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = list(cli._FLAGS[command])
    values = st.sampled_from(VALUES)
    items = draw(st.lists(st.tuples(st.sampled_from(flags), values,
                                    st.sampled_from(["=", "separate"])), max_size=6))
    if draw(st.booleans()):
        other = st.sampled_from(flags + [f[:-1] for f in flags] + STRAYS)
        items.insert(draw(st.integers(0, len(items))),
                     draw(st.tuples(other, values, st.sampled_from(["=", "separate", "none"]))))
    tokens = []
    for name, value, form in items:
        if form == "=":
            tokens.append(f"{name}={value}")
        else:
            tokens += [name, value] if form == "separate" else [name]
    return command, tokens


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(command_lines())
def test_the_scan_equals_the_subparser_or_defers(line):
    command, tokens = line
    scanned = cli._scan(command, tokens)
    expected = _subparser_namespace(command, tokens)
    if expected is None:
        assert scanned is None
    elif scanned is not None:
        assert scanned == expected


@pytest.mark.parametrize("command, tokens", [
    # the last value of a flag wins; a repeated flag appends
    ("amplitudes", ["--k", "1", "--r=2", "--k=3"]),
    ("sweep", ["--grid", "r:0:1:3", "--fixed=a=0.5", "--grid=k:1:2:2", "--fixed", "k=-1"]),
    ("selftest", []),
])
def test_the_scan_answers_well_formed_lines(command, tokens):
    scanned = cli._scan(command, tokens)
    assert scanned is not None and scanned == _subparser_namespace(command, tokens)


# ---------------------------------------------------------------------------
# Which calls reach argparse

FLAG_TABLE_CALLS = [
    ["amplitudes", "--k=1", "--r=-1.5"],
    ["filter", "--k=1", "--r=-1.5", "--axis=-1,0,0", "--format=csv"],
    ["kondo", "--k=2", "--r=-0.5", "--eigenvalues=1,1,-2,0"],
    ["concentrate", "--a-coeff=0.5", "--k=1", "--r=-1.5", "--impurity=kondo", "--a-phase=-.5"],
    ["entangle-particles", "--k=1", "--r=-1.5", "--initial=011", "--format=json"],
    ["entangle-impurities", "--k=1", "--r1=-1.5", "--r2=1e-05", "--half-separation=2",
     "--mode=exact"],
    ["sweep", "--protocol=concentrate", "--grid=r:-1:1:3", "--fixed=a=0.5", "--fixed=k=1"],
    ["selftest", "--format=table"],
    # the benchmark's sweeps give each value as its own token
    ["sweep", "--protocol", "entangle-impurities", "--fixed", "mode=exact", "--fixed", "k=1.0",
     "--grid", "r1:0.025:2.025:41", "--grid", "r2:0.04:2.04:41", "--format", "csv"],
]

ARGPARSE_CALLS = [
    ["amplitudes", "--help"],
    ["entangle-impurities", "--k", "1", "--r1", "1", "--r2", "1", "--half-sep", "2"],
    ["amplitudes", "--k", "1", "--r", "1", "--wavelength", "2"],
    ["amplitudes", "--k"],
]


@pytest.fixture
def parses(monkeypatch):
    """The argv of each call that reaches ArgumentParser.parse_known_args."""
    seen = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, args=None, namespace=None):
        seen.append(args)
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return seen


def test_well_formed_calls_do_not_reach_argparse(parses):
    for argv in FLAG_TABLE_CALLS:
        config = cli.parse_args(argv)
        assert config.command == argv[0]
    assert parses == []


@pytest.mark.parametrize("argv", ARGPARSE_CALLS)
def test_help_abbreviations_and_usage_errors_reach_argparse(argv, parses):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            contextlib.suppress(SystemExit):
        cli.parse_args(argv)
    assert parses == [argv[1:]]


# ---------------------------------------------------------------------------
# A value that argparse drops

@pytest.mark.parametrize("argv", [
    ["amplitudes", "--k=1", "--r=1", "--config=--"],
    ["amplitudes", "--k=1", "--r=1", "--format=--"],
    ["amplitudes", "--k=1", "--r=1", "--output=--"],
    ["sweep", "--protocol=concentrate", "--fixed=a=0.5", "--grid=--"],
    ["sweep", "--protocol=concentrate", "--fixed=a=0.5", "--grid=r:0:1:2", "--grid=--"],
])
def test_a_flag_given_the_value_dashdash_is_a_usage_error(argv, capsys):
    # argparse drops '--' from --flag=--, which leaves the flag no value
    assert cli.main(argv) == 1
    flag = argv[-1].split("=")[0]
    assert capsys.readouterr() == ("", f"error: argument {flag}: expected one argument\n")
