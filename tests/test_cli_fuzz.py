"""Config-file values of every type, for every command and config key.

Each example writes one valid call of a command to a config file, replaces
one key's value with a JSON value of any type (number, bool, null, string,
list, object) and runs cli.main in process.  The call must end in exit 0,
or in exit 1 with exactly one stderr line starting "error: "; it must not
raise, and file descriptors 0-2 must stay open.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinscatter import cli

# a valid config of each command; the drawn key's value replaces its entry
BASES = {
    "amplitudes": {"k": 1.0, "r": 0.5},
    "filter": {"k": 1.0, "r": 0.5},
    "kondo": {"k": 1.0, "r": 0.5},
    "concentrate": {"a-coeff": 0.5, "k": 1.0},
    "entangle-particles": {"k": 1.0, "r": 0.5},
    "entangle-impurities": {"k": 1.0, "r1": 0.5, "r2": 0.7},
    "sweep": {"protocol": "concentrate", "grid": ["r:0:1:3"], "fixed": {"a": 0.5}},
    "selftest": {},
}
KEYS = [(command, key) for command, table in cli._COMMANDS.items()
        for key in [param.flag for param in table] + ["format", "output"]]

# text each reader takes or refuses in a telling way
WORDS = ["", "x", "0", "1", "-1", "2", "1e-320", "1e308", "inf", "nan", "0,0,1", "1,2",
         "1,1,-2,0", "default", "bogus", "exact", "first-order", "fixed", "kondo", "011", "01",
         "entropy", "probability", "concentrate", "entangle-impurities", "r:0:1:2", "mode:0:1:2",
         "a=0.5", "axis=1,2", "eigenvalues=standard-pauli", "k=0", "csv", "json", "table"]
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from(WORDS) | st.text(max_size=8))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "k", "r", "axis", "eigenvalues", "initial", "mode",
                                       "half-separation", "bogus"]) | st.text(max_size=4),
                      inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=1500, deadline=None, database=None)
@given(st.sampled_from(KEYS), VALUES)
def test_every_config_value_gives_a_result_or_one_error_line(key, value):
    command, name = key
    # an output path names a file in the working directory, never elsewhere
    assume(not (name == "output" and isinstance(value, str) and "/" in value))
    config = {**BASES[command], name: value}
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", "config.json"])
    for fd in (0, 1, 2):
        os.fstat(fd)
    text = err.getvalue()
    if code != 0:
        assert code == 1 and text.startswith("error: ") and text.count("\n") == 1 \
            and text.endswith("\n"), (config, code, text)
