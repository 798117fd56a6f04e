"""The single-call json writer against json.dumps(indent=2) of rounded values.

cli._json_text writes its json directly.  The reference here is the route
it replaced: every float rounded to 12 significant digits, each complex
number turned into its {"re", "im"} object, arrays walked element by
element, and the result written by json.dumps(..., indent=2).
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscatter import cli, run_protocol
from spinscatter.channels import EXCHANGE_EIGENVALUE_PRESETS


def _round12(x) -> float:
    return float(format(float(x), ".12g"))


def _cobj(z) -> dict:
    return {"re": _round12(z.real), "im": _round12(z.imag)}


def _old_route(v):
    """v as the callers built it for json.dumps before the direct writer."""
    if isinstance(v, float):
        return _round12(v)
    if isinstance(v, complex):
        return _cobj(v)
    if isinstance(v, np.ndarray):
        return [_old_route(x) for x in v]
    if isinstance(v, dict):
        return {k: _old_route(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_old_route(x) for x in v]
    return v


def _reference_text(obj) -> str:
    return json.dumps(_old_route(obj), indent=2) + "\n"


# where '%.12g' and repr switch notation (1e12 and 1e16), the ends of the
# float range, subnormals, signed zeros and the non-finite values
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310, 1e308, -1e308,
           1.7976931348623157e308, math.nan, math.inf, -math.inf, 1e12, -1e12, 999999999999.5,
           1e15, 1e16, 9999999999999998.0, 123456789012345.6, 1e-4, 9.99999999999e-5]
FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from(SPECIAL),
    st.floats(1e12, 1e16) | st.floats(-1e16, -1e12),
    st.integers(-2**64, 2**64).map(float),
)
COMPLEX = st.builds(complex, FLOATS, FLOATS)
ARRAYS = st.one_of(
    st.lists(COMPLEX, max_size=8).map(lambda v: np.array(v, dtype=complex)),
    st.tuples(st.integers(0, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(COMPLEX, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda v: np.array(v, dtype=complex).reshape(shape))),
)
TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\r\té €\U0001f600') | st.characters(),
               max_size=8)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT,
    FLOATS, FLOATS.map(np.float64), COMPLEX, COMPLEX.map(np.complex128), ARRAYS,
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(VALUES)
def test_writer_matches_json_dumps_of_rounded_values(obj):
    assert cli._json_text(obj) == _reference_text(obj)


def test_writer_edge_values():
    assert cli._json_text({}) == "{}\n" and cli._json_text(()) == "[]\n"
    assert cli._json_text([-0.0, 1e16, 5e-324, math.nan, -math.inf, 1 / 3]) == (
        "[\n  -0.0,\n  1e+16,\n  5e-324,\n  NaN,\n  -Infinity,\n  0.333333333333\n]\n")
    assert cli._json_text({"z": np.array([[1 - 2j]]), "s": 'a"\\é'}) == (
        '{\n  "z": [\n    [\n      {\n        "re": 1.0,\n        "im": -2.0\n      }\n    ]\n  ],\n'
        '  "s": "a\\"\\\\\\u00e9"\n}\n')


def test_a_negative_exponent_is_written_as_the_repr_of_its_rounded_float():
    # seeded values on both sides of the smallest normal float, subnormals,
    # and the negative exponents above them, against the definition that
    # always went through the float: repr(float('%.12g' % x))
    rng = np.random.default_rng(1904)
    tiny = np.finfo(float).tiny
    values = np.concatenate([
        tiny * (1.0 + rng.uniform(-1e-3, 1e-3, 20_000)), tiny * rng.uniform(0.0, 1.0, 20_000),
        np.arange(1, 2_000) * 5e-324, 10.0 ** rng.uniform(-308.0, -4.0, 40_000)])
    values *= rng.choice([-1.0, 1.0], len(values))
    wrong = [x for x in values.tolist() if cli._json_float(x) != repr(float("%.12g" % x))]
    assert wrong == []
    assert cli._json_float(5e-324) == "5e-324" and cli._json_float(-tiny) == "-2.22507385851e-308"


# ---------------------------------------------------------------------------
# Protocol results, rendered by the writer and by the route it replaced

def _old_render_json(result) -> str:
    outcomes = []
    for o in result.outcomes:
        row = {"branch": o.branch_label, "probability": o.branch_probability,
               "conditional_probability": o.conditional_probability,
               "entropy_bits": o.entropy_bits, "concurrence": o.concurrence}
        entry = {k: (_round12(v) if isinstance(v, float) else v) for k, v in row.items()}
        entry["state"] = None if o.post_state is None else {
            "labels": list(o.post_state.labels),
            "amplitudes": [_cobj(z) for z in o.post_state.amplitudes],
        }
        outcomes.append(entry)
    return json.dumps({
        "outcomes": outcomes,
        "tree": [{"branch": b.label, "probability": _round12(b.probability)}
                 for b in result.tree.branches],
        "total_probability": _round12(result.tree.total_probability()),
        "metadata": {k: _round12(v) for k, v in result.metadata.items()},
    }, indent=2) + "\n"


def _protocol_call(rng, i):
    """The i-th seeded call: protocols and modes in turn; zero couplings,
    product inputs and aligned initial states give null branches."""
    bits = format(int(rng.integers(8)), "03b")
    r = 0.0 if rng.random() < 0.2 else float(rng.uniform(-3.0, 3.0))
    preset = str(rng.choice(list(EXCHANGE_EIGENVALUE_PRESETS)))
    k = float(rng.uniform(0.3, 3.0))
    kind = i % 5
    if kind < 2:
        a = float(rng.choice([0.0, 1.0])) if rng.random() < 0.15 else float(rng.uniform(0.05, 0.95))
        p = {"a": a, "k": k, "a_phase": float(rng.uniform(-3, 3))}
        if kind == 0:
            p.update(r=abs(r), axis_theta=float(rng.uniform(0.0, 3.0)))
            return "concentrate", p
        return "concentrate-kondo", {**p, "r": r, "eigenvalues": preset}
    if kind == 2:
        return "entangle-particles", {"k": k, "r": r, "eigenvalues": preset, "initial": bits}
    return "entangle-impurities", {"k": k, "r1": r, "r2": float(rng.uniform(-3.0, 3.0)),
                                   "half_separation": float(rng.uniform(0.2, 3.0)),
                                   "mode": ("first-order", "exact")[kind - 3], "initial": bits}


def test_protocol_results_render_as_before():
    rng = np.random.default_rng(20261018)
    protocols, nulls = set(), 0
    for i in range(300):
        protocol, params = _protocol_call(rng, i)
        result = run_protocol(protocol, params)
        protocols.add((protocol, params.get("mode")))
        nulls += sum(o.post_state is None for o in result.outcomes)
        assert cli._render_protocol(result, "json") == _old_render_json(result), (protocol, params)
    assert len(protocols) == 5 and nulls > 0


# ---------------------------------------------------------------------------
# No single-call json output goes through json.dumps(..., indent=...)

SINGLE_CALLS = (
    ["amplitudes", "--k", "1.3", "--r", "0.4"],
    ["filter", "--k", "1.3", "--r", "0.4", "--axis", "0,0.6,0.8"],
    ["kondo", "--k", "1.3", "--r", "0.4"],
    ["concentrate", "--a-coeff", "0.6", "--k", "1.3"],
    ["concentrate", "--impurity", "kondo", "--a-coeff", "0.6", "--k", "1.3", "--r", "0.4"],
    ["entangle-particles", "--k", "1.3", "--r", "0.4"],
    ["entangle-impurities", "--k", "1.3", "--r1", "0.4", "--r2", "0.7"],
    ["entangle-impurities", "--k", "1.3", "--r1", "0.4", "--r2", "0.7", "--mode", "exact"],
)


def test_single_call_json_skips_the_indenting_encoder(monkeypatch):
    indented = []
    dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        if "indent" in kwargs:
            indented.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    for argv in SINGLE_CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", "json"]) == 0
        assert json.loads(out.getvalue())
    assert indented == []
