"""Command-line front end for the scattering library.

Commands: amplitudes (scalar barrier), filter (pinned-spin impurity), kondo
(exchange impurity), concentrate (pair concentration through either
impurity), entangle-particles, entangle-impurities, sweep (grid evaluation
of any protocol), selftest (deterministic invariant checks).

Output formats: table (human-oriented, 6 decimal places), csv (RFC-4180,
CRLF row endings, 12 significant digits), json (complex values as {re, im}
objects, floats rounded to 12 significant digits).  Identical invocations
produce byte-identical csv/json streams; nothing time- or host-dependent is
written to them.  Sweep's argmax summary goes to stderr in csv/json modes
so the data stream stays exactly the record table.

Parameters: the protocol commands' flags derive from protocols.PARAMS, as
do run_protocol and sweep, and every flag, config and sweep --fixed value
is read by its parameter's reader (a number in a config file's "fixed"
object goes to the protocol's checks unread, an integer as its float).
Precedence: command-line flag, then --config JSON file (same key names as
the flags without the leading dashes), then built-in defaults; the default
output format alone may also come from the SPINSCATTER_FORMAT environment
variable (weaker than flag and config file).

Exit status: 0 success; 1 input, usage, or I/O error with a one-line
"error: ..." diagnostic on stderr; 2 internal invariant violation with a
one-line "internal fault: ..." diagnostic on stderr.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import (
    DEFAULT_EXCHANGE_EIGENVALUES,
    EXCHANGE_EIGENVALUE_PRESETS,
    FixedImpurity,
    KondoImpurity,
    _exchange_operators,
    embed,
    exchange_matrix,
    fixed_filter_operators,
    kondo_channel_amplitudes,
    kondo_operators,
)
from .errors import InternalFaultError
from .protocols import (
    _BY_KEY,
    PARAMS,
    GridSpec,
    Param,
    _read,
    _to_axis,
    _to_choice,
    _to_eigenvalues,
    _to_float,
    _to_positive,
    _to_str,
    concentrate_fixed,
    concentrate_kondo,
    entangle_impurities,
    entangle_particles,
    optimal_coupling_fixed,
    run_protocol,
    sweep,
)
from .scattering import (
    TwoImpurityGeometry,
    matrix_amplitudes,
    scalar_amplitudes,
    two_impurity_exact,
)

_FORMATS = ("table", "csv", "json")
_FORMAT_ENV = "SPINSCATTER_FORMAT"


@dataclass(frozen=True)
class RunConfig:
    """Fully validated invocation: command, typed parameters, output routing."""

    command: str
    params: dict
    fmt: str
    output: str | None


# ---------------------------------------------------------------------------
# Number formatting (the byte-exact part of the output contract)

def _f12(x: float) -> str:
    """12-significant-digit text for CSV cells."""
    return format(float(x), ".12g")


def _f6(x) -> str:
    return "-" if x is None else f"{float(x):.6f}"


def _c6(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """x rounded to 12 significant digits, written as json writes a float."""
    text = "%.12g" % x
    if "." in text and "e" not in text:
        return text  # already the repr of the rounded float
    return _NON_FINITE.get(text) or repr(float(text))


def _json(v, nl: str = "\n") -> str:
    """json.dumps(v, indent=2) at the line break nl, floats rounded to 12
    significant digits, a complex number as its {"re", "im"} object and an
    array as its nested lists.

    Written directly: with indent, json.dumps runs the pure-Python encoder.
    Dict keys are strings; tuples are written as lists.
    """
    if isinstance(v, float):
        return _json_float(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    inner = nl + "  "
    if isinstance(v, complex):
        return f'{{{inner}"re": {_json_float(v.real)},{inner}"im": {_json_float(v.imag)}{nl}}}'
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(x, inner)}" for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    return json.dumps(v)  # None, bool, int


def _json_text(obj) -> str:
    return _json(obj) + "\n"


# ---------------------------------------------------------------------------
# Table emission (sweep tables and anything record-shaped)
#
# Tables are carried column by column.  In csv, a column of floats (a float
# array or a sequence of floats) is formatted by one %-template pass over the
# whole table, since '%.12g' % x equals format(x, '.12g') for every float;
# every other cell is formatted on its own.  A float array that repeats its
# values, at most half of them distinct (a sweep's grid columns), has each
# distinct bit pattern formatted once and its texts gathered (_repeated_texts).
# JSON is written by the same one-pass template (_json_table), its other
# cells by the single-call writer _json.  The single-call commands pass
# their small tables as lists, which skip the repeated-value search.

def _column(values) -> tuple[bool, list]:
    """Whether every cell is a float, and the cells as a list."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return True, values.tolist()
    cells = list(values)
    return all(isinstance(v, float) for v in cells), cells


def _repeated_texts(values):
    """The '%.12g' cells of a float array whose values repeat, or None.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 keep their
    own texts.  None when more than half the values are distinct, or when
    the first value does not recur, which spares the sort of a column that
    is all but surely distinct (a swept column repeats its first value
    whenever another axis has two or more points); those columns, and every
    sequence of cells, take the direct '%.12g' pass, which writes the same
    text.
    """
    bits = values.view(np.uint64)
    if not (bits[1:] == bits[:1]).any():
        return None
    keys, inverse = np.unique(bits, return_inverse=True)
    if 2 * len(keys) > len(values):
        return None
    texts = np.array(["%.12g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _csv_field(v, lone: bool) -> str:
    """A cell as csv.writer writes it (default dialect, minimal quoting).

    lone marks the only field of a row, which csv.writer quotes when empty.
    """
    text = "" if v is None else _f12(v) if isinstance(v, float) else str(v)
    if any(c in text for c in ',"\r\n') or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_columns(columns, fmt: str) -> str:
    """Serialize a table given as {fieldname: column} as csv, json or text.

    Columns are equally long; each is a 1-d float array or a sequence of
    cells (float, int, str or None), and the mapping's order is the column
    order.  CSV is RFC-4180 with CRLF row endings and 12-significant-digit
    floats; JSON is an array of flat objects with floats rounded to 12
    significant digits; table keeps 6 decimal places and writes None as "-".
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format: {fmt!r}")
    names = tuple(columns)
    floats, cols = zip(*map(_column, columns.values())) if columns else ((), ())
    if len(set(map(len, cols))) > 1:
        raise ValueError("columns must be equally long")
    rows = len(cols[0]) if cols else 0

    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(names)
        fields, cells = [], []
        for values, c, f in zip(columns.values(), cols, floats):
            texts = _repeated_texts(values) if f and isinstance(values, np.ndarray) else None
            if not f:
                texts = [_csv_field(v, len(cols) == 1) for v in c]
            fields.append("%.12g" if texts is None else "%s")
            cells.append(c if texts is None else texts)
        template = ",".join(fields) + "\r\n"
        buf.write(template * rows % tuple(chain.from_iterable(zip(*cells))))
        return buf.getvalue()
    if fmt == "json":
        return _json_table(names, cols, floats, rows)
    texts = [[_f6(v) if isinstance(v, float) or v is None else str(v) for v in c] for c in cols]
    template = "  ".join(f"%-{max([len(n), *map(len, t)])}s" for n, t in zip(names, texts))
    return "".join((template % row).rstrip() + "\n" for row in chain([names], zip(*texts)))


def _json_table(names, cols, floats, rows) -> str:
    """json.dumps(rows, indent=2) of a table, floats rounded to 12 digits.

    Written by one %-template pass, as the csv is: a column of finite
    floats is rounded by one '%.12g' pass and written with %r, which is how
    json writes a finite float; every other cell, non-finite floats
    included, is written on its own by _json.
    """
    if not rows:
        return "[]\n"
    fields, cells = [], []
    for c, f in zip(cols, floats):
        if f and all(map(math.isfinite, c)):
            fields.append("%r")
            cells.append(map(float, ("%.12g " * rows % tuple(c)).split()))
        else:
            fields.append("%s")
            cells.append(map(_json, c))
    row = "  {\n" + ",\n".join(f"    {_json(n).replace('%', '%%')}: {f}"
                                for n, f in zip(names, fields)) + "\n  }"
    return "[\n" + ",\n".join([row] * rows) % tuple(chain.from_iterable(zip(*cells))) + "\n]\n"


def emit_records(records, fmt: str, fieldnames=None) -> str:
    """Serialize flat records (mapping-like rows with identical keys).

    fieldnames fixes the column order (required when records is empty).
    The rows are regrouped by column and written by emit_columns.
    """
    rows = list(records)
    if fieldnames is None:
        if not rows:
            raise ValueError("fieldnames are required to emit an empty record list")
        fieldnames = tuple(rows[0].keys())
    fieldnames = tuple(fieldnames)
    if any(tuple(row.keys()) != fieldnames for row in rows):
        raise ValueError("records are not homogeneous with the given fieldnames")
    return emit_columns({name: [row[name] for row in rows] for name in fieldnames}, fmt)


# ---------------------------------------------------------------------------
# Command handlers (params arrive typed and underscore-keyed)

def _require_finite(values: dict):
    """Refuse to print a non-finite figure: xi = coupling/k overflows when k is tiny."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows to {value} (coupling/k exceeds the float range)")


def _cmd_amplitudes(p, fmt):
    amps = scalar_amplitudes(p["r"], p["k"])
    _require_finite({"xi": amps.xi})
    s, r = amps.transmission, amps.reflection
    values = (
        ("S", s), ("R", r),
        ("abs_S2", abs(s) ** 2), ("abs_R2", abs(r) ** 2), ("xi", amps.xi),
    )
    if fmt == "json":
        return _json_text(dict(values))
    if fmt == "csv":
        row = {"S_re": s.real, "S_im": s.imag, "R_re": r.real, "R_im": r.imag,
               "abs_S2": abs(s) ** 2, "abs_R2": abs(r) ** 2, "xi": amps.xi}
        return emit_records([row], "csv", tuple(row.keys()))
    return emit_columns({"name": [name for name, _ in values],
                         "value": [_c6(v) if isinstance(v, complex) else _f6(v) for _, v in values]},
                        "table")


def _operator_text(ops, fmt, extra_json=None, channel=None):
    t, r = ops.transmission, ops.reflection
    if fmt == "json":
        obj = {**(extra_json or {}), "transmission": t, "reflection": r}
        if channel is not None:
            obj["channel_amplitudes"] = channel
        return _json_text(obj)
    if fmt == "csv":
        n, m = t.shape
        return emit_columns({
            "row": [i for i in range(n) for _ in range(m)], "col": [*range(m)] * n,
            "T_re": t.real.ravel().tolist(), "T_im": t.imag.ravel().tolist(),
            "R_re": r.real.ravel().tolist(), "R_im": r.imag.ravel().tolist(),
        }, "csv")
    lines = ["transmission:"]
    lines += ["  " + "  ".join(map(_c6, row)) for row in t.tolist()]
    lines.append("reflection:")
    lines += ["  " + "  ".join(map(_c6, row)) for row in r.tolist()]
    if channel is not None:
        lines.append("channel amplitudes:")
        lines.append("  " + "  ".join(_c6(s) for s in channel))
    return "\n".join(lines) + "\n"


def _cmd_filter(p, fmt):
    spec = FixedImpurity(p["r"], p.get("axis", (0.0, 0.0, 1.0)))
    ops = fixed_filter_operators(spec, p["k"])
    return _operator_text(ops, fmt, {"k": p["k"], "r": p["r"], "axis": spec.axis})


def _cmd_kondo(p, fmt):
    spec = KondoImpurity(p["r"], p.get("eigenvalues", DEFAULT_EXCHANGE_EIGENVALUES))
    channel = kondo_channel_amplitudes(spec, p["k"])
    ops = _exchange_operators(channel)
    return _operator_text(ops, fmt, {"k": p["k"], "r": p["r"], "eigenvalues": spec.eigenvalues},
                          channel)


_OUTCOME_FIELDS = ("branch", "probability", "conditional_probability",
                   "entropy_bits", "concurrence")


def _outcome_rows(result):
    return [
        {"branch": o.branch_label,
         "probability": o.branch_probability,
         "conditional_probability": o.conditional_probability,
         "entropy_bits": o.entropy_bits,
         "concurrence": o.concurrence}
        for o in result.outcomes
    ]


def _render_protocol(result, fmt) -> str:
    _require_finite(result.metadata)
    rows = _outcome_rows(result)
    if fmt == "json":
        for o, row in zip(result.outcomes, rows):
            row["state"] = None if o.post_state is None else {
                "labels": o.post_state.labels, "amplitudes": o.post_state.amplitudes}
        return _json_text({
            "outcomes": rows,
            "tree": [{"branch": b.label, "probability": b.probability} for b in result.tree.branches],
            "total_probability": result.tree.total_probability(),
            "metadata": result.metadata,
        })
    if fmt == "csv":
        return emit_records(rows, "csv", _OUTCOME_FIELDS)
    lines = ["outcomes:"]
    lines += ["  " + line for line in emit_records(rows, "table", _OUTCOME_FIELDS).splitlines()]
    lines.append("tree:")
    for b in result.tree.branches:
        lines.append(f"  {b.label}  {b.probability:.6f}")
    lines.append(f"  total  {result.tree.total_probability():.6f}")
    if result.metadata:
        lines.append("metadata:")
        for name, value in result.metadata.items():
            lines.append(f"  {name}  {value:.6f}")
    return "\n".join(lines) + "\n"


# The protocol commands, each named after the protocol it runs; concentrate
# runs either concentrate protocol, chosen by --impurity.
_IMPURITIES = {"fixed": "concentrate", "kondo": "concentrate-kondo"}
_PROTOCOL_COMMANDS = {"concentrate": tuple(_IMPURITIES.values()),
                      **{name: (name,) for name in PARAMS if name not in _IMPURITIES.values()}}


def _cmd_protocol(command, p, fmt):
    protocol = _IMPURITIES[p.pop("impurity")] if "impurity" in p else command
    return _render_protocol(run_protocol(protocol, p), fmt)


def _cmd_sweep(p, fmt):
    result = sweep(p["protocol"], p["grid"], p.get("fixed"), p.get("objective", "entropy"))
    text = emit_columns(result.columns, fmt)
    argmax = "argmax: " + "  ".join(
        f"{k}={v if isinstance(v, str) else _f12(v)}" for k, v in result.argmax.items()
    )
    if fmt == "table":
        return text + argmax + "\n"
    print(argmax, file=sys.stderr)
    return text


# ---------------------------------------------------------------------------
# Selftest: deterministic invariant checks, exit 2 on any violation

def _check_scalar_unitarity():
    dev = 0.0
    for xi in np.linspace(-10.0, 10.0, 401):
        amps = scalar_amplitudes(float(xi), 1.0)
        dev = max(dev, abs(abs(amps.transmission) ** 2 + abs(amps.reflection) ** 2 - 1.0))
    return dev, 1e-12


def _check_matrix_flux():
    rng = np.random.default_rng(8201)
    dev = 0.0
    for i in range(30):
        d = (2, 4, 8)[i % 3]
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = (m + m.conj().T) / 2.0
        ops = matrix_amplitudes(m, float(rng.uniform(0.5, 5.0)))
        t, r = ops.transmission, ops.reflection
        dev = max(dev, float(np.max(np.abs(
            t.conj().T @ t + r.conj().T @ r - np.eye(d)
        ))))
    return dev, 1e-11


def _check_zero_coupling_identity():
    dev = 0.0
    for ev in EXCHANGE_EIGENVALUE_PRESETS.values():
        t = kondo_operators(KondoImpurity(0.0, ev), 1.7).transmission
        dev = max(dev, float(np.max(np.abs(t - np.eye(4)))))
    t = fixed_filter_operators(FixedImpurity(0.0), 2.3).transmission
    dev = max(dev, float(np.max(np.abs(t - np.eye(2)))))
    return dev, 1e-15


def _check_channel_construction():
    rng = np.random.default_rng(314)
    dev = 0.0
    for _ in range(20):
        r = float(rng.uniform(-2.0, 2.0))
        k = float(rng.uniform(0.5, 4.0))
        for ev in EXCHANGE_EIGENVALUE_PRESETS.values():
            direct = kondo_operators(KondoImpurity(r, ev), k).transmission
            solved = matrix_amplitudes(r * exchange_matrix(ev), k).transmission
            dev = max(dev, float(np.max(np.abs(direct - solved))))
    return dev, 1e-12


def _check_two_impurity_conservation():
    rng = np.random.default_rng(99)
    geoms = []
    for _ in range(10):
        m1 = embed(float(rng.uniform(-1.5, 1.5)) * exchange_matrix(), 3, (2, 1))
        m2 = embed(float(rng.uniform(-1.5, 1.5)) * exchange_matrix(), 3, (2, 0))
        geoms.append(TwoImpurityGeometry(float(rng.uniform(0.3, 3.0)),
                                         float(rng.uniform(0.5, 4.0)), m1, m2))
    for coupling in (1e8, 1e10):  # strong coupling: (I + iM/k) has condition number ~coupling
        geoms.append(TwoImpurityGeometry(1.0, 1.0, embed(coupling * exchange_matrix(), 3, (2, 1)),
                                         embed(coupling * exchange_matrix(), 3, (2, 0))))
    dev = 0.0
    for geom in geoms:
        res = two_impurity_exact(geom)
        t, r = res.transmission, res.reflection
        dev = max(dev, float(np.max(np.abs(
            t.conj().T @ t + r.conj().T @ r - np.eye(8)
        ))))
    return dev, 1e-10


def _check_concentration_optimum():
    a, b = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    r = optimal_coupling_fixed(a, b, 1.0)
    res = concentrate_fixed(a, b, 1.0, r)
    return max(abs(r - 0.5), abs(res.outcomes[0].entropy_bits - 1.0)), 1e-9


def _check_tree_completeness():
    rng = np.random.default_rng(4242)
    dev = 0.0
    for i in range(12):
        a = math.sqrt(float(rng.uniform(0.05, 0.5)))
        b = math.sqrt(1.0 - a * a)
        k = float(rng.uniform(0.5, 3.0))
        r = float(rng.uniform(0.1, 2.0))
        results = (
            concentrate_fixed(a, b, k, r),
            concentrate_kondo(a, b, k, KondoImpurity(r)),
            entangle_particles(k, KondoImpurity(r)),
            entangle_impurities(k, KondoImpurity(r), KondoImpurity(0.7 * r),
                                mode=("exact" if i % 2 else "first-order")),
        )
        for res in results:
            dev = max(dev, abs(res.tree.total_probability() - 1.0))
    return dev, 1e-10


_SELFTEST_CHECKS = (
    ("scalar unitarity", _check_scalar_unitarity),
    ("matrix barrier flux", _check_matrix_flux),
    ("zero-coupling identity", _check_zero_coupling_identity),
    ("channel construction cross-check", _check_channel_construction),
    ("two-impurity conservation", _check_two_impurity_conservation),
    ("concentration optimum", _check_concentration_optimum),
    ("event-tree completeness", _check_tree_completeness),
)


def _cmd_selftest(p, fmt):
    lines = []
    for name, check in _SELFTEST_CHECKS:
        dev, bound = check()
        if not math.isfinite(dev) or dev >= bound:
            raise InternalFaultError(
                f"selftest {name}: deviation {dev:.3e} not below {bound:.0e}"
            )
        lines.append(f"PASS {name} (max deviation {dev:.3e} < {bound:.0e})")
    lines.append(f"selftest: {len(_SELFTEST_CHECKS)} checks passed")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "amplitudes": _cmd_amplitudes,
    "filter": _cmd_filter,
    "kondo": _cmd_kondo,
    **{command: functools.partial(_cmd_protocol, command) for command in _PROTOCOL_COMMANDS},
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


# ---------------------------------------------------------------------------
# Argument parsing, config-file merge, typed conversion

class _Parser(argparse.ArgumentParser):
    """argparse with the exit-status contract: usage problems exit 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _to_grid(name, value):
    grids = []
    for text in value if isinstance(value, list) else [value]:
        parts = str(text).split(":")
        if len(parts) not in (4, 5):
            raise ValueError(
                f"--{name} {text!r}: expected name:start:stop:points[:scale]"
            )
        try:
            points = int(parts[3])
        except ValueError:
            raise ValueError(f"--{name} {text!r}: unparsable point count {parts[3]!r}") from None
        scale = parts[4] if len(parts) == 5 else "linear"
        try:
            grids.append(GridSpec(parts[0], _to_float(name, parts[1]),
                                  _to_float(name, parts[2]), points, scale))
        except ValueError as exc:
            raise ValueError(f"--{name} {text!r}: {exc}") from None
    return grids


def _to_fixed(name, value):
    """Pinned parameters as name=value texts or a config file's "fixed"
    object; each value is read as its own flag reads it."""
    pairs = []
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, dict):
            pairs += item.items()
        elif isinstance(item, str) and "=" in item:
            pairs.append(item.split("=", 1))
        else:
            raise ValueError(f"--{name} {str(item)!r}: expected name=value")
    fixed = {}
    for key, raw in pairs:
        key = str(key).replace("-", "_")
        param = _BY_KEY.get(key)  # a key no protocol takes is refused by sweep
        try:
            fixed[key] = raw if param is None else _read(param, raw)
        except ValueError as exc:
            raise ValueError(f"--{name} {f'{key}={raw}'!r}: {exc}") from None
    return fixed


def _protocol_flags(protocols):
    """The flagged parameters of a command that runs these protocols: those
    every protocol takes, --impurity where there are several, then the rest."""
    entries = {}
    for name in protocols:
        for param in PARAMS[name]:
            if param.help is not None:
                entries.setdefault(param.flag, param)
    shared = [param for param in entries.values()
              if all(param.flag in {p.flag for p in PARAMS[name]} for name in protocols)]
    if len(protocols) > 1:
        shared.append(Param("impurity", _to_choice(tuple(_IMPURITIES)),
                            help="impurity kind (default fixed)"))
    return (*shared, *(param for param in entries.values() if param not in shared))


# Flags of every command, and of each command its parameters in flag order;
# RunConfig.params holds their values by key.
_COMMON = {"config": "path of a JSON file holding the same keys as the flags",
           "format": "output format: table, csv, or json",
           "output": "write the result to this file instead of stdout"}

_K = Param("k", _to_positive, required=True, help="wave number (positive)")
_COMMANDS = {
    "amplitudes": (_K, Param("r", _to_float, required=True, help="delta-barrier coupling strength")),
    "filter": (_K, Param("r", _to_float, required=True, help="bare filter coupling"),
               Param("axis", _to_axis, help="impurity spin axis as x,y,z (default 0,0,1)")),
    "kondo": (_K, Param("r", _to_float, required=True, help="exchange coupling"),
              Param("eigenvalues", _to_eigenvalues,
                    help="channel eigenvalue preset name or four comma-separated values")),
    **{command: _protocol_flags(protocols) for command, protocols in _PROTOCOL_COMMANDS.items()},
    "sweep": (
        Param("protocol", _to_str, required=True,
              help="protocol name, e.g. concentrate or entangle-particles"),
        Param("grid", _to_grid, required=True, help="swept parameter as name:start:stop:points[:scale]"),
        Param("fixed", _to_fixed, help="pinned parameter as name=value"),
        Param("objective", _to_choice(("entropy", "probability")), help="argmax objective"),
    ),
    "selftest": (),
}
# flags that may be given more than once; their readers take the list
_REPEATED = (_to_grid, _to_fixed)


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argparse tree of every command, built on first use and then shared.

    Returns the root parser and the subparser of each command.  Parsing
    leaves the tree as it was: each parse_args call fills a new Namespace
    and append actions copy their lists, so calls in one process see no
    state from earlier calls.
    """
    parser = _Parser(prog="spinscatter",
                     description="Delta-potential spin scattering and entanglement protocols.")
    subs = parser.add_subparsers(dest="command", metavar="command")
    commands = {}
    for command, table in _COMMANDS.items():
        sub = commands[command] = subs.add_parser(command, help=f"run the {command} command")
        for param in table:
            sub.add_argument(f"--{param.flag}", dest=param.flag, default=None, help=param.help,
                             **({"action": "append"} if param.read in _REPEATED else {}))
        for flag, help_text in _COMMON.items():
            sub.add_argument(f"--{flag}", dest=f"common_{flag}", default=None, help=help_text)
    return parser, commands


def _load_config(parser, path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a single JSON object")
    return data


def parse_args(argv=None) -> RunConfig:
    """Parse flags (+ optional config file) into a validated RunConfig.

    Exits with status 1 and a one-line "error: ..." diagnostic on any usage
    problem; --help exits with status 0.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # the root parser would hand every token after the command to its
        # subparser unchanged; skip its own pass over them
        command = argv[0]
        ns = commands[command].parse_args(argv[1:])
    else:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.error(f"missing command (one of: {', '.join(_COMMANDS)})")
        command = ns.command
    table = _COMMANDS[command]

    file_values = {}
    if ns.common_config is not None:
        file_values = _load_config(parser, ns.common_config)
        known = {param.flag for param in table} | set(_COMMON) - {"config"}
        for key in file_values:
            if key not in known:
                parser.error(f"unknown config key {key!r} for command {command}")

    params = {}
    try:
        for param in table:
            value = getattr(ns, param.flag)
            if value is None:
                value = file_values.get(param.flag)
            if value is not None:
                params[param.key] = param.read(param.flag, value)
    except ValueError as exc:
        parser.error(str(exc))

    for param in table:
        if param.required and param.key not in params:
            parser.error(f"missing required parameter --{param.flag}")

    fmt = ns.common_format or file_values.get("format") \
        or os.environ.get(_FORMAT_ENV) or "table"
    if fmt not in _FORMATS:
        parser.error(f"--format must be one of: {', '.join(_FORMATS)} (got {fmt!r})")
    output = ns.common_output or file_values.get("output")
    if output is not None and not isinstance(output, str):
        parser.error(f"--output must be a path, got {output!r}")
    return RunConfig(command, params, fmt, output)


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit status."""
    try:
        handler = _HANDLERS[config.command]
        text = handler(dict(config.params), config.fmt)
        if config.output:
            with open(config.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalFaultError as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return run(config)
