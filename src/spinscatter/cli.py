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
is read by protocols._read, as run_protocol and sweep read theirs.  The
readers only parse text; any other value (a config file's number, bool,
null or list) is read as the library reads it, and the kernel's rule, or
sweep's, refuses a bad one with the same message on every route.
Precedence: command-line flag, then --config JSON file (same key names as
the flags without the leading dashes), then built-in defaults; the default
output format alone may also come from the SPINSCATTER_FORMAT environment
variable (weaker than flag and config file).  A given value counts even
when empty: only an absent or null one is unset, and an empty --format or
--output is refused like any other bad format or unwritable path.  A call that spells out each
flag with its value is read straight from the flag table that the argparse
tree is built from, and builds no tree; argparse handles help,
abbreviations and the usage errors the flag table cannot read, with the
tree built once per process.  main also asks the C library, once per
process, to keep up to 8 MB of the memory a sweep frees, a full kernel
block's arrays, for the next one (importing the package leaves the
allocator alone).

Exit status: 0 success; 1 input, usage, or I/O error with a one-line
"error: ..." diagnostic on stderr; 2 internal invariant violation with a
one-line "internal fault: ..." diagnostic on stderr.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import re
import sys

from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import (
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
    _K,
    _SMALLEST_NORMAL,
    PARAMS,
    GridSpec,
    Param,
    _read,
    _result,
    _run,
    _to_choice,
    _to_eigenvalues,
    _to_float,
    _to_floats,
    _to_str,
    concentrate_fixed,
    concentrate_kondo,
    entangle_impurities,
    entangle_particles,
    optimal_coupling_fixed,
    sweep,
)
from .scattering import (
    TwoImpurityGeometry,
    _Checks,
    _flux_deviation,
    matrix_amplitudes,
    scalar_amplitudes,
    two_impurity_exact,
)
from .tolerances import DEFAULT as TOL

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

_F6 = "%.6f"  # a float in the table format


def _f6(x) -> str:
    return "-" if x is None else _F6 % float(x)


# a complex number z in the table format, as the fields of (z.real, z.imag)
_C6 = "%.6f%+.6fi"


def _c6(z: complex) -> str:
    return _C6 % (z.real, z.imag)


def _c6_lines(a) -> list[str]:
    """The lines of a complex array (n, m): each row's entries by _C6,
    joined by two spaces and indented by two, written in one %-pass."""
    n, m = a.shape
    line = "  " + "  ".join([_C6] * m)
    # a complex128 array read as float64 holds each real part before its imaginary part
    parts = np.ascontiguousarray(a, complex).view(float).ravel().tolist()
    return ("\n".join([line] * n) % tuple(parts)).split("\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """x rounded to 12 significant digits, written as json writes a float."""
    text = "%.12g" % x
    # already its repr with a point and no exponent, or with e- where x is normal
    if "e" not in text and "." in text or "e-" in text and abs(x) >= _SMALLEST_NORMAL:
        return text
    return _NON_FINITE.get(text) or repr(float(text))


def _json_str(text: str) -> str:
    """A str as _json_fields writes it: its json string, each '%' doubled."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _json(v, nl: str = "\n") -> str:
    """json.dumps(v, indent=2) at the line break nl, floats rounded to 12
    significant digits, a complex number as its {"re", "im"} object and an
    array as its nested lists.

    Written directly: with indent, json.dumps runs the pure-Python encoder.
    Dict keys are strings; tuples are written as lists.  The layout is made
    first, with a '%s' field for each float (_json_fields), and every float
    is then written into it in one pass (_json_floats).
    """
    floats = []
    return _json_fields(v, nl, floats) % tuple(_json_floats(floats))


def _json_fields(v, nl, floats) -> str:
    """_json of v with a '%s' field for each float, whose values are appended
    to floats in the order of their fields, and every other '%' doubled.  A
    float or complex array of one or more dimensions is laid out once per
    dimension, not element by element."""
    if isinstance(v, float):
        floats.append(v)
        return "%s"
    if isinstance(v, str):
        return _json_str(v)
    inner = nl + "  "
    if isinstance(v, dict):
        items = [f"{_json_str(k)}: {_json_fields(x, inner, floats)}" for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json_fields(x, inner, floats) for x in v]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if isinstance(v, complex):
        floats += (v.real, v.imag)
        return _json_layout((), True, nl)
    if isinstance(v, np.ndarray):
        if v.ndim and v.dtype.kind in "fc":
            is_complex = v.dtype.kind == "c"
            # a complex128 array read as float64 holds each real part before its imaginary part
            floats += np.ascontiguousarray(v, complex if is_complex else float).view(float).ravel().tolist()
            return _json_layout(v.shape, is_complex, nl)
        return _json_fields(v.tolist(), nl, floats)
    return json.dumps(v).replace("%", "%%")  # None, bool, int


def _json_layout(shape, is_complex, nl) -> str:
    """_json of nested lists of this shape whose elements are floats, or
    complex numbers where is_complex, with a '%s' field for each float."""
    inner = nl + "  "
    if not shape:
        return f'{{{inner}"re": %s,{inner}"im": %s{nl}}}' if is_complex else "%s"
    items = [_json_layout(shape[1:], is_complex, inner)] * shape[0]
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def _json_floats(values) -> list[str]:
    """_json_float of each float of values, by one '%.12g' pass: a text
    with a point and no exponent is already json's, an integral one (no
    point, exponent or letter: below 1e12) takes '.0', as repr writes it,
    and _json_float writes the others (an exponent or a non-finite value)."""
    texts = ("%.12g\0" * len(values) % tuple(values)).split("\0")
    return [t if "." in t and "e" not in t else t + ".0" if "e" not in t and "n" not in t
            else _json_float(x) for t, x in zip(texts, values)]


def _json_text(obj) -> str:
    return _json(obj) + "\n"


# ---------------------------------------------------------------------------
# Table emission (sweep tables and the single-call commands' small tables)
#
# Tables are carried column by column and take one of two routes.  A table
# whose columns are all float arrays (a sweep's) is written as bytes, in csv
# and in json: each column becomes a (rows, width) uint8 block, one row per
# cell and NUL wherever a cell's text is shorter than the block is wide, and
# the blocks and the separators between them are copied into one buffer in
# row order, whose NULs one bytes.translate call deletes (_plane_rows).  A
# float array that repeats its values, at most half of them distinct (a
# sweep's grid columns), has each distinct bit pattern written once and its
# bytes gathered (_repeated_block).  Any other finite float array whose
# values lie almost all in 1e-4 <= |x| < 1 (a sweep's metric columns) is
# written from exact decimal digits, with no string per value: numpy finds
# each value's 12 significant digits as an integer and looks up their bytes
# four digits at a time (_digit_block).  Every other float array takes one
# fixed-width %-pass (_text_block).  Every other table, and every table in
# the table format, has its columns made Python cells once (.tolist() of an
# array) and takes one pass of its format's cell rule: csv writes each cell
# and each name by _csv_field (the names, or a column of strs, as they are
# where one search finds nothing to quote: _csv_texts), except that a column
# of floats alone fills a '%.12g' template field ('%.12g' % x equals
# format(x, '.12g') for every float), and a column of ints alone a '%d'
# field ('%d' % n equals str(n); a bool, written as str writes it, is no int
# here, and a float subclass takes _csv_field, which writes it as '%.12g'
# does); json writes the rows by the single-call writer _json; table writes
# a float by _F6, None as "-" and any other cell by str.  Text cells stay
# Python strings: a byte route would refuse non-ASCII text, delete a NUL
# inside a cell, and measure a column's width in bytes, not characters.

def _text_bytes(texts) -> np.ndarray:
    """ASCII texts as a (len(texts), width) block, NUL past each text's end."""
    cells = np.array(texts, dtype="S")
    return cells.view(np.uint8).reshape(-1, cells.itemsize)


def _repeated_block(values, text):
    """The block of a float column whose values repeat, each value x written
    as text(x), or None.

    Each distinct bit pattern is written once, so -0.0 and 0.0 keep their
    own texts.  None when more than half the values are distinct, or when
    the first or the middle value does not recur, which spares the sort of
    a column that is all but surely mostly distinct (a swept column repeats
    every value whenever another axis has two or more points, while a
    metric column may repeat only the values of one edge of the grid, such
    as r = 0).
    """
    bits = values.view(np.uint64)
    if not (bits[1:] == bits[:1]).any() or np.count_nonzero(bits == bits[len(bits) // 2]) < 2:
        return None
    keys, inverse = np.unique(bits, return_inverse=True)
    if 2 * len(keys) > len(values):
        return None
    return _text_bytes(list(map(text, keys.view(np.float64).tolist()))).take(inverse, axis=0)


# 10^(12+z) scales |x| in [10^-(z+1), 10^-z), which has z zeros after the
# point, to its 12 significant digits before the point; each is exact
_SCALES = 10.0 ** np.arange(12, 16)
# the head of such an x for z = 0..3, positive, then negative, in 8 bytes
# (NUL after its end) read as two uint32 words
_HEADS = np.array([sign + "0." + "0" * z for sign in ("", "-") for z in range(4)],
                  dtype="S8").view(np.uint32).reshape(8, 2)


def _quad_words():
    """The ASCII digits of 0..9999, four bytes read as one uint32 word each:
    as written at 0..9999, and without their trailing zeros (NUL in their
    place) at 10000..19999."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # most significant first
    kept = digits > 0
    for j in (2, 1, 0):  # a digit is kept where it or a later one is not 0
        kept[j] |= kept[j + 1]
    table = np.concatenate([48 + digits, (48 + digits) * kept], axis=1)
    return np.ascontiguousarray(table.T).view(np.uint32)[:, 0]


_QUADS = _quad_words()
# the share of a column that must take the digit path: a value it does not
# take is written by text(x) on its own, after the digit work.  On 3,721
# values in the range, some moved out of it by adding 1, the digit block
# breaks even with the direct pass at a share of about 0.55 in csv and 0.2
# in json (2-core Xeon, best of 150).  The cut stays where it was set for a
# writer that broke even at 0.92: the benchmark grids' metric columns leave
# at most 3.2% of their values, so none lies between the two
_DIGIT_SHARE = 0.95


def _digit_block(values, text):
    """The block of a float array written from its digits, each value x as
    text(x); None when the array holds a non-finite value or too few values
    take the digit path.

    text is '%.12g'.__mod__ or _json_float, which both write 1e-4 <= |x| < 1
    as its sign, '0.', z zeros and its 12 significant digits without their
    trailing zeros.  Those digits are |x| 10^(12+z) rounded to an integer,
    and the rounded product p settles them.  p lies within ulp(p)/2 of the
    exact product (N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2.1), and p < 10^12 < 2^40, so ulp(p) <= 2^-13:
    floor(p) + 1/2 is a float, and d = p - floor(p) - 1/2, a multiple of
    ulp(p), is computed exactly.  Rounding is monotone, so a nonzero d has
    the sign of the exact product's distance from floor(p) + 1/2, while
    d = 0 may hide either sign.  A row of the block holds the head (8
    bytes, NUL after its end) and the digits in three groups of four, each
    looked up as one uint32 word; the trailing zeros of the last group that
    is not all zeros, and every later group, are NUL.  Every other value
    (one whose d is 0, one outside the range, or one that rounds up to
    10^-z) is written by text over its whole row.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1.0)
    if np.count_nonzero(fast) < _DIGIT_SHARE * len(a):
        return None
    z = (a < 0.1).astype(np.intp)
    z += a < 0.01
    z += a < 0.001
    with np.errstate(all="ignore"):  # values outside the range give any number
        p = a * _SCALES[z]
        n = np.floor(p)
        d = (p - n) - 0.5  # exact; where not 0, of the exact product's sign
        fast &= d != 0.0
        digits = n.astype(np.int64)
    digits += d > 0.0
    fast &= digits < 10**12
    slow = np.flatnonzero(~fast)
    if len(slow) > (1.0 - _DIGIT_SHARE) * len(a) or not np.isfinite(values[slow]).all():
        return None
    digits[slow] = 0  # any digits in the table's range; their rows are rewritten
    first, rest = np.divmod(digits, 10**8)
    middle, last = np.divmod(rest, 10**4)
    bare = last == 0  # the groups before it lose their trailing zeros
    block = np.column_stack([
        _HEADS.take(z + 4 * np.signbit(values), axis=0),
        _QUADS.take(first + 10_000 * (bare & (middle == 0))),
        _QUADS.take(middle + 10_000 * bare),
        _QUADS.take(last + 10_000),
    ]).view(np.uint8)
    if len(slow):  # every finite text of '%.12g' and _json_float has at most 19 bytes
        texts = _text_bytes(list(map(text, values[slow].tolist())))
        block[slow] = 0
        block[slow, :texts.shape[1]] = texts
    return block


# the most bytes that '%.12g' and _json_float write for a float, such as
# -1.23456789012e-308 and -1234567890120000.0, and the translation of the
# spaces that pad a cell to that width into NUL
_TEXT_WIDTH = 19
_PAD_TO_NUL = bytes.maketrans(b" ", b"\0")


def _text_block(values, text, field=None):
    """The block of a float array by one %-pass of _TEXT_WIDTH bytes a cell:
    field, where given, writes text(x) of each float x padded with spaces
    (text never writes a space); otherwise each cell is text(x), padded."""
    cells = values.tolist()
    if field is None:
        cells, field = list(map(text, cells)), f"%-{_TEXT_WIDTH}s"
    line = (field * len(cells) % tuple(cells)).encode("ascii").translate(_PAD_TO_NUL)
    return np.frombuffer(line, np.uint8).reshape(len(cells), _TEXT_WIDTH)


def _plane_rows(cols, rows, pieces, text, field=None, tail="") -> bytearray:
    """The rows of a table of float arrays, then tail, as ASCII bytes: each
    value x written as text(x), pieces[i] before column i and pieces[-1]
    after the last column.

    Each column takes the first block of _repeated_block, _digit_block and
    _text_block (with field) that applies.  The blocks and the pieces
    between them are copied in row order into one buffer, whose NULs are
    then deleted: the table is not stacked and transposed first, since each
    further buffer of its size costs its page faults again.
    """
    blocks = []
    for piece, column in zip(pieces, cols):
        block = _repeated_block(column, text)
        if block is None:
            block = _digit_block(column, text)
        blocks += [_ascii(piece), _text_block(column, text, field) if block is None else block]
    blocks.append(_ascii(pieces[-1]))
    width = sum(block.shape[-1] for block in blocks)
    out = bytearray(width * rows + len(tail))
    plane = np.frombuffer(out, np.uint8, width * rows).reshape(rows, width)
    at = 0
    for block in blocks:  # a piece, 1-d, is repeated on every row
        plane[:, at:at + block.shape[-1]] = block
        at += block.shape[-1]
    out[width * rows:] = tail.encode("ascii")
    return out.translate(None, b"\0")


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), np.uint8)


# a character that makes csv.writer quote its field
_CSV_QUOTED = re.compile('[,"\r\n]').search


def _csv_field(v, lone: bool) -> str:
    """A cell as csv.writer writes it (default dialect, minimal quoting).

    lone marks the only field of a row, which csv.writer quotes when empty.
    """
    text = "" if v is None else "%.12g" % v if isinstance(v, float) else str(v)
    if _CSV_QUOTED(text) or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_texts(cells, lone: bool) -> list:
    """_csv_field of each cell: cells that are all strs, none of which needs
    quotes, as they are."""
    try:
        plain = not _CSV_QUOTED("".join(cells)) and (not lone or all(cells))
    except TypeError:  # a cell that is no str
        plain = False
    return cells if plain else [_csv_field(v, lone) for v in cells]


def emit_columns(columns, fmt: str) -> str:
    """Serialize a table given as {fieldname: column} as csv, json or text.

    Columns are equally long; each is a 1-d array or a sequence of cells
    (float, int, bool, str or None), and the mapping's order is the column
    order.  CSV is RFC-4180 with CRLF row endings and 12-significant-digit
    floats; JSON is an array of flat objects with floats rounded to 12
    significant digits; table keeps 6 decimal places and writes None as "-".
    A table of float arrays alone is written as bytes in csv and json
    (_plane_rows); every other table by one pass of its format's cell rule.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format: {fmt!r}")
    names = tuple(columns)
    cols = list(columns.values())
    if len(set(map(len, cols))) > 1:
        raise ValueError("columns must be equally long")
    rows = len(cols[0]) if cols else 0
    planes = fmt != "table" and bool(cols) and all(
        isinstance(c, np.ndarray) and c.dtype == np.float64 for c in cols)
    if not planes:
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols]

    if fmt == "csv":
        lone = len(cols) == 1
        header = ",".join(_csv_texts(names, lone)) + "\r\n"
        if planes:
            pieces = ["", *[","] * (len(cols) - 1), "\r\n"]
            body = _plane_rows(cols, rows, pieces, "%.12g".__mod__, f"%-{_TEXT_WIDTH}.12g")
            return header + body.decode("ascii")
        kinds = [set(map(type, c)) for c in cols]
        fields = ["%.12g" if kind <= {float} else "%d" if kind <= {int} else "%s" for kind in kinds]
        cells = [_csv_texts(c, lone) if f == "%s" else c for c, f in zip(cols, fields)]
        return header + (",".join(fields) + "\r\n") * rows % tuple(chain.from_iterable(zip(*cells)))
    if fmt == "json":
        if not planes:
            return _json_text([dict(zip(names, row)) for row in zip(*cols)])
        # each row opens with the comma that separates it from the row before
        keys = [f"    {_json(name)}: " for name in names]
        pieces = [",\n  {\n" + keys[0], *(",\n" + key for key in keys[1:]), "\n  }"]
        body = _plane_rows(cols, rows, pieces, _json_float, tail="\n]\n")
        body[0] = ord("[")  # and the first row's opens the array
        return body.decode("ascii")
    texts = [["-" if v is None else _F6 % v if isinstance(v, float) else str(v) for v in c] for c in cols]
    template = "  ".join(f"%-{max([len(n), *map(len, t)])}s" for n, t in zip(names, texts))
    return "".join((template % row).rstrip() + "\n" for row in chain([names], zip(*texts)))


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
        row = {"S_re": s.real, "S_im": s.imag, "R_re": r.real, "R_im": r.imag, **dict(values[2:])}
        return emit_columns({name: [v] for name, v in row.items()}, "csv")
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
    lines = ["transmission:", *_c6_lines(t), "reflection:", *_c6_lines(r)]
    if channel is not None:
        lines += ["channel amplitudes:", *_c6_lines(np.array([channel]))]
    return "\n".join(lines) + "\n"


def _given(p, *keys):
    """The entries of p under keys that were given: a handler passes no
    default of its own, so the library's default holds."""
    return {key: p[key] for key in keys if key in p}


def _cmd_filter(p, fmt):
    spec = FixedImpurity(p["r"], **_given(p, "axis"))
    ops = fixed_filter_operators(spec, p["k"])
    return _operator_text(ops, fmt, {"k": p["k"], "r": p["r"], "axis": spec.axis})


def _cmd_kondo(p, fmt):
    spec = KondoImpurity(p["r"], **_given(p, "eigenvalues"))
    channel = kondo_channel_amplitudes(spec, p["k"])
    ops = _exchange_operators(channel)
    return _operator_text(ops, fmt, {"k": p["k"], "r": p["r"], "eigenvalues": spec.eigenvalues},
                          channel)


def _outcome_columns(result):
    outcomes = result.outcomes
    return {"branch": [o.branch_label for o in outcomes],
            "probability": [o.branch_probability for o in outcomes],
            "conditional_probability": [o.conditional_probability for o in outcomes],
            "entropy_bits": [o.entropy_bits for o in outcomes],
            "concurrence": [o.concurrence for o in outcomes]}


# _json of a protocol result's outcome, state and tree branch objects, at
# their depth: an outcome's label, its four figures (a float's '%s' field, or
# null) and its state; a state's labels and its amplitudes' layout; a
# branch's label, then its probability's field
_OUTCOME_JSON = ('{\n      "branch": %s,\n      "probability": %s,\n      "conditional_probability": %s,'
                 '\n      "entropy_bits": %s,\n      "concurrence": %s,\n      "state": %s\n    }')
_STATE_JSON = '{\n        "labels": [\n          %s\n        ],\n        "amplitudes": %s\n      }'
_BRANCH_JSON = '{\n      "branch": %s,\n      "probability": %%s\n    }'


def _protocol_json(result) -> str:
    """_json_text of a protocol result's json object, laid out from the
    templates of its outcomes, states and branches; the floats of the whole
    object are written in one pass (_json_floats)."""
    floats, outcomes = [], []
    for o in result.outcomes:
        figures = (o.branch_probability, o.conditional_probability, o.entropy_bits, o.concurrence)
        floats += [x for x in figures if x is not None]
        state = o.post_state
        if state is not None:
            # a complex128 array read as float64 holds each real part before its imaginary part
            floats += np.ascontiguousarray(state.amplitudes).view(float).tolist()
            state = _STATE_JSON % (",\n          ".join(map(_json_str, state.labels)),
                                   _json_layout(state.amplitudes.shape, True, "\n        "))
        outcomes.append(_OUTCOME_JSON % (_json_str(o.branch_label),
                                         *["null" if x is None else "%s" for x in figures],
                                         "null" if state is None else state))
    tree = []
    for b in result.tree.branches:
        tree.append(_BRANCH_JSON % _json_str(b.label))
        floats.append(b.probability)
    floats.append(result.tree.total_probability())
    layout = ('{\n  "outcomes": [\n    ' + ",\n    ".join(outcomes) + '\n  ],\n  "tree": [\n    '
              + ",\n    ".join(tree) + '\n  ],\n  "total_probability": %s,\n  "metadata": '
              + _json_fields(result.metadata, "\n  ", floats) + "\n}\n")
    return layout % tuple(_json_floats(floats))


def _render_protocol(result, fmt) -> str:
    _require_finite(result.metadata)
    if fmt == "json":
        return _protocol_json(result)
    columns = _outcome_columns(result)
    if fmt == "csv":
        return emit_columns(columns, "csv")
    lines = ["outcomes:"]
    lines += ["  " + line for line in emit_columns(columns, "table").splitlines()]
    lines.append("tree:")
    for b in result.tree.branches:
        lines.append(f"  {b.label}  {_F6 % b.probability}")
    lines.append(f"  total  {_F6 % result.tree.total_probability()}")
    if result.metadata:
        lines.append("metadata:")
        for name, value in result.metadata.items():
            lines.append(f"  {name}  {_F6 % value}")
    return "\n".join(lines) + "\n"


# The protocol commands, each named after the protocol it runs; concentrate
# runs either concentrate protocol, chosen by --impurity.
_IMPURITIES = {"fixed": "concentrate", "kondo": "concentrate-kondo"}
_PROTOCOL_COMMANDS = {"concentrate": tuple(_IMPURITIES.values()),
                      **{name: (name,) for name in PARAMS if name not in _IMPURITIES.values()}}


def _cmd_protocol(command, p, fmt):
    protocol = _IMPURITIES[p.pop("impurity")] if "impurity" in p else command
    # run_protocol, less the normalization of a name and keys that the flag
    # table already gives as PARAMS spells them
    return _render_protocol(_result(_run(protocol, p, _Checks(1))), fmt)


def _cmd_sweep(p, fmt):
    result = sweep(p["protocol"], p["grid"], **_given(p, "fixed", "objective"))
    text = emit_columns(result.columns, fmt)
    argmax = "argmax: " + "  ".join(
        f"{k}={v if isinstance(v, str) else '%.12g' % v}" for k, v in result.argmax.items()
    )
    if fmt == "table":
        return text + argmax + "\n"
    print(argmax, file=sys.stderr)
    return text


# ---------------------------------------------------------------------------
# Selftest: deterministic invariant checks, exit 2 on any violation.  Each
# check returns its worst deviation, which must stay below the Tolerances
# budget its row in _SELFTEST_CHECKS names.

def _check_scalar_unitarity():
    amps = [scalar_amplitudes(float(xi), 1.0) for xi in np.linspace(-10.0, 10.0, 401)]
    s = np.array([(a.transmission, a.reflection) for a in amps])
    return _flux_deviation(s[:, :1, None], s[:, 1:, None])  # as 1x1 operators


def _check_matrix_flux():
    rng = np.random.default_rng(8201)
    dev = 0.0
    for i in range(30):
        d = (2, 4, 8)[i % 3]
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops = matrix_amplitudes((m + m.conj().T) / 2.0, float(rng.uniform(0.5, 5.0)))
        dev = max(dev, _flux_deviation(ops.transmission, ops.reflection))
    return dev


def _check_zero_coupling_identity():
    ops = [kondo_operators(KondoImpurity(0.0, ev), 1.7) for ev in EXCHANGE_EIGENVALUE_PRESETS.values()]
    ops.append(fixed_filter_operators(FixedImpurity(0.0), 2.3))
    return max(float(np.max(np.abs(op.transmission - np.eye(op.dim)))) for op in ops)


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
    return dev


def _check_two_impurity_conservation():
    rng = np.random.default_rng(99)
    # (r1, r2, half_separation, k); the strong couplings give (I + iM/k) a
    # condition number of about the coupling
    draws = [rng.uniform([-1.5, -1.5, 0.3, 0.5], [1.5, 1.5, 3.0, 4.0]).tolist() for _ in range(10)]
    draws += [[coupling, coupling, 1.0, 1.0] for coupling in (1e8, 1e10)]
    res = [two_impurity_exact(TwoImpurityGeometry(a, k, embed(r1 * exchange_matrix(), 3, (2, 1)),
                                                  embed(r2 * exchange_matrix(), 3, (2, 0))))
           for r1, r2, a, k in draws]
    return _flux_deviation(np.array([x.transmission for x in res]),
                           np.array([x.reflection for x in res]))


def _check_concentration_optimum():
    a, b = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    r = optimal_coupling_fixed(a, b, 1.0)
    res = concentrate_fixed(a, b, 1.0, r)
    return max(abs(r - 0.5), abs(res.outcomes[0].entropy_bits - 1.0))


def _check_tree_completeness():
    rng = np.random.default_rng(4242)
    dev = 0.0
    for i in range(12):
        a2, k, r = rng.uniform([0.05, 0.5, 0.1], [0.5, 3.0, 2.0]).tolist()
        a = math.sqrt(a2)
        b = math.sqrt(1.0 - a * a)
        results = (
            concentrate_fixed(a, b, k, r),
            concentrate_kondo(a, b, k, KondoImpurity(r)),
            entangle_particles(k, KondoImpurity(r)),
            entangle_impurities(k, KondoImpurity(r), KondoImpurity(0.7 * r),
                                mode=("exact" if i % 2 else "first-order")),
        )
        for res in results:
            dev = max(dev, abs(res.tree.total_probability() - 1.0))
    return dev


# (name, Tolerances field holding the bound, check)
_SELFTEST_CHECKS = (
    ("scalar unitarity", "algebraic", _check_scalar_unitarity),
    ("matrix barrier flux", "algebraic", _check_matrix_flux),
    ("zero-coupling identity", "zero_identity", _check_zero_coupling_identity),
    ("channel construction cross-check", "algebraic", _check_channel_construction),
    ("two-impurity conservation", "solver_residual", _check_two_impurity_conservation),
    ("concentration optimum", "algebraic", _check_concentration_optimum),
    ("event-tree completeness", "solver_residual", _check_tree_completeness),
)


def _cmd_selftest(p, fmt):
    lines = []
    for name, field, check in _SELFTEST_CHECKS:
        dev, bound = check(), getattr(TOL, field)
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

def _usage_error(message):
    """Exit status 1 with the one-line usage diagnostic."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-status contract: usage problems exit 1."""

    def error(self, message):
        _usage_error(message)


def _to_grid(name, value):
    grids = []
    for text in value if isinstance(value, list) else [value]:
        parts = str(text).split(":")
        if len(parts) not in (4, 5):
            raise ValueError(
                f"--{name} {text!r}: expected name:start:stop:points[:scale]"
            )
        # the scale defaults to linear
        key, start, stop, count, scale, *_ = [*parts, "linear"]
        try:
            points = int(count)
        except ValueError:
            raise ValueError(f"--{name} {text!r}: unparsable point count {count!r}") from None
        try:
            grids.append(GridSpec(key, _to_float(name, start), _to_float(name, stop), points, scale))
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

_COMMANDS = {
    "amplitudes": (_K, Param("r", _to_float, required=True, help="delta-barrier coupling strength")),
    "filter": (_K, Param("r", _to_float, required=True, help="bare filter coupling"),
               Param("axis", _to_floats, help="impurity spin axis as x,y,z (default 0,0,1)")),
    "kondo": (_K, Param("r", _to_float, required=True, help="exchange coupling"),
              Param("eigenvalues", _to_eigenvalues,
                    help="channel eigenvalue preset name or four comma-separated values")),
    **{command: _protocol_flags(protocols) for command, protocols in _PROTOCOL_COMMANDS.items()},
    "sweep": (
        Param("protocol", _to_str, required=True,
              help="protocol name, e.g. concentrate or entangle-particles"),
        Param("grid", _to_grid, required=True, help="swept parameter as name:start:stop:points[:scale]"),
        Param("fixed", _to_fixed, help="pinned parameter as name=value"),
        Param("objective", _to_str, help="argmax objective"),
    ),
    "selftest": (),
}
# each command's required parameters, in flag order
_REQUIRED = {command: [param for param in table if param.required] for command, table in _COMMANDS.items()}
# flags that may be given more than once; their readers take the list
_REPEATED = (_to_grid, _to_fixed)


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argparse tree of every command, built on first use and then shared:
    parse_args needs it only for a line that _scan does not read.

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


# each command's flags as its subparser spells them: (dest, whether repeated)
_FLAGS = {command: {**{f"--{param.flag}": (param.flag, param.read in _REPEATED) for param in table},
                    **{f"--{flag}": (f"common_{flag}", False) for flag in _COMMON}}
          for command, table in _COMMANDS.items()}
# each command's namespace before any flag is read
_UNSET = {command: dict.fromkeys(dest for dest, _ in flags.values()) for command, flags in _FLAGS.items()}
# the reader of --format
_to_format = _to_choice(_FORMATS)


def _scan(command, tokens):
    """The namespace the command's subparser makes of tokens, as a dict, or
    None unless every token is --<flag>=<value>, or --<flag> and then a value
    that does not start with '-', for an exact flag and a value other than
    '--' (which argparse drops).

    argparse reads such tokens one flag at a time: the last value wins, and
    a repeated flag appends.  Every other token list (help, abbreviations,
    usage errors) is left to argparse.
    """
    flags = _FLAGS[command]
    ns = _UNSET[command].copy()
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")
        if flag not in flags or value == "--" or (not eq and value.startswith("-")):
            return None
        dest, repeated = flags[flag]
        ns[dest] = [*(ns[dest] or ()), value] if repeated else value
    return ns


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        _usage_error(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        _usage_error(f"config file is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        _usage_error(f"config file is not valid JSON: {exc}")
    except RecursionError:
        _usage_error("config file nests too deeply to read")
    if not isinstance(data, dict):
        _usage_error("config file must hold a single JSON object")
    return data


def parse_args(argv=None) -> RunConfig:
    """Parse flags (+ optional config file) into a validated RunConfig.

    Exits with status 1 and a one-line "error: ..." diagnostic on any usage
    problem; --help exits with status 0.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    # the flag table reads a well-formed line alone; the argparse tree is
    # built only for the others
    ns = _scan(command, argv[1:]) if command in _COMMANDS else None
    if ns is None:
        parser, commands = _build_parser()
        if command in commands:
            # the root parser would hand every token after the command to
            # its subparser unchanged; skip its own pass over them
            ns = vars(commands[command].parse_args(argv[1:]))
        else:
            ns = vars(parser.parse_args(argv))
            if ns["command"] is None:
                _usage_error(f"missing command (one of: {', '.join(_COMMANDS)})")
            command = ns["command"]
        # argparse drops a value '--' given as --flag=--, and leaves [] in
        # its place (_scan leaves such a line to argparse)
        for flag, (dest, repeated) in _FLAGS[command].items():
            value = ns[dest]
            if value == [] or repeated and value and [] in value:
                _usage_error(f"argument {flag}: expected one argument")
    table = _COMMANDS[command]

    file_values = {}
    if ns["common_config"] is not None:
        file_values = _load_config(ns["common_config"])
        known = {param.flag for param in table} | set(_COMMON) - {"config"}
        for key in file_values:
            if key not in known:
                _usage_error(f"unknown config key {key!r} for command {command}")

    def value_of(dest, key):
        """The flag's value, else the config file's: None (unset) only where
        neither gives one, so an empty value counts."""
        return file_values.get(key) if ns[dest] is None else ns[dest]

    params = {}
    try:
        for param in table:  # value_of(param.flag, param.flag), inlined
            value = ns[param.flag]
            if value is None:
                value = file_values.get(param.flag)
            if value is not None:
                params[param.key] = _read(param, value)
    except ValueError as exc:
        _usage_error(str(exc))

    for param in _REQUIRED[command]:
        if param.key not in params:
            _usage_error(f"missing required parameter --{param.flag}")

    fmt, output = value_of("common_format", "format"), value_of("common_output", "output")
    if fmt is None:
        fmt = os.environ.get(_FORMAT_ENV) or "table"  # an empty variable is unset
    try:
        fmt = _to_format("format", fmt)
    except ValueError as exc:
        _usage_error(str(exc))
    if output is not None and not isinstance(output, str):
        _usage_error(f"--output must be a path, got {output!r}")
    return RunConfig(command, params, fmt, output)


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit status."""
    try:
        handler = _HANDLERS[config.command]
        text = handler(dict(config.params), config.fmt)
        if config.output is not None:
            with open(config.output, "wb") as fh:
                fh.write(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalFaultError as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 2
    return 0


# glibc's mallopt parameters, and the size below which the CLI keeps freed
# memory for reuse: the smallest whole number of MB under which a warm exact
# sweep of full protocols._BLOCK-point blocks, 100x100 as csv or json,
# faults no page back in (7 MB still left 48 faults a call, 6 MB 304, 2 MB
# 2,300-2,900); the 41x41 exact and 61x61 filter sweeps need 3 MB
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_KEEP = 8 << 20


@functools.cache
def _keep_freed_heap():
    """Keep freed memory of up to _HEAP_KEEP in the C heap, once per process.

    By default glibc trims the free top of its heap each time a sweep block
    frees its arrays, and the next block faults the same pages back in, at
    about 3 us a page; the top pad keeps that much free at the top instead,
    enough for a full block of protocols._BLOCK exact-mode points.
    Setting it stops glibc from sliding its mmap threshold, so the threshold
    is set too, or a buffer above wherever it stood (the output text) would
    be mapped and faulted in afresh on every call.  Only the CLI does this:
    importing the library leaves the host process's allocator alone.  A C
    library without mallopt (macOS, Windows) keeps its own policy.
    """
    try:
        mallopt = ctypes.pythonapi["mallopt"]  # the interpreter's symbols, its C library's among them
    except AttributeError:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_KEEP)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP)


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return run(config)
