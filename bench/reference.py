"""Independent reference for every output the benchmark checks.

Nothing here imports spinscatter.  The physics is recomputed from the closed
forms the package documents, batched over points with numpy:

- a scalar delta barrier transmits S = 1/(1 + i g/k);
- an exchange impurity transmits T = sum_c S(r lambda_c) |c><c| over the four
  channel states, and a pinned-spin filter T = P+ + S(2r) P-; reflection is
  T - I for both;
- two separated impurities compose by the S-matrix (Redheffer) rule
  T = T2 (I - p^2 R1 R2)^-1 T1 and R = R1/p + p T1 R2 (I - p^2 R1 R2)^-1 T1
  with p = exp(2ika), instead of the package's 4d x 4d matching solve;
- pure two-qubit entropy is h((1 + sqrt(1 - C^2))/2) from the concurrence C,
  instead of the package's eigensolver.

The parsers turn each CLI output format back into numbers, and `compare`
matches them against the reference within the tolerances stated below.
"""

import csv
import io
import json
import math
import re

import numpy as np

# Branches at or below this probability are exact arithmetic nulls: the
# program prunes them from trees and reports no post state for them.
NULL = 1e-28

# Stated tolerances.  csv and json carry 12 significant digits, tables 6
# decimals; both allow for the package's own solver error (<= 1e-10).
TOL = {
    "csv": (1e-9, 1e-9),    # (absolute, relative)
    "json": (1e-9, 1e-9),
    "table": (1.5e-6, 1e-9),
}
TREE_TOTAL_TOL = 1e-10  # |tree.total_probability() - 1|

PRESETS = {"default": (1.0, 1.0, -2.0, 0.0), "standard-pauli": (1.0, 1.0, 1.0, -3.0)}

_RT = math.sqrt(0.5)
# Channel kets on (particle, impurity): aligned up, aligned down, symmetric,
# antisymmetric.  All four are symmetric or antisymmetric under exchanging
# the two spins, so the projectors do not depend on which qubit comes first.
_CHANNELS = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, _RT, _RT, 0], [0, _RT, -_RT, 0]], dtype=complex
)
_PROJ = np.einsum("ci,cj->cij", _CHANNELS, _CHANNELS.conj())
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def scalar_s(g, k):
    return 1.0 / (1.0 + 1j * np.asarray(g, dtype=float) / np.asarray(k, dtype=float))


def _lift_index(n, targets):
    dim, m = 2**n, len(targets)
    i = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    others = [q for q in range(n) if q not in targets]
    same = np.ones((dim, dim), dtype=bool)
    for q in others:
        same &= ((i >> q) & 1) == ((j >> q) & 1)
    gi = sum(((i >> q) & 1) << (m - 1 - pos) for pos, q in enumerate(targets))
    gj = sum(((j >> q) & 1) << (m - 1 - pos) for pos, q in enumerate(targets))
    return same, np.broadcast_to(gi, (dim, dim)), np.broadcast_to(gj, (dim, dim))


def lift(op, n, targets):
    """Operator on `targets` (most significant first) acting on an n-qubit register.

    op has shape (..., 2^m, 2^m); qubit q is the bit of weight 2^q.
    """
    same, gi, gj = _lift_index(n, tuple(targets))
    return np.asarray(op)[..., gi, gj] * same


def exchange_t(r, k, ev):
    """(N, 4, 4) exchange-impurity transmission for couplings r and wave numbers k."""
    r, k = np.broadcast_arrays(np.asarray(r, float), np.asarray(k, float))
    s = scalar_s(r[..., None] * np.asarray(ev, float), k[..., None])
    return np.einsum("nc,cij->nij", s.reshape(-1, 4), _PROJ)


def filter_t(r, k, axis):
    """(N, 2, 2) pinned-spin filter transmission along `axis`."""
    r, k = np.broadcast_arrays(np.asarray(r, float), np.asarray(k, float))
    sigma = np.einsum("a,aij->ij", np.asarray(axis, float), _PAULI)
    eye = np.eye(2)
    s = scalar_s(2.0 * r.reshape(-1), k.reshape(-1))
    return 0.5 * (eye + sigma)[None] + s[:, None, None] * (0.5 * (eye - sigma))[None]


def _apply(op, psi):
    return np.einsum("nij,nj->ni", op, psi)


def _prob(psi):
    return np.sum(np.abs(psi) ** 2, axis=-1)


def pair_figures(pair):
    """Entropy (bits) and concurrence of normalized (N, 4) two-qubit states."""
    c = np.minimum(1.0, 2.0 * np.abs(pair[:, 0] * pair[:, 3] - pair[:, 1] * pair[:, 2]))
    lam = 0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c)))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [np.where(x > 0.0, -x * np.log2(x), 0.0) for x in (lam, 1.0 - lam)]
    return np.maximum(0.0, terms[0] + terms[1]), c


def _outcome_arrays(state, qubit, parent):
    """Per-bit arrays of z-measuring `qubit` of (N, 8) states."""
    t = state.reshape(-1, 2, 2, 2)
    out = []
    for bit in (0, 1):
        pair = np.take(t, bit, axis=3 - qubit).reshape(-1, 4)
        prob = _prob(pair)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(parent > NULL, prob / parent, 0.0)
            norm = np.where(prob > NULL, np.sqrt(prob), 1.0)
        ent, conc = pair_figures(pair / norm[:, None])
        live = prob > NULL
        out.append({"raw": prob, "prob": np.where(live, prob, 0.0), "cond": cond,
                    "entropy": np.where(live, ent, np.nan),
                    "concurrence": np.where(live, conc, np.nan)})
    return out


class Batch:
    """Reference protocol results for N points: measured outcomes and tree branches."""

    def __init__(self, outcome_labels, outcomes, tree, meta):
        self.outcome_labels = outcome_labels  # [label, ...]
        self.outcomes = outcomes              # [{"prob","cond","entropy","concurrence"}]
        self.tree = tree                      # [(label, prob array)]
        self.meta = meta                      # {name: array}

    def point(self, n):
        """Expected record of point n in the form the parsers produce."""
        def opt(x):
            return None if math.isnan(x) else float(x)
        outcomes = [
            (label, float(o["prob"][n]), float(o["cond"][n]),
             opt(o["entropy"][n]), opt(o["concurrence"][n]))
            for label, o in zip(self.outcome_labels, self.outcomes)
        ]
        tree = [(label, float(p[n])) for label, p in self.tree if p[n] > NULL]
        meta = {name: float(v[n]) for name, v in self.meta.items() if not math.isnan(v[n])}
        return {"outcomes": outcomes, "tree": tree,
                "total": sum(p for _, p in tree), "metadata": meta}

    def sweep_metrics(self):
        """(N, 3) probability, entropy_bits, concurrence of the first outcome (nulls as 0)."""
        o = self.outcomes[0]
        return np.stack([o["prob"], np.nan_to_num(o["entropy"]),
                         np.nan_to_num(o["concurrence"])], axis=1)


def _measured(state, qubit, parent, prefix, tree_before=(), tree_after=()):
    outs = _outcome_arrays(state, qubit, parent)
    labels = [f"{prefix}|{bit}>" for bit in (0, 1)]
    # tree branches keep raw probabilities, which the outcome zeroes for nulls
    tree = list(tree_before) + [(label, o["raw"]) for label, o in zip(labels, outs)] + list(tree_after)
    return labels, outs, tree


def _attempts(p0):
    with np.errstate(divide="ignore"):
        return {"success_probability": p0, "expected_attempts": np.where(p0 > NULL, 1.0 / p0, np.nan)}


def _basis(bits, n_points):
    psi = np.zeros((n_points, 8), dtype=complex)
    psi[:, int(bits, 2)] = 1.0
    return psi


def concentrate_fixed(a, b, k, r, axis=(0.0, 0.0, 1.0)):
    a, b, k, r = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x)) for x in (a, b, k, r)))
    psi = np.zeros((a.size, 4), dtype=complex)
    psi[:, 0], psi[:, 3] = a, b
    t = lift(filter_t(r, k, axis), 2, (0,))
    trans = _apply(t, psi)
    refl = trans - psi
    prob = _prob(trans)
    live = prob > NULL
    norm = np.where(live, np.sqrt(prob), 1.0)
    ent, conc = pair_figures(trans / norm[:, None])
    outcome = {"prob": np.where(live, prob, 0.0), "cond": np.where(live, prob, 0.0),
               "entropy": np.where(live, ent, np.nan), "concurrence": np.where(live, conc, np.nan)}
    meta = {"coupling": r, "xi": 2.0 * r / k, **_attempts(prob)}
    return Batch(["transmitted"], [outcome], [("transmitted", prob), ("reflected", _prob(refl))], meta)


def optimal_coupling(a, b, k):
    return k * math.sqrt((abs(b) / abs(a)) ** 2 - 1.0) / 2.0


def concentrate_kondo(a, b, k, r, ev):
    a, b, k, r = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x)) for x in (a, b, k, r)))
    psi = np.zeros((a.size, 8), dtype=complex)
    psi[:, 0], psi[:, 6] = a, b
    t = lift(exchange_t(r, k, ev), 3, (1, 0))
    trans = _apply(t, psi)
    labels, outs, tree = _measured(trans, 0, _prob(trans), "transmitted, impurity measured ",
                                   tree_after=[("reflected", _prob(trans - psi))])
    s = scalar_s(r[:, None] * np.asarray(ev, float), k[:, None])
    residual = np.abs(np.abs(a * s[:, 0]) - np.abs(b * (s[:, 2] + s[:, 3]) / 2.0))
    return Batch(labels, outs, tree, {"condition_residual": residual, **_attempts(outs[0]["prob"])})


def entangle_particles(k, r, ev, initial="001"):
    k, r = np.broadcast_arrays(np.atleast_1d(np.asarray(k, float)), np.atleast_1d(np.asarray(r, float)))
    psi = _basis(initial, k.size)
    tk = exchange_t(r, k, ev)
    first, second = lift(tk, 3, (1, 0)), lift(tk, 3, (2, 0))
    after_1 = _apply(first, psi)
    after_2 = _apply(second, after_1)
    labels, outs, tree = _measured(
        after_2, 0, _prob(after_2), "both transmitted, impurity measured ",
        tree_before=[("particle-1 reflected", _prob(after_1 - psi)),
                     ("particle-1 transmitted, particle-2 reflected", _prob(after_2 - after_1))],
    )
    return Batch(labels, outs, tree, _attempts(outs[0]["prob"]))


def entangle_impurities(k, r1, r2, half_separation, ev, initial="100", mode="first-order"):
    k, r1, r2, a = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, float))
                                         for x in (k, r1, r2, half_separation)))
    psi = _basis(initial, k.size)
    t1 = lift(exchange_t(r1, k, ev), 3, (2, 1))
    t2 = lift(exchange_t(r2, k, ev), 3, (2, 0))
    if mode == "first-order":
        after_1 = _apply(t1, psi)
        after_2 = _apply(t2, after_1)
        before = [("reflected at impurity-1", _prob(after_1 - psi)),
                  ("transmitted impurity-1, reflected at impurity-2", _prob(after_2 - after_1))]
        prefix = "both transmitted, particle measured "
    else:
        eye = np.eye(8)
        p = np.exp(2j * k * a)[:, None, None]
        rr1, rr2 = t1 - eye, t2 - eye
        between = np.linalg.solve(eye - p * p * (rr1 @ rr2), _apply(t1, psi)[..., None])[..., 0]
        after_2 = _apply(t2, between)
        reflected = _apply(rr1, psi) / p[:, :, 0] + p[:, :, 0] * _apply(t1, _apply(rr2, between))
        before = [("reflected", _prob(reflected))]
        prefix = "transmitted, particle measured "
    labels, outs, tree = _measured(after_2, 2, _prob(after_2), prefix, tree_before=before)
    return Batch(labels, outs, tree, _attempts(outs[0]["prob"]))


def protocol_batch(name, params):
    """Reference for run_protocol(name, params); array-valued params give a batch."""
    p = dict(params)
    ev = PRESETS[p.get("eigenvalues", "default")]
    k = p.get("k", 1.0)
    if name in ("concentrate", "concentrate-kondo"):
        ma = np.asarray(p["a"], float)
        mb = np.asarray(p["b"], float) if "b" in p else np.sqrt(np.maximum(0.0, 1.0 - ma * ma))
        a = ma * np.exp(1j * p.get("a_phase", 0.0))
        b = mb * np.exp(1j * p.get("b_phase", 0.0))
        if name == "concentrate-kondo":
            return concentrate_kondo(a, b, k, p["r"], ev)
        r = p["r"] if "r" in p else optimal_coupling(complex(a), complex(b), float(k))
        return concentrate_fixed(a, b, k, r, p.get("axis", (0.0, 0.0, 1.0)))
    if name == "entangle-particles":
        return entangle_particles(k, p["r"], ev, p.get("initial", "001"))
    if name == "entangle-impurities":
        return entangle_impurities(k, p["r1"], p["r2"], p.get("half_separation", 1.0), ev,
                                   p.get("initial", "100"), p.get("mode", "first-order"))
    raise ValueError(f"no reference for protocol {name!r}")


# ---------------------------------------------------------------------------
# Single-shot commands

def amplitudes(k, r):
    s = complex(scalar_s(r, k))
    return {"S": s, "R": s - 1.0, "abs_S2": abs(s) ** 2, "abs_R2": abs(s - 1.0) ** 2, "xi": r / k}


def operators(command, params):
    k, r = params["k"], params["r"]
    if command == "filter":
        t = filter_t(r, k, params.get("axis", (0.0, 0.0, 1.0)))[0]
        return {"T": t, "R": t - np.eye(2), "channel": None}
    ev = params.get("eigenvalues", "default")
    ev = PRESETS[ev] if isinstance(ev, str) else ev
    t = exchange_t(r, k, ev)[0]
    return {"T": t, "R": t - np.eye(4), "channel": list(scalar_s(r * np.asarray(ev), k))}


# ---------------------------------------------------------------------------
# Output parsers: CLI text -> the records above

_COMPLEX = re.compile(r"^([-+]?\d+\.\d+)([-+]\d+\.\d+)i$")


def _cnum(text):
    m = _COMPLEX.match(text)
    if not m:
        raise ValueError(f"not a complex number: {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def _jc(obj):
    return complex(obj["re"], obj["im"])


def _opt(text):
    return None if text in ("", "-") else float(text)


def parse_protocol(text, fmt):
    if fmt == "json":
        obj = json.loads(text)
        return {
            "outcomes": [(o["branch"], o["probability"], o["conditional_probability"],
                          o["entropy_bits"], o["concurrence"]) for o in obj["outcomes"]],
            "tree": [(b["branch"], b["probability"]) for b in obj["tree"]],
            "total": obj["total_probability"],
            "metadata": obj["metadata"],
        }
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if rows[0] != ["branch", "probability", "conditional_probability", "entropy_bits", "concurrence"]:
            raise ValueError(f"unexpected csv header {rows[0]}")
        return {"outcomes": [(r[0], float(r[1]), float(r[2]), _opt(r[3]), _opt(r[4])) for r in rows[1:]]}
    lines = text.splitlines()
    section, out = None, {"outcomes": [], "tree": [], "metadata": {}}
    for line in lines:
        if not line.startswith("  "):
            section = line.rstrip(":")
            continue
        if section == "outcomes":
            parts = line.split()
            if parts[0] == "branch":
                continue
            out["outcomes"].append((" ".join(parts[:-4]), float(parts[-4]), float(parts[-3]),
                                    _opt(parts[-2]), _opt(parts[-1])))
        elif section == "tree":
            label, value = line.strip().rsplit(None, 1)
            if label == "total":
                out["total"] = float(value)
            else:
                out["tree"].append((label, float(value)))
        elif section == "metadata":
            name, value = line.split()
            out["metadata"][name] = float(value)
    return out


def parse_amplitudes(text, fmt):
    if fmt == "json":
        obj = json.loads(text)
        return {"S": _jc(obj["S"]), "R": _jc(obj["R"]), "abs_S2": obj["abs_S2"],
                "abs_R2": obj["abs_R2"], "xi": obj["xi"]}
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(text, newline="")))
        v = dict(zip(header, map(float, row)))
        return {"S": complex(v["S_re"], v["S_im"]), "R": complex(v["R_re"], v["R_im"]),
                "abs_S2": v["abs_S2"], "abs_R2": v["abs_R2"], "xi": v["xi"]}
    v = dict(line.split() for line in text.splitlines()[1:])
    return {"S": _cnum(v["S"]), "R": _cnum(v["R"]), "abs_S2": float(v["abs_S2"]),
            "abs_R2": float(v["abs_R2"]), "xi": float(v["xi"])}


def parse_operators(text, fmt):
    if fmt == "json":
        obj = json.loads(text)
        channel = obj.get("channel_amplitudes")
        return {"T": np.array([[_jc(z) for z in row] for row in obj["transmission"]]),
                "R": np.array([[_jc(z) for z in row] for row in obj["reflection"]]),
                "channel": None if channel is None else [_jc(z) for z in channel]}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
        d = int(math.isqrt(len(rows)))
        t, r = np.zeros((d, d), complex), np.zeros((d, d), complex)
        for row in rows:
            i, j = int(row[0]), int(row[1])
            t[i, j] = complex(float(row[2]), float(row[3]))
            r[i, j] = complex(float(row[4]), float(row[5]))
        return {"T": t, "R": r}
    blocks, name = {}, None
    for line in text.splitlines():
        if not line.startswith("  "):
            name = line.rstrip(":")
            blocks[name] = []
        else:
            blocks[name].append([_cnum(tok) for tok in line.split()])
    channel = blocks.get("channel amplitudes")
    return {"T": np.array(blocks["transmission"]), "R": np.array(blocks["reflection"]),
            "channel": None if channel is None else channel[0]}


# ---------------------------------------------------------------------------
# Comparison

def close(x, ref, fmt):
    atol, rtol = TOL[fmt]
    return abs(x - ref) <= atol + rtol * abs(ref)


def compare(got, expected, fmt, path="output"):
    """List of mismatch descriptions between a parsed output and its reference.

    csv outputs carry no tree or metadata, so only keys present in `got` are
    compared; labels and null markers must match exactly.
    """
    problems = []

    def walk(g, e, where):
        if e is None or isinstance(e, str):
            if g != e:
                problems.append(f"{where}: got {g!r}, expected {e!r}")
        elif isinstance(e, dict):
            missing = set(e) ^ set(g)
            if missing:
                problems.append(f"{where}: keys differ by {sorted(missing)}")
            for key in sorted(set(e) & set(g)):
                walk(g[key], e[key], f"{where}.{key}")
        elif isinstance(e, (list, tuple, np.ndarray)):
            e_list, g_list = list(e), list(g) if g is not None else None
            if g_list is None or len(g_list) != len(e_list):
                problems.append(f"{where}: length {None if g_list is None else len(g_list)} != {len(e_list)}")
                return
            for i, (gi, ei) in enumerate(zip(g_list, e_list)):
                walk(gi, ei, f"{where}[{i}]")
        elif g is None or not close(complex(g), complex(e), fmt):
            problems.append(f"{where}: got {g!r}, expected {complex(e) if isinstance(e, complex) else float(e)!r}")

    walk(got, {key: expected[key] for key in got if key in expected}, path)
    return problems
