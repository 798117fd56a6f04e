"""Post-selection protocols built on the impurity channels.

Four protocols, each returning a ProtocolResult:

- concentrate_fixed: a partially entangled pair a|00> + b|11> is filtered by
  scattering one particle off a pinned-spin impurity; transmission damps the
  dominant |11> amplitude toward balance.
- concentrate_kondo: the same goal with a free-spin impurity, which needs an
  extra z measurement on the impurity after scattering.
- entangle_particles: two independent particles scatter one after the other
  off the same free-spin impurity; measuring the impurity projects the
  particles onto an entangled state.
- entangle_impurities: one particle flies past two separated free-spin
  impurities; measuring the particle entangles the impurities.  Mode
  "exact" composes the two impurities by the S-matrix (Redheffer star
  product) rule, keeping every back-and-forth reflection; mode
  "first-order" is its truncation to a single pass.

Evaluation: each protocol is one kernel over N stacked parameter points,
with register states held as arrays of shape (N, 2^n).  Exchange keeps the
total S_z, so the exchange protocols run each Hamming-weight sector of the
three-qubit register that the initial amplitudes occupy on its own,
through the channel projectors, embedded and sliced to the sectors once,
at import, as product tables (d <= 3).  A barrier T = sum_c S_c P_c is
never built: T psi and (T - I) psi of all N points are one product against
its table, in one pass of scattering._compose through the barriers met,
and exact mode's star product is the same routine.  The filter, whose
tilted axis does not keep S_z, acts as its (N, 2, 2) operator on
particle-1 alone; a pinned axis stays one (1, 3) row.  sweep runs the
kernel in blocks of _BLOCK points; the single-call functions and
run_protocol are a batch of one, wrapped in the ProtocolResult, EventTree
and SpinState types.  At N = 1 the cost is the count of numpy and Python
calls, so the bookkeeping is stacked: the input rules of scattering and
hilbert are recorded in one scattering._Checks, which raises the error a
point-by-point loop would raise first (the single calls read their
numbers by scattering._real), the numeric columns are rows of one array,
the two amplitudes of a pair and the channel amplitudes of all barriers
are one stack each, a measurement takes both bits by one index, the tree
is checked in one pass against the initial squared norm that the pair
rule or the initial state already holds, and the result's states wrap the
checked rows without a copy.  Floating-point warnings are switched off
once per call, at the entry point.  A warm run_protocol call takes about
0.14-0.18 ms and at most 201 Python-level calls, as cProfile counts
them (exact-mode entangle_impurities; 2-core Xeon, numpy 2.4).

Probability bookkeeping: branch states carry raw (unnormalized) amplitudes
descended from the normalized initial state, so a branch's squared norm is
its absolute probability (hilbert._norm2, as SpinState.norm_squared takes
it, bit for bit); conditional probabilities relative to the parent branch
are reported alongside.  n.sigma comes from hilbert._sigma_along, barrier
transmissions from scattering._transmission.  The retry loop ("reflected,
start over with a fresh particle") is reported as per-attempt probabilities
and an expected attempt count 1/p, never simulated stochastically.

Measurements here are in the z basis {|0>, |1>}, taken by slicing the
amplitude array.  Entropy and concurrence in outcomes always refer to the
two undetected qubits.
"""

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import (
    DEFAULT_EXCHANGE_EIGENVALUES,
    EXCHANGE_EIGENVALUE_PRESETS,
    EXCHANGE_PROJECTORS,
    KondoImpurity,
    _channel_amplitudes,
    _Z_AXIS,
    embed,
    filter_transmission,
)
from .errors import InternalFaultError
from .hilbert import SpinState, _check_axis, _norm2, _sigma_along, basis_state, pure_pair_figures
from .scattering import (_check_coupling, _check_flux, _check_half_separation, _check_phase, _check_wave_number,
                         _Checks, _complex, _compose, _one, _pair_table, _pass_table, _phase, _quiet, _real, _reals,
                         _transmission)
from .tolerances import DEFAULT as TOL

_PAIR_REGISTER = ("particle-2", "particle-1")
_PARTICLES_REGISTER = ("particle-2", "particle-1", "impurity-0")
_IMPURITIES_REGISTER = ("particle-0", "impurity-1", "impurity-2")
# what each three-qubit register holds, for the message of a wrong initial state
_PARTICLES_CONTENT = "two particles and the impurity"
_IMPURITIES_CONTENT = "particle and two impurities"

# Hamming-weight sectors {0}, {1,2,4}, {3,5,6}, {7} of the three-qubit
# register.  Exchange keeps the total S_z (its only spin flip is
# |01> <-> |10>), so every exchange operator is block-diagonal in them.
_SECTORS = ((0,), (1, 2, 4), (3, 5, 6), (7,))
_SECTOR_INDEX = tuple(np.array(index) for index in _SECTORS)
# (4, 8) membership of the register indices in the sectors
_SECTOR_MEMBERS = np.array([[i in index for i in range(8)] for index in _SECTORS])


def _sector_projectors(targets):
    """Channel projectors embedded on targets, one (4, d, d) block per sector."""
    embedded = np.stack([embed(proj, 3, targets) for proj in EXCHANGE_PROJECTORS])
    return tuple(np.ascontiguousarray(embedded[:, index][:, :, index]) for index in _SECTORS)


# The tables of the channel projectors per sector, made once: the
# _pass_tables of the barriers the particles meet, in order, on the target
# pairs of the three-qubit register (particle-1 then particle-2 at the
# impurity, or the particle at impurity-1 then impurity-2), and the pair
# table of the two impurities.  The projector entries are exactly 0, +-1/2
# and 1, as in EXCHANGE_PROJECTORS, since embedding only copies them.
_PROJECTORS = {targets: _sector_projectors(targets) for targets in ((1, 0), (2, 0), (2, 1))}
_PARTICLE_BARRIERS = tuple(zip(*(map(_pass_table, _PROJECTORS[t]) for t in ((1, 0), (2, 0)))))
_IMPURITY_BARRIERS = tuple(zip(*(map(_pass_table, _PROJECTORS[t]) for t in ((2, 1), (2, 0)))))
_IMPURITY_PAIRS = tuple(map(_pair_table, _PROJECTORS[(2, 1)], _PROJECTORS[(2, 0)]))
_EYE = np.eye(2)  # the filter reflects T - I

# grid points per kernel call; bounds the (N, 2, 2) filter operators and the
# (4, d, 2, N) channel terms, d <= 3, of the exchange protocols.  Each call
# has a fixed cost of about 0.1-0.3 ms, and both benchmark grids (1,681 and
# 3,721 points) run as one call; a full exact block peaks at about 6.5 MB
# of heap, which the CLI keeps (cli._HEAP_KEEP)
_BLOCK = 4096

# an optimal coupling below this has lost significant bits, or underflowed to 0
_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class EventBranch:
    """One terminal branch: label, absolute probability, raw amplitudes."""

    label: str
    probability: float
    state: SpinState


@dataclass(frozen=True)
class EventTree:
    """Complete enumeration of mutually exclusive terminal branches."""

    branches: tuple[EventBranch, ...]

    def total_probability(self) -> float:
        return float(sum(b.probability for b in self.branches))


@dataclass(frozen=True)
class ProtocolOutcome:
    """A designated measurement branch with its figures of merit.

    branch_probability is absolute (relative to the normalized initial
    state); conditional_probability is relative to the surviving parent
    branch.  post_state is the normalized state of the undetected qubits,
    None when the branch is an exact null.
    """

    branch_label: str
    branch_probability: float
    conditional_probability: float
    post_state: SpinState | None
    entropy_bits: float | None
    concurrence: float | None


@dataclass(frozen=True)
class ProtocolResult:
    outcomes: tuple[ProtocolOutcome, ...]
    tree: EventTree
    metadata: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Batched kernel: validation, stacked results, wrapping of one point


class _Outcomes(NamedTuple):
    """The designated branches at N points, m per point along axis 1.

    Entries where live is False are nulls.
    """

    labels: tuple[str, ...]
    pair_labels: tuple[str, ...]
    probability: np.ndarray  # (N, m) absolute, 0.0 for nulls
    conditional: np.ndarray  # (N, m)
    pair: np.ndarray  # (N, m, 4) normalized pair amplitudes (meaningless for nulls)
    entropy: np.ndarray  # (N, m)
    concurrence: np.ndarray  # (N, m)
    live: np.ndarray  # (N, m)


class _Batch(NamedTuple):
    """One protocol's results at N stacked points."""

    register: tuple[str, ...]
    # (label, amplitudes, kept, probability) per branch: amplitudes are the
    # (N, 2^n) register rows, or, where kept holds register indices, the
    # amplitudes of a measured branch at those indices (zero elsewhere)
    tree: tuple[tuple[str, np.ndarray, np.ndarray | None, np.ndarray], ...]
    outcomes: _Outcomes
    metadata: dict[str, np.ndarray]  # NaN marks an entry absent at that point


def _modulus(z):
    # libm hypot, as Python's abs(complex) computes it; np.abs can differ in the last bit
    return np.hypot(z.real, z.imag)


@functools.cache
def _split(qubit):
    """(2, 4) indices of the three-qubit register whose qubit reads 0 (row 0) or 1 (row 1), ascending."""
    index = np.arange(8)
    split = np.array([index[((index >> qubit) & 1) == bit] for bit in (0, 1)])
    split.setflags(write=False)
    return split


def _exchange(psi0, n, amplitudes, tables, pairs=None, phase=None):
    """_compose on each S_z sector that psi0 occupies, with the sector's tables.

    psi0 holds the initial amplitudes at the n points, (n, 8), or (1, 8)
    for one state at every point; tables and pairs hold _compose's tables
    per sector.  The results are scattered into one (n, count, 8) array;
    sectors where psi0 is zero at every point stay exactly zero.
    """
    occupied = (_SECTOR_MEMBERS @ np.logical_or.reduce(psi0, axis=0)).tolist()
    out = np.zeros((n, len(amplitudes) + 1 if pairs is None else 2, 8), dtype=complex)
    for w, index in enumerate(_SECTOR_INDEX):
        if occupied[w]:
            parts = _compose(amplitudes, tables[w], psi0[:, index],
                             None if pairs is None else pairs[w], phase)
            for j, part in enumerate(parts):
                out[:, j, index] = part
    return out


def _branches(labels, rows, prob):
    """Tree branches of the reflected rows 1, 2, ... of (N, ., 2^n), with probabilities prob."""
    return [(label, rows[:, j], None, prob[:, j]) for j, label in enumerate(labels, 1)]


def _outcomes(labels, pair_labels, amps, prob, parent=None) -> _Outcomes:
    """Figures of branches whose undetected pairs have raw amplitudes amps (N, m, 4).

    prob (N, m) holds the branches' absolute probabilities; parent (N,) the
    probability of the branch they are conditioned on (None: they are
    unconditional).
    """
    live = prob > TOL.null_floor
    kept = np.where(live, prob, 0.0)
    if parent is None:
        cond = kept
    else:
        parent = parent[:, None]
        cond = np.where(parent > TOL.null_floor, prob / parent, 0.0)
    pair = amps / np.sqrt(np.where(live, prob, 1.0))[..., None]
    entropy, conc = pure_pair_figures(pair)
    return _Outcomes(labels, pair_labels, kept, cond, pair, entropy, conc, live)


def _measure(state, norm, qubit, prefix, register):
    """z measurement of one qubit of the three-qubit state (N, 8), by slicing.

    norm is the state's squared norm.  Returns the tree branches of the two
    bits, as the four amplitudes each keeps, and their stacked outcomes;
    each outcome's pair drops the measured qubit.
    """
    split = _split(qubit)
    pairs = state[:, split]
    square = pairs.real ** 2 + pairs.imag ** 2
    # a branch's probability as _norm2 sums its zero-padded row: pairwise,
    # (k0 + k1) + (k2 + k3) over the kept entries
    prob = (square[..., 0] + square[..., 1]) + (square[..., 2] + square[..., 3])
    labels = (f"{prefix}|0>", f"{prefix}|1>")
    branches = [(labels[bit], pairs[:, bit], split[bit], prob[:, bit]) for bit in (0, 1)]
    pair_labels = register[:2 - qubit] + register[3 - qubit:]
    return branches, _outcomes(labels, pair_labels, pairs, prob, norm)


def _batch(norm, register, tree, outcomes, metadata, point) -> _Batch:
    """Check the stacked results and bundle them.

    norm is the squared norm of the initial state, (N,) or one float for
    every point, as _norm2 takes it; point(i) describes parameter point i
    for error messages.  Checks, in this order: every amplitude is finite,
    the branches of each point's tree add up to its initial probability
    within the solver residual (flux conservation), and every live post
    state is normalized.  A non-finite amplitude makes its point's flux
    deviation non-finite, so amplitudes are inspected only when the
    deviation check fails.
    """
    total = tree[0][3]
    for branch in tree[1:]:
        total = total + branch[3]
    deviation = np.abs(total - norm)
    if not np.maximum.reduce(deviation) <= TOL.solver_residual:
        finite = np.all([np.isfinite(amps).all(axis=-1) for _, amps, _, _ in tree], axis=0)
        if not finite.all():
            raise ValueError(f"amplitudes must be finite (at {point(int(np.argmin(finite)))})")
        worst = int(np.argmax(deviation))
        _check_flux(deviation[worst], "", f" at {point(worst)}")
    off = np.where(outcomes.live, np.abs(_norm2(outcomes.pair) - 1.0), 0.0)
    if not np.maximum.reduce(off, axis=None) < TOL.normalization:
        for j, label in enumerate(outcomes.labels):
            worst = int(np.argmax(off[:, j]))
            if not off[worst, j] < TOL.normalization:
                raise InternalFaultError(
                    f"post state of {label!r} off unit norm by {off[worst, j]:.3e} at {point(worst)}"
                )
    return _Batch(register, tuple(tree), outcomes, metadata)


def _describe(**arrays):
    def point(i):
        return ", ".join(f"{name}={np.asarray(v)[i]:.12g}" for name, v in arrays.items())
    return point


def _describe_pair(given, a, b, **arrays):
    """_describe of a concentrate kernel's points, the pair first: by the
    magnitudes and phases its caller gave (given), else by the moduli and
    phases of its amplitudes a and b; a phase 0 at the point is left out."""
    def point(i):
        (ma, mb), (pa, pb) = given or (np.abs([a, b]), np.angle([a, b]))
        phases = {name: x for name, x in (("a_phase", pa), ("b_phase", pb)) if x[i]}
        return _describe(a=ma, b=mb, **phases, **arrays)(i)
    return point


def _result(batch: _Batch) -> ProtocolResult:
    """Wrap the single point of a batch of one in the public result types.

    The states hold the batch's checked rows, made read-only, without a
    copy or a second check (SpinState._trusted); the zero-padded amplitudes
    of the measured branches are built here, in one array.
    """
    o = batch.outcomes
    o.pair.setflags(write=False)
    outcomes = tuple([
        ProtocolOutcome(label, prob, cond, SpinState._trusted(pair, o.pair_labels), ent, conc)
        if live else ProtocolOutcome(label, 0.0, cond, None, None, None)
        for label, prob, cond, pair, ent, conc, live in zip(
            o.labels, o.probability.tolist()[0], o.conditional.tolist()[0], o.pair[0],
            o.entropy.tolist()[0], o.concurrence.tolist()[0], o.live.tolist()[0])
    ])
    branches, padded, m = [], np.zeros((2, 8), dtype=complex), 0
    for label, amps, kept, prob in batch.tree:
        prob = prob.item()
        if prob > TOL.null_floor:
            row = amps[0]
            if kept is not None:  # one of the two measured branches, which keep 4 of 8 entries
                row, m = padded[m], m + 1
                row[kept] = amps[0]
            row.setflags(write=False)
            branches.append(EventBranch(label, prob, SpinState._trusted(row, batch.register)))
    meta = {}
    for name, v in batch.metadata.items():
        x = v.item()
        if not math.isnan(x):
            meta[name] = x
    return ProtocolResult(outcomes, EventTree(tuple(branches)), meta)


def _attempts(success_probability) -> dict:
    expected = np.where(success_probability > TOL.null_floor, 1.0 / success_probability, np.nan)
    return {"success_probability": success_probability, "expected_attempts": expected}


def _check_pair(checks, pair):
    """a|00> + b|11> is normalized, by the rule of SpinState.normalized;
    pair holds (a, b) along its last axis.

    Returns its squared norm |a|^2 + |b|^2, which equals _norm2 of the
    zero-padded initial row bit for bit: adding +0.0 to a square is exact.
    """
    total = _norm2(pair)
    checks.add(~(np.abs(total - 1.0) < TOL.normalization),
               lambda i: f"|a|^2 + |b|^2 must equal 1 (got {total[i]:.12g})")
    return total


def _check_initial(checks, initial, content):
    if initial.amplitudes.size != 8:  # 3 qubits
        checks.fail(f"initial state must have 3 qubits ({content})")
    if not initial.normalized:
        checks.fail("initial state must be normalized")


def _concentrate_fixed(checks, a, b, k, r, axis, given=None) -> _Batch:
    pair = np.array([a, b]).T  # (N, 2); a fifth of np.stack's cost at N = 1
    norm = _check_pair(checks, pair)
    _check_axis(checks, axis)
    _check_wave_number(checks, k)
    _check_coupling(checks, 2.0 * r)
    checks.raise_first()

    # anti-aligned component sees twice the bare coupling
    t = filter_transmission(_transmission(2.0 * r, k), _sigma_along(axis))
    # T acts on particle-1 alone and both particles of a|00> + b|11> hold the
    # same bit q, so |q i> gets T[i, q] c_q of the initial amplitudes c = (a, b);
    # einsum's sum of one product rounds as the 4 x 4 product (I x T) psi0
    # does, which a plain multiply would not
    both = np.empty((checks.n, 2, 2, 2), dtype=complex)
    both[:, 0] = t
    np.subtract(t, _EYE, out=both[:, 1])
    out = np.einsum("nkiq,nq->nkqi", both, pair).reshape(checks.n, 2, 4)
    prob = _norm2(out)  # (N, 2): transmitted, reflected
    outcomes = _outcomes(("transmitted",), _PAIR_REGISTER, out[:, :1], prob[:, :1])
    meta = {"coupling": r, "xi": 2.0 * r / k, **_attempts(prob[:, 0])}
    tree = [("transmitted", out[:, 0], None, prob[:, 0]), ("reflected", out[:, 1], None, prob[:, 1])]
    return _batch(norm, _PAIR_REGISTER, tree, outcomes, meta, _describe_pair(given, a, b, k=k, r=r))


def _optimal_coupling(checks, a, b, k):
    _check_wave_number(checks, k)
    ma, mb = _modulus(a), _modulus(b)
    checks.add(~((0.0 < ma) & (ma < mb)), "optimal coupling requires 0 < |a| < |b|")
    coupling = k * np.sqrt((mb / ma) ** 2 - 1.0) / 2.0
    _check_coupling(checks, 2.0 * coupling)
    # a coupling that underflows keeps too few bits, if any, to meet the balance below
    checks.add(coupling < _SMALLEST_NORMAL,
               lambda i: f"optimal coupling {coupling[i]:.3e} is below the smallest normal "
                         f"float (k = {k[i]:.3e} is too small)")
    # verify the defining balance |S(2r)| = |a/b| before handing the value out
    residual = np.abs(_modulus(_transmission(2.0 * coupling, k)) - ma / mb)
    checks.add(~(residual <= TOL.algebraic),
               lambda i: f"optimal coupling balance residual {residual[i]:.3e} "
                         f"exceeds {TOL.algebraic:g}",
               InternalFaultError)
    return coupling


def _concentrate_kondo(checks, a, b, k, r, eigenvalues, given=None) -> _Batch:
    norm = _check_pair(checks, np.array([a, b]).T)
    _check_wave_number(checks, k)
    (s,) = _channel_amplitudes(checks, k, (r, eigenvalues))
    checks.raise_first()

    psi0 = np.zeros((checks.n, 8), dtype=complex)
    psi0[:, 0], psi0[:, 6] = a, b
    rows = _exchange(psi0, checks.n, (s,), _PARTICLE_BARRIERS)  # particle-1's barrier alone
    prob = _norm2(rows)
    measured, outcomes = _measure(rows[:, 0], prob[:, 0], 0, "transmitted, impurity measured ",
                                  _PARTICLES_REGISTER)
    residual = np.abs(_modulus(a * s[:, 0]) - _modulus(b * (s[:, 2] + s[:, 3]) / 2.0))
    meta = {"condition_residual": residual, **_attempts(outcomes.probability[:, 0])}
    return _batch(norm, _PARTICLES_REGISTER, [*measured, ("reflected", rows[:, 1], None, prob[:, 1])],
                  outcomes, meta, _describe_pair(given, a, b, k=k, r=r))


def _entangle_particles(checks, k, r, eigenvalues, initial) -> _Batch:
    _check_initial(checks, initial, _PARTICLES_CONTENT)
    _check_wave_number(checks, k)
    (s,) = _channel_amplitudes(checks, k, (r, eigenvalues))
    checks.raise_first()

    psi0 = initial.amplitudes[None]  # the same at every point
    rows = _exchange(psi0, checks.n, (s, s), _PARTICLE_BARRIERS)
    prob = _norm2(rows)
    measured, outcomes = _measure(rows[:, 0], prob[:, 0], 0, "both transmitted, impurity measured ",
                                  initial.labels)
    tree = [*_branches(("particle-1 reflected", "particle-1 transmitted, particle-2 reflected"),
                       rows, prob), *measured]
    return _batch(initial.norm_squared, initial.labels, tree, outcomes,
                  _attempts(outcomes.probability[:, 0]), _describe(k=k, r=r))


def _entangle_impurities(checks, k, r1, r2, half_separation, eigenvalues_1, eigenvalues_2,
                         initial, mode) -> _Batch:
    if mode not in ("first-order", "exact"):
        checks.fail(f"mode must be 'first-order' or 'exact', got {mode!r}")
    _check_initial(checks, initial, _IMPURITIES_CONTENT)
    _check_half_separation(checks, half_separation)
    _check_wave_number(checks, k)
    if mode == "exact":  # only the exact composition propagates between the impurities
        _check_phase(checks, k, half_separation)
    s1, s2 = _channel_amplitudes(checks, k, (r1, eigenvalues_1), (r2, eigenvalues_2))
    checks.raise_first()

    psi0 = initial.amplitudes[None]  # the same at every point
    if mode == "exact":  # star_product on the tables
        rows = _exchange(psi0, checks.n, (s1, s2), _IMPURITY_BARRIERS, _IMPURITY_PAIRS,
                         _phase(k, half_separation))
        failure_labels, prefix = ("reflected",), "transmitted, particle measured "
    else:  # the star product without its p^2 R1 R2 term, each reflection resolved
        rows = _exchange(psi0, checks.n, (s1, s2), _IMPURITY_BARRIERS)
        failure_labels = ("reflected at impurity-1", "transmitted impurity-1, reflected at impurity-2")
        prefix = "both transmitted, particle measured "
    prob = _norm2(rows)
    measured, outcomes = _measure(rows[:, 0], prob[:, 0], 2, prefix, initial.labels)
    return _batch(initial.norm_squared, initial.labels, [*_branches(failure_labels, rows, prob), *measured],
                  outcomes, _attempts(outcomes.probability[:, 0]),
                  _describe(k=k, r1=r1, r2=r2, half_separation=half_separation))


# ---------------------------------------------------------------------------
# Single-call protocol functions (a batch of one)

def _pair(a, b):
    """The amplitudes a and b of a single call, each a batch of one."""
    return np.array([_complex(a)]), np.array([_complex(b)])


@_quiet
def concentrate_fixed(a, b, k: float, coupling: float, axis=_Z_AXIS) -> ProtocolResult:
    """Filter a|00> + b|11> by scattering particle 1 off a pinned-spin impurity.

    The transmitted branch is proportional to a|00> + b*S|11> for the z axis
    (S the anti-aligned transmission), with probability |a|^2 + |b|^2 |S|^2;
    the reflected branch is recorded in the event tree.  Entropy and
    concurrence refer to the transmitted two-particle state.
    """
    return _result(_concentrate_fixed(_Checks(1), *_pair(a, b),
                                      _one(k), _one(coupling), np.array([_reals(axis)])))


@_quiet
def optimal_coupling_fixed(a, b, k: float) -> float:
    """Coupling that balances the filtered pair: |S| = |a/b|, so r = (k/2)sqrt(|b/a|^2 - 1).

    Requires 0 < |a| < |b| (filtering can only damp the larger amplitude),
    and a coupling in the normal float range.  The closed form is
    cross-checked against a numeric root-find in tests.
    """
    checks = _Checks(1)
    coupling = _optimal_coupling(checks, *_pair(a, b), _one(k))
    checks.raise_first()
    return float(coupling[0])


@_quiet
def concentrate_kondo(a, b, k: float, impurity: KondoImpurity) -> ProtocolResult:
    """Filter a|00> + b|11> by scattering particle 1 off a free-spin impurity.

    The impurity starts in |0> and is measured in the z basis after the
    scattering.  Outcome |0> leaves the particles in a*S1|00> +
    b*(S_sym+S_anti)/2 |11> (up to normalization); outcome |1> leaves the
    product |10> and reveals an impurity flip.  The balance condition
    |a S1| = |b (S_sym+S_anti)/2| makes the |0> branch maximally entangled;
    its residual is reported in metadata.
    """
    return _result(_concentrate_kondo(_Checks(1), *_pair(a, b),
                                      _one(k), _one(impurity.coupling), impurity.eigenvalues))


@_quiet
def entangle_particles(k: float, impurity: KondoImpurity, initial: SpinState | None = None) -> ProtocolResult:
    """Entangle two flying particles through one free-spin impurity.

    Register order (most significant first): particle-2, particle-1,
    impurity-0.  Particle 1 scatters first, then particle 2; both must
    transmit, after which the impurity is measured in the z basis.  Each
    measurement outcome is reported with the entropy and concurrence of the
    resulting two-particle state; reflected branches terminate the attempt
    and sit in the event tree.
    """
    if initial is None:
        initial = _basis_state("001", _PARTICLES_REGISTER)
    return _result(_entangle_particles(_Checks(1), _one(k), _one(impurity.coupling),
                                       impurity.eigenvalues, initial))


@_quiet
def entangle_impurities(k: float, impurity_1: KondoImpurity, impurity_2: KondoImpurity,
                        half_separation: float = 1.0, initial: SpinState | None = None,
                        mode: str = "first-order") -> ProtocolResult:
    """Entangle two separated free-spin impurities with one flying particle.

    Register order (most significant first): particle-0, impurity-1,
    impurity-2.  The particle crosses impurity 1 (at -half_separation) then
    impurity 2 (at +half_separation) and is finally measured in the z basis;
    each outcome is reported with the entropy and concurrence of the
    impurity pair.

    mode "exact" composes the two impurities by the S-matrix (Redheffer star
    product) rule, which includes every multiple-scattering order, so its
    tree has a single combined reflected branch.  mode "first-order" is the
    same composition truncated to one pass (transmission T2 T1, no
    revisits) and resolves which impurity reflected.
    """
    if initial is None:
        initial = _basis_state("100", _IMPURITIES_REGISTER)
    return _result(_entangle_impurities(
        _Checks(1), _one(k), _one(impurity_1.coupling), _one(impurity_2.coupling),
        _one(half_separation), impurity_1.eigenvalues, impurity_2.eigenvalues, initial, mode))


# ---------------------------------------------------------------------------
# Parameters: readers and the table of each protocol
#
# A reader takes a parameter's flag spelling and a value, and returns the
# value the protocol takes.  It parses text and nothing else: text it cannot
# read is refused with a one-line ValueError, and any other value is read as
# the library reads it (scattering._real: a bool, null, list or array as
# NaN, an int beyond the float range as +-inf).  Every route reads a value
# by _read: flag text and a config file's values on the command line,
# --fixed and "fixed" pins, run_protocol and sweep; only sweep's own grid
# columns go to the kernel unread.  A reader holds no value rule:
# the kernel's rules (k and half_separation positive, couplings finite, the
# axis, the eigenvalues, the mode) and sweep's (the objective) refuse a bad
# value, alike on every route.

def _to_float(name, value):
    if not isinstance(value, str):
        return _real(value)
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"unparsable number for --{name}: {value!r}") from None


def _to_choice(options):
    def convert(name, value):
        v = str(value)
        if v not in options:
            raise ValueError(f"--{name} must be one of: {', '.join(options)} (got {v!r})")
        return v
    return convert


def _to_floats(name, value):
    """The comma-separated parts of text, the items of a sequence, or the
    value alone (a 0-d array too), each read by _to_float; the kernel's
    rule counts them."""
    if isinstance(value, str):
        value = value.split(",")
    elif not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim):
        value = (value,)
    return tuple(_to_float(name, part) for part in value)


def _to_eigenvalues(name, value):
    """Text without a comma names a preset; any other value is a list of numbers."""
    if isinstance(value, str) and "," not in value:
        if value not in EXCHANGE_EIGENVALUE_PRESETS:
            known = ", ".join(sorted(EXCHANGE_EIGENVALUE_PRESETS))
            raise ValueError(f"unknown eigenvalue preset {value!r} (known: {known})")
        return EXCHANGE_EIGENVALUE_PRESETS[value]
    return _to_floats(name, value)


def _to_str(name, value):
    return str(value)


# default of a parameter that run_protocol cannot do without
_NO_DEFAULT = object()


@dataclass(frozen=True)
class Param:
    """One parameter, as run_protocol, sweep and the command line take it.

    default is run_protocol's value for an absent key (None: the protocol
    derives it; _NO_DEFAULT: the call is refused).  required marks a flag
    the command line needs; an entry without help has no flag.  flag, the
    key with '-' for '_' unless given, spells the flag and the reader's
    messages.  numeric marks a parameter read as a number, which can be swept.
    """

    key: str
    read: Callable
    default: object = None
    required: bool = False
    help: str | None = None
    flag: str | None = None
    numeric: bool = field(init=False)

    def __post_init__(self):
        if self.flag is None:
            object.__setattr__(self, "flag", self.key.replace("_", "-"))
        object.__setattr__(self, "numeric", self.read is _to_float)


_COEFFICIENTS = (
    Param("a", _to_float, _NO_DEFAULT, True, "magnitude of the |00> amplitude", "a-coeff"),
    Param("b", _to_float, None, False, "magnitude of the |11> amplitude (default sqrt(1-a^2))",
          "b-coeff"),
    Param("a_phase", _to_float, 0.0, False, "phase of the |00> amplitude in radians"),
    Param("b_phase", _to_float, 0.0, False, "phase of the |11> amplitude in radians"),
)
# run_protocol and sweep default k to 1; every command requires --k
_K = Param("k", _to_float, 1.0, True, "wave number (positive)")
_EIGENVALUES = Param("eigenvalues", _to_eigenvalues, DEFAULT_EXCHANGE_EIGENVALUES, False,
                     "channel eigenvalues")

# protocol name -> its parameters, in the order they are read and their
# flags are listed
PARAMS = {
    "concentrate": (
        *_COEFFICIENTS, _K,
        Param("r", _to_float, None, False, "coupling (fixed impurity default: the optimum)"),
        # default z, unless axis_theta gives the axis
        Param("axis", _to_floats, None, False, "fixed-impurity spin axis as x,y,z"),
        # the axis tilted from z toward x by this angle, in place of axis
        Param("axis_theta", _to_float),
    ),
    "concentrate-kondo": (
        *_COEFFICIENTS, _K,
        Param("r", _to_float, _NO_DEFAULT, False, "exchange coupling"),
        Param("eigenvalues", _to_eigenvalues, DEFAULT_EXCHANGE_EIGENVALUES, False,
              "kondo channel eigenvalues"),
    ),
    "entangle-particles": (
        _K,
        Param("r", _to_float, _NO_DEFAULT, True, "exchange coupling"),
        _EIGENVALUES,
        Param("initial", _to_str, "001", False,
              "initial bits, particle-2 particle-1 impurity-0 (default 001)"),
    ),
    "entangle-impurities": (
        _K,
        Param("r1", _to_float, None, True, "first impurity exchange coupling"),
        Param("r2", _to_float, None, True, "second impurity exchange coupling"),
        # the coupling of both impurities, where r1 or r2 is absent
        Param("r", _to_float),
        Param("half_separation", _to_float, 1.0, False,
              "impurities sit at -+ this distance (default 1)"),
        Param("mode", _to_str, "first-order", False, "composition mode"),
        _EIGENVALUES,
        Param("initial", _to_str, "100", False,
              "initial bits, particle-0 impurity-1 impurity-2 (default 100)"),
    ),
}

# the numeric keys of each protocol, in table order
_NUMERIC = {name: [param.key for param in params if param.numeric] for name, params in PARAMS.items()}
# a key is read alike by every protocol that takes it
_BY_KEY = {param.key: param for params in PARAMS.values() for param in params}


def _read(param, value):
    """value as param's reader reads it; a float given for a numeric
    parameter, which _to_float returns as it is, goes to the kernel's
    checks unread."""
    if param.numeric and type(value) is float:
        return value
    return param.read(param.flag, value)


# ---------------------------------------------------------------------------
# Named-protocol dispatch (event trees, sweeps, CLI)
#
# Each runner takes the protocol's arguments, numeric ones as columns of one
# entry per point, and returns the protocol's batch.

@_quiet
def _run(protocol, p, checks, grid=()):
    """The batch of a protocol (a name of PARAMS) at the points of p, a flat mapping.

    Each entry is read in table order (_read) or takes its default; numeric
    values become (N,) columns.  The entries of the keys in grid, a sweep's
    (N,) grid columns, go to the kernel's checks unread.  Keys the protocol
    does not take are refused last.
    """
    args = {}
    for param in PARAMS[protocol]:
        if param.key in p:
            value = p.pop(param.key) if param.key in grid else _read(param, p.pop(param.key))
        else:
            value = param.default
            if value is _NO_DEFAULT:
                checks.fail(f"missing parameter {param.key!r} ({param.help})")
        args[param.key] = value
    if p:
        checks.fail(f"unknown parameter(s) for {protocol}: {', '.join(sorted(p))}")
    # the columns of the numeric values, rows of one array
    numeric = [key for key in _NUMERIC[protocol] if args[key] is not None]
    for key, column in zip(numeric, np.empty((len(numeric), checks.n))):
        column[:] = args[key]
        args[key] = column
    return _RUNNERS[protocol](checks, **args)


def _coeff_pair(checks, a, b, a_phase, b_phase):
    """The amplitudes of the magnitudes a and b (b by default sqrt(1 - a^2)),
    each in [0, 1], at their finite phases, as one (2, N) stack, and the
    magnitudes and phases, which name them in a message (_describe_pair)."""
    if b is None:
        b = np.sqrt(np.maximum(0.0, 1.0 - a * a))
    magnitudes, phases = np.array([a, b]), np.array([a_phase, b_phase])
    outside = ~((0.0 <= magnitudes) & (magnitudes <= 1.0))
    for name, bad in zip(("a", "b"), outside):
        checks.add(bad, f"parameter {name!r} must lie in [0, 1]")
    for name, bad in zip(("a_phase", "b_phase"), ~np.isfinite(phases)):
        checks.add(bad, f"parameter {name!r} must be finite")
    # cos + 1j sin, whose real and imaginary parts are cos and sin bit for
    # bit (1j sin adds a zero), scaled as magnitudes * (cos + 1j sin) is
    amplitudes = np.empty(magnitudes.shape, dtype=complex)
    amplitudes.real, amplitudes.imag = np.cos(phases), np.sin(phases)
    amplitudes *= magnitudes
    return amplitudes, (magnitudes, phases)


@functools.cache
def _basis_state(bits, labels):
    """basis_state(bits, labels), built once per argument pair; the state is frozen and read-only."""
    return basis_state(bits, labels)


def _initial_state(bits, labels, checks):
    """The initial basis state; the kernel checks the count of its bits."""
    try:
        return _basis_state(bits, labels if len(bits) == len(labels) else None)
    except ValueError as exc:
        checks.fail(str(exc))


def _run_concentrate_fixed(checks, a, b, a_phase, b_phase, k, r, axis, axis_theta):
    (a, b), given = _coeff_pair(checks, a, b, a_phase, b_phase)
    if axis_theta is None:  # one row shared by every point
        rows = np.array([_Z_AXIS if axis is None else axis])
    elif axis is not None:
        checks.fail("parameters 'axis' and 'axis_theta' exclude each other")
    else:
        rows = np.stack([np.sin(axis_theta), np.zeros_like(axis_theta), np.cos(axis_theta)], axis=-1)
    if r is None:
        r = _optimal_coupling(checks, a, b, k)
    return _concentrate_fixed(checks, a, b, k, r, rows, given)


def _run_concentrate_kondo(checks, a, b, a_phase, b_phase, k, r, eigenvalues):
    (a, b), given = _coeff_pair(checks, a, b, a_phase, b_phase)
    return _concentrate_kondo(checks, a, b, k, r, eigenvalues, given)


def _run_entangle_particles(checks, k, r, eigenvalues, initial):
    initial = _initial_state(initial, _PARTICLES_REGISTER, checks)
    return _entangle_particles(checks, k, r, eigenvalues, initial)


def _run_entangle_impurities(checks, k, r1, r2, r, half_separation, mode, eigenvalues, initial):
    r1, r2 = (r if x is None else x for x in (r1, r2))
    if r1 is None or r2 is None:
        checks.fail("missing parameter 'r1'/'r2' (or common 'r') for the two couplings")
    initial = _initial_state(initial, _IMPURITIES_REGISTER, checks)
    return _entangle_impurities(checks, k, r1, r2, half_separation, eigenvalues, eigenvalues,
                                initial, mode)


_RUNNERS = {
    "concentrate": _run_concentrate_fixed,
    "concentrate-kondo": _run_concentrate_kondo,
    "entangle-particles": _run_entangle_particles,
    "entangle-impurities": _run_entangle_impurities,
}


def _protocol(name: str) -> str:
    key = str(name).strip().lower().replace("_", "-")
    if key not in PARAMS:
        raise ValueError(f"unknown protocol name: {name!r} (known: {', '.join(sorted(PARAMS))})")
    return key


def _flat(params) -> dict:
    return {str(k).replace("-", "_"): v for k, v in dict(params or {}).items()}


def run_protocol(name: str, params=None) -> ProtocolResult:
    """Run a protocol by name with a flat parameter mapping (CLI/sweep surface).

    Each key is read as its entry in PARAMS reads it (_read).
    """
    return _result(_run(_protocol(name), _flat(params), _Checks(1)))


# ---------------------------------------------------------------------------
# Parameter sweeps

@dataclass(frozen=True)
class GridSpec:
    """One swept parameter: name, inclusive range, point count, scale."""

    name: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"grid parameter name must be a string, got {self.name!r}")
        if not self.name:
            raise ValueError("grid parameter name must be nonempty")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"grid scale must be 'linear' or 'log', got {self.scale!r}")
        for bound in ("start", "stop"):
            object.__setattr__(self, bound, _real(getattr(self, bound)))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("grid bounds must be finite")
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ValueError(f"grid point count must be an integer, got {self.points!r}")
        if self.points < 1:
            raise ValueError("grid needs at least one point")
        if self.points > 1 and not self.start < self.stop:
            raise ValueError("grid start must be below stop for more than one point")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log grids need positive bounds")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start], dtype=float)
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        # linspace may overflow only in its last point's product, and it sets
        # that point to stop
        with np.errstate(over="ignore"):
            if math.isfinite(self.stop - self.start):
                return np.linspace(self.start, self.stop, self.points)
            # the span overflows: halving bounds this large, and doubling back, is exact
            return np.linspace(self.start / 2, self.stop / 2, self.points) * 2


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: swept parameter values and success-branch metrics."""

    params: dict
    metrics: dict


@dataclass(frozen=True)
class SweepResult:
    """A sweep held by column, in row-major grid order.

    columns maps each fieldname (the swept parameters in grid order, then
    the metrics) to a read-only 1-d float array.  records is a row view of
    the same values, built on first read.
    """

    columns: dict[str, np.ndarray]
    argmax: dict

    @property
    def fieldnames(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @functools.cached_property
    def records(self) -> tuple[SweepRecord, ...]:
        names = self.fieldnames[:-len(_METRIC_NAMES)]
        params = zip(*(self.columns[name].tolist() for name in names))
        metrics = zip(*(self.columns[name].tolist() for name in _METRIC_NAMES))
        return tuple(SweepRecord(dict(zip(names, point)), dict(zip(_METRIC_NAMES, values)))
                     for point, values in zip(params, metrics))


_OBJECTIVES = {"probability": "probability", "entropy": "entropy_bits"}

_METRIC_NAMES = ("probability", "entropy_bits", "concurrence")


def sweep(protocol: str, grids, fixed=None, objective: str = "entropy") -> SweepResult:
    """Evaluate a protocol over the cartesian grid, row-major in grid order.

    Metrics are taken from the protocol's designated success branch (the
    first outcome).  Null branches record entropy/concurrence as 0.0 so that
    every point holds finite values, and a parameter is swept or pinned in
    fixed, not both.  The argmax summary reports the first
    grid point maximizing the requested objective.  The grid runs through
    the batched kernel in blocks of _BLOCK points, and the result keeps the
    grid values and metrics as the kernel's arrays (SweepResult.columns);
    each row equals the first outcome of run_protocol at its point.
    """
    grids = list(grids)
    if not grids:
        raise ValueError("sweep needs at least one grid parameter")
    names = [g.name for g in grids]
    keys = [name.replace("-", "_") for name in names]
    if len(set(keys)) != len(keys):
        raise ValueError("swept parameter names must be distinct")
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be 'probability' or 'entropy', got {objective!r}")
    protocol = _protocol(protocol)
    pinned = _flat(fixed)
    for name, key in zip(names, keys):
        param = _BY_KEY.get(key)
        if param is not None and not param.numeric:
            raise ValueError(f"parameter {name!r} is not numeric and cannot be swept")
        if key in pinned:
            raise ValueError(f"parameter {key!r} is both swept and pinned")

    # numpy refuses a size beyond its index range, and linspace fails on one
    # of 2^63 - 1 points or more with an IndexError
    try:
        points = [m.reshape(-1) for m in np.meshgrid(*(g.values() for g in grids), indexing="ij")]
    except (MemoryError, ValueError, IndexError):
        raise ValueError(f"a grid of {math.prod(g.points for g in grids)} points "
                         "does not fit in memory") from None
    blocks = []
    for lo in range(0, points[0].size, _BLOCK):
        params = dict(pinned)
        params.update({key: column[lo:lo + _BLOCK] for key, column in zip(keys, points)})
        outcomes = _run(protocol, params, _Checks(min(_BLOCK, points[0].size - lo)), keys).outcomes
        live = outcomes.live[:, 0]  # the first outcome, the success branch
        blocks.append((outcomes.probability[:, 0],
                       np.where(live, outcomes.entropy[:, 0], 0.0),
                       np.where(live, outcomes.concurrence[:, 0], 0.0)))
    metrics = [np.concatenate(column) for column in zip(*blocks)]

    columns = dict(zip(names + list(_METRIC_NAMES), points + metrics))
    for column in columns.values():
        column.setflags(write=False)
    best = int(np.argmax(columns[_OBJECTIVES[objective]]))
    argmax = {"objective": objective, "value": columns[_OBJECTIVES[objective]][best].item(),
              **{name: columns[name][best].item() for name in names}}
    return SweepResult(columns, argmax)
