"""Delta-potential scattering amplitudes (units hbar = m = 1).

Matching convention: with H = -(1/2) d^2/dx^2 + M delta(x), integrating the
eigenvalue equation across the origin gives the derivative jump

    psi'(0+) - psi'(0-) = 2 M psi(0),

the factor 2 coming from the 1/2 kinetic prefactor.  For a scalar coupling g
this yields transmission S = 1/(1 + i g/k); dropping the 2 is the classic
off-by-two error, so the convention is pinned here and locked by tests.

Phase convention: outgoing amplitudes are referenced to x = 0.  Transmitted
waves are written T e^{ikx} and reflected waves R e^{-ikx} with no extra
position phase, for single impurities and for the exact two-impurity solver
alike.  A consequence worth knowing: the exact two-impurity transmission is
then directly comparable to the plain product of single-impurity
transmissions (first_order_composition), and reducing the exact solver to a
single impurity at x = -+a reproduces the single-impurity T exactly while
the reflection picks up the position phase e^{-+2ika}.

Two impurities compose by the S-matrix (Redheffer star product) rule of
star_product, which sums every back-and-forth order between them; the
first-order composition is its truncation to a single pass.  star_product
takes each barrier as its channel decomposition T = sum_c S_c P_c, stacked
amplitudes and a constant projector table, and never forms T; the other
batched functions act on stacks of operators along leading axes.

The input rules on numbers (k, coupling, half-separation, the exact
composition's finite 2·k·half_separation, finite operators) are written
once, here, over N stacked points: the protocol kernels record them in a
_Checks, and so does each scalar entry point, as a batch of one whose
real arguments are read by _real and complex ones by _complex.  The
barrier transmission S = 1/(1 + i coupling/k) of every barrier, channel
and filter is defined once, by _transmission, and the propagation phase
p = e^{2ika} of the exact composition by _phase.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InternalFaultError
from .tolerances import DEFAULT as TOL


def _real(x) -> float:
    """Read a real scalar argument: a numbers.Real but a bool as its float, an
    int beyond the float range as +-inf, anything else as NaN, so that it
    reaches its rule."""
    try:  # a float first: it spares most arguments the abc check of numbers.Real
        return float(x) if type(x) is float or isinstance(x, numbers.Real) and type(x) is not bool else math.nan
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _complex(x) -> complex:
    """Read a complex scalar argument as _real reads a real one: a
    numbers.Complex but a bool as its complex value, an int beyond the
    float range as +-inf, anything else as NaN."""
    try:
        return complex(x) if isinstance(x, numbers.Complex) and type(x) is not bool else complex(math.nan)
    except OverflowError:
        return complex(_real(x))


def _one(x) -> np.ndarray:
    return np.array([_real(x)])  # a batch of one


def _reals(values) -> tuple[float, ...]:
    """The items of a sequence read by _real; a value that is no sequence has none."""
    try:
        return tuple(map(_real, values))
    except TypeError:
        return ()


def _quiet(fn):
    """Run an entry point with floating-point warnings off: an overflow or a
    bad input shows up as non-finite values, which the checks refuse with a
    one-line error.  The kernels run inside such an entry point."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return quiet


class _Checks:
    """Validation of N stacked points, reported as a point-by-point loop would.

    Checks are recorded in the order a single evaluation makes them, each
    as an (N,) boolean array that is True where the point fails;
    raise_first stacks them into one (m, N) array and tests it once, and
    raises the error of the first failing check at the first failing point.
    """

    def __init__(self, n: int):
        self.n = n
        self._checks = []

    def add(self, bad, message, error=ValueError):
        """Record bad, (N,) booleans or (1,) for a pinned row: message is text or a function of i."""
        if bad.shape[0] != self.n:
            bad = bad.repeat(self.n)
        self._checks.append((bad, message, error))

    def fail(self, message):
        """A failure shared by every point, raised at once (after earlier checks at point 0)."""
        self.add(np.ones(self.n, dtype=bool), message)
        self.raise_first()

    def raise_first(self):
        bad = np.array([b for b, _, _ in self._checks])
        if np.count_nonzero(bad):  # a fraction of logical_or.reduce's cost at N = 1
            point = int(np.argmax(np.logical_or.reduce(bad, axis=0)))
            _, message, error = self._checks[int(np.argmax(bad[:, point]))]
            raise error(message(point) if callable(message) else message)
        self._checks.clear()


def _check_wave_number(checks, k):
    checks.add(~(np.isfinite(k) & (k > 0)), "k must be positive")


def _check_coupling(checks, strength):
    """strength (r, 2r or r*lambda_c) is (N,), or (c, N) with a row per channel."""
    finite = np.isfinite(strength)
    checks.add(~(np.logical_and.reduce(finite, axis=0) if finite.ndim > 1 else finite),
               "coupling must be finite")


def _check_half_separation(checks, half_separation):
    checks.add(~(np.isfinite(half_separation) & (half_separation > 0)), "half_separation must be positive")


def _check_phase(checks, k, half_separation):
    """The exact composition's phase _phase needs a finite 2·k·half_separation."""
    checks.add(~np.isfinite(2 * k * half_separation), "2*k*half_separation must be finite")


def _phase(k, half_separation):
    """The propagation phase p = e^{2ika} between barriers at -+half_separation."""
    return np.exp(2j * k * half_separation)


def _check_finite_operators(checks, operators):
    """operators (N, ...): every entry of a point's operators is finite."""
    finite = np.logical_and.reduce(np.isfinite(operators).reshape(checks.n, -1), axis=1)
    checks.add(~finite, "operator entries must be finite")


def _flux_deviation(t, r) -> float:
    """max|T+T + R+R - I| over a stack of (..., d, d) operator pairs T, R:
    zero where the scattering conserves flux."""
    flux = t.conj().swapaxes(-1, -2) @ t + r.conj().swapaxes(-1, -2) @ r
    return float(np.max(np.abs(flux - np.eye(t.shape[-1]))))


def _check_flux(deviation, what, where=""):
    """Raise the flux fault, its message framed by what and where, unless
    deviation <= solver_residual: a NaN deviation fails."""
    if not deviation <= TOL.solver_residual:
        raise InternalFaultError(
            f"{what}flux conservation violated by {deviation:.3e} (> {TOL.solver_residual:g}){where}")


def _check_hermitian(m, name="potential"):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} entries must be finite")
    if not np.max(np.abs(m - m.conj().T)) <= TOL.algebraic:
        raise ValueError(f"{name} must be Hermitian (within {TOL.algebraic:g})")


@dataclass(frozen=True)
class ScalarAmplitudes:
    """Transmission/reflection pair of a scalar delta barrier.

    xi = coupling/k is the dimensionless strength; transmission = 1/(1 + i xi)
    and reflection = transmission - 1 exactly.
    """

    transmission: complex
    reflection: complex
    xi: float

    def __post_init__(self):
        if self.reflection != self.transmission - 1.0:
            raise ValueError("reflection must equal transmission - 1")


def _transmission(coupling, k):
    """Transmission S = 1/(1 + i coupling/k) of scalar delta barriers, elementwise.

    coupling and k broadcast against each other; no validation (callers
    check k > 0 and finite couplings at their _quiet entry point).  Where
    coupling/k overflows to infinity, S is its limit 0.
    """
    xi = np.asarray(coupling, dtype=float) / k
    s = np.empty(xi.shape, dtype=complex)
    s.real = 1.0
    s.imag = xi  # 1 + i xi without the product 1j * inf, which is nan + inf i
    np.divide(1.0, s, out=s)
    s[np.isinf(xi)] = 0.0
    return s


@_quiet
def scalar_amplitudes(coupling: float, k: float) -> ScalarAmplitudes:
    """Plane-wave amplitudes for a scalar delta barrier of strength coupling."""
    checks, coupling, k = _Checks(1), _one(coupling), _one(k)
    _check_wave_number(checks, k)
    _check_coupling(checks, coupling)
    checks.raise_first()
    s = complex(_transmission(coupling, k)[0])
    return ScalarAmplitudes(s, s - 1.0, float(coupling[0] / k[0]))


@dataclass(frozen=True)
class OperatorAmplitudes:
    """Operator-valued transmission/reflection with reflection = T - identity."""

    transmission: np.ndarray
    reflection: np.ndarray

    def __post_init__(self):
        t = np.array(self.transmission, dtype=complex)
        r = np.array(self.reflection, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape != r.shape:
            raise ValueError("transmission and reflection must be equal square matrices")
        checks = _Checks(1)
        _check_finite_operators(checks, np.array([t, r]))
        checks.raise_first()
        if not np.array_equal(r, t - np.eye(t.shape[0])):
            raise ValueError("reflection must equal transmission - identity")
        for name, m in (("transmission", t), ("reflection", r)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @classmethod
    def _trusted(cls, transmission):
        """The operators of a transmission built from checked values: a
        finite square complex array, which is made read-only, as is the
        reflection T - I formed here."""
        reflection = transmission - np.eye(len(transmission))
        transmission.setflags(write=False)
        reflection.setflags(write=False)
        ops = object.__new__(cls)
        ops.__dict__.update(transmission=transmission, reflection=reflection)
        return ops

    @property
    def dim(self) -> int:
        return self.transmission.shape[0]


@_quiet
def matrix_amplitudes(potential, k: float) -> OperatorAmplitudes:
    """Transmission operator of a matrix-valued delta barrier M delta(x).

    T = (I + i M/k)^-1, built from the eigendecomposition M = V diag(lambda) V+
    as T = V diag(S) V+ with the scalar transmissions S = 1/(1 + i lambda/k);
    (I + i M/k) is invertible for every Hermitian M since its spectrum is
    1 + i*real, and S is 0 where lambda/k overflows.  T is checked by its
    residual relative to the operands, taken on k(I + iM/k) = kI + iM so
    that it stays finite where M/k overflows: an accurate T leaves
    max|(kI + iM)T - kI| of the order of the machine epsilon times
    ||kI + iM||·||T||, which grows with |M|, so the bound is solver_residual
    times that product (infinity norms).  A small residual relative to a
    huge |M/k| does not make T accurate, so flux conservation T+T + R+R = I
    is checked as well.

    Accuracy: eigh finds each eigenvalue of M to about eps·||M||, which
    moves S_c by |S_c|^2·eps·||M||/k, so T is accurate to about
    eps·||M||/k·max_c |S_c|^2.  A channel that M leaves open (eigenvalue 0,
    S = 1) beside a strong one is known to about eps·||M||/k: 1e-6 at
    ||M||/k = 1e10.  This is the conditioning of T under a perturbation of
    M of relative size eps; no backward-stable method does better on
    general M.
    """
    checks, k = _Checks(1), _real(k)
    _check_wave_number(checks, np.array([k]))
    checks.raise_first()
    m = np.asarray(potential, dtype=complex)
    _check_hermitian(m)
    s, v = _barrier_channels(m, k)
    t = (v * s) @ v.conj().T
    eye = np.eye(m.shape[0], dtype=complex)
    lhs = k * eye + 1j * m
    residual = float(np.max(np.abs(lhs @ t - k * eye)))
    scale = float(np.linalg.norm(lhs, np.inf) * np.linalg.norm(t, np.inf))
    if not residual <= TOL.solver_residual * scale:
        raise InternalFaultError(
            f"delta-barrier residual max|(kI + iM)T - kI| = {residual:.3e} exceeds "
            f"{TOL.solver_residual:g} x |kI + iM| |T| = {TOL.solver_residual * scale:.3e}"
        )
    r = t - eye
    _check_flux(_flux_deviation(t, r), "delta-barrier ")
    return OperatorAmplitudes(t, r)


def _barrier_channels(potentials, k):
    """Channel decomposition of (I + iM/k)^-1 for a stack of Hermitian potentials M:
    the transmissions S = 1/(1 + i lambda/k) of the eigenvalues, and the eigenvectors V."""
    try:
        lam, v = np.linalg.eigh(potentials)
    except np.linalg.LinAlgError as exc:  # unreachable for finite Hermitian input
        raise InternalFaultError(f"delta-barrier eigendecomposition failed: {exc}") from exc
    return _transmission(lam, k), v


@dataclass(frozen=True)
class TwoImpurityGeometry:
    """Two delta scatterers at x = -half_separation and x = +half_separation."""

    half_separation: float
    k: float
    potential_left: np.ndarray
    potential_right: np.ndarray

    @_quiet  # 2·k·half_separation may overflow, which _check_phase refuses
    def __post_init__(self):
        checks, half_separation, k = _Checks(1), _one(self.half_separation), _one(self.k)
        _check_half_separation(checks, half_separation)
        _check_wave_number(checks, k)
        _check_phase(checks, k, half_separation)
        checks.raise_first()
        object.__setattr__(self, "half_separation", half_separation.item())
        object.__setattr__(self, "k", k.item())
        for name in ("potential_left", "potential_right"):
            m = np.array(getattr(self, name), dtype=complex)
            _check_hermitian(m, name)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if self.potential_left.shape != self.potential_right.shape:
            raise ValueError("the two potentials must share one dimension")

    @property
    def dim(self) -> int:
        return self.potential_left.shape[0]


@dataclass(frozen=True)
class TwoImpurityAmplitudes:
    """Exact transmission/reflection operators of the two-impurity problem.

    Unlike the single-barrier case, reflection != transmission - identity;
    instead flux conservation T+T + R+R = I holds and is checked at solve
    time.  An incident spin chi leaves as T @ chi and R @ chi.
    """

    transmission: np.ndarray
    reflection: np.ndarray


def _pass_table(projectors) -> np.ndarray:
    """The (d, c*d) table of channel projectors (c, d, d) that _pass multiplies:
    column c*d + j holds column j of P_c.  A barrier's table is made once and
    reused by every pass through it."""
    return projectors.transpose(1, 0, 2).reshape(projectors.shape[-1], -1)


def _pass(coefficients, table, x):
    """sum_c coefficients[c, m] P_c x of a barrier's _pass_table, by one product.

    The point axis is last: coefficients (c, m, n), x spin vectors (d, n),
    and a length-1 point axis is shared by every point.  The terms
    coefficients[c] x_j are formed along whole point axes, as one
    C-ordered (c*d, m*n) array, and the table multiplies them in one 2-d
    product, so no (n, d, d) operator is formed.  A vector shared by every
    point is projected first, P_c x, and its images weighted by the
    coefficients in one product.  Returns (d, m, n).
    """
    d, cd = table.shape
    if x.shape[-1] == 1:
        images = (table.reshape(d, -1, d) @ x)[..., 0]
        return (images @ coefficients.reshape(coefficients.shape[0], -1)).reshape(d, *coefficients.shape[1:])
    terms = np.multiply(coefficients[:, None], x[None, :, None], order="C")
    return (table @ terms.reshape(cd, -1)).reshape(d, *terms.shape[2:])


# channel coefficients S_c - 0 and S_c - 1 of T and T - I, along their own axis
_PASS_SHIFTS = np.array([[0.0], [1.0]])


@_quiet
def star_product(s1, projectors1, s2, projectors2, phase, incident):
    """S-matrix (Redheffer star product) composition of two delta barriers.

    Barrier j, at x = -a (j = 1) or x = +a (j = 2), is given by its channel
    decomposition T_j = sum_c S_c P_c: amplitudes sj (n, c) and Hermitian
    projectors (c, d, d) that sum to I; it reflects R_j = T_j - I.  phase
    is p = e^{2ika} (shape (n,) or scalar), incident holds incident spin
    vectors (n, d); a lone row of amplitudes or of incident vectors is
    shared by every point.  Returns the transmitted and reflected vectors
    T chi, R chi, each (n, d):

        C = (I - p^2 R1 R2)^-1 T1,   T = T2 C,   R = R1/p + p T1 R2 C

    C sums every back-and-forth order between the barriers, so only d x d
    systems are solved, by _solve's Gaussian elimination with partial
    pivoting in numpy over the point axis.  Each product with a barrier is
    one product of its channel coefficients against its projector table
    (_pass), and R1 R2 = sum_ce (S1_c - 1)(S2_e - 1) P1_c P2_e is one
    product against the table of the projector pairs (_pair_table), so the
    only (n, d, d) stack formed is the matrix solved.  Dropping the
    p^2 R1 R2 term leaves the single pass T2 T1 of first_order_composition,
    whose error is that term's O(xi^2).
    """
    return _compose((s1, s2), (_pass_table(projectors1), _pass_table(projectors2)), incident,
                    _pair_table(projectors1, projectors2), phase)


def _pair_table(projectors1, projectors2) -> np.ndarray:
    """The (d*d, c*e) table of the projector products P1_c P2_e, flattened by column."""
    d = projectors1.shape[-1]
    return (projectors1[:, None] @ projectors2).transpose(2, 3, 0, 1).reshape(d * d, -1)


def _solve(system, x):
    """The solutions y of A y = x for d x d systems A, by Gaussian elimination
    with partial pivoting.

    The point axis is last, as in _pass: system (d*d, n) holds each A row
    by row, x (d, n), and a length-1 point axis is shared by every point.
    Each row of the augmented system [A | x] is one (d + 1, n) array, and
    the loops run over the d rows: at each point the pivot is the entry of
    largest modulus left in its column, moved up by np.where, so nothing
    is reduced across points and a point's result does not depend on the
    others.  Like LAPACK's getrf, this is backward stable (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 9): the computed
    y solves (A + dA) y = x with |dA| of the order of d·eps·|A| times the
    growth factor, at most 2^(d-1).  An exact zero pivot, which only a
    singular A has, raises InternalFaultError; a NaN entry gives NaN at
    its point, for the caller's checks to refuse.  Returns (d, N).
    """
    d = len(x)
    augmented = np.empty((d, d + 1, max(system.shape[-1], x.shape[-1])), dtype=complex)
    augmented[:, :d] = system.reshape(d, d, -1)
    augmented[:, d] = x
    rows = list(augmented)  # row i holds the columns i, ..., d of [A | x] once eliminated
    for k in range(d):
        largest = np.abs(rows[k][0])
        for i in range(k + 1, d):
            size = np.abs(rows[i][0])
            swap = size > largest
            largest = np.maximum(largest, size)  # NaN where a candidate is NaN
            rows[k], rows[i] = np.where(swap, rows[i], rows[k]), np.where(swap, rows[k], rows[i])
        if not np.logical_and.reduce(largest):  # column k is zero from row k down
            raise InternalFaultError("two-impurity composition is singular: Singular matrix")
        pivot, tail = rows[k][0], rows[k][1:]
        for i in range(k + 1, d):
            rows[i] = rows[i][1:] - rows[i][0] / pivot * tail
    y = [None] * d
    for i in range(d - 1, -1, -1):  # back substitution; row i is U_ii, ..., U_i(d-1), x_i
        row, total = rows[i], rows[i][-1]
        for j in range(i + 1, d):
            total = total - row[j - i] * y[j]
        y[i] = total / row[0]
    return np.array(y)


def _compose(amplitudes, tables, incident, pairs=None, phase=None):
    """Scatter spin vectors chi through the barriers a particle meets, in that order.

    Barrier j is amplitudes[j] (n, c) and its _pass_table, tables[j], for
    each j of amplitudes.  Without pairs, one pass: returns T_m...T_1 chi,
    then the reflection at each barrier, R_1 chi, R_2 T_1 chi, ....  With
    the _pair_table of two barriers and the phase, their star_product
    (T chi, R chi), whose d x d systems (I - p^2 R1 R2) C = T1 chi are
    solved by _solve's elimination over the point axis.
    """
    coefficients = [s.T[:, None] - _PASS_SHIFTS for s in amplitudes]
    x, reflected = incident.T, []  # points last: vectors (d, n), coefficients (c, 2, n)
    for c, table in zip(coefficients, tables):
        if reflected and pairs is not None:
            d, p = table.shape[0], np.asarray(phase)
            r1r2 = pairs @ (coefficients[0][:, None, 1] * c[None, :, 1]).reshape(pairs.shape[1], -1)
            x = _solve(np.eye(d).reshape(d * d, 1) - p * p * r1r2, x)
        out = _pass(c, table, x)
        x = out[:, 0]
        reflected.append(out[:, 1].T)
    if pairs is None:
        return x.T, *reflected
    back = _pass(coefficients[0][:, :1], tables[0], reflected[1].T)[:, 0]
    return x.T, (reflected[0].T / p + p * back).T


@_quiet
def two_impurity_exact(geom: TwoImpurityGeometry) -> TwoImpurityAmplitudes:
    """Exact plane-wave solution for two matrix delta barriers.

    Each barrier alone transmits T_j = (I + i M_j/k)^-1 = sum_c S_c v_c v_c+
    over the eigenpairs of M_j, as in matrix_amplitudes, and is accurate to
    about eps·||M_j||/k·max_c |S_c|^2; star_product then composes the pair
    from these rank-one channel decompositions, keeping every
    back-and-forth multiple-scattering order.  Flux conservation
    T+T + R+R = I is checked on the result: where it fails, by more than
    solver_residual or with a non-finite deviation, InternalFaultError is
    raised.
    """
    k = geom.k
    s, v = _barrier_channels(np.stack([geom.potential_left, geom.potential_right]), k)
    p1, p2 = np.einsum("jic,jkc->jcik", v, v.conj())
    # row i of the results is the image of the incident basis vector e_i
    transmitted, reflected = star_product(
        s[:1], p1, s[1:], p2, _phase(k, geom.half_separation), np.eye(geom.dim, dtype=complex))
    transmission, reflection = transmitted.T, reflected.T
    _check_flux(_flux_deviation(transmission, reflection), "two-impurity ")
    return TwoImpurityAmplitudes(transmission, reflection)


def first_order_composition(ops) -> np.ndarray:
    """Single-pass composition: product of transmissions, first scatterer first.

    This is star_product without its multiple-scattering term: the
    inter-impurity propagation phase then multiplies every spin component
    equally and drops out as a global phase.  The result agrees with the
    exact two-impurity transmission up to O((coupling/k)^2) corrections.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator pair")
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise ValueError("all operator pairs must share one dimension")
    out = np.eye(dims.pop(), dtype=complex)
    for op in ops:
        out = op.transmission @ out
    return out
