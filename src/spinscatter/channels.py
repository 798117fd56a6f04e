"""Channel operators for the two impurity kinds.

Fixed-spin filter: a scatterer whose spin is pinned along an axis.  The
flying-spin component aligned with the axis passes freely; the anti-aligned
component sees a delta barrier of twice the bare coupling (the potential is
coupling * (1 - n.sigma), whose eigenvalues are 0 and 2*coupling), so its
transmission is 1/(1 + 2i r/k).

Exchange (Kondo) channel: a free impurity spin contact-coupled to the
flying spin.  The two-spin space splits into four channel states, the
aligned kets |00> and |11> and the symmetric/antisymmetric combinations
(|01> +- |10>)/sqrt(2); channel c scatters with its own scalar amplitude
S_c = 1/(1 + i r*lambda_c/k) fixed by the channel eigenvalue lambda_c.
On the computational basis this mixes |01> and |10>:

    |01> -> (S_sym+S_anti)/2 |01> + (S_sym-S_anti)/2 |10>
    |10> -> (S_sym-S_anti)/2 |01> + (S_sym+S_anti)/2 |10>

both rows following from expanding against the channel states; at zero
coupling every S_c = 1 and the map is exactly the identity.

Eigenvalue presets: "default" = (1, 1, -2, 0); "standard-pauli" =
(1, 1, 1, -3), the spectrum of the two-spin Pauli exchange operator
sigma.sigma (triplet +1, singlet -3).  Any custom 4-tuple is accepted.

Both operators are linear in fixed projectors: T = sum_c S_c P_c for the
exchange channels and T = P+ + S P- for the filter.  EXCHANGE_PROJECTORS
holds the exchange projectors with their exact entries 0, +-1/2 and 1, so
they sum to the identity exactly and S_c - 1 are the exact coefficients of
T - I; the protocols apply them through tables, without forming T.
_channel_amplitudes gives the S_c and checks the eigenvalues and the
couplings r*lambda_c, for stacked points and for kondo_channel_amplitudes;
kondo_operators builds T for one point, filter_transmission the filter's T
for stacks of amplitudes (leading axes), and fixed_filter_operators for one
point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import _check_axis, _sigma_along
from .scattering import (OperatorAmplitudes, _check_coupling, _check_finite_operators, _check_wave_number,
                         _Checks, _one, _quiet, _reals, _transmission, scalar_amplitudes)

EXCHANGE_EIGENVALUE_PRESETS: dict[str, tuple[float, float, float, float]] = {
    "default": (1.0, 1.0, -2.0, 0.0),
    "standard-pauli": (1.0, 1.0, 1.0, -3.0),
}
DEFAULT_EXCHANGE_EIGENVALUES = EXCHANGE_EIGENVALUE_PRESETS["default"]
_Z_AXIS = (0.0, 0.0, 1.0)  # the filter's default spin axis

# channel kets on (particle, impurity), unnormalized: aligned up, aligned
# down, symmetric, antisymmetric -- the order of every eigenvalue 4-tuple.
# |u><u| / <u|u> of these integer kets has the exact entries 0, +-1/2 and 1,
# so the projectors sum to the identity exactly.
_CHANNEL_KETS = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0]])
EXCHANGE_PROJECTORS = (np.einsum("ci,cj->cij", _CHANNEL_KETS, _CHANNEL_KETS)
                       / np.einsum("ci,ci->c", _CHANNEL_KETS, _CHANNEL_KETS)[:, None, None]
                       ).astype(complex)
"""Channel projectors |c><c|, shape (4, 4, 4), in eigenvalue order."""
EXCHANGE_PROJECTORS.setflags(write=False)


def _check_eigenvalues(checks, eigenvalues):
    """The eigenvalue rule, one row shared by every point: eigenvalues, a
    tuple of floats, holds four finite numbers."""
    checks.add(np.array([len(eigenvalues) != 4 or not all(map(math.isfinite, eigenvalues))]),
               "eigenvalues must be four finite numbers")


@dataclass(frozen=True)
class FixedImpurity:
    """Pinned-spin scatterer: bare coupling and spin axis (unit 3-vector)."""

    coupling: float
    axis: tuple[float, float, float] = _Z_AXIS

    @_quiet
    def __post_init__(self):
        checks, coupling, axis = _Checks(1), _one(self.coupling), _reals(self.axis)
        _check_coupling(checks, coupling)
        _check_axis(checks, np.array([axis]))
        checks.raise_first()
        object.__setattr__(self, "coupling", coupling.item())
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class KondoImpurity:
    """Free-spin scatterer: exchange coupling and per-channel eigenvalues."""

    coupling: float
    eigenvalues: tuple[float, float, float, float] = DEFAULT_EXCHANGE_EIGENVALUES

    def __post_init__(self):
        checks, coupling, eigenvalues = _Checks(1), _one(self.coupling), _reals(self.eigenvalues)
        _check_eigenvalues(checks, eigenvalues)
        _check_coupling(checks, coupling)
        checks.raise_first()
        object.__setattr__(self, "coupling", coupling.item())
        object.__setattr__(self, "eigenvalues", eigenvalues)


def exchange_matrix(eigenvalues=DEFAULT_EXCHANGE_EIGENVALUES) -> np.ndarray:
    """Direction matrix sum_c lambda_c |c><c| of the exchange potential.

    Multiplying by the coupling gives the delta-barrier potential the
    exchange impurity presents to the two-spin space.
    """
    # the eigenvalues read and checked as an impurity's
    return np.einsum("c,cij->ij", KondoImpurity(0.0, eigenvalues).eigenvalues, EXCHANGE_PROJECTORS)


def filter_transmission(amplitude, sigma) -> np.ndarray:
    """Pinned-spin filter transmission T = P+ + S P-, P+- = (I +- n.sigma)/2.

    amplitude S (shape ...) is the anti-aligned transmission and sigma
    (..., D, D) the spin projection n.sigma, possibly embedded in a larger
    register.  The aligned component passes with amplitude exactly 1.
    """
    eye = np.eye(sigma.shape[-1])
    # S (0.5 (I - sigma)) + 0.5 (I + sigma), in place where the operand
    # order allows, so a stack holds two temporaries fewer
    t = eye - sigma
    t *= 0.5
    t = np.asarray(amplitude)[..., None, None] * t
    aligned = eye + sigma
    aligned *= 0.5
    t += aligned
    return t


def _channel_amplitudes(checks, r, k, eigenvalues):
    """(N, 4) per-channel transmissions S_c = 1/(1 + i r lambda_c / k), which
    mean something once the eigenvalue and coupling rules recorded here have
    passed: the transpose of a C-ordered (4, N) array, as _compose takes
    whole point rows."""
    _check_eigenvalues(checks, eigenvalues)
    coupling = np.multiply.outer(eigenvalues, r)
    _check_coupling(checks, coupling)
    return _transmission(coupling, k).T


@_quiet
def kondo_channel_amplitudes(spec: KondoImpurity, k: float) -> tuple[complex, ...]:
    """Per-channel transmissions S_c = 1/(1 + i r*lambda_c/k): _channel_amplitudes at one point."""
    checks, k = _Checks(1), _one(k)
    _check_wave_number(checks, k)
    s = _channel_amplitudes(checks, np.array([spec.coupling]), k, spec.eigenvalues)
    checks.raise_first()
    return tuple(s[0].tolist())


def kondo_operators(spec: KondoImpurity, k: float) -> OperatorAmplitudes:
    """Two-spin transmission/reflection operators of the exchange impurity.

    Built channel by channel from the known eigenbasis (a deliberately
    different route from matrix_amplitudes, which diagonalizes the potential
    numerically; the two must agree).
    """
    return _exchange_operators(kondo_channel_amplitudes(spec, k))


def _exchange_operators(amplitudes) -> OperatorAmplitudes:
    """The operators T = sum_c S_c P_c and T - I of the four channel amplitudes S_c."""
    t = np.einsum("c,cij->ij", np.array(amplitudes), EXCHANGE_PROJECTORS)
    return OperatorAmplitudes(t, t - np.eye(4))


def fixed_filter_operators(spec: FixedImpurity, k: float) -> OperatorAmplitudes:
    """Single-spin transmission/reflection operators of the pinned-spin filter."""
    # anti-aligned component sees twice the bare coupling
    s = scalar_amplitudes(2.0 * spec.coupling, k).transmission
    t = filter_transmission(s, _sigma_along([spec.axis])[0])  # checked in FixedImpurity
    return OperatorAmplitudes(t, t - np.eye(2))


def embed(op, total_qubits: int, targets) -> np.ndarray:
    """Extend an operator on the target qubits to the full register by identity.

    targets lists qubit indices in most-significant-first order of the
    operator's own index; qubit q addresses the bit of weight 2**q in the
    register.
    """
    mat = np.asarray(op, dtype=complex)
    targets = [int(q) for q in targets]
    n = int(total_qubits)
    if n < 1 or n > 3:
        raise ValueError("total_qubits must be between 1 and 3")
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    if any(q < 0 or q >= n for q in targets):
        raise ValueError(f"target qubit out of range for a {n}-qubit register")
    m = len(targets)
    if mat.ndim != 2 or mat.shape != (2**m, 2**m):
        raise ValueError(f"operator shape {mat.shape} does not match {m} target qubit(s)")
    checks = _Checks(1)
    _check_finite_operators(checks, mat)
    checks.raise_first()

    rest = [q for q in range(n - 1, -1, -1) if q not in targets]
    big = np.kron(mat, np.eye(2 ** (n - m), dtype=complex))
    tens = big.reshape((2,) * (2 * n))
    current = targets + rest  # qubit owning each tensor axis, rows then columns
    perm = [current.index(q) for q in range(n - 1, -1, -1)]
    return tens.transpose(perm + [n + i for i in perm]).reshape(2**n, 2**n)
