"""Dense complex linear algebra over small multi-qubit spin spaces.

States live in the computational basis of 1 to 3 qubits with |0> = spin-up
and |1> = spin-down.  The leftmost qubit label is the most significant bit
of the amplitude index: qubit index q addresses the bit of weight 2**q, so
qubit 0 is the rightmost label and a three-qubit ket |x>|y>|z> sits at
amplitude index 4x + 2y + z.

Unnormalized states are first-class (post-selection branches keep their raw
amplitudes, whose squared norm is the branch probability); normalization is
always an explicit call, never a side effect.  All wrapper types are frozen
and hold read-only arrays, so values can be shared freely across threads.
The squared norm (_norm2) and n.sigma (_sigma_along) are defined here once,
for SpinState and the protocols' stacked rows alike.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scattering import _Checks, _quiet, _reals
from .tolerances import DEFAULT as TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# n.sigma is the combination of these with the axis components
_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

_ALLOWED_LENGTHS = (2, 4, 8)


def _check_axis(checks, axes):
    """The axis rule over a stack of axes (N, d): each is a finite unit 3-vector."""
    if axes.shape[-1] != 3:  # fails the first check at every point
        axes = np.full((len(axes), 3), np.nan)
    checks.add(~np.logical_and.reduce(np.isfinite(axes), axis=-1), "axis must be a finite 3-vector")
    norm = np.sqrt(np.add.reduce(axes * axes, axis=-1))
    checks.add(~(np.abs(norm - 1.0) <= TOL.normalization),
               f"axis must be a unit vector (within {TOL.normalization:g})")


@_quiet
def pauli_along(axis) -> np.ndarray:
    """Spin projection operator n.sigma for a unit 3-vector n."""
    checks, axes = _Checks(1), np.array([_reals(axis)])
    _check_axis(checks, axes)
    checks.raise_first()
    return _sigma_along(axes)[0]


def _sigma_along(axes) -> np.ndarray:
    """n.sigma (N, 2, 2) of axes (N, 3) past the axis rule, cast first (einsum's cast costs 3x)."""
    return np.einsum("na,aij->nij", np.asarray(axes, dtype=complex), _PAULIS)


def _sum_rows(x):
    """np.add.reduce(x, axis=-1) on rows of squares, bit for bit, with rows of 4 as column adds.

    numpy adds a row of 4 in order, from +0.0 (a row of -0.0 alone, which
    no square is, would sum to -0.0 here), and its reduce over rows that
    short costs several times these column adds.  Rows of 8, which numpy
    adds pairwise, stay with numpy: their pairwise column form costs about
    2 us more in a batch of one, where a single call sums them twice.
    """
    if x.shape[-1] != 4:
        return np.add.reduce(x, axis=-1)
    return ((x[..., 0] + x[..., 1]) + x[..., 2]) + x[..., 3]


def _norm2(amps):
    return _sum_rows(amps.real ** 2 + amps.imag ** 2)


@dataclass(frozen=True)
class SpinState:
    """Complex amplitude vector over 1..3 qubits with per-qubit role labels."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size not in _ALLOWED_LENGTHS:
            raise ValueError(
                f"amplitude vector must have length 2, 4 or 8, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        labels = tuple(str(label) for label in self.labels)
        if len(labels) != amps.size.bit_length() - 1:
            raise ValueError(
                f"expected {amps.size.bit_length() - 1} labels, got {len(labels)}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, amplitudes, labels):
        """A state whose checks its builder has made: amplitudes a finite,
        read-only 1-d complex array of length 2, 4 or 8, labels a tuple of
        one str per qubit."""
        state = object.__new__(cls)
        state.__dict__.update(amplitudes=amplitudes, labels=labels)
        return state

    def __eq__(self, other):
        """Equal labels and amplitudes, compared by value (-0.0 equals 0.0)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.amplitudes, other.amplitudes)

    def __hash__(self):
        return hash((self.labels, tuple(self.amplitudes.tolist())))

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    @_quiet
    def norm_squared(self) -> float:  # _norm2, as the protocols take branch probabilities
        return float(_norm2(self.amplitudes))

    @functools.cached_property
    def normalized(self) -> bool:
        return abs(self.norm_squared - 1.0) < TOL.normalization

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_squared)


def make_state(amplitudes, labels=None) -> SpinState:
    """Build a SpinState, defaulting labels to q{n-1}..q0 (most significant first)."""
    amps = np.asarray(amplitudes, dtype=complex)
    if labels is None:
        n = amps.size.bit_length() - 1 if amps.ndim == 1 else 0
        labels = tuple(f"q{i}" for i in range(n - 1, -1, -1))
    return SpinState(amps, tuple(labels))


def basis_state(bits: str, labels=None) -> SpinState:
    """Computational basis ket from a bit string, leftmost bit most significant."""
    if not bits or any(c not in "01" for c in bits) or len(bits) > 3:
        raise ValueError(f"bits must be a string of 1..3 characters from '01', got {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return make_state(amps, labels)


def normalize(s: SpinState) -> SpinState:
    """Explicitly rescale to unit norm; raises on a (near-)zero state."""
    amps, n2 = s.amplitudes, s.norm_squared
    if not math.isfinite(n2):  # the squares overflow: scale by the largest component first
        amps = amps / np.max(np.abs([amps.real, amps.imag]))
        n2 = float(_norm2(amps))
    if n2 <= TOL.null_floor:
        raise ValueError("cannot normalize a zero state")
    return SpinState(amps / math.sqrt(n2), s.labels)


def pure_pair_figures(pairs):
    """Entanglement entropy (bits) and concurrence of normalized two-qubit pure states.

    pairs holds amplitude vectors along its last axis, shape (..., 4).  The
    concurrence is C = 2|c00 c11 - c01 c10| (clipped to 1), and either qubit's
    reduced density matrix has eigenvalues (1 +- sqrt(1 - C^2))/2, so the
    entropy follows from C with no eigensolver.  Returns two arrays of shape
    pairs.shape[:-1].
    """
    pairs = np.asarray(pairs)
    if pairs.shape[-1:] != (4,):
        raise ValueError(f"pairs must hold 4 amplitudes along the last axis, got shape {pairs.shape}")
    c = np.minimum(1.0, 2.0 * np.abs(pairs[..., 0] * pairs[..., 3] - pairs[..., 1] * pairs[..., 2]))
    # smaller eigenvalue (1 - sqrt(1 - C^2))/2, written without the cancellation
    low = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))
    # low log2(low), with log2 taken of 1 where low is 0 so that it stays quiet
    low_term = low * np.log2(np.where(low > 0.0, low, 1.0))
    ent = -(low_term + (1.0 - low) * np.log1p(-low) / math.log(2.0))
    return np.where(ent > 0.0, ent, 0.0), c  # also folds -0.0 to 0.0


def concurrence(s: SpinState) -> float:
    """Concurrence 2|c00 c11 - c01 c10| of a normalized two-qubit pure state."""
    if s.num_qubits != 2:
        raise ValueError("concurrence requires a two-qubit state")
    if not s.normalized:
        raise ValueError("concurrence requires a normalized state")
    return float(pure_pair_figures(s.amplitudes)[1])


def entropy_between(s: SpinState, qubit_a: int, qubit_b: int):
    """Entanglement entropy (bits) between two qubits of a normalized pure state.

    Defined when the pair is itself pure (any third qubit unentangled with it);
    returns None when the pair is in a mixed state, since mixed-state
    entanglement measures are out of scope.  On three qubits the amplitudes
    are reshaped to a 4x2 matrix, pair as rows: the pair's reduced state has
    purity sum(sigma^4) over its singular values, and when it is pure the
    pair is the leading left singular vector.
    """
    if not s.normalized:
        raise ValueError("entropy_between requires a normalized state")
    n = s.num_qubits
    qubits = (int(qubit_a), int(qubit_b))
    if qubits[0] == qubits[1]:
        raise ValueError("qubits must differ")
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"qubit index out of range for a {n}-qubit state")
    if n == 2:
        return float(pure_pair_figures(s.amplitudes)[0])
    rest = 3 - sum(qubits)  # the third qubit; its tensor axis is 2 - rest
    psi = np.moveaxis(s.amplitudes.reshape(2, 2, 2), 2 - rest, -1).reshape(4, 2)
    u, sigma, _ = np.linalg.svd(psi, full_matrices=False)
    if abs(float(np.sum(sigma**4)) - 1.0) > TOL.normalization:
        return None
    return float(pure_pair_figures(u[:, 0])[0])
