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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalFaultError
from .tolerances import DEFAULT as TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_ALLOWED_LENGTHS = (2, 4, 8)


def pauli_along(axis) -> np.ndarray:
    """Spin projection operator n.sigma for a unit 3-vector n."""
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,) or not np.all(np.isfinite(ax)):
        raise ValueError("axis must be a finite 3-vector")
    if abs(float(np.linalg.norm(ax)) - 1.0) > TOL.normalization:
        raise ValueError(f"axis must be a unit vector (within {TOL.normalization:g})")
    return ax[0] * PAULI_X + ax[1] * PAULI_Y + ax[2] * PAULI_Z


@dataclass(frozen=True)
class SpinState:
    """Complex amplitude vector over 1..3 qubits with per-qubit role labels."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]
    normalized: bool = field(init=False, default=False)

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
        object.__setattr__(
            self, "normalized", bool(abs(self.norm_squared - 1.0) < TOL.normalization)
        )

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

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
    n2 = s.norm_squared
    if n2 <= TOL.null_floor:
        raise ValueError("cannot normalize a zero state")
    return SpinState(s.amplitudes / math.sqrt(n2), s.labels)


def tensor(a: SpinState, b: SpinState) -> SpinState:
    """Kronecker product a (x) b; a's qubits become the most significant."""
    if a.num_qubits + b.num_qubits > 3:
        raise ValueError("dimension overflow: combined state exceeds 3 qubits")
    return SpinState(np.kron(a.amplitudes, b.amplitudes), a.labels + b.labels)


def apply(op, s: SpinState) -> SpinState:
    """Matrix-vector application preserving labels; norm may contract."""
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape != (s.amplitudes.size, s.amplitudes.size):
        raise ValueError(
            f"operator shape {mat.shape} does not match state dimension {s.amplitudes.size}"
        )
    return SpinState(mat @ s.amplitudes, s.labels)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite (to tolerance), positive-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if m.shape[0] not in _ALLOWED_LENGTHS:
            raise ValueError(f"density matrix dimension must be 2, 4 or 8, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > TOL.algebraic:
            raise ValueError(f"density matrix must be Hermitian (within {TOL.algebraic:g})")
        tr = complex(np.trace(m))
        if abs(tr.imag) > TOL.algebraic or tr.real <= 0.0:
            raise ValueError("density matrix trace must be real and positive")
        if float(np.linalg.eigvalsh(m)[0]) < -TOL.eigenvalue_clip:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _axes_for(qubits, n):
    # tensor axis for qubit q is (n - 1 - q): axis 0 is the most significant bit
    return [n - 1 - q for q in qubits]


def _split_matrix(s: SpinState, part) -> np.ndarray:
    """Reshape amplitudes to a (2^|part|, 2^rest) matrix, part qubits as rows."""
    n = s.num_qubits
    part = sorted({int(q) for q in part}, reverse=True)
    if not part:
        raise ValueError("qubit subset must be nonempty")
    if any(q < 0 or q >= n for q in part):
        raise ValueError(f"qubit index out of range for a {n}-qubit state")
    if len(part) == n:
        raise ValueError("qubit subset must be a proper subset")
    rest = [q for q in range(n - 1, -1, -1) if q not in part]
    t = s.amplitudes.reshape((2,) * n)
    return t.transpose(_axes_for(part, n) + _axes_for(rest, n)).reshape(2 ** len(part), -1)


def partial_trace(s: SpinState, keep) -> DensityMatrix:
    """Reduced density matrix of the kept qubits; trace equals the state's norm^2.

    Kept qubits retain their relative significance order (higher index more
    significant in the reduced matrix).
    """
    psi = _split_matrix(s, keep)
    return DensityMatrix(psi @ psi.conj().T)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, with a reconstruction check."""
    mat = m.matrix if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.shape[0] > 8:
        raise ValueError("matrix dimension must be at most 8")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    if np.max(np.abs(mat - mat.conj().T)) > TOL.algebraic:
        raise ValueError(f"matrix must be Hermitian (within {TOL.algebraic:g})")
    w, q = np.linalg.eigh(mat)
    residual = float(np.linalg.norm(mat - (q * w) @ q.conj().T))
    if residual > TOL.solver_residual:
        raise InternalFaultError(
            f"eigendecomposition residual {residual:.3e} exceeds {TOL.solver_residual:g}"
        )
    return w


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho log2 rho) in bits of a unit-trace density matrix."""
    dm = rho if isinstance(rho, DensityMatrix) else DensityMatrix(np.asarray(rho, dtype=complex))
    if abs(dm.trace - 1.0) > TOL.normalization:
        raise ValueError(f"density matrix must have unit trace (within {TOL.normalization:g})")
    w = hermitian_eigenvalues(dm)
    w = np.clip(w, 0.0, None)  # [-clip, 0) noise clips to 0; worse already raised
    ent = -sum(p * math.log2(p) for p in w if p > 0.0)
    return float(ent) if ent > 0.0 else 0.0  # also folds -0.0 to 0.0


def pure_pair_figures(pairs):
    """Entanglement entropy (bits) and concurrence of normalized two-qubit pure states.

    pairs holds amplitude vectors along its last axis, shape (..., 4).  The
    concurrence is C = 2|c00 c11 - c01 c10| (clipped to 1), and either qubit's
    reduced density matrix has eigenvalues (1 +- sqrt(1 - C^2))/2, so the
    entropy follows from C with no eigensolver.  Returns two arrays of shape
    pairs.shape[:-1].
    """
    c = np.minimum(1.0, 2.0 * np.abs(pairs[..., 0] * pairs[..., 3] - pairs[..., 1] * pairs[..., 2]))
    # smaller eigenvalue (1 - sqrt(1 - C^2))/2, written without the cancellation
    low = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))
    with np.errstate(divide="ignore", invalid="ignore"):
        low_term = np.where(low > 0.0, low * np.log2(low), 0.0)
    ent = -(low_term + (1.0 - low) * np.log1p(-low) / math.log(2.0))
    return np.where(ent > 0.0, ent, 0.0), c  # also folds -0.0 to 0.0


def concurrence(s: SpinState) -> float:
    """Concurrence 2|c00 c11 - c01 c10| of a normalized two-qubit pure state."""
    if s.num_qubits != 2:
        raise ValueError("concurrence requires a two-qubit state")
    if not s.normalized:
        raise ValueError("concurrence requires a normalized state")
    return float(pure_pair_figures(s.amplitudes)[1])


def schmidt_coefficients(s: SpinState, bipartition) -> np.ndarray:
    """Schmidt coefficients across the given qubit bipartition, descending.

    Squares sum to 1 for a normalized state and equal the reduced density
    matrix eigenvalues of either side.
    """
    if not s.normalized:
        raise ValueError("Schmidt decomposition requires a normalized state")
    return np.linalg.svd(_split_matrix(s, bipartition), compute_uv=False)


def project(s: SpinState, qubit: int, axis=(0.0, 0.0, 1.0), outcome: int = +1):
    """Project one qubit onto the +-1 eigenstate of n.sigma along the axis.

    Returns (unnormalized post-measurement state, outcome probability relative
    to the input state's norm).  On the z axis, outcome +1 selects |0>.
    """
    n = s.num_qubits
    if not (0 <= int(qubit) < n):
        raise ValueError(f"qubit index {qubit} out of range for a {n}-qubit state")
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    total = s.norm_squared
    if total <= TOL.null_floor:
        raise ValueError("cannot measure a zero state")
    proj = 0.5 * (np.eye(2, dtype=complex) + outcome * pauli_along(axis))
    full = np.kron(np.eye(2 ** (n - 1 - qubit)), np.kron(proj, np.eye(2**qubit)))
    post = apply(full, s)
    return post, post.norm_squared / total


def drop_qubit(s: SpinState, qubit: int, bit: int) -> SpinState:
    """Factor out a qubit known to sit in the computational basis state |bit>.

    Used after a z-basis projection; raises if the discarded component is not
    numerically null.
    """
    n = s.num_qubits
    if n < 2:
        raise ValueError("cannot drop the only qubit")
    if not (0 <= int(qubit) < n):
        raise ValueError(f"qubit index {qubit} out of range for a {n}-qubit state")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    t = s.amplitudes.reshape((2,) * n)
    axis = n - 1 - qubit
    discarded = np.take(t, 1 - bit, axis=axis)
    if float(np.max(np.abs(discarded))) > TOL.collapse:
        raise ValueError("qubit is not collapsed onto the requested basis state")
    kept = np.take(t, bit, axis=axis).reshape(-1)
    labels = tuple(lb for i, lb in enumerate(s.labels) if i != n - 1 - qubit)
    return SpinState(kept, labels)


def entropy_between(s: SpinState, qubit_a: int, qubit_b: int):
    """Entanglement entropy (bits) between two qubits of a normalized pure state.

    Defined when the pair is itself pure (any third qubit unentangled with it);
    returns None when the pair is in a mixed state, since mixed-state
    entanglement measures are out of scope.
    """
    if not s.normalized:
        raise ValueError("entropy_between requires a normalized state")
    if int(qubit_a) == int(qubit_b):
        raise ValueError("qubits must differ")
    if s.num_qubits == 2:
        return float(pure_pair_figures(s.amplitudes)[0])
    dm = partial_trace(s, {qubit_a, qubit_b})
    purity = float(np.trace(dm.matrix @ dm.matrix).real)
    if abs(purity - 1.0) > TOL.normalization:
        return None
    _, vecs = np.linalg.eigh(dm.matrix)
    return float(pure_pair_figures(vecs[:, -1])[0])
