"""Shared helpers: random draws, a subprocess runner for the CLI, and oracles."""

import os
import subprocess
import sys

import numpy as np

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(_REPO, "src")


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_state_vector(rng, num_qubits):
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return v / np.linalg.norm(v)


def run_cli(*args, env_extra=None):
    """Invoke the CLI in a fresh interpreter; returns CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("SPINSCATTER_FORMAT", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "spinscatter", *args],
        capture_output=True, env=env,
    )
    # decode by hand so CRLF row endings survive for byte-contract checks
    proc.stdout = proc.stdout.decode("utf-8")
    proc.stderr = proc.stderr.decode("utf-8")
    return proc


def block_solve_two_impurity(geom):
    """Oracle for two_impurity_exact: the 4d x 4d plane-wave matching solve.

    The three regions carry spinor amplitudes

        x < -a:      e^{ikx} chi + e^{-ikx} B
        -a < x < a:  e^{ikx} C   + e^{-ikx} D
        x > a:       e^{ikx} F

    matched by continuity and the derivative jump 2 M_j psi(x_j) at both
    impurities.  Solving for all incident spins chi at once gives the
    transmission (F-map) and reflection (B-map).  Returns (T, R).
    """
    d = geom.dim
    ik = 1j * geom.k
    p = complex(np.exp(1j * geom.k * geom.half_separation))
    pm = complex(np.exp(-1j * geom.k * geom.half_separation))
    eye = np.eye(d, dtype=complex)
    zero = np.zeros((d, d), dtype=complex)
    m1, m2 = geom.potential_left, geom.potential_right
    # unknown block vector [B; C; D; F]; rows: continuity, jump at -a, then at +a
    system = np.block([
        [-p * eye, pm * eye, p * eye, zero],
        [ik * p * eye, ik * pm * eye - 2 * pm * m1, -ik * p * eye - 2 * p * m1, zero],
        [zero, p * eye, pm * eye, -p * eye],
        [zero, -ik * p * eye, ik * pm * eye, ik * p * eye - 2 * p * m2],
    ])
    rhs = np.concatenate([pm * eye, ik * pm * eye, zero, zero], axis=0)
    sol = np.linalg.solve(system, rhs)
    return sol[3 * d:4 * d], sol[0:d]


def reduced_density(amplitudes, keep):
    """Reduced density matrix of the kept qubits; qubit q is the amplitude bit of weight 2**q."""
    n = amplitudes.size.bit_length() - 1
    rows = [n - 1 - q for q in sorted(keep, reverse=True)]
    psi = np.moveaxis(amplitudes.reshape((2,) * n), rows, range(len(rows))).reshape(2 ** len(rows), -1)
    return psi @ psi.conj().T


def von_neumann_entropy(rho):
    """Oracle for the entanglement entropy: -tr(rho log2 rho) in bits, by eigvalsh."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))
