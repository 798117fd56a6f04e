import math

import numpy as np
import pytest

from spinscatter import (
    DEFAULT_EXCHANGE_EIGENVALUES,
    EXCHANGE_EIGENVALUE_PRESETS,
    FixedImpurity,
    KondoImpurity,
    basis_state,
    embed,
    exchange_matrix,
    fixed_filter_operators,
    kondo_channel_amplitudes,
    kondo_operators,
    make_state,
    matrix_amplitudes,
    scalar_amplitudes,
)
from spinscatter.channels import EXCHANGE_PROJECTORS


def test_presets():
    assert EXCHANGE_EIGENVALUE_PRESETS["default"] == (1.0, 1.0, -2.0, 0.0)
    assert EXCHANGE_EIGENVALUE_PRESETS["standard-pauli"] == (1.0, 1.0, 1.0, -3.0)
    assert DEFAULT_EXCHANGE_EIGENVALUES == (1.0, 1.0, -2.0, 0.0)


def test_exchange_projectors_are_orthogonal_and_in_channel_order():
    p = EXCHANGE_PROJECTORS
    for c in range(4):
        for d in range(4):
            expect = p[c] if c == d else np.zeros((4, 4))
            assert np.max(np.abs(p[c] @ p[d] - expect)) < 1e-15
    # ordering: aligned-up |00>, aligned-down |11>, symmetric, antisymmetric
    diagonals = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0]]
    assert np.max(np.abs(np.einsum("cii->ci", p) - diagonals)) < 1e-15
    assert abs(p[2, 1, 2] - 0.5) < 1e-15 and abs(p[3, 1, 2] + 0.5) < 1e-15


def test_exchange_matrix_standard_pauli_is_swap_combination():
    # the (1,1,1,-3) spectrum belongs to 2*SWAP - I; a textbook identity that
    # never touches the eigenbasis code path
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    got = exchange_matrix(EXCHANGE_EIGENVALUE_PRESETS["standard-pauli"])
    assert np.max(np.abs(got - (2 * swap - np.eye(4)))) < 1e-14


def test_exchange_matrix_default_preset_explicit():
    expect = np.array([
        [1, 0, 0, 0],
        [0, -1, -1, 0],
        [0, -1, -1, 0],
        [0, 0, 0, 1],
    ], dtype=complex)
    assert np.max(np.abs(exchange_matrix() - expect)) < 1e-14


def test_channel_amplitudes_frozen_values():
    # r = k: xi_c = lambda_c, so S = 1/(1+i lambda_c)
    s1, s2, s3, s4 = kondo_channel_amplitudes(KondoImpurity(1.0), 1.0)
    assert abs(s1 - (0.5 - 0.5j)) < 1e-15
    assert abs(s2 - (0.5 - 0.5j)) < 1e-15
    assert abs(s3 - (0.2 + 0.4j)) < 1e-15  # lambda = -2
    assert s4 == 1.0  # lambda = 0: that channel never scatters


def test_kondo_operator_mixes_antialigned_computational_states():
    s1, _, s3, s4 = kondo_channel_amplitudes(KondoImpurity(1.0), 1.0)
    t = kondo_operators(KondoImpurity(1.0), 1.0).transmission
    half_sum, half_diff = (s3 + s4) / 2, (s3 - s4) / 2
    assert abs(half_sum - (0.6 + 0.2j)) < 1e-15
    assert abs(half_diff - (-0.4 + 0.2j)) < 1e-15
    assert abs(t[0, 0] - s1) < 1e-15
    assert abs(t[3, 3] - s1) < 1e-15
    # both anti-aligned rows share the same symmetric mixing structure
    assert abs(t[1, 1] - half_sum) < 1e-15
    assert abs(t[2, 1] - half_diff) < 1e-15
    assert abs(t[1, 2] - half_diff) < 1e-15
    assert abs(t[2, 2] - half_sum) < 1e-15


def test_kondo_zero_coupling_is_identity():
    for ev in EXCHANGE_EIGENVALUE_PRESETS.values():
        t = kondo_operators(KondoImpurity(0.0, ev), 1.0).transmission
        assert np.max(np.abs(t - np.eye(4))) < 1e-15


def test_kondo_construction_routes_agree():
    """Channel-by-channel build equals the dense linear solve of the same potential."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        r = float(rng.uniform(-2.5, 2.5))
        k = float(rng.uniform(0.3, 4.0))
        for ev in EXCHANGE_EIGENVALUE_PRESETS.values():
            via_channels = kondo_operators(KondoImpurity(r, ev), k).transmission
            via_solve = matrix_amplitudes(r * exchange_matrix(ev), k).transmission
            assert np.max(np.abs(via_channels - via_solve)) < 1e-12


def test_kondo_flux_conservation():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ops = kondo_operators(KondoImpurity(float(rng.uniform(-2, 2))), float(rng.uniform(0.5, 3)))
        t, r = ops.transmission, ops.reflection
        assert np.max(np.abs(t.conj().T @ t + r.conj().T @ r - np.eye(4))) < 1e-12


def test_fixed_filter_z_axis_is_diagonal():
    ops = fixed_filter_operators(FixedImpurity(0.5), 1.0)
    s = scalar_amplitudes(1.0, 1.0).transmission  # anti-aligned sees 2r = 1
    expect = np.diag([1.0, s])
    assert np.max(np.abs(ops.transmission - expect)) < 1e-15


def test_fixed_filter_general_axis_spares_aligned_component():
    axis = (1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))
    ops = fixed_filter_operators(FixedImpurity(0.8, axis), 1.3)
    from spinscatter import pauli_along
    w, v = np.linalg.eigh(pauli_along(axis))
    aligned = v[:, np.argmax(w)]
    anti = v[:, np.argmin(w)]
    assert np.max(np.abs(ops.transmission @ aligned - aligned)) < 1e-12
    s = scalar_amplitudes(1.6, 1.3).transmission
    assert np.max(np.abs(ops.transmission @ anti - s * anti)) < 1e-12


def test_impurity_spec_validation():
    with pytest.raises(ValueError):
        FixedImpurity(1.0, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        FixedImpurity(math.nan)
    with pytest.raises(ValueError):
        KondoImpurity(1.0, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        KondoImpurity(math.inf)


def test_embed_contiguous_targets_match_kron():
    rng = np.random.default_rng(37)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.max(np.abs(embed(op, 3, (2, 1)) - np.kron(op, np.eye(2)))) < 1e-14
    assert np.max(np.abs(embed(op, 3, (1, 0)) - np.kron(np.eye(2), op))) < 1e-14
    single = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.max(np.abs(embed(single, 2, (0,)) - np.kron(np.eye(2), single))) < 1e-14


def test_embed_split_targets_by_bit_arithmetic():
    """embed(op, 3, (2, 0)) routes the operator to bits of weight 4 and 1."""
    rng = np.random.default_rng(39)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    big = embed(op, 3, (2, 0))
    expect = np.zeros((8, 8), dtype=complex)
    for row in range(8):
        for col in range(8):
            if (row >> 1) & 1 != (col >> 1) & 1:
                continue  # the bystander bit (weight 2) must be untouched
            r_idx = (((row >> 2) & 1) << 1) | (row & 1)
            c_idx = (((col >> 2) & 1) << 1) | (col & 1)
            expect[row, col] = op[r_idx, c_idx]
    assert np.max(np.abs(big - expect)) < 1e-14


def test_embed_swapped_targets_transpose_the_operator_qubits():
    t = kondo_operators(KondoImpurity(1.0), 1.0).transmission
    forward = embed(t, 2, (1, 0))
    swapped = embed(t, 2, (0, 1))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.max(np.abs(swapped - swap @ forward @ swap)) < 1e-13


def test_embed_applies_like_direct_operator():
    # acting on |001>: target pair (q1, q0) holds (0, 1)
    t = kondo_operators(KondoImpurity(1.0), 1.0).transmission
    out = embed(t, 3, (1, 0)) @ basis_state("001").amplitudes
    direct = t @ np.array([0, 1, 0, 0], dtype=complex)
    assert abs(out[0b001] - direct[0b01]) < 1e-15
    assert abs(out[0b010] - direct[0b10]) < 1e-15
    assert abs(out[0b100]) == 0.0


def test_embed_validation():
    op = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        embed(op, 3, (1, 1))
    with pytest.raises(ValueError):
        embed(op, 3, (3, 0))
    with pytest.raises(ValueError):
        embed(op, 4, (1, 0))
    with pytest.raises(ValueError):
        embed(np.eye(3), 3, (1, 0))
