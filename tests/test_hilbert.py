import math

import numpy as np
import pytest

from conftest import random_state_vector, reduced_density, von_neumann_entropy
from spinscatter import (
    DEFAULT_TOLERANCES,
    SpinState,
    basis_state,
    concurrence,
    entropy_between,
    make_state,
    normalize,
    pauli_along,
    pure_pair_figures,
)

RT2 = math.sqrt(0.5)


def test_basis_state_index_arithmetic():
    # leftmost label is the most significant bit: |xyz| sits at 4x + 2y + z
    s = basis_state("101")
    assert s.amplitudes[0b101] == 1.0
    assert s.num_qubits == 3
    assert s.labels == ("q2", "q1", "q0")
    assert s.normalized


def test_make_state_rejects_bad_lengths_and_labels():
    with pytest.raises(ValueError):
        make_state([1.0, 0.0, 0.0])  # length 3 is not a qubit register
    with pytest.raises(ValueError):
        make_state([1.0, 0.0], labels=("a", "b"))
    with pytest.raises(ValueError):
        make_state([np.nan, 0.0])
    with pytest.raises(ValueError):
        make_state(np.zeros(16, dtype=complex))  # 4 qubits out of scope


def test_amplitudes_are_read_only():
    s = basis_state("0")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 2.0


def test_normalized_flag_tracks_norm():
    assert make_state([RT2, RT2]).normalized
    assert not make_state([1.0, 1.0]).normalized
    assert abs(normalize(make_state([1.0, 1.0])).norm - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalize(make_state([0.0, 0.0]))


def test_normalize_scales_a_state_whose_squared_norm_overflows():
    # 9e308 + 16e308 overflows; dividing by it gave [0, 0], not normalized
    eps = np.finfo(float).eps
    s = normalize(make_state([3e154, 4e154]))
    assert np.max(np.abs(s.amplitudes - [0.6, 0.8])) <= eps and s.normalized
    s = normalize(make_state([-1e200j, 0.0, 0.0, 1e200]))
    assert np.max(np.abs(s.amplitudes - [-RT2 * 1j, 0.0, 0.0, RT2])) <= eps and s.normalized


def test_normalize_divides_a_finite_squared_norm_as_it_is():
    rng = np.random.default_rng(13)
    for n in (2, 4, 8):
        amps = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-20, 150)
        state = make_state(amps)
        want = state.amplitudes / math.sqrt(state.norm_squared)
        assert normalize(state).amplitudes.tobytes() == want.tobytes()


def test_pauli_along_axes():
    assert np.allclose(pauli_along((0, 0, 1)), np.diag([1, -1]))
    assert np.allclose(pauli_along((1, 0, 0)), np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        pauli_along((1, 1, 0))  # not unit length


def test_reduced_density_oracle_against_explicit_sum():
    """Reduced matrix entries are sums over the traced-out indices."""
    rng = np.random.default_rng(7)
    v = random_state_vector(rng, 3)
    rho = reduced_density(v, {2})  # keep the most significant qubit
    expect = np.zeros((2, 2), dtype=complex)
    for x in range(2):
        for xp in range(2):
            for rest in range(4):
                expect[x, xp] += v[4 * x + rest] * np.conj(v[4 * xp + rest])
    assert np.max(np.abs(rho - expect)) < 1e-14


def test_entropy_oracle_of_known_spectra():
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == 1.0
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    third = von_neumann_entropy(np.diag([1 / 3, 2 / 3]))
    assert abs(third - 0.9182958340544896) < 1e-14


def test_concurrence_values():
    bell = make_state([RT2, 0, 0, RT2])
    assert abs(concurrence(bell) - 1.0) < 1e-15
    product = basis_state("01")
    assert concurrence(product) == 0.0
    partial = make_state([math.sqrt(1 / 3), 0, 0, math.sqrt(2 / 3)])
    assert abs(concurrence(partial) - 2 * math.sqrt(2) / 3) < 1e-15
    with pytest.raises(ValueError):
        concurrence(basis_state("000"))
    with pytest.raises(ValueError):
        concurrence(make_state([1.0, 1.0, 0.0, 0.0]))


def test_entropy_between_pure_pair():
    bell = make_state([RT2, 0, 0, RT2])
    spectator = make_state(np.kron(basis_state("0").amplitudes, bell.amplitudes))
    e = entropy_between(spectator, 1, 0)
    assert e is not None and abs(e - 1.0) < 1e-12


def test_entropy_between_returns_none_for_mixed_pair():
    ghz = make_state([RT2, 0, 0, 0, 0, 0, 0, RT2])
    assert entropy_between(ghz, 1, 0) is None


def test_entropy_between_follows_the_qubit_index_convention():
    """Qubit q is the amplitude bit of weight 2**q: a Bell pair on qubits 2 and 0."""
    amps = np.zeros(8, dtype=complex)
    amps[0b010] = amps[0b111] = RT2  # qubit 1 is a |1> spectator
    s = make_state(amps)
    for pair in [(2, 0), (0, 2)]:
        e = entropy_between(s, *pair)
        assert e is not None and abs(e - 1.0) < 1e-12
    assert entropy_between(s, 2, 1) is None  # half of the Bell pair with the spectator
    assert entropy_between(s, 1, 0) is None


def test_pure_pair_figures_fold_rounding_noise_only():
    """C is clipped to 1 and the entropy floored at +0.0, on a batch of pairs."""
    over = RT2 * (1.0 + 4e-16)  # 2|c00 c11| rounds above 1
    pairs = np.array([[over, 0, 0, over], [1, 0, 0, 0], [0.6, 0.8, 0, 0],
                      [math.sqrt(1 / 3), 0, 0, math.sqrt(2 / 3)]], dtype=complex)
    ent, c = pure_pair_figures(pairs)
    assert ent.shape == c.shape == (4,)
    assert c[0] == 1.0 and ent[0] == 1.0
    assert c[1] == ent[1] == 0.0 and math.copysign(1.0, ent[1]) == 1.0
    assert c[2] == ent[2] == 0.0 and math.copysign(1.0, ent[2]) == 1.0
    assert abs(c[3] - 2 * math.sqrt(2) / 3) < 1e-15
    assert abs(ent[3] - 0.9182958340544896) < 1e-14  # h(1/3)


def test_pure_pair_figures_takes_a_sequence_and_refuses_a_wrong_last_axis():
    ent, c = pure_pair_figures([0.6, 0, 0, 0.8])
    assert abs(c - 0.96) < 1e-15 and 0.0 < ent < 1.0
    for pairs in (np.zeros((2, 3)), np.zeros(5), 1.0):
        with pytest.raises(ValueError, match="4 amplitudes along the last axis"):
            pure_pair_figures(pairs)


def test_states_compare_and_hash_by_value():
    assert make_state([1, 0]) == make_state([1, 0])
    assert hash(make_state([1, 0])) == hash(make_state([1, 0]))
    # -0.0 equals 0.0, and so do their hashes
    assert make_state([-0.0, 1]) == make_state([0.0, 1])
    assert hash(make_state([-0.0, 1])) == hash(make_state([0.0, 1]))
    assert make_state([1, 0]) != make_state([0, 1])
    assert make_state([1, 0]) != make_state([1, 0], labels=("p",))
    assert make_state([1, 0, 0, 0]) != make_state([1, 0])
    assert make_state([1, 0]) != [1, 0]
    assert len({basis_state("01"), basis_state("01"), basis_state("10")}) == 2


def test_entropy_between_validation():
    with pytest.raises(ValueError):
        entropy_between(basis_state("00"), 0, 0)
    with pytest.raises(ValueError):
        entropy_between(make_state([1.0, 1.0, 0, 0]), 0, 1)


@pytest.mark.parametrize("n, qubits", [(2, (0, 5)), (2, (-3, 7)), (2, (2, 0)),
                                        (3, (0, 5)), (3, (-3, 7)), (3, (3, 0))])
def test_entropy_between_rejects_out_of_range_qubits(n, qubits):
    uniform = make_state(np.full(2**n, 2.0 ** (-n / 2)))
    with pytest.raises(ValueError, match="qubit index out of range"):
        entropy_between(uniform, *qubits)


def _three_qubit_draws(rng, count):
    """Random states, and near-product states whose pair purity straddles the tolerance."""
    for _ in range(count):
        yield random_state_vector(rng, 3)
        pair = random_state_vector(rng, 2)
        if rng.random() < 0.3:
            pair = np.kron(random_state_vector(rng, 1), random_state_vector(rng, 1))
        tensor = np.kron(pair, random_state_vector(rng, 1)).reshape(2, 2, 2)
        tensor = np.moveaxis(tensor, 2, int(rng.integers(3)))  # the third qubit anywhere
        noise = 10.0 ** rng.uniform(-9.0, -3.0) * random_state_vector(rng, 3)
        v = tensor.reshape(8) + noise
        yield v / np.linalg.norm(v)


def test_entropy_between_two_qubits_matches_eigensolver_oracle():
    rng = np.random.default_rng(67)
    for _ in range(200):
        v = random_state_vector(rng, 2)
        oracle = von_neumann_entropy(reduced_density(v, [0]))
        assert abs(entropy_between(make_state(v), 1, 0) - oracle) <= 1e-12


@pytest.mark.parametrize("pair", [(1, 0), (2, 0), (2, 1)])
def test_entropy_between_matches_eigensolver_oracle(pair):
    """None exactly where the pair's reduced state is mixed; else the pure pair's entropy."""
    rng = np.random.default_rng(61)
    nones = pure = 0
    for v in _three_qubit_draws(rng, 400):
        rho = reduced_density(v, pair)
        got = entropy_between(make_state(v), *pair)
        if abs(np.trace(rho @ rho).real - 1.0) > DEFAULT_TOLERANCES.normalization:
            assert got is None
            nones += 1
            continue
        _, vecs = np.linalg.eigh(rho)
        assert abs(got - von_neumann_entropy(reduced_density(vecs[:, -1], [0]))) <= 1e-12
        pure += 1
    assert nones > 400 and pure > 100  # both answers are drawn often


def test_spin_state_direct_construction_matches_make_state():
    s = SpinState(np.array([1.0, 0.0], dtype=complex), ("q0",))
    assert s.normalized and s.num_qubits == 1
