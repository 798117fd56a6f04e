import cProfile
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import reduced_density, von_neumann_entropy
from spinscatter import (
    DEFAULT_TOLERANCES,
    GridSpec,
    InternalFaultError,
    KondoImpurity,
    SpinState,
    basis_state,
    concentrate_fixed,
    concentrate_kondo,
    entangle_impurities,
    entangle_particles,
    hilbert,
    kondo_channel_amplitudes,
    make_state,
    normalize,
    optimal_coupling_fixed,
    protocols,
    run_protocol,
    scalar_amplitudes,
    sweep,
)
from spinscatter.channels import embed, filter_transmission
from spinscatter.hilbert import PAULI_X, PAULI_Y, PAULI_Z
from spinscatter.scattering import _transmission

A3 = math.sqrt(1.0 / 3.0)
B3 = math.sqrt(2.0 / 3.0)


# ---------------------------------------------------------------------------
# fixed-impurity concentration

def test_concentrate_fixed_at_the_optimum():
    res = concentrate_fixed(A3, B3, 1.0, 0.5)
    out = res.outcomes[0]
    assert out.branch_label == "transmitted"
    assert abs(out.branch_probability - 2.0 / 3.0) < 1e-12
    assert abs(out.entropy_bits - 1.0) < 1e-9
    assert abs(out.concurrence - 1.0) < 1e-9
    assert out.post_state.normalized
    coeffs = np.sqrt(np.linalg.eigvalsh(reduced_density(out.post_state.amplitudes, [0])))
    assert np.max(np.abs(coeffs - math.sqrt(0.5))) < 1e-9
    assert [b.label for b in res.tree.branches] == ["transmitted", "reflected"]
    assert abs(res.tree.total_probability() - 1.0) < 1e-12
    assert abs(res.metadata["xi"] - 1.0) < 1e-15
    assert abs(res.metadata["expected_attempts"] - 1.5) < 1e-12


def test_concentrate_fixed_zero_coupling_passes_everything():
    res = concentrate_fixed(A3, B3, 1.0, 0.0)
    out = res.outcomes[0]
    assert abs(out.branch_probability - 1.0) < 1e-15
    input_entropy = von_neumann_entropy(np.diag([1 / 3, 2 / 3]))
    assert abs(out.entropy_bits - input_entropy) < 1e-12
    assert [b.label for b in res.tree.branches] == ["transmitted"]


def test_concentrate_fixed_product_input_stays_product():
    res = concentrate_fixed(1.0, 0.0, 1.0, 0.7)
    out = res.outcomes[0]
    assert abs(out.branch_probability - 1.0) < 1e-15
    assert out.entropy_bits == 0.0


def test_concentrate_fixed_reflected_branch_probability():
    r, k = 0.8, 1.3
    res = concentrate_fixed(A3, B3, k, r)
    refl = scalar_amplitudes(2 * r, k).reflection
    expect = (2.0 / 3.0) * abs(refl) ** 2
    reflected = [b for b in res.tree.branches if b.label == "reflected"]
    assert len(reflected) == 1
    assert abs(reflected[0].probability - expect) < 1e-12


def test_concentrate_fixed_rejects_unnormalized_pair():
    with pytest.raises(ValueError):
        concentrate_fixed(0.9, 0.9, 1.0, 0.5)


@pytest.mark.parametrize("a, b", [
    # pairs on which squares by hypot, bounded by <=, disagree with normalized:
    # this state is normalized and such a rule refuses it
    ((0.006768291044389276 - 0.04673593254623827j), (-0.9951831483265418 + 0.08590951072055017j)),
    # and this state is not, and such a rule accepts it
    ((0.01653994427639791 - 0.00037499987253692606j), (-0.589863237743563 + 0.8073336673749647j)),
])
def test_the_pair_rule_is_the_normalized_rule_of_the_state(a, b):
    normalized = make_state([a, 0, 0, b]).normalized
    try:
        concentrate_fixed(a, b, 1.0, 0.3)
    except ValueError as exc:
        assert str(exc).startswith("|a|^2 + |b|^2 must equal 1")
        assert not normalized
    else:
        assert normalized


def test_results_compare_by_value():
    params = {"k": 1.2, "r1": 0.4, "r2": 0.7, "mode": "exact"}
    first = run_protocol("entangle-impurities", params)
    assert first == run_protocol("entangle-impurities", params)
    assert first.tree == run_protocol("entangle-impurities", params).tree
    assert first != run_protocol("entangle-impurities", {**params, "r2": 0.8})
    assert concentrate_fixed(A3, B3, 1.0, 0.5) == concentrate_fixed(A3, B3, 1.0, 0.5)
    assert concentrate_fixed(A3, B3, 1.0, 0.5) != concentrate_fixed(A3, B3, 1.0, 0.6)
    state = first.outcomes[0].post_state
    assert hash(state) == hash(run_protocol("entangle-impurities", params).outcomes[0].post_state)


def test_concentrate_fixed_entropy_monotone_up_to_optimum():
    rs = np.linspace(0.0, 0.5, 21)
    entropies = [concentrate_fixed(A3, B3, 1.0, float(r)).outcomes[0].entropy_bits
                 for r in rs]
    assert all(b - a > -1e-12 for a, b in zip(entropies, entropies[1:]))


def _filter_on_the_pair(a, b, k, r, axis):
    """Transmitted and reflected pair amplitudes as (I x T) psi0 on the
    4 x 4 pair operators: the Paulis embedded on particle-1, then one einsum."""
    paulis = np.stack([embed(sigma, 2, (0,)) for sigma in (PAULI_X, PAULI_Y, PAULI_Z)])
    t = filter_transmission(_transmission(2.0 * r, k), np.einsum("na,aij->nij", axis, paulis))
    psi0 = np.zeros((len(a), 4), dtype=complex)
    psi0[:, 0], psi0[:, 3] = a, b
    out = np.einsum("nkij,nj->nki", np.stack([t, t - np.eye(4)], axis=1), psi0)
    return out[:, 0], out[:, 1]


_EXACT_AXES = [(s * (i == 0), s * (i == 1), s * (i == 2)) for i in range(3) for s in (1.0, -1.0)]


@st.composite
def _filter_points(draw):
    """(a, b, k, r, axis) of one point: tilted and exact axes, |a| of 0 and 1,
    phases of pi, couplings 0 and -0.0, and an opaque filter with S = 0."""
    if draw(st.booleans()):
        axis = draw(st.sampled_from(_EXACT_AXES))
    else:
        theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(-math.pi, math.pi))
        axis = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    magnitude = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    phase = st.sampled_from([0.0, math.pi, -math.pi]) | st.floats(-7.0, 7.0)
    a_phase, b_phase = draw(phase), draw(phase)
    a = magnitude * (math.cos(a_phase) + 1j * math.sin(a_phase))
    b = math.sqrt(1.0 - magnitude * magnitude) * (math.cos(b_phase) + 1j * math.sin(b_phase))
    k, r = draw(st.sampled_from([(1e-300, 1e300)])
                | st.tuples(st.floats(1e-3, 1e3),
                            st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)))
    return a, b, k, r, axis


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_filter_points(), min_size=1, max_size=12))
# S = 0 exactly (2r/k overflows), beside a zero-coupling point with a = 0
@example([(0.6, -0.8, 1e-300, 1e300, (0.0, -1.0, 0.0)), (0.0, -1.0, 0.5, -0.0, (0.6, 0.0, 0.8))])
def test_filter_on_particle_1_equals_the_pair_operator_bit_for_bit(points):
    a, b = (np.array(column, dtype=complex) for column in list(zip(*points))[:2])
    k, r, axis = (np.array(column, dtype=float) for column in list(zip(*points))[2:])
    with np.errstate(all="ignore"):
        batch = protocols._concentrate_fixed(protocols._Checks(len(points)), a, b, k, r, axis)
        transmit, reflect = _filter_on_the_pair(a, b, k, r, axis)
        prob = hilbert._norm2(transmit)
        expected = protocols._outcomes(("transmitted",), protocols._PAIR_REGISTER,
                                       transmit[:, None], prob[:, None])
    (_, got_transmit, _, got_prob), (_, got_reflect, _, got_reflected_prob) = batch.tree
    got = batch.outcomes
    for x, y in ((got_transmit, transmit), (got_reflect, reflect), (got_prob, prob),
                 (got_reflected_prob, hilbert._norm2(reflect)), (got.probability, expected.probability),
                 (got.pair, expected.pair), (got.entropy, expected.entropy),
                 (got.concurrence, expected.concurrence)):
        assert x.shape == y.shape
        assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


def test_optimal_coupling_closed_form_values():
    assert abs(optimal_coupling_fixed(A3, B3, 1.0) - 0.5) < 1e-10
    got = optimal_coupling_fixed(math.sqrt(0.1), math.sqrt(0.9), 2.0)
    assert abs(got - math.sqrt(8.0)) < 1e-12


def test_optimal_coupling_agrees_with_root_finder():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a2 = float(rng.uniform(0.05, 0.45))
        a, b = math.sqrt(a2), math.sqrt(1 - a2)
        k = float(rng.uniform(0.3, 3.0))
        target = a / b

        def balance(r):
            return abs(scalar_amplitudes(2 * r / k * k, k).transmission) - target

        numeric = brentq(balance, 1e-9, 100.0 * k, xtol=1e-13)
        assert abs(optimal_coupling_fixed(a, b, k) - numeric) < 1e-8


def test_optimal_coupling_rejects_degenerate_direction():
    with pytest.raises(ValueError):
        optimal_coupling_fixed(B3, A3, 1.0)  # |a| > |b|: damping the wrong way
    with pytest.raises(ValueError):
        optimal_coupling_fixed(math.sqrt(0.5), math.sqrt(0.5), 1.0)
    with pytest.raises(ValueError):
        optimal_coupling_fixed(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_coupling_fixed(A3, B3, -1.0)


@pytest.mark.parametrize("k", [3e-308, 1e-320, 5e-324])
def test_optimal_coupling_refuses_a_coupling_below_the_normal_range(k):
    # r = k sqrt(|b/a|^2 - 1)/2 = k/sqrt(2) here: subnormal, or 0 for the
    # smallest k, it keeps too few bits to meet the balance |S(2r)| = |a/b|
    message = r"^optimal coupling \S+ is below the smallest normal float \(k = \S+ is too small\)$"
    with pytest.raises(ValueError, match=message):
        optimal_coupling_fixed(0.5, math.sqrt(0.75), k)
    with pytest.raises(ValueError, match=message):
        run_protocol("concentrate", {"a": 0.5, "k": k})
    # just above the range the coupling is found and balanced
    tiny = np.finfo(float).tiny
    assert tiny <= optimal_coupling_fixed(0.5, math.sqrt(0.75), 1.01 * math.sqrt(2.0) * tiny)


# ---------------------------------------------------------------------------
# exchange-impurity concentration

def test_concentrate_kondo_zero_coupling_single_branch():
    res = concentrate_kondo(A3, B3, 1.0, KondoImpurity(0.0))
    assert abs(res.outcomes[0].branch_probability - 1.0) < 1e-15
    assert res.outcomes[1].post_state is None
    assert len(res.tree.branches) == 1
    # the surviving branch returns the input pair unchanged
    amps = res.outcomes[0].post_state.amplitudes
    assert abs(amps[0] - A3) < 1e-12 and abs(amps[3] - B3) < 1e-12


def test_concentrate_kondo_balance_condition_gives_one_bit():
    # tune the coupling so |a S1| = |b (S3+S4)/2|; attainable near a^2 = 0.45
    a2 = 0.45
    a, b = math.sqrt(a2), math.sqrt(1 - a2)

    def residual(r):
        s1, _, s3, s4 = kondo_channel_amplitudes(KondoImpurity(r), 1.0)
        return abs(a * s1) - abs(b * (s3 + s4) / 2)

    r = brentq(residual, 0.2, 0.8, xtol=1e-14)
    res = concentrate_kondo(a, b, 1.0, KondoImpurity(r))
    assert res.metadata["condition_residual"] < 1e-12
    out = res.outcomes[0]
    assert out.branch_label.endswith("|0>")
    assert abs(out.entropy_bits - 1.0) < 1e-9
    assert abs(out.concurrence - 1.0) < 1e-9
    assert abs(res.tree.total_probability() - 1.0) < 1e-12


def test_concentrate_kondo_flip_branch_is_product():
    res = concentrate_kondo(A3, B3, 1.0, KondoImpurity(1.0))
    flipped = res.outcomes[1]
    assert flipped.branch_label.endswith("|1>")
    assert flipped.entropy_bits == 0.0  # lone |10> component
    assert abs(res.tree.total_probability() - 1.0) < 1e-12


def test_concentrate_kondo_product_input_creates_nothing():
    res = concentrate_kondo(1.0, 0.0, 1.0, KondoImpurity(1.3))
    for out in res.outcomes:
        assert out.entropy_bits in (None, 0.0)


# ---------------------------------------------------------------------------
# entangling two particles through one exchange impurity

def _independent_pipeline(r, k):
    """Brute-force oracle: embed by explicit bit arithmetic, scatter twice."""
    from spinscatter import kondo_operators
    t4 = kondo_operators(KondoImpurity(r), k).transmission

    def lift(op, hi_bit, lo_bit):
        out = np.zeros((8, 8), dtype=complex)
        for row in range(8):
            for col in range(8):
                spectator = [q for q in range(3) if q not in (hi_bit, lo_bit)][0]
                if (row >> spectator) & 1 != (col >> spectator) & 1:
                    continue
                r_idx = (((row >> hi_bit) & 1) << 1) | ((row >> lo_bit) & 1)
                c_idx = (((col >> hi_bit) & 1) << 1) | ((col >> lo_bit) & 1)
                out[row, col] = op[r_idx, c_idx]
        return out

    vec = np.zeros(8, dtype=complex)
    vec[0b001] = 1.0
    vec = lift(t4, 2, 0) @ lift(t4, 1, 0) @ vec
    return vec


def test_entangle_particles_frozen_point():
    res = entangle_particles(1.0, KondoImpurity(1.0))
    out = res.outcomes[0]
    assert out.branch_label == "both transmitted, impurity measured |0>"
    assert abs(out.branch_probability - 0.18) < 1e-12
    pair_probs = np.abs(out.post_state.amplitudes) ** 2
    assert abs(pair_probs[0b10] - 4.0 / 9.0) < 1e-12
    assert abs(pair_probs[0b01] - 5.0 / 9.0) < 1e-12
    assert abs(out.entropy_bits - 0.9910760598382222) < 1e-12
    assert abs(res.tree.total_probability() - 1.0) < 1e-12


def test_entangle_particles_against_brute_force_pipeline():
    for r, k in ((1.0, 1.0), (0.6, 1.7), (2.2, 0.9)):
        res = entangle_particles(k, KondoImpurity(r))
        vec = _independent_pipeline(r, k)
        kept = vec.copy()
        kept[1::2] = 0.0  # impurity measured |0>: drop all odd (impurity=1) indices
        prob = float(np.vdot(kept, kept).real)
        out = res.outcomes[0]
        assert abs(out.branch_probability - prob) < 1e-12
        # entropy from the reduced matrix of particle-1, built by hand
        pair = np.array([kept[0b000], kept[0b010], kept[0b100], kept[0b110]])
        pair = pair / np.linalg.norm(pair)
        rho = np.array([
            [abs(pair[0]) ** 2 + abs(pair[2]) ** 2,
             pair[0] * np.conj(pair[1]) + pair[2] * np.conj(pair[3])],
            [pair[1] * np.conj(pair[0]) + pair[3] * np.conj(pair[2]),
             abs(pair[1]) ** 2 + abs(pair[3]) ** 2],
        ])
        tr, det = rho[0, 0].real + rho[1, 1].real, np.linalg.det(rho).real
        lam = sorted((
            (tr + math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2,
            (tr - math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2,
        ))
        expect = -sum(p * math.log2(p) for p in lam if p > 1e-15)
        assert abs(out.entropy_bits - expect) < 1e-10


def test_entangle_particles_aligned_control_stays_product():
    initial = basis_state("000", ("particle-2", "particle-1", "impurity-0"))
    res = entangle_particles(1.0, KondoImpurity(1.0), initial)
    for out in res.outcomes:
        if out.entropy_bits is not None:
            assert out.entropy_bits < 1e-12


def test_entangle_particles_zero_coupling():
    res = entangle_particles(1.0, KondoImpurity(0.0))
    assert res.outcomes[0].branch_probability == 0.0
    assert res.outcomes[0].post_state is None
    assert abs(res.outcomes[1].branch_probability - 1.0) < 1e-15
    assert len(res.tree.branches) == 1
    assert res.metadata["success_probability"] == 0.0
    assert "expected_attempts" not in res.metadata


def test_entangle_particles_input_validation():
    with pytest.raises(ValueError):
        entangle_particles(1.0, KondoImpurity(1.0), basis_state("00"))
    with pytest.raises(ValueError):
        entangle_particles(1.0, KondoImpurity(1.0),
                           make_state([1.0, 1.0, 0, 0, 0, 0, 0, 0]))


def test_concentrate_takes_axis_or_axis_theta_not_both():
    base = {"a": 0.5, "r": 1.0}
    # each alone tilts the filter its own way
    assert run_protocol("concentrate", {**base, "axis": (1, 0, 0)}).outcomes[0].branch_probability \
        == pytest.approx(0.6)
    assert run_protocol("concentrate", {**base, "axis_theta": 0.0}).outcomes[0].branch_probability \
        == pytest.approx(0.4)
    message = "parameters 'axis' and 'axis_theta' exclude each other"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_protocol("concentrate", {**base, "axis": (1, 0, 0), "axis_theta": 0.0})


@pytest.mark.parametrize("protocol, params, content", [
    ("entangle-particles", {"r": 1.0}, "two particles and the impurity"),
    ("entangle-impurities", {"r1": 1.0, "r2": 0.5}, "particle and two impurities"),
    ("entangle-impurities", {"r1": 1.0, "r2": 0.5, "mode": "exact"}, "particle and two impurities"),
])
@pytest.mark.parametrize("bits", ["0", "01"])
def test_run_protocol_reports_the_bit_count_of_the_initial_state(protocol, params, content, bits):
    message = f"initial state must have 3 qubits ({content})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_protocol(protocol, {**params, "initial": bits})
    # a string that is not bits is reported as such, whatever its length
    for text in ("0012", "x1", ""):
        with pytest.raises(ValueError, match="^bits must be a string"):
            run_protocol(protocol, {**params, "initial": text})


@pytest.mark.parametrize("protocol", ["concentrate", "concentrate-kondo"])
@pytest.mark.parametrize("magnitudes, name", [
    ({"a": 0.6, "b": -0.8}, "b"),
    ({"a": 0.6, "b": 1.5}, "b"),
    ({"a": -0.6, "b": 0.8}, "a"),
    ({"a": 1.5, "b": 0.8}, "a"),
    ({"a": -0.6, "b": -0.8}, "a"),
])
def test_each_pair_magnitude_must_lie_in_the_unit_interval(protocol, magnitudes, name):
    # one rule for both magnitudes; a negative b was taken, as the phase pi
    message = f"parameter {name!r} must lie in [0, 1]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_protocol(protocol, {**magnitudes, "k": 1.0, "r": 0.5})


# every protocol and mode, with the names of its couplings
COUPLED_CALLS = [
    ("concentrate", {"a": 0.5, "k": 1.0}, ("r",)),
    ("concentrate-kondo", {"a": 0.5, "k": 1.0}, ("r",)),
    ("entangle-particles", {"k": 1.0}, ("r",)),
    ("entangle-impurities", {"k": 1.0}, ("r1", "r2")),
    ("entangle-impurities", {"k": 1.0, "mode": "exact"}, ("r1", "r2")),
]


@pytest.mark.parametrize("protocol, params, couplings", COUPLED_CALLS)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308])
def test_a_coupling_that_is_or_becomes_non_finite_is_refused_once(protocol, params, couplings, bad):
    # run_protocol hands a float coupling to the kernel unread, which checks
    # it where it builds that barrier's channel amplitudes; 1e308 overflows
    # as twice the filter coupling or times the eigenvalue -2
    for name in couplings:
        call = {**params, **dict.fromkeys(couplings, 0.5), name: bad}
        with pytest.raises(ValueError) as exc:
            run_protocol(protocol, call)
        assert str(exc.value) == "coupling must be finite"


# ---------------------------------------------------------------------------
# entangling two impurities with one particle

def test_entangle_impurities_first_order_composition_amplitudes():
    res = entangle_impurities(1.0, KondoImpurity(1.0), KondoImpurity(1.0))
    s1, _, s3, s4 = kondo_channel_amplitudes(KondoImpurity(1.0), 1.0)
    out = res.outcomes[0]
    # measured-|0> pair: first-impurity flip carries the aligned amplitude of
    # the second event; second-impurity flip carries both mixing halves
    amp_10 = s1 * (s3 - s4) / 2          # impurity-1 flipped
    amp_01 = (s3 + s4) / 2 * (s3 - s4) / 2  # impurity-2 flipped
    expect = abs(amp_10) ** 2 + abs(amp_01) ** 2
    assert abs(out.branch_probability - expect) < 1e-12
    pair = out.post_state
    assert pair.labels == ("impurity-1", "impurity-2")
    norm = math.sqrt(expect)
    assert abs(abs(pair.amplitudes[0b10]) - abs(amp_10) / norm) < 1e-12
    assert abs(abs(pair.amplitudes[0b01]) - abs(amp_01) / norm) < 1e-12
    assert abs(res.tree.total_probability() - 1.0) < 1e-12


def test_entangle_impurities_exact_frozen_point():
    res = entangle_impurities(1.0, KondoImpurity(1.0), KondoImpurity(1.0),
                              half_separation=1.0, mode="exact")
    out = res.outcomes[0]
    assert abs(out.branch_probability - 0.2052718798810071) < 1e-12
    assert abs(out.entropy_bits - 0.9936751360950815) < 1e-12
    assert isinstance(out.concurrence, float)


def test_entangle_impurities_zero_couplings():
    res = entangle_impurities(1.0, KondoImpurity(0.0), KondoImpurity(0.0))
    assert res.outcomes[0].branch_probability == 0.0
    assert abs(res.outcomes[1].branch_probability - 1.0) < 1e-15


def test_entangle_impurities_exact_mode_tree():
    res = entangle_impurities(1.0, KondoImpurity(1.0), KondoImpurity(0.8),
                              half_separation=2.0, mode="exact")
    labels = [b.label for b in res.tree.branches]
    assert "reflected" in labels
    assert abs(res.tree.total_probability() - 1.0) < 1e-10


def test_entangle_impurities_modes_converge_for_weak_coupling():
    imp = KondoImpurity(0.01)
    exact = entangle_impurities(1.0, imp, imp, half_separation=5.0, mode="exact")
    first = entangle_impurities(1.0, imp, imp, mode="first-order")
    se = exact.outcomes[0].post_state.amplitudes
    sf = first.outcomes[0].post_state.amplitudes
    fidelity = abs(np.vdot(se, sf)) ** 2
    assert fidelity >= 1.0 - 1e-3


def test_entangle_impurities_mode_validation():
    with pytest.raises(ValueError):
        entangle_impurities(1.0, KondoImpurity(1.0), KondoImpurity(1.0), mode="secondorder")
    with pytest.raises(ValueError):
        entangle_impurities(1.0, KondoImpurity(1.0), KondoImpurity(1.0),
                            half_separation=-1.0, mode="exact")


@pytest.mark.parametrize("k, half_separation", [(1e200, 1e200), (1e160, 1e150)])
def test_first_order_mode_answers_an_overflowing_2ka(k, half_separation):
    # first-order mode has no propagation phase, so the rule that exact mode
    # records for e^{2ika} (tests/test_cli_surface.py) must not refuse it
    params = {"k": k, "r1": 1.0, "r2": 0.5, "half_separation": half_separation}
    tree = run_protocol("entangle-impurities", params).tree
    assert abs(tree.total_probability() - 1.0) <= DEFAULT_TOLERANCES.solver_residual


# Inputs on which exact mode fails today: close, nearly opaque barriers
# (flux off by 7.8e-8), and k = 5e-324, where the channel amplitudes are not
# finite or the composition is singular.  First-order mode answers all three.
EXACT_MODE_DEFECTS = [
    {"k": 1.5968375361207577e-07, "r1": 0.10099984732649511, "r2": 0.705775586659697,
     "half_separation": 7.320449548807124e-06},
    {"k": 5e-324, "r1": 1.0, "r2": 1.0, "half_separation": 1.0, "initial": "000"},
    {"k": 5e-324, "r1": 64096778983.88762, "r2": 1.1802785064156804, "half_separation": 1e-320,
     "eigenvalues": "standard-pauli", "initial": "000"},
]


@pytest.mark.parametrize("mode", [
    "first-order",
    pytest.param("exact", marks=pytest.mark.xfail(strict=True,
                                                  raises=(InternalFaultError, ValueError))),
])
@pytest.mark.parametrize("params", EXACT_MODE_DEFECTS)
def test_entangle_impurities_answers_close_opaque_and_tiny_k_inputs(params, mode):
    tree = run_protocol("entangle-impurities", {**params, "mode": mode}).tree
    assert abs(tree.total_probability() - 1.0) <= DEFAULT_TOLERANCES.solver_residual


def _defect_region_draws(n, seed):
    """Seeded exact-mode inputs over the region of the close-opaque defect:
    k log-uniform in [1e-9, 1e3], couplings +-10^[-6, 10], k*a in
    [1e-16, 1] on every other draw and in [1, 1e3] on the rest, both
    presets, random initial bits."""
    rng = np.random.default_rng(seed)
    k = 10.0 ** rng.uniform(-9.0, 3.0, n)
    r1, r2 = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-6.0, 10.0, (2, n))
    ka = np.where(np.arange(n) % 2 == 0, 10.0 ** rng.uniform(-16.0, 0.0, n),
                  10.0 ** rng.uniform(0.0, 3.0, n))
    preset = rng.choice(["default", "standard-pauli"], n)
    bits = rng.integers(0, 8, n)
    for i in range(n):
        yield {"k": k[i], "r1": r1[i], "r2": r2[i], "half_separation": ka[i] / k[i],
               "eigenvalues": str(preset[i]), "initial": format(int(bits[i]), "03b"),
               "mode": "exact"}


# Internal faults on _defect_region_draws(2000, 1) at commit c714339, whose
# exact mode composed 3x3 operator blocks built from projectors with
# sqrt(1/2)-rounded entries; their flux deviations run from 1.0e-10 to 2.6e-2.
PARENT_DEFECT_FAULTS = 44


def test_exact_mode_faults_no_more_often_than_before_in_the_defect_region():
    # the defect itself stays (the strict xfails above); a change of the
    # composition must not make it more frequent
    faults = 0
    for params in _defect_region_draws(2000, 1):
        try:
            run_protocol("entangle-impurities", params)
        except InternalFaultError:
            faults += 1
    assert faults <= PARENT_DEFECT_FAULTS

def test_every_outcome_state_is_normalized():
    rng = np.random.default_rng(61)
    for _ in range(15):
        a = math.sqrt(float(rng.uniform(0.05, 0.6)))
        b = math.sqrt(1 - a * a)
        k = float(rng.uniform(0.4, 2.5))
        r = float(rng.uniform(0.1, 2.0))
        for res in (
            concentrate_fixed(a, b, k, r),
            concentrate_kondo(a, b, k, KondoImpurity(r)),
            entangle_particles(k, KondoImpurity(r)),
            entangle_impurities(k, KondoImpurity(r), KondoImpurity(1.1 * r)),
        ):
            for out in res.outcomes:
                assert 0.0 <= out.branch_probability <= 1.0 + 1e-12
                if out.post_state is not None:
                    assert out.post_state.normalized


def test_a_post_state_off_unit_norm_is_an_internal_fault(monkeypatch):
    # a kernel that scales every undetected pair by 1.1 leaves its squared
    # norm 1.21; _batch refuses the first outcome it finds off unit norm
    exact = protocols._outcomes

    def scaled(*args):
        outcomes = exact(*args)
        return outcomes._replace(pair=outcomes.pair * 1.1)

    monkeypatch.setattr(protocols, "_outcomes", scaled)
    with pytest.raises(InternalFaultError) as exc:
        run_protocol("entangle-particles", {"k": 1.0, "r": 1.0})
    assert str(exc.value) == ("post state of 'both transmitted, impurity measured |0>' "
                              "off unit norm by 2.100e-01 at k=1, r=1")


# ---------------------------------------------------------------------------
# the batch-of-one result types

# every protocol and mode, as run_protocol calls
SINGLE_CALLS = {
    "concentrate": ("concentrate", {"a": 0.5, "k": 1.2}),
    "concentrate-given-r": ("concentrate", {"a": 0.5, "k": 1.2, "r": 0.7, "axis": (0.6, 0.0, 0.8)}),
    "concentrate-kondo": ("concentrate-kondo", {"a": 0.5, "k": 1.2, "r": 0.7}),
    "entangle-particles": ("entangle-particles", {"k": 1.2, "r": 0.7, "initial": "011"}),
    "entangle-impurities": ("entangle-impurities", {"k": 1.2, "r1": 0.7, "r2": 0.4}),
    "entangle-impurities-exact": ("entangle-impurities",
                                  {"k": 1.2, "r1": 0.7, "r2": 0.4, "mode": "exact"}),
}


def _states(result):
    for out in result.outcomes:
        if out.post_state is not None:
            yield out.post_state
    for branch in result.tree.branches:
        yield branch.state


def _drawn_call(rng, i):
    """Single call i of a seeded series over SINGLE_CALLS, its numbers drawn from rng."""
    protocol, params = SINGLE_CALLS[list(SINGLE_CALLS)[i % len(SINGLE_CALLS)]]
    params = dict(params, k=float(rng.uniform(0.2, 3.0)))
    if protocol == "concentrate":
        params["a"] = float(rng.uniform(0.05, 0.65))
    elif protocol == "concentrate-kondo":
        params.update(a=float(rng.uniform(0.0, 1.0)), r=float(rng.uniform(-3, 3)))
    else:
        bits = "".join(rng.choice(["0", "1"], 3))
        presets = ["default", "standard-pauli", (1.0, -0.5, 2.0, 0.25)]
        params.update(initial=bits, eigenvalues=presets[i % 3],
                      **{name: float(rng.uniform(-3, 3)) for name in ("r", "r1", "r2")
                         if name in params})
    return protocol, params


def test_result_states_equal_states_built_by_the_public_constructor():
    # the kernel wraps its checked rows without SpinState's checks; each state
    # must be the one SpinState(amplitudes, labels) builds from the same values
    rng = np.random.default_rng(71)
    seen = 0
    for i in range(240):
        for state in _states(run_protocol(*_drawn_call(rng, i))):
            public = SpinState(state.amplitudes, state.labels)
            assert state.amplitudes.tobytes() == public.amplitudes.tobytes()
            assert state.amplitudes.dtype == complex and state.amplitudes.ndim == 1
            assert state.labels == public.labels and all(type(x) is str for x in state.labels)
            assert state.normalized is public.normalized
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0
            seen += 1
    assert seen > 800


def test_a_branch_state_holds_its_probability_as_its_squared_norm():
    # SpinState.norm_squared and the kernel's branch probabilities are one
    # squared norm (hilbert._norm2), so they agree bit for bit, and normalized
    # is the rule the kernel checked each live post state by; the draws cover
    # all four protocols, entangle-impurities in both modes
    rng = np.random.default_rng(89)
    branches = 0
    for i in range(600):
        result = run_protocol(*_drawn_call(rng, i))
        for branch in result.tree.branches:
            assert branch.state.norm_squared == branch.probability
            branches += 1
        for out in result.outcomes:
            assert out.post_state is None or out.post_state.normalized is True
    assert branches > 1500


def test_measured_branch_probability_sums_as_its_zero_padded_row():
    # the kernel sums each kept half of a measured state without building the
    # zero-padded branch; the sum must be _norm2 of that branch bit for bit
    rng = np.random.default_rng(83)
    state = (rng.normal(size=(500, 8)) + 1j * rng.normal(size=(500, 8))) \
        * 10.0 ** rng.integers(-8, 8, size=(500, 8))
    for qubit in (0, 1, 2):
        branches, outcomes = protocols._measure(state, hilbert._norm2(state), qubit, "m ",
                                                ("q2", "q1", "q0"))
        assert outcomes.pair_labels == tuple(f"q{q}" for q in (2, 1, 0) if q != qubit)
        for _, amps, kept, prob in branches:
            padded = np.zeros_like(state)
            padded[:, kept] = amps
            assert np.array_equal(prob, hilbert._norm2(padded))


@pytest.mark.parametrize("name", SINGLE_CALLS)
def test_single_call_python_call_count(name):
    # cProfile counts Python and builtin calls; ufunc arithmetic is not counted
    protocol, params = SINGLE_CALLS[name]
    for _ in range(3):
        run_protocol(protocol, dict(params))
    profile = cProfile.Profile()
    profile.runcall(run_protocol, protocol, dict(params))
    # pstats keys every dataclass __init__ alike, so its total_calls drops some
    calls = sum(entry.callcount for entry in profile.getstats())
    # the worst case, exact entangle-impurities, takes 201, and the bound
    # leaves 37 calls of room for its open accuracy fixes
    assert calls <= 238, calls


# ---------------------------------------------------------------------------
# dispatch, event trees, sweeps

def test_run_protocol_name_normalization_and_defaults():
    res = run_protocol("entangle_particles", {"k": 1.0, "r": 1.0})
    assert abs(res.outcomes[0].branch_probability - 0.18) < 1e-12
    # b defaults to sqrt(1 - a^2)
    res2 = run_protocol("concentrate", {"a": A3, "k": 1.0, "r": 0.5})
    assert abs(res2.outcomes[0].entropy_bits - 1.0) < 1e-9


def test_run_protocol_optional_phases():
    res = run_protocol("concentrate", {"a": A3, "a_phase": 0.3, "b_phase": -1.1,
                                       "k": 1.0, "r": 0.5})
    # phases never move probabilities or entropy
    assert abs(res.outcomes[0].branch_probability - 2.0 / 3.0) < 1e-12
    assert abs(res.outcomes[0].entropy_bits - 1.0) < 1e-9


def test_run_protocol_rejects_unknown_names_and_parameters():
    with pytest.raises(ValueError):
        run_protocol("teleport", {})
    with pytest.raises(ValueError):
        run_protocol("concentrate", {"a": A3, "k": 1.0, "bogus": 2})
    with pytest.raises(ValueError):
        run_protocol("concentrate-kondo", {"a": A3, "k": 1.0})  # r missing
    with pytest.raises(ValueError):
        run_protocol("entangle-particles", {"k": 1.0, "r": 1.0, "eigenvalues": "nope"})


def test_run_protocol_concentrate_defaults_to_optimal_coupling():
    res = run_protocol("concentrate", {"a": A3, "k": 1.0})
    assert abs(res.metadata["coupling"] - 0.5) < 1e-10


def test_grid_spec_values_and_validation():
    lin = GridSpec("r", 0.0, 2.0, 5)
    assert np.allclose(lin.values(), [0.0, 0.5, 1.0, 1.5, 2.0])
    log = GridSpec("k", 0.1, 10.0, 3, "log")
    assert np.allclose(log.values(), [0.1, 1.0, 10.0])
    single = GridSpec("r", 0.7, 0.7, 1)
    assert list(single.values()) == [0.7]
    with pytest.raises(ValueError):
        GridSpec("r", 2.0, 0.0, 5)
    with pytest.raises(ValueError):
        GridSpec("r", -1.0, 1.0, 5, "log")
    with pytest.raises(ValueError):
        GridSpec("r", 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        GridSpec("r", 0.0, 1.0, 5, "cubic")
    with pytest.raises(ValueError):
        GridSpec("", 0.0, 1.0, 5)


def test_sweep_single_point_equals_direct_call():
    res = sweep("concentrate", [GridSpec("r", 0.5, 0.5, 1)],
                fixed={"a": A3, "k": 1.0})
    assert len(res.records) == 1
    direct = concentrate_fixed(A3, B3, 1.0, 0.5).outcomes[0]
    rec = res.records[0]
    assert abs(rec.metrics["probability"] - direct.branch_probability) < 1e-15
    assert abs(rec.metrics["entropy_bits"] - direct.entropy_bits) < 1e-15


def test_sweep_argmax_finds_the_optimum():
    res = sweep("concentrate", [GridSpec("r", 0.0, 1.0, 101)],
                fixed={"a": A3, "k": 1.0}, objective="entropy")
    assert abs(res.argmax["r"] - 0.5) < 1e-12
    assert abs(res.argmax["value"] - 1.0) < 1e-9
    assert res.fieldnames == ("r", "probability", "entropy_bits", "concurrence")


def test_sweep_objective_probability():
    res = sweep("concentrate", [GridSpec("r", 0.0, 1.0, 11)],
                fixed={"a": A3, "k": 1.0}, objective="probability")
    # transmission only loses flux as the barrier grows
    assert res.argmax["r"] == 0.0
    assert abs(res.argmax["value"] - 1.0) < 1e-12


def test_sweep_two_grids_row_major_order():
    res = sweep("concentrate", [GridSpec("r", 0.1, 0.2, 2), GridSpec("k", 1.0, 2.0, 2)],
                fixed={"a": A3})
    points = [(rec.params["r"], rec.params["k"]) for rec in res.records]
    assert points == [(0.1, 1.0), (0.1, 2.0), (0.2, 1.0), (0.2, 2.0)]


def test_sweep_strong_coupling_probability_floor():
    res = sweep("entangle-particles", [GridSpec("r", 1.0, 1000.0, 4, "log")],
                fixed={"k": 1.0}, objective="probability")
    probs = [rec.metrics["probability"] for rec in res.records]
    assert probs[0] > probs[-1]
    # the zero-eigenvalue channel never damps, so success floors at 1/16
    assert abs(probs[-1] - 1.0 / 16.0) < 1e-4


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep("concentrate", [], fixed={"a": A3})
    with pytest.raises(ValueError):
        sweep("concentrate", [GridSpec("r", 0, 1, 3), GridSpec("r", 0, 1, 3)],
              fixed={"a": A3, "k": 1.0})
    with pytest.raises(ValueError):
        sweep("concentrate", [GridSpec("r", 0, 1, 3)], fixed={"a": A3, "k": 1.0},
              objective="fidelity")


# ---------------------------------------------------------------------------
# the kernel's short-axis sums

# every shape the kernel sums: pair rows (N, 4) and (N, m, 4), register rows
# (N, 8) and (N, m, 8), and the one initial state (1, 8) shared by a sweep
@pytest.mark.parametrize("shape", [(300, 4), (300, 1, 4), (300, 2, 4), (300, 8), (300, 2, 8),
                                   (300, 3, 8), (1, 4), (1, 1, 4), (1, 8), (1, 3, 8)])
def test_the_short_axis_sum_equals_numpy_reduce_bit_for_bit(shape):
    # the sweep and single-call digests rest on this identity; the kernel
    # sums squares, so the draws are magnitudes from 1e-300 to 1e300 with
    # zeros, infinities and NaNs among them
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        x = 10.0 ** rng.uniform(-300.0, 300.0, shape)
        kind = rng.random(shape)
        x[kind < 0.1] = 0.0
        x[(0.1 <= kind) & (kind < 0.13)] = np.inf
        x[(0.13 <= kind) & (kind < 0.15)] = np.nan
        with np.errstate(all="ignore"):
            got, want = hilbert._sum_rows(x), np.add.reduce(x, axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # uniform draws round differently in any other order of adds
    x = rng.random((4096, shape[-1]))
    assert np.array_equal(hilbert._sum_rows(x), np.add.reduce(x, axis=-1))
