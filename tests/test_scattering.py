import dataclasses
import fractions
import itertools
import math

import numpy as np
import pytest

from conftest import block_solve_two_impurity, random_hermitian
from spinscatter import (
    DEFAULT_TOLERANCES,
    FixedImpurity,
    GridSpec,
    InternalFaultError,
    KondoImpurity,
    OperatorAmplitudes,
    ScalarAmplitudes,
    TwoImpurityGeometry,
    concentrate_fixed,
    concentrate_kondo,
    embed,
    entangle_impurities,
    entangle_particles,
    exchange_matrix,
    first_order_composition,
    fixed_filter_operators,
    kondo_channel_amplitudes,
    kondo_operators,
    make_state,
    matrix_amplitudes,
    optimal_coupling_fixed,
    pauli_along,
    scalar_amplitudes,
    scattering,
    two_impurity_exact,
)


def test_scalar_amplitudes_closed_form():
    amps = scalar_amplitudes(1.0, 1.0)
    assert amps.transmission == 0.5 - 0.5j
    assert amps.reflection == -0.5 - 0.5j
    assert amps.xi == 1.0
    # attractive coupling flips the sign of xi, transmission stays unimodular-bounded
    attract = scalar_amplitudes(-2.0, 4.0)
    assert attract.xi == -0.5
    assert abs(attract.transmission - 1.0 / (1.0 - 0.5j)) < 1e-15


def test_scalar_unitarity_over_grid():
    for xi in np.linspace(-10.0, 10.0, 401):
        amps = scalar_amplitudes(float(xi), 1.0)
        flux = abs(amps.transmission) ** 2 + abs(amps.reflection) ** 2
        assert abs(flux - 1.0) < 1e-12


def test_scalar_amplitudes_input_validation():
    with pytest.raises(ValueError):
        scalar_amplitudes(1.0, 0.0)
    with pytest.raises(ValueError):
        scalar_amplitudes(1.0, -2.0)
    with pytest.raises(ValueError):
        scalar_amplitudes(math.inf, 1.0)


K, COUPLING, HALF = "k must be positive", "coupling must be finite", "half_separation must be positive"
AXIS, EIGENVALUES = "axis must be a finite 3-vector", "eigenvalues must be four finite numbers"
GRID = "grid bounds must be finite"
M1, M2 = 0.7 * exchange_matrix(), -0.4 * exchange_matrix()

# each real scalar argument of a public entry point: the call with that
# argument at x, and the message of the rule that refuses a bad x
REAL_ARGUMENTS = {
    "scalar_amplitudes-k": (lambda x: scalar_amplitudes(0.7, x), K),
    "scalar_amplitudes-coupling": (lambda x: scalar_amplitudes(x, 1.3), COUPLING),
    "matrix_amplitudes-k": (lambda x: matrix_amplitudes(M1, x), K),
    "kondo_channel_amplitudes-k": (lambda x: kondo_channel_amplitudes(KondoImpurity(0.7), x), K),
    "kondo_operators-k": (lambda x: kondo_operators(KondoImpurity(0.7), x), K),
    "fixed_filter_operators-k": (lambda x: fixed_filter_operators(FixedImpurity(0.7), x), K),
    "FixedImpurity-coupling": (lambda x: FixedImpurity(x, (0.6, 0.0, 0.8)), COUPLING),
    "FixedImpurity-axis": (lambda x: FixedImpurity(0.7, (0.0, 0.0, x)), AXIS),
    "pauli_along-axis": (lambda x: pauli_along((x, 0.0, 0.0)), AXIS),
    "KondoImpurity-coupling": (lambda x: KondoImpurity(x), COUPLING),
    "KondoImpurity-eigenvalues": (lambda x: KondoImpurity(0.7, (1.0, x, -2.0, 0.0)), EIGENVALUES),
    "exchange_matrix-eigenvalues": (lambda x: exchange_matrix((x, 1.0, 1.0, -3.0)), EIGENVALUES),
    "TwoImpurityGeometry-half_separation": (
        lambda x: two_impurity_exact(TwoImpurityGeometry(x, 1.3, M1, M2)), HALF),
    "TwoImpurityGeometry-k": (lambda x: two_impurity_exact(TwoImpurityGeometry(1.3, x, M1, M2)), K),
    "GridSpec-start": (lambda x: GridSpec("r", x, 5.0, 3).values(), GRID),
    "GridSpec-stop": (lambda x: GridSpec("r", -5.0, x, 3).values(), GRID),
    "concentrate_fixed-k": (lambda x: concentrate_fixed(0.6, 0.8, x, 0.5), K),
    "concentrate_fixed-coupling": (lambda x: concentrate_fixed(0.6, 0.8, 1.3, x), COUPLING),
    "concentrate_fixed-axis": (lambda x: concentrate_fixed(0.6, 0.8, 1.3, 0.5, (0.0, x, 0.0)), AXIS),
    "optimal_coupling_fixed-k": (lambda x: optimal_coupling_fixed(0.6, 0.8, x), K),
    "concentrate_kondo-k": (lambda x: concentrate_kondo(0.6, 0.8, x, KondoImpurity(0.5)), K),
    "entangle_particles-k": (lambda x: entangle_particles(x, KondoImpurity(0.7)), K),
    "entangle_impurities-k": (
        lambda x: entangle_impurities(x, KondoImpurity(0.7), KondoImpurity(-0.4), mode="exact"), K),
    "entangle_impurities-half_separation": (
        lambda x: entangle_impurities(1.3, KondoImpurity(0.7), KondoImpurity(-0.4), x, mode="exact"),
        HALF),
}
# the couplings of the exchange protocols are those of their KondoImpurity arguments

# numbers beyond the float range, values that are no real number, and non-finite floats
BAD_NUMBERS = (10**400, -10**400, "1", None, math.nan, math.inf)


def _leaves(result):
    """The values of a result as arrays, nested dataclasses, sequences and dicts flattened."""
    if dataclasses.is_dataclass(result):
        return [leaf for field in dataclasses.fields(result) for leaf in _leaves(getattr(result, field.name))]
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in _leaves(item)]
    if isinstance(result, dict):
        return [leaf for item in result.items() for leaf in _leaves(item)]
    return [np.asarray(result)]


def _assert_same_leaves(result, expected):
    got, want = _leaves(result), _leaves(expected)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_a_real_argument_may_be_any_real_number(entry):
    # every numbers.Real gives the results of its float
    call, rule = REAL_ARGUMENTS[entry]
    values = ((np.int64(1), np.int32(-1), np.float32(1.0), np.float64(-1.0), 1, -1.0) if rule == AXIS
              else (np.int64(2), np.int32(3), np.float32(1.7), np.float64(0.4), 2, 0.4))
    for x in values:
        _assert_same_leaves(call(x), call(float(x)))


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_a_bad_number_gets_the_message_of_its_rule(entry):
    # an int beyond the float range reads as +-inf and anything but a real
    # number as NaN, so it reaches the rule: no OverflowError or TypeError
    call, rule = REAL_ARGUMENTS[entry]
    bad = BAD_NUMBERS
    if rule == K:  # also zero, negative, and a positive fraction whose float is 0
        bad += (np.float32(math.nan), 0, -1, np.int64(0), fractions.Fraction(1, 10**400))
    for x in bad:
        with pytest.raises(ValueError) as exc:
            call(x)
        assert str(exc.value) == rule, x


PAIR, DIRECTION = "|a|^2 + |b|^2 must equal 1 (got ", "optimal coupling requires 0 < |a| < |b|"
# each complex amplitude of a protocol single call, as REAL_ARGUMENTS: the
# call with that amplitude at x, and the start of its rule's message
COMPLEX_ARGUMENTS = {
    "concentrate_fixed-a": (lambda x: concentrate_fixed(x, 0.8, 1.3, 0.5), PAIR),
    "concentrate_fixed-b": (lambda x: concentrate_fixed(0.8, x, 1.3, 0.5), PAIR),
    "concentrate_kondo-a": (lambda x: concentrate_kondo(x, 0.8, 1.3, KondoImpurity(0.5)), PAIR),
    "concentrate_kondo-b": (lambda x: concentrate_kondo(0.8, x, 1.3, KondoImpurity(0.5)), PAIR),
    "optimal_coupling_fixed-a": (lambda x: optimal_coupling_fixed(x, 0.8, 1.3), DIRECTION),
}
BAD_AMPLITUDES = BAD_NUMBERS + ("0.6", complex(math.nan, 0.0), complex(0.0, math.inf))


@pytest.mark.parametrize("entry", COMPLEX_ARGUMENTS)
def test_an_amplitude_may_be_any_complex_number(entry):
    # every numbers.Complex gives the results of its complex value
    call, _ = COMPLEX_ARGUMENTS[entry]
    for x in (np.float64(0.6), np.complex128(0.6), np.complex128(0.6j), 0.6j, fractions.Fraction(3, 5)):
        _assert_same_leaves(call(x), call(complex(x)))


@pytest.mark.parametrize("entry", COMPLEX_ARGUMENTS)
def test_a_bad_amplitude_gets_the_message_of_its_rule(entry):
    # an int beyond the float range reads as inf and anything but a number
    # (a numeric string too) as NaN, which the NaN-safe rule refuses
    call, rule = COMPLEX_ARGUMENTS[entry]
    for x in BAD_AMPLITUDES:
        with pytest.raises(ValueError) as exc:
            call(x)
        assert str(exc.value).startswith(rule), x


def test_an_unbounded_b_asks_for_an_infinite_optimal_coupling():
    for x in (10**400, -10**400, math.inf, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match=r"^coupling must be finite$"):
            optimal_coupling_fixed(0.6, x, 1.3)
    for x in ("0.6", None, math.nan, complex(math.nan, 0.0)):
        with pytest.raises(ValueError) as exc:
            optimal_coupling_fixed(0.6, x, 1.3)
        assert str(exc.value) == DIRECTION, x


def test_geometry_holds_k_and_half_separation_as_floats():
    geom = TwoImpurityGeometry(np.int32(1), np.int64(2), np.eye(2), np.eye(2))
    assert type(geom.k) is float and geom.k == 2.0
    assert type(geom.half_separation) is float and geom.half_separation == 1.0


def test_scalar_pair_identity_is_exact():
    with pytest.raises(ValueError):
        ScalarAmplitudes(0.5 - 0.5j, -0.5 - 0.5000001j, 1.0)


def test_matrix_amplitudes_diagonal_reduces_to_scalar():
    # a diagonal potential scatters each component independently
    rng = np.random.default_rng(3)
    for _ in range(10):
        diag = rng.uniform(-3.0, 3.0, size=4)
        k = float(rng.uniform(0.2, 5.0))
        t = matrix_amplitudes(np.diag(diag).astype(complex), k).transmission
        expect = np.diag([scalar_amplitudes(float(g), k).transmission for g in diag])
        assert np.max(np.abs(t - expect)) < 1e-13


def test_matrix_amplitudes_flux_conservation():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8):
        for _ in range(10):
            ops = matrix_amplitudes(random_hermitian(rng, dim), float(rng.uniform(0.3, 4.0)))
            t, r = ops.transmission, ops.reflection
            flux = t.conj().T @ t + r.conj().T @ r
            assert np.max(np.abs(flux - np.eye(dim))) < 1e-11


@pytest.mark.parametrize("coupling", [1e6, 1e8, 1e10])
def test_matrix_amplitudes_strong_embedded_exchange(coupling):
    # the residual max|(I + iM/k)T - I| grows with |M/k| (1.35e-10 at 1e6 and
    # 5.0e-9 at 1e8 on this potential); an absolute 1e-10 bound raised here
    potential = embed(coupling * exchange_matrix(), 3, (2, 1))
    ops = matrix_amplitudes(potential, 1.0)
    t, r = ops.transmission, ops.reflection
    flux = t.conj().T @ t + r.conj().T @ r - np.eye(8)
    assert np.max(np.abs(flux)) <= DEFAULT_TOLERANCES.solver_residual


@pytest.mark.parametrize("k", [1.0, 1e-3])
@pytest.mark.parametrize("coupling", [1e156, 1e160, 1e200, 1e306])
def test_matrix_amplitudes_past_the_swamped_identity(coupling, k):
    # no fault and flux conserved, also where M/k overflows (1e306 at
    # k = 1e-3), and T equal to the channel construction
    potential = embed(coupling * exchange_matrix(), 3, (2, 1))
    ops = matrix_amplitudes(potential, k)
    t, r = ops.transmission, ops.reflection
    flux = t.conj().T @ t + r.conj().T @ r - np.eye(8)
    assert np.max(np.abs(flux)) <= DEFAULT_TOLERANCES.solver_residual
    channels = embed(kondo_operators(KondoImpurity(coupling), k).transmission, 3, (2, 1))
    assert np.max(np.abs(t - channels)) <= 1e-12


@pytest.mark.parametrize("targets", [(2, 0), (2, 1)])
@pytest.mark.parametrize("coupling", [1e6, 1e8, 1e10])
def test_matrix_amplitudes_open_channel_beside_a_strong_one(coupling, targets):
    # eigenvalue 0 in the block of a strong channel: T is accurate to about
    # eps·||M||/k there (up to 0.52 of it on these cases)
    eigenvalues = (1.0, 0.0, 0.0, 1.0)
    t = matrix_amplitudes(embed(coupling * exchange_matrix(eigenvalues), 3, targets), 1.0).transmission
    channels = embed(kondo_operators(KondoImpurity(coupling, eigenvalues), 1.0).transmission, 3, targets)
    assert np.max(np.abs(t - channels)) <= np.finfo(float).eps * coupling


def test_matrix_amplitudes_flux_check_catches_what_the_residual_misses(monkeypatch):
    # at |M/k| ~ 1e162 the residual bound scales with ||kI + iM|| ~ 1e162, so
    # a transmission off by a phase passes it; flux conservation refuses it
    exact = scattering._transmission
    monkeypatch.setattr(scattering, "_transmission",
                        lambda coupling, k: exact(coupling, k) * np.exp(0.1j))
    with pytest.raises(InternalFaultError, match="flux conservation"):
        matrix_amplitudes(embed(1e162 * exchange_matrix(), 3, (2, 1)), 1.0)


def test_matrix_amplitudes_refuses_a_transmission_off_its_residual(monkeypatch):
    # S scaled by 1.1 at coupling 2, k = 1: (kI + iM)T - kI = 0.1 I
    exact = scattering._transmission
    monkeypatch.setattr(scattering, "_transmission", lambda coupling, k: exact(coupling, k) * 1.1)
    with pytest.raises(InternalFaultError) as exc:
        matrix_amplitudes(2.0 * np.eye(2), 1.0)
    assert str(exc.value) == ("delta-barrier residual max|(kI + iM)T - kI| = 1.000e-01 exceeds "
                              "1e-10 x |kI + iM| |T| = 1.100e-10")



@pytest.mark.parametrize("deviation", [math.nan, math.inf, np.float64(math.nan), 1.0000001e-10])
def test_the_flux_fault_is_raised_past_the_bound_and_on_nan(deviation):
    with pytest.raises(InternalFaultError) as exc:
        scattering._check_flux(deviation, "two-impurity ", " at k=1")
    assert str(exc.value) == (f"two-impurity flux conservation violated by {deviation:.3e} "
                              f"(> {DEFAULT_TOLERANCES.solver_residual:g}) at k=1")


def test_the_flux_fault_passes_up_to_the_bound():
    for deviation in (0.0, DEFAULT_TOLERANCES.solver_residual, np.float64(1e-12)):
        scattering._check_flux(deviation, "")


def test_exact_solver_refuses_non_finite_amplitudes():
    # at k = 5e-324 the composition gives non-finite T and R, so the flux
    # deviation is NaN, which the flux check must not let through
    geom = TwoImpurityGeometry(1.0, 5e-324, embed(exchange_matrix(), 3, (2, 1)),
                               embed(exchange_matrix(), 3, (2, 0)))
    with pytest.raises(InternalFaultError) as exc:
        two_impurity_exact(geom)
    assert str(exc.value) == "two-impurity flux conservation violated by nan (> 1e-10)"


def test_flux_deviation_of_a_stack_is_the_worst_of_its_operators():
    rng = np.random.default_rng(17)
    t = np.stack([matrix_amplitudes(random_hermitian(rng, 4), 1.0).transmission for _ in range(5)])
    t[2] *= 1.001  # one pair that does not conserve flux
    r = t - np.eye(4)
    each = [float(np.max(np.abs(a.conj().T @ a + b.conj().T @ b - np.eye(4)))) for a, b in zip(t, r)]
    assert max(each) > 1e-3 > sorted(each)[-2]
    assert scattering._flux_deviation(t, r) == max(each)
    assert scattering._flux_deviation(t.reshape(5, 1, 4, 4), r.reshape(5, 1, 4, 4)) == max(each)
    assert [scattering._flux_deviation(a, b) for a, b in zip(t, r)] == each

def test_scalar_amplitudes_opaque_limit():
    # coupling/k overflows to infinity: the barrier transmits nothing
    for coupling in (1e10, -1e10):
        amps = scalar_amplitudes(coupling, 1e-300)
        assert amps.transmission == 0j and amps.reflection == -1 + 0j
        assert math.isinf(amps.xi)


def test_matrix_amplitudes_rejects_bad_potentials():
    with pytest.raises(ValueError):
        matrix_amplitudes(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(ValueError):
        matrix_amplitudes(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        matrix_amplitudes(np.full((2, 2), np.nan), 1.0)


def test_operator_amplitudes_identity_is_exact():
    t = np.eye(2, dtype=complex) * (0.5 - 0.5j)
    with pytest.raises(ValueError):
        OperatorAmplitudes(t, t)  # reflection must be t - identity


def _positioned_single(potential, k, a, side):
    zero = np.zeros_like(potential)
    if side == "left":  # impurity at x = -a
        geom = TwoImpurityGeometry(a, k, potential, zero)
    else:  # impurity at x = +a
        geom = TwoImpurityGeometry(a, k, zero, potential)
    return two_impurity_exact(geom)


def test_exact_solver_reduces_to_single_impurity():
    """One barrier switched off: T matches the single-barrier operator exactly
    and R carries the position phase e^{2ikx0} of the surviving impurity."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = random_hermitian(rng, 4)
        k = float(rng.uniform(0.4, 3.0))
        a = float(rng.uniform(0.3, 2.0))
        single = matrix_amplitudes(m, k)
        left = _positioned_single(m, k, a, "left")
        right = _positioned_single(m, k, a, "right")
        assert np.max(np.abs(left.transmission - single.transmission)) < 1e-10
        assert np.max(np.abs(right.transmission - single.transmission)) < 1e-10
        assert np.max(np.abs(left.reflection - np.exp(-2j * k * a) * single.reflection)) < 1e-10
        assert np.max(np.abs(right.reflection - np.exp(2j * k * a) * single.reflection)) < 1e-10


def test_exact_solver_scalar_double_barrier_closed_form():
    # hand-derived transmission of two scalar deltas g1, g2 at -+a:
    #   F = 1 / (1 + i(g1+g2)/k - (g1 g2/k^2)(1 - e^{4ika}))
    g1, g2, k, a = 0.3, 0.45, 1.1, 0.8
    geom = TwoImpurityGeometry(a, k, np.diag([g1, g1]).astype(complex),
                               np.diag([g2, g2]).astype(complex))
    got = two_impurity_exact(geom).transmission
    denom = 1 + 1j * (g1 + g2) / k - (g1 * g2 / k**2) * (1 - np.exp(4j * k * a))
    assert abs(got[0, 0] - 1 / denom) < 1e-12
    assert abs(got[0, 1]) < 1e-14  # scalar barriers never mix spin components


def test_exact_solver_conservation_random():
    rng = np.random.default_rng(29)
    for _ in range(20):
        geom = TwoImpurityGeometry(
            float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.3, 4.0)),
            random_hermitian(rng, 8), random_hermitian(rng, 8),
        )
        res = two_impurity_exact(geom)
        flux = res.transmission.conj().T @ res.transmission \
            + res.reflection.conj().T @ res.reflection
        assert np.max(np.abs(flux - np.eye(8))) < 1e-10


def test_exact_solver_maps_one_incident_spin():
    """T @ chi and R @ chi are the outgoing spinors; their flux adds to |chi|^2."""
    rng = np.random.default_rng(41)
    geom = TwoImpurityGeometry(1.0, 1.5, random_hermitian(rng, 2), random_hermitian(rng, 2))
    res = two_impurity_exact(geom)
    chi = np.array([0.6, 0.8j])
    out_t, out_r = res.transmission @ chi, res.reflection @ chi
    assert abs(np.vdot(out_t, out_t).real + np.vdot(out_r, out_r).real - 1.0) < 1e-10
    up = np.array([1.0, 0.0])
    assert np.array_equal(res.transmission @ up, res.transmission[:, 0])
    with pytest.raises(TypeError):
        two_impurity_exact(geom, chi)  # the incident spin is the caller's to apply


def test_geometry_validation():
    m = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        TwoImpurityGeometry(0.0, 1.0, m, m)
    with pytest.raises(ValueError):
        TwoImpurityGeometry(1.0, -1.0, m, m)
    with pytest.raises(ValueError):
        TwoImpurityGeometry(1.0, 1.0, m, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        TwoImpurityGeometry(1.0, 1.0, np.array([[0, 1], [0, 0]], dtype=complex), m)
    # the phase e^{2ika} needs a finite 2ka, which overflows here
    for half_separation, k in ((1e200, 1e200), (1e150, 1e160), (1e308, 1.0)):
        with pytest.raises(ValueError, match=r"^2\*k\*half_separation must be finite$"):
            TwoImpurityGeometry(half_separation, k, m, m)


def test_first_order_composition_order_and_reduction():
    rng = np.random.default_rng(43)
    a = matrix_amplitudes(random_hermitian(rng, 2), 1.3)
    b = matrix_amplitudes(random_hermitian(rng, 2), 1.3)
    # first scatterer listed first: the product is T_b @ T_a
    got = first_order_composition([a, b])
    assert np.max(np.abs(got - b.transmission @ a.transmission)) < 1e-14
    alone = first_order_composition([a])
    assert np.max(np.abs(alone - a.transmission)) < 1e-15
    with pytest.raises(ValueError):
        first_order_composition([])
    with pytest.raises(ValueError):
        first_order_composition([a, matrix_amplitudes(random_hermitian(rng, 4), 1.3)])


def test_first_order_approaches_exact_for_weak_coupling():
    rng = np.random.default_rng(47)
    m1 = random_hermitian(rng, 4)
    m2 = random_hermitian(rng, 4)
    k, a = 1.0, 1.0
    g = 0.01
    exact = two_impurity_exact(TwoImpurityGeometry(a, k, g * m1, g * m2)).transmission
    first = first_order_composition([
        matrix_amplitudes(g * m1, k), matrix_amplitudes(g * m2, k),
    ])
    assert np.linalg.norm(exact - first) < 5e-3


def test_exact_solver_matches_block_solve_oracle():
    """S-matrix composition against the 4d x 4d matching solve, 200 random draws."""
    rng = np.random.default_rng(2005)
    worst = 0.0
    for i in range(200):
        dim = (2, 4, 8)[i % 3]
        geom = TwoImpurityGeometry(
            float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.3, 4.0)),
            random_hermitian(rng, dim), random_hermitian(rng, dim),
        )
        got = two_impurity_exact(geom)
        t, r = block_solve_two_impurity(geom)
        worst = max(worst, float(np.max(np.abs(got.transmission - t))),
                    float(np.max(np.abs(got.reflection - r))))
    assert worst <= 1e-12


def _rank_one_projectors(rng, d):
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return np.einsum("ic,jc->cij", q, q.conj())


def test_star_product_of_channel_decompositions_is_the_redheffer_formula():
    # random rank-one channel decompositions at n points, against the
    # formula written out on the operators T_j = sum_c S_c P_c
    rng = np.random.default_rng(5)
    n, d = 7, 3
    p1, p2 = _rank_one_projectors(rng, d), _rank_one_projectors(rng, d)
    s1, s2 = (scattering._transmission(rng.normal(size=(n, d)) * 3.0, 1.0) for _ in range(2))
    phase = np.exp(2j * rng.uniform(0.0, 3.0, n))
    incident = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    eye = np.eye(d)
    t1, t2 = np.einsum("nc,cij->nij", s1, p1), np.einsum("nc,cij->nij", s2, p2)
    p = phase[:, None, None]
    between = np.linalg.solve(eye - p * p * ((t1 - eye) @ (t2 - eye)), t1 @ incident[..., None])
    expect_t = (t2 @ between)[..., 0]
    expect_r = ((t1 - eye) @ incident[..., None] / p + p * (t1 @ ((t2 - eye) @ between)))[..., 0]
    got_t, got_r = scattering.star_product(s1, p1, s2, p2, phase, incident)
    assert got_t.shape == got_r.shape == (n, d)
    assert np.max(np.abs(got_t - expect_t)) <= 1e-13
    assert np.max(np.abs(got_r - expect_r)) <= 1e-13
    # a lone incident row is shared by every point
    shared = scattering.star_product(s1, p1, s2, p2, phase, incident[:1])
    repeated = scattering.star_product(s1, p1, s2, p2, phase, np.repeat(incident[:1], n, axis=0))
    for x, y in zip(shared, repeated):
        assert x.shape == (n, d) and np.max(np.abs(x - y)) <= 1e-14


# _solve against np.linalg.solve, a test-only oracle.  Gaussian elimination
# with partial pivoting is backward stable: the computed y of A y = x has
# |A y - x|_inf <= c d eps |A|_inf |y|_inf, with c of the order of the growth
# factor (at most 2^(d-1)) times a small constant of complex rounding.
BACKWARD_C = 8.0
SINGULAR = "two-impurity composition is singular: Singular matrix"


def _stack(system):
    """The (n, d, d) matrices of _solve's (d*d, n) layout."""
    d = math.isqrt(system.shape[0])
    return system.T.reshape(-1, d, d)


def _oracle(system, x):
    n = max(system.shape[-1], x.shape[-1])
    d = len(x)
    a = np.broadcast_to(_stack(system), (n, d, d))
    return np.linalg.solve(a, np.broadcast_to(x.T, (n, d))[..., None])[..., 0].T


def _backward_errors(system, x, y):
    """|A y - x|_inf / (d eps |A|_inf |y|_inf) at each point."""
    d = len(x)
    a = _stack(system)
    residual = np.max(np.abs((a @ y.T[..., None])[..., 0] - x.T), axis=-1)
    scale = d * np.finfo(float).eps * np.max(np.sum(np.abs(a), axis=-1), axis=-1) * np.max(np.abs(y), axis=0)
    return residual / scale


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [1, 3])
def test_solve_is_backward_stable_as_lapack(d):
    rng = np.random.default_rng(71 + d)
    n = 2000
    system = _complex_normal(rng, d * d, n) * 10.0 ** rng.uniform(-8, 8, (1, n))
    x = _complex_normal(rng, d, n)
    y, expect = scattering._solve(system, x), _oracle(system, x)
    assert y.shape == (d, n)
    assert np.max(_backward_errors(system, x, y)) <= BACKWARD_C
    assert np.max(_backward_errors(system, x, expect)) <= BACKWARD_C
    # forward agreement, to the conditioning of each system
    cond = np.linalg.cond(_stack(system), np.inf)
    error = np.max(np.abs(y - expect), axis=0) / np.max(np.abs(expect), axis=0)
    assert np.all(error <= 2 * BACKWARD_C * d * np.finfo(float).eps * cond)


def test_solve_takes_every_pivot_order_point_by_point():
    # column-diagonally dominant M needs no row swap (Golub & Van Loan,
    # sec. 3.4.10), so the rows of M in the order pi make partial pivoting
    # take the pivot rows in the order pi; each point has its own order
    rng = np.random.default_rng(73)
    d, orders = 3, [np.array(p) for p in itertools.permutations(range(3))]
    n = 100 * len(orders)
    m = _complex_normal(rng, n, d, d) * 0.1
    m[:, range(d), range(d)] += 3.0 * np.exp(2j * np.pi * rng.uniform(size=(n, d)))
    size = np.abs(m)
    assert np.all(2 * size[:, range(d), range(d)] > np.sum(size, axis=1))
    order = np.array([orders[i % len(orders)] for i in range(n)])
    permuted = np.take_along_axis(m, order[..., None], axis=1)
    system = permuted.reshape(n, d * d).T
    x = _complex_normal(rng, d, n)
    y = scattering._solve(system, x)
    assert np.max(_backward_errors(system, x, y)) <= BACKWARD_C
    assert np.max(np.abs(y - _oracle(system, x))) <= 1e-14
    # a point's result does not depend on the points beside it
    for i in range(0, n, 37):
        assert np.array_equal(scattering._solve(system[:, i:i + 1], x[:, i:i + 1])[:, 0], y[:, i])


@pytest.mark.parametrize("d", [1, 3])
def test_solve_shares_a_one_point_system_or_vector(d):
    rng = np.random.default_rng(79)
    n = 9
    system, x = _complex_normal(rng, d * d, n), _complex_normal(rng, d, n)
    shared_system = scattering._solve(system[:, :1], x)
    assert np.array_equal(shared_system, scattering._solve(np.repeat(system[:, :1], n, axis=1), x))
    shared_x = scattering._solve(system, x[:, :1])
    assert np.array_equal(shared_x, scattering._solve(system, np.repeat(x[:, :1], n, axis=1)))
    assert np.max(np.abs(shared_x - _oracle(system, x[:, :1]))) <= 1e-12


def test_solve_is_backward_stable_as_the_product_of_reflections_nears_one():
    # I - p^2 R1 R2 for close, nearly opaque barriers: R_j = T_j - I with
    # |S_c| -> 0 and p^2 -> 1, so the systems come near singularity; the
    # backward error bound holds at any conditioning
    rng = np.random.default_rng(83)
    d, n = 3, 3000
    p1, p2 = _rank_one_projectors(rng, d), _rank_one_projectors(rng, d)
    xi = 10.0 ** rng.uniform(0, 12, (2, n, d)) * rng.choice([-1.0, 1.0], (2, n, d))
    r1, r2 = (np.einsum("nc,cij->nij", scattering._transmission(x, 1.0) - 1.0, p) for x, p in zip(xi, (p1, p2)))
    phase = np.exp(2j * 10.0 ** rng.uniform(-16, 0, n))
    a = np.eye(d) - phase[:, None, None] ** 2 * (r1 @ r2)
    system = a.reshape(n, d * d).T
    x = _complex_normal(rng, d, n)
    assert np.max(np.linalg.cond(a, np.inf)) > 1e10
    y = scattering._solve(system, x)
    assert np.max(_backward_errors(system, x, y)) <= BACKWARD_C
    assert np.max(_backward_errors(system, x, _oracle(system, x))) <= BACKWARD_C


@pytest.mark.parametrize("rows", [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[1, 2, 3], [2, 4, 6], [1, 1, 1]],  # the zero pivot comes last, exactly
    [[0, 1, 0], [0, 0, 1], [0, 1, 1]],  # the first column is zero
])
def test_solve_refuses_an_exact_zero_pivot_as_lapack_did(rows):
    rng = np.random.default_rng(89)
    system = _complex_normal(rng, 9, 5)
    system[:, 3] = np.ravel(rows)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _oracle(system, np.ones((3, 1)))
    with pytest.raises(InternalFaultError) as exc:
        scattering._solve(system, np.ones((3, 1)))
    assert str(exc.value) == SINGULAR


def test_solve_returns_nan_for_a_nan_entry():
    rng = np.random.default_rng(97)
    system, x = _complex_normal(rng, 9, 4), _complex_normal(rng, 3, 4)
    system[4, 1] = complex(math.nan, 0.0)
    x[0, 2] = math.nan
    with np.errstate(all="ignore"):  # as inside the entry points, which are _quiet
        y = scattering._solve(system, x)
    assert np.all(np.isnan(y[:, 1])) and np.any(np.isnan(y[:, 2]))
    keep = [0, 3]
    assert np.max(np.abs(y[:, keep] - _oracle(system[:, keep], x[:, keep]))) <= 1e-13
