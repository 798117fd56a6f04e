"""The exchange protocols' S_z-sector kernel against the dense 8x8 path.

Exchange conserves the total S_z, so the protocols run each Hamming-weight
sector of the three-qubit register on its own, through channel tables of
d <= 3 states.
Here every tree branch and every outcome of a protocol is rebuilt from full
8x8 operators: two_impurity_exact on embedded potentials for exact mode,
and products of matrix_amplitudes transmissions for the single-pass
protocols.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduced_density, von_neumann_entropy
from spinscatter import (
    GridSpec,
    KondoImpurity,
    TwoImpurityGeometry,
    basis_state,
    concentrate_kondo,
    embed,
    entangle_impurities,
    entangle_particles,
    exchange_matrix,
    make_state,
    matrix_amplitudes,
    protocols,
    run_protocol,
    sweep,
    two_impurity_exact,
)
from spinscatter.channels import EXCHANGE_EIGENVALUE_PRESETS, EXCHANGE_PROJECTORS
from spinscatter.scattering import _transmission

SECTORS = ((0,), (1, 2, 4), (3, 5, 6), (7,))
IMPURITIES = ("particle-0", "impurity-1", "impurity-2")
PARTICLES = ("particle-2", "particle-1", "impurity-0")
BOUND = 1e-12
# normalized figures of a branch divide its rounding by sqrt(probability);
# below this probability they are compared through the raw amplitudes only
WELL_CONDITIONED = 1e-6


def test_embedded_exchange_projectors_are_block_diagonal_in_the_sectors():
    weight = np.array([bin(i).count("1") for i in range(8)])
    off_sector = weight[:, None] != weight[None, :]
    for targets in ((1, 0), (2, 0), (2, 1)):
        for proj in EXCHANGE_PROJECTORS:
            assert np.all(embed(proj, 3, targets)[off_sector] == 0)


def test_exchange_protocols_build_no_register_sized_operators(monkeypatch):
    # the kernel applies every exchange barrier by _compose, in one pass or
    # as the star product on tables: every table and spin vector it hands
    # it is at most 3 wide, and no operand or result is a stack of operators
    widths = {"pass": [], "star": []}
    stacked = []
    compose = protocols._compose

    def recording(amplitudes, tables, incident, pairs=None, phase=None):
        out = compose(amplitudes, tables, incident, pairs, phase)
        # the width d of each operand: a pass table is (d, 4d) and a pair
        # table (d*d, 16); the amplitudes (N, 4) and the phase (N,) have
        # none, and the spin vectors end in d
        dims = [*map(len, tables), incident.shape[-1], *(x.shape[-1] for x in out)]
        if pairs is not None:
            dims.append(math.isqrt(len(pairs)))
        widths["pass" if pairs is None else "star"].extend(dims)
        operands = (*amplitudes, *tables, incident, pairs, phase, *out)
        stacked.extend(np.shape(x) for x in operands if np.ndim(x) >= 3)
        return out

    monkeypatch.setattr(protocols, "_compose", recording)
    grid = [GridSpec("r1", 0.0, 2.0, 41), GridSpec("r2", 0.0, 2.0, 41)]
    for mode in ("exact", "first-order"):
        sweep("entangle-impurities", grid, {"mode": mode, "initial": "101"})
        entangle_impurities(0.9, KondoImpurity(1.2), KondoImpurity(-0.4), 1.3,
                            make_state(np.arange(1.0, 9.0) / math.sqrt(204.0), IMPURITIES), mode)
    sweep("entangle-particles", [GridSpec("r", -2.0, 2.0, 50)], {"initial": "011"})
    sweep("concentrate-kondo", [GridSpec("a", 0.1, 0.9, 50)], {"r": 0.7})
    assert widths["star"] and widths["pass"]
    assert max(widths["star"] + widths["pass"]) <= 3
    assert not stacked


def _dense_transmission(coupling, eigenvalues, k, targets):
    return matrix_amplitudes(embed(coupling * exchange_matrix(eigenvalues), 3, targets), k).transmission


def _dense_accuracy(coupling, eigenvalues, k):
    """How far matrix_amplitudes may put T of coupling*M: eps·||M||/k·max |S_c|^2.

    An open channel (S_c = 1) beside a strong one, as in the default
    eigenvalues (1, 1, -2, 0) at coupling 1e10, is known to about 1e-6.
    """
    lam = coupling * np.asarray(eigenvalues, dtype=float)
    s = _transmission(lam, k)
    return np.finfo(float).eps * np.max(np.abs(lam)) / k * np.max(np.abs(s)) ** 2


def _z_split(prefix, amps, qubit):
    """The two branches of a z measurement of qubit: label -> collapsed amplitudes."""
    bits = (np.arange(8) >> qubit) & 1
    return {f"{prefix}|{b}>": np.where(bits == b, amps, 0.0) for b in (0, 1)}


def _assert_matches_dense(result, failures, measured, qubit, labels, dense=0.0):
    """Compare a protocol result with branches rebuilt from dense operators.

    failures and measured map branch labels to raw 8-amplitude vectors;
    measured holds the two z-measurement branches, whose outcomes the
    result reports in order.  dense is how far the dense amplitudes may be
    off (_dense_accuracy); each bound widens by what that moves its figure:
    dense for an amplitude, 8 dense for a probability (a sum of eight
    squares), 24 dense for a conditional probability times its parent
    (8 dense from prob, 16 dense from the parent), and 40 dense / sqrt(prob)
    for the amplitudes, concurrence and entropy of a pair state normalized
    from probability prob.
    """
    amp, prob_bound, cond = BOUND + dense, BOUND + 8.0 * dense, BOUND + 24.0 * dense
    expected = {**failures, **measured}
    got = {b.label: b for b in result.tree.branches}
    assert set(got) <= set(expected)
    for label, amps in expected.items():
        if label in got:  # the result drops exact nulls from its tree
            assert got[label].state.labels == labels
            assert np.max(np.abs(got[label].state.amplitudes - amps)) <= amp
            assert abs(got[label].probability - np.vdot(amps, amps).real) <= prob_bound
        else:
            assert np.max(np.abs(amps)) <= amp

    parent = sum(np.vdot(a, a).real for a in measured.values())
    keep = [i for i in range(3) if i != 2 - qubit]
    pair_labels = tuple(labels[i] for i in keep)
    for out, (label, amps) in zip(result.outcomes, measured.items()):
        assert out.branch_label == label
        raw = amps[[i for i in range(8) if (i >> qubit) & 1 == int(label[-2])]]
        prob = np.vdot(raw, raw).real
        assert abs(out.branch_probability - prob) <= prob_bound
        if out.post_state is None:
            assert np.max(np.abs(raw)) <= amp
            continue
        assert out.post_state.labels == pair_labels
        scale = math.sqrt(out.branch_probability)
        assert np.max(np.abs(out.post_state.amplitudes * scale - raw)) <= amp
        assert abs(out.conditional_probability * parent - prob) <= cond
        if prob >= WELL_CONDITIONED:
            normed = BOUND + 40.0 * dense / math.sqrt(prob)
            pair = make_state(raw / math.sqrt(prob))
            assert np.max(np.abs(out.post_state.amplitudes - pair.amplitudes)) <= normed
            assert abs(out.conditional_probability - prob / parent) <= BOUND + 24.0 * dense / parent
            # concurrence 2|ad - bc| and the entropy of the reduced state, by eigenvalues
            a, b, c, d = pair.amplitudes
            assert abs(out.concurrence - 2.0 * abs(a * d - b * c)) <= normed
            assert abs(out.entropy_bits - von_neumann_entropy(reduced_density(pair.amplitudes, [0]))) <= normed


def _entangle_impurities_dense(k, r1, r2, ev1, ev2, half_separation, psi, mode):
    if mode == "exact":
        geom = TwoImpurityGeometry(half_separation, k,
                                   embed(r1 * exchange_matrix(ev1), 3, (2, 1)),
                                   embed(r2 * exchange_matrix(ev2), 3, (2, 0)))
        amps = two_impurity_exact(geom)
        failures = {"reflected": amps.reflection @ psi}
        return failures, _z_split("transmitted, particle measured ", amps.transmission @ psi, 2)
    t1 = _dense_transmission(r1, ev1, k, (2, 1))
    t2 = _dense_transmission(r2, ev2, k, (2, 0))
    after_1 = t1 @ psi
    failures = {"reflected at impurity-1": after_1 - psi,
                "transmitted impurity-1, reflected at impurity-2": t2 @ after_1 - after_1}
    return failures, _z_split("both transmitted, particle measured ", t2 @ after_1, 2)


@st.composite
def spanning_states(draw):
    """Normalized three-qubit amplitudes with weight in all four S_z sectors."""
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    v = np.array([complex(draw(parts), draw(parts)) for _ in range(8)])
    norms = [np.linalg.norm(v[list(s)]) for s in SECTORS]
    floors = draw(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    for s, norm, floor in zip(SECTORS, norms, floors):
        if norm < floor:  # lift a nearly empty sector to a drawn share
            v[s[0]] += floor
    return v / np.linalg.norm(v)


# The presets, or channel eigenvalues at least 0.1 in size.  The dense path
# resolves an eigenvalue of the potential r*M only to eps*||r*M||, so the
# bounds widen by _dense_accuracy: an open channel next to a coupling of 1e10
# (the default preset's antisymmetric one) is known there to about 1e-6,
# while the sector path takes S_c = 1/(1 + i r lambda_c/k) straight from
# lambda_c.  Away from open channels _dense_accuracy is below 4e-15.
EIGENVALUES = st.one_of(
    st.sampled_from(list(EXCHANGE_EIGENVALUE_PRESETS.values())),
    st.lists(st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)), min_size=4, max_size=4))
COUPLINGS = st.one_of(
    st.floats(-3.0, 3.0),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-3.0, 10.0)).map(lambda t: t[0] * 10.0 ** t[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spanning_states(), EIGENVALUES, EIGENVALUES, COUPLINGS, COUPLINGS,
       st.floats(0.2, 3.0), st.floats(0.1, 5.0), st.sampled_from(["exact", "first-order"]))
def test_entangle_impurities_sectors_match_the_dense_path(psi, ev1, ev2, r1, r2, k, half, mode):
    result = entangle_impurities(k, KondoImpurity(r1, ev1), KondoImpurity(r2, ev2), half,
                                 make_state(psi, IMPURITIES), mode)
    failures, measured = _entangle_impurities_dense(k, r1, r2, ev1, ev2, half, psi, mode)
    dense = _dense_accuracy(r1, ev1, k) + _dense_accuracy(r2, ev2, k)
    _assert_matches_dense(result, failures, measured, 2, IMPURITIES, dense)


@pytest.mark.parametrize("bits", [format(i, "03b") for i in range(8)])
@pytest.mark.parametrize("r, k, eigenvalues", [(1.3, 0.9, (1.0, 1.0, -2.0, 0.0)),
                                               (-2e6, 1.7, (1.0, 1.0, 1.0, -3.0))])
def test_entangle_particles_sectors_match_the_dense_path(bits, r, k, eigenvalues):
    psi = basis_state(bits, PARTICLES).amplitudes
    result = entangle_particles(k, KondoImpurity(r, eigenvalues), basis_state(bits, PARTICLES))
    t1 = _dense_transmission(r, eigenvalues, k, (1, 0))
    t2 = _dense_transmission(r, eigenvalues, k, (2, 0))
    after_1 = t1 @ psi
    failures = {"particle-1 reflected": after_1 - psi,
                "particle-1 transmitted, particle-2 reflected": t2 @ after_1 - after_1}
    measured = _z_split("both transmitted, impurity measured ", t2 @ after_1, 0)
    _assert_matches_dense(result, failures, measured, 0, PARTICLES)


@pytest.mark.parametrize("a, r, k, eigenvalues", [(0.6, 0.8, 1.1, (1.0, 1.0, -2.0, 0.0)),
                                                  (0.3, -4e9, 0.5, (1.0, 1.0, 1.0, -3.0)),
                                                  (1.0, 1.2, 1.0, (0.5, -1.5, 2.0, 0.0))])
def test_concentrate_kondo_sectors_match_the_dense_path(a, r, k, eigenvalues):
    b = math.sqrt(1.0 - a * a)
    psi = np.zeros(8, dtype=complex)
    psi[0b000], psi[0b110] = a, b
    result = concentrate_kondo(a, b, k, KondoImpurity(r, eigenvalues))
    transmitted = _dense_transmission(r, eigenvalues, k, (1, 0)) @ psi
    measured = _z_split("transmitted, impurity measured ", transmitted, 0)
    _assert_matches_dense(result, {"reflected": transmitted - psi}, measured, 0, PARTICLES)


@pytest.mark.parametrize("mode", ["exact", "first-order"])
@pytest.mark.parametrize("eigenvalues", [EXCHANGE_EIGENVALUE_PRESETS["default"],
                                         EXCHANGE_EIGENVALUE_PRESETS["standard-pauli"],
                                         (0.5, -1.5, 2.0, 0.0)])
def test_entangle_impurities_match_the_dense_path_on_well_conditioned_draws(eigenvalues, mode):
    # k*a in [1e-3, 10] and |r|/k up to 1e4, every basis state and a state
    # in all four sectors: the channel tables agree with the dense 8x8 route
    # within BOUND (1e-12) in every amplitude, probability and figure
    rng = np.random.default_rng(1210)
    spanning = np.arange(1.0, 9.0) * np.exp(1j * np.arange(8.0)) / math.sqrt(204.0)
    for bits in [format(i, "03b") for i in range(8)] + [None]:
        psi = spanning if bits is None else basis_state(bits, IMPURITIES).amplitudes
        for _ in range(3):
            k = 10.0 ** rng.uniform(-1.0, 1.0)
            half = 10.0 ** rng.uniform(-3.0, 1.0) / k
            r1, r2 = k * rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, 4.0, 2)
            if bits is None:  # run_protocol takes basis states only
                result = entangle_impurities(k, KondoImpurity(r1, eigenvalues),
                                             KondoImpurity(r2, eigenvalues), half,
                                             make_state(psi, IMPURITIES), mode)
            else:
                result = run_protocol("entangle-impurities", {
                    "k": k, "r1": r1, "r2": r2, "half_separation": half,
                    "eigenvalues": eigenvalues, "initial": bits, "mode": mode})
            failures, measured = _entangle_impurities_dense(k, r1, r2, eigenvalues, eigenvalues,
                                                            half, psi, mode)
            _assert_matches_dense(result, failures, measured, 2, IMPURITIES)
