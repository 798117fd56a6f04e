"""The package's public surface, pinned so that any change to it shows as a diff here."""

import numpy as np
import pytest

import spinscatter
from spinscatter.cli import emit_columns

PUBLIC = [
    "DEFAULT_EXCHANGE_EIGENVALUES", "DEFAULT_TOLERANCES", "EXCHANGE_EIGENVALUE_PRESETS",
    "EventBranch", "EventTree", "FixedImpurity", "GridSpec", "InternalFaultError",
    "KondoImpurity", "OperatorAmplitudes", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "ProtocolOutcome", "ProtocolResult", "ScalarAmplitudes", "SpinState", "SweepRecord",
    "SweepResult", "Tolerances", "TwoImpurityAmplitudes", "TwoImpurityGeometry",
    "basis_state", "concentrate_fixed", "concentrate_kondo", "concurrence", "embed",
    "entangle_impurities", "entangle_particles", "entropy_between",
    "exchange_matrix", "first_order_composition",
    "fixed_filter_operators", "kondo_channel_amplitudes", "kondo_operators",
    "make_state", "matrix_amplitudes", "normalize", "optimal_coupling_fixed",
    "pauli_along", "pure_pair_figures", "run_protocol", "scalar_amplitudes",
    "star_product", "sweep", "two_impurity_exact",
]


def test_public_surface_is_pinned():
    assert len(set(spinscatter.__all__)) == len(spinscatter.__all__)
    for name in spinscatter.__all__:
        assert getattr(spinscatter, name, None) is not None, name
    assert spinscatter.__all__ == PUBLIC


# validation errors of the public surface that no other test reaches, each
# with the one-line message it raises (a bad number at a real argument is
# in test_scattering.REAL_ARGUMENTS)
VALIDATION_ERRORS = {
    "concentrate-two-component-axis": (
        lambda: spinscatter.concentrate_fixed(0.6, 0.8, 1.0, 0.5, axis=(0.0, 1.0)),
        "axis must be a finite 3-vector"),
    "matrix-amplitudes-non-square": (lambda: spinscatter.matrix_amplitudes(np.ones((2, 3)), 1.0),
                                     "potential must be a square matrix"),
    "operator-amplitudes-unequal-shapes": (
        lambda: spinscatter.OperatorAmplitudes(np.eye(2), np.zeros((3, 3))),
        "transmission and reflection must be equal square matrices"),
    "operator-amplitudes-nan": (
        lambda: spinscatter.OperatorAmplitudes(np.full((2, 2), np.nan), np.full((2, 2), np.nan)),
        "operator entries must be finite"),
    "embed-nan-operator": (lambda: spinscatter.embed(np.full((2, 2), np.nan), 2, [0]),
                           "operator entries must be finite"),
    "emit-columns-unequal": (lambda: emit_columns({"a": np.zeros(2), "b": np.zeros(3)}, "csv"),
                             "columns must be equally long"),
}


@pytest.mark.parametrize("name", VALIDATION_ERRORS)
def test_validation_error_messages(name):
    call, message = VALIDATION_ERRORS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
