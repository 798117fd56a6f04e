"""The package's public surface, pinned so that any change to it shows as a diff here."""

import spinscatter

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
