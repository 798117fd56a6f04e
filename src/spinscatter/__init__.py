"""Spin-dependent scattering off delta-potential impurities, in one dimension.

A small simulation library (plus CLI) for flying spin-1/2 particles hitting
point scatterers: scalar and matrix-valued delta barriers, a pinned-spin
filter impurity, a free-spin exchange (Kondo) impurity, an exact solver for
two separated impurities, and the post-selection protocols that use these
channels to concentrate or create entanglement.  Everything is dense complex
linear algebra over at most three qubits; all results are deterministic.

Conventions (fixed across the package): hbar = m = 1; |0> is spin-up and
|1> spin-down; the leftmost qubit label is the most significant amplitude
index bit; qubit index q addresses the bit of weight 2**q.
"""

from .channels import (
    DEFAULT_EXCHANGE_EIGENVALUES,
    EXCHANGE_EIGENVALUE_PRESETS,
    FixedImpurity,
    KondoImpurity,
    embed,
    exchange_matrix,
    fixed_filter_operators,
    kondo_channel_amplitudes,
    kondo_operators,
)
from .errors import InternalFaultError
from .hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SpinState,
    basis_state,
    concurrence,
    entropy_between,
    make_state,
    normalize,
    pauli_along,
    pure_pair_figures,
)
from .protocols import (
    EventBranch,
    EventTree,
    GridSpec,
    ProtocolOutcome,
    ProtocolResult,
    SweepRecord,
    SweepResult,
    concentrate_fixed,
    concentrate_kondo,
    entangle_impurities,
    entangle_particles,
    optimal_coupling_fixed,
    run_protocol,
    sweep,
)
from .scattering import (
    OperatorAmplitudes,
    ScalarAmplitudes,
    TwoImpurityAmplitudes,
    TwoImpurityGeometry,
    first_order_composition,
    matrix_amplitudes,
    scalar_amplitudes,
    star_product,
    two_impurity_exact,
)
from .tolerances import DEFAULT as DEFAULT_TOLERANCES
from .tolerances import Tolerances

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EXCHANGE_EIGENVALUES",
    "DEFAULT_TOLERANCES",
    "EXCHANGE_EIGENVALUE_PRESETS",
    "EventBranch",
    "EventTree",
    "FixedImpurity",
    "GridSpec",
    "InternalFaultError",
    "KondoImpurity",
    "OperatorAmplitudes",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ProtocolOutcome",
    "ProtocolResult",
    "ScalarAmplitudes",
    "SpinState",
    "SweepRecord",
    "SweepResult",
    "Tolerances",
    "TwoImpurityAmplitudes",
    "TwoImpurityGeometry",
    "basis_state",
    "concentrate_fixed",
    "concentrate_kondo",
    "concurrence",
    "embed",
    "entangle_impurities",
    "entangle_particles",
    "entropy_between",
    "exchange_matrix",
    "first_order_composition",
    "fixed_filter_operators",
    "kondo_channel_amplitudes",
    "kondo_operators",
    "make_state",
    "matrix_amplitudes",
    "normalize",
    "optimal_coupling_fixed",
    "pauli_along",
    "pure_pair_figures",
    "run_protocol",
    "scalar_amplitudes",
    "star_product",
    "sweep",
    "two_impurity_exact",
]
