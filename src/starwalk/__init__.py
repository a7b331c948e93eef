"""Quantum-walk search on star graphs with an attached marked subgraph."""

from .graph import (
    FullWalk,
    HubModel,
    NumericsError,
    SpecError,
    SubgraphSpec,
    UnitaryOperator,
    Vertex,
    apply,
    build_collapsed,
    build_full,
    collapsed_matrix,
    evolve,
    hub_coefficients,
    lift_collapsed_state,
    load_spec,
    restrict_full_state,
)
from .search import (
    SearchPlan,
    SearchResult,
    initial_state,
    plan_search,
    run_search,
    sample_measurement,
)
from .spectral import (
    MonodromyReport,
    PairingFit,
    RightClassification,
    SecularFunction,
    best_target,
    classify_right,
    eigendecompose,
    group_eigenvalues,
    left_active,
    matched_phi,
    monodromy,
    paired_vectors,
    pairing_fit,
    right_block,
    right_classifications,
    secular_function,
    spectral_report,
)
from .tolerance import (
    ToleranceProfile,
    detuned_phase,
    locate_double_root,
    paired_mix_angle,
    predicted_success_compensated,
    predicted_success_naive,
    tolerance_sweep,
    tuning_t,
)

__version__ = "0.1.0"
