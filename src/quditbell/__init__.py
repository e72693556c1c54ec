"""N-qudit Bell-type inequalities for detecting genuine multipartite entanglement.

The package evaluates the two-setting, d-outcome Bell functional whose
hybrid local-nonlocal bound is 2^(N-1), certifies that bound by an exact
search over all deterministic strategies, simulates GHZ-state violations under
multiport-beamsplitter measurements, and computes the closed-form maxima and
critical visibilities.
"""

from .bounds import (
    Bipartition,
    BudgetExceededError,
    DeterministicStrategy,
    Grouping,
    bipartitions,
    build_grouping,
    group_deterministic_max,
    hlnhv_bound,
    lhv_bound,
    strategy_bell_value,
)
from .optimize import (
    PhaseSearchResult,
    ViolationReport,
    cglmp_max_closed_form,
    critical_visibility,
    max_violation,
    optimal_angles,
    optimize_phases,
    optimize_with_restarts,
)
from .quantum import (
    DenseLimitError,
    DensityMatrix,
    PhaseConfiguration,
    ghz_bell_value,
    ghz_state,
    ghz_table,
    joint_probabilities,
    mix_with_noise,
    multiport_unitary,
    product_state,
)
from .scenario import (
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    bell_value,
    coefficient,
    correlations,
    point_mass_table,
    shift,
)

__version__ = "0.1.0"

__all__ = [
    "BellScenario",
    "Bipartition",
    "BudgetExceededError",
    "DenseLimitError",
    "DensityMatrix",
    "DeterministicStrategy",
    "Grouping",
    "JointProbabilityTable",
    "PhaseConfiguration",
    "PhaseSearchResult",
    "TableFormatError",
    "ViolationReport",
    "bell_value",
    "bipartitions",
    "build_grouping",
    "cglmp_max_closed_form",
    "coefficient",
    "correlations",
    "critical_visibility",
    "ghz_bell_value",
    "ghz_state",
    "ghz_table",
    "group_deterministic_max",
    "hlnhv_bound",
    "joint_probabilities",
    "lhv_bound",
    "max_violation",
    "mix_with_noise",
    "multiport_unitary",
    "optimal_angles",
    "optimize_phases",
    "optimize_with_restarts",
    "point_mass_table",
    "product_state",
    "shift",
    "strategy_bell_value",
]
