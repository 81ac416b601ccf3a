"""QAOA ground-state preparation for the fully-connected p-spin ferromagnet,
simulated exactly in the maximum-spin sector."""

from .sector import (
    ProblemSpec,
    SymmetricBasis,
    TargetSpectrum,
    build_basis,
    diagonalize_target,
    hz_diagonal,
    plus_state,
)
from .engine import (
    EvaluationRecord,
    QaoaParams,
    energy,
    energy_and_gradient,
    equivalent_annealing_time,
    evaluate,
    fidelity,
    qaoa_state,
    residual_energy,
)
from .optimizer import (
    LinearInit,
    MultiStartStats,
    OptimizationResult,
    OptimizerConfig,
    RandomInit,
    bfgs_minimize,
    derive_seed,
    l_init,
    multi_start,
    optimize,
    r_init,
)
from .analytic import (
    EvenPDecomposition,
    SymmetryTransform,
    all_even_p_decompositions,
    canonicalize,
    even_p_decomposition,
    exact_p1_params,
    f_of_m,
    p1_fidelity_closed_form,
    symmetry_group,
    verify_power_identity,
)
from .experiments import (
    ExperimentConfig,
    GapRow,
    P1TableRow,
    SweepRow,
    collapse_coordinate,
    emit_results,
    fit_gap_exponent,
    fit_iteration_slope,
    fit_scaling_exponent,
    load_results_json,
    minimal_gap,
    p_star,
    run_experiment,
)

__version__ = "0.1.0"
