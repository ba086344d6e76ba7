"""Doubly robust estimation of individualized treatment rules by convex
surrogate relaxation of the augmented inverse-probability-weighted value
estimator, with cross-fitting, baselines, a simulation benchmark, and
permutation inference."""

from .core import (
    ConfigError,
    ConvergenceError,
    DataError,
    Dataset,
    DomainError,
    EarlError,
    FeatureMap,
    LinearRule,
    NumericalError,
    ParseError,
    ShapeError,
    apply_rule,
    load_csv,
    save_csv,
    sgn,
    stream,
)
from .nuisance import (
    NuisanceSpec,
    OutcomeModel,
    PropensityModel,
    fit_outcome,
    fit_propensity,
    predict_propensity,
    predict_q,
)
from .weights import (
    ClassificationInstance,
    WeightPair,
    classification_view,
    compute_weights,
    dr_weights,
    weight_pairs,
)
from .losses import (
    SurrogateLoss,
    get_loss,
    phi_eval,
    phi_grad,
    phi_hess,
    psi_eval,
    psi_inverse,
)
from .earl import (
    DEFAULT_LAMBDA_GRID,
    EarlConfig,
    EarlFit,
    FoldArtifact,
    LambdaSelection,
    earl_fit,
    earl_fit_crossfit,
    earl_objective,
    fit_earl_pipeline,
    select_lambda,
)
from .value import (
    ValueEstimate,
    value_aipwe,
    value_crossfit_aggregate,
    value_ipwe,
    value_ipwe_normalized,
)
from .baselines import (
    BaselineFit,
    aipwe_direct_search,
    owl_fit,
    qlearning_fit,
)
from .sim import (
    ExperimentResult,
    ModelSpec,
    ScenarioSpec,
    generate_scenario,
    optimal_rule,
    run_experiment,
    true_outcome_model,
    true_propensity_model,
    true_value_mc,
    write_results_csv,
)
from .inference import (
    PermutationEntry,
    PermutationReport,
    permutation_report,
    permutation_test,
)

__version__ = "0.1.0"
