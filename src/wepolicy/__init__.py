"""Well-being policy evaluation with pluralistic scope aggregation.

Value functions for well-being, weighted aggregation across nested WE
scopes, consensus checking between scopes, perturbative coupling of joint
facts into the agreed target, and three pipelines on top: a fact-value
parameter network, regression + simulation policy selection, and
logic-model impact evaluation.
"""

from .coupling import (
    ConsensusReport,
    CouplingResult,
    Element,
    ElementSet,
    FactCoupling,
    LinearMap,
    NetworkEdge,
    ParameterNetwork,
    Saturator,
    ScopeFunction,
    apply_fact_coupling,
    apply_map,
    check_consensus,
    propagate_network,
)
from .errors import (
    DimensionError,
    DomainError,
    MissingScopeError,
    RankDeficiencyError,
    ScenarioError,
    StageBindingError,
    UnknownNodeError,
)
from .evaluator import (
    RankedPolicies,
    RankedRow,
    WeightingProfile,
    evaluate_policies,
    select_best,
)
from .logicmodel import (
    Edge,
    FactBinding,
    LogicModel,
    Node,
    couple_facts,
    propagate,
    validate,
)
from .policy_sim import (
    DynamicsConfig,
    PolicyKnobs,
    SweepRow,
    SweepTable,
    normalize_ternary,
    run_policy,
    run_sweep,
)
from .survey import (
    ConstructMap,
    RegressionModel,
    SurveyColumns,
    aggregate_survey,
    fit_target,
    predict,
    read_survey_csv,
    respondent_scores,
    rescale_answer,
    survey_to_csv,
    synthesize_survey,
)
from .valuefn import (
    AsymmetricSpec,
    MirroredFamily,
    ValueFunctionSpec,
    asymmetric_derivative,
    evaluate_asymmetric,
    evaluate_family,
    quadratic_monotone_limit,
)
from .we_model import (
    WellbeingModel,
    WELayer,
    WEScope,
    aggregate,
    consensus_curve,
    sample_surface,
    weighted_pair,
)

__version__ = "0.1.0"
