"""Well-being policy evaluation with pluralistic scope aggregation.

Value functions for well-being, weighted aggregation across nested WE
scopes, consensus checking between scopes, perturbative coupling of joint
facts into the agreed target, and three pipelines on top: a fact-value
parameter network, regression + simulation policy selection, and
logic-model impact evaluation.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a command loads
only the pipelines it runs.
"""

import importlib

_EXPORTS = {
    name: module
    for module, names in (
        ("coupling", "ConsensusReport CouplingResult Element ElementSet FactCoupling "
                     "LinearMap NetworkEdge ParameterNetwork Saturator ScopeFunction "
                     "apply_fact_coupling apply_map check_consensus propagate_network"),
        ("errors", "DimensionError DomainError MissingScopeError RankDeficiencyError "
                   "ScenarioError StageBindingError UnknownNodeError"),
        ("evaluator", "RankedPolicies RankedRow WeightingProfile evaluate_policies "
                      "select_best"),
        ("logicmodel", "Edge FactBinding LogicModel Node couple_facts propagate validate"),
        ("policy_sim", "DynamicsConfig PolicyKnobs SweepRow SweepTable normalize_ternary "
                       "run_policy run_sweep"),
        ("survey", "ConstructMap RegressionModel SurveyColumns aggregate_survey fit_target "
                   "predict read_survey_csv respondent_scores rescale_answer "
                   "survey_to_csv synthesize_survey"),
        ("valuefn", "AsymmetricSpec MirroredFamily ValueFunctionSpec asymmetric_derivative "
                    "evaluate_asymmetric evaluate_family quadratic_monotone_limit"),
        ("we_model", "WellbeingModel WELayer WEScope aggregate consensus_curve "
                     "sample_surface weighted_pair"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
