"""rulelink: entity linking with learnable weighted-logic rules.

Human-readable first-order rules over string, context, prominence, and
external score features compile into a differentiable scoring graph whose
weights, biases, slacks and thresholds are fit with a margin-ranking loss.
"""

from .corpus import (
    CandidateEntity,
    Dataset,
    LabeledInstance,
    Mention,
    fetch_candidates,
    load_dataset,
    merge_external_scores,
    save_dataset,
    validate_dataset,
)
from .estimator import RuleLinker
from .evaluation import (
    EvalReport,
    Prediction,
    ablation,
    evaluate,
    export_weights,
    link,
    prf1,
    recall_at_k,
    transfer_eval,
)
from .logic import GateParams, ScoringGraph, ThresholdParams
from .ruledsl import ManualWeights, RuleAST, builtin_templates, compile, format, parse
from .simfeatures import (
    FeatureCatalog,
    FeatureTable,
    build_feature_table,
    default_catalog,
)
from .training import Model, TrainConfig, hyperparameter_search, load_model, save_model, train

__version__ = "0.1.0"

__all__ = [
    "CandidateEntity",
    "Dataset",
    "EvalReport",
    "FeatureCatalog",
    "FeatureTable",
    "GateParams",
    "LabeledInstance",
    "ManualWeights",
    "Mention",
    "Model",
    "Prediction",
    "RuleAST",
    "RuleLinker",
    "ScoringGraph",
    "ThresholdParams",
    "TrainConfig",
    "ablation",
    "build_feature_table",
    "builtin_templates",
    "compile",
    "default_catalog",
    "evaluate",
    "export_weights",
    "fetch_candidates",
    "format",
    "hyperparameter_search",
    "link",
    "load_dataset",
    "load_model",
    "merge_external_scores",
    "parse",
    "prf1",
    "recall_at_k",
    "save_dataset",
    "save_model",
    "train",
    "transfer_eval",
    "validate_dataset",
]
