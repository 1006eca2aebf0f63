"""Estimator-style front end: fit rules on a dataset, predict links.

``RuleLinker`` follows the scikit-learn parameter conventions (constructor
stores hyperparameters untouched, ``get_params``/``set_params`` round-trip
them, fitted state lives in trailing-underscore attributes, ``fit`` returns
``self``) so it drops into grid-search or pipeline code that only relies on
those conventions. X is a :class:`rulelink.corpus.Dataset`; labels travel
inside it, so ``y`` is never passed separately.
"""
from __future__ import annotations

import inspect

from .corpus import Dataset, validate_dataset
from .errors import CompileError, DatasetError
from .evaluation import Prediction, evaluate, link
from .ruledsl import ast_leaves, builtin_templates, compile, parse
from .simfeatures import FeatureTable, build_feature_table, default_catalog
from .training import TrainConfig, train


class RuleLinker:
    """Candidate ranker over human-readable rules with learnable parameters.

    Parameters
    ----------
    rules : a built-in template name (e.g. ``"LNN-EL"``) or DSL source text.
    mode : ``"lnn"`` (weighted gates), ``"tnorm"`` (thresholds only) or
        ``"manual"`` (fixed weights, no learning).
    alpha : truth proxy in [1/2, 1).
    epochs, learning_rate, margin, penalty_lambda, seed : see TrainConfig.
    """

    def __init__(
        self,
        rules: str = "LNN-EL",
        mode: str = "lnn",
        alpha: float = 0.7,
        epochs: int = 30,
        learning_rate: float = 1e-2,
        margin: float = 0.6,
        penalty_lambda: float = 10.0,
        seed: int = 0,
    ):
        self.rules = rules
        self.mode = mode
        self.alpha = alpha
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.margin = margin
        self.penalty_lambda = penalty_lambda
        self.seed = seed

    # -- sklearn-style parameter plumbing --------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "RuleLinker":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for RuleLinker")
            setattr(self, key, value)
        return self

    # -- fitting -----------------------------------------------------------

    def _resolve_asts(self):
        library = builtin_templates()
        if self.rules in library.names():
            return [library[self.rules]]
        if "rule" not in self.rules:
            raise CompileError(
                f"{self.rules!r} is neither a built-in template "
                f"({', '.join(library.names())}) nor DSL source"
            )
        return parse(self.rules)

    def _config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            mu=self.margin,
            alpha=self.alpha,
            penalty_lambda=self.penalty_lambda,
            seed=self.seed,
        )

    def _build_table(self, ds: Dataset) -> FeatureTable:
        return build_feature_table(ds, self.catalog_)

    def fit(self, ds: Dataset, feature_table: FeatureTable | None = None) -> "RuleLinker":
        violations = validate_dataset(ds).violations
        if violations:
            raise DatasetError(f"dataset {ds.name!r} has {len(violations)} violations: " + "; ".join(violations[:5]))
        asts = self._resolve_asts()
        from .ruledsl import find_root

        root = find_root(asts)
        leaves = ast_leaves(root, asts)
        self.catalog_ = default_catalog().restricted(leaves)
        graph = compile(asts, self.catalog_, mode=self.mode, alpha=self.alpha)
        table = feature_table if feature_table is not None else self._build_table(ds)
        self.model_ = train(ds, table, graph, self._config(), catalog=self.catalog_)
        self.training_log_ = self.model_.training_log
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise RuntimeError("RuleLinker is not fitted; call fit first")

    def predict_rankings(self, ds: Dataset, feature_table: FeatureTable | None = None) -> list[Prediction]:
        self._require_fitted()
        table = feature_table if feature_table is not None else self._build_table(ds)
        return link(self.model_, ds, table)

    def predict(self, ds: Dataset, feature_table: FeatureTable | None = None) -> list[str]:
        """Top-ranked candidate id per mention, in dataset order."""
        return [pred.top for pred in self.predict_rankings(ds, feature_table)]

    def score(self, ds: Dataset, feature_table: FeatureTable | None = None) -> float:
        """Top-1 linking F1 on the given dataset."""
        self._require_fitted()
        table = feature_table if feature_table is not None else self._build_table(ds)
        return evaluate(self.model_, ds, table).f1
