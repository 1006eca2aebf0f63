"""Margin-ranking training of scoring-graph parameters.

The objective for a parameter set P over a dataset is

    total_loss(P) = sum_mentions margin_loss(mention) +
                    lambda * sum_gates sum(constraint_residuals)

where margin_loss sums max(0, -(s_pos - s_neg) + mu) over each positive
candidate paired with every negative in the same list. Optimization is
plain gradient descent with a fixed learning rate, stepped once per
mention: each step descends that mention's margin loss plus the full
constraint penalty, in an order shuffled deterministically from the seed.
Constraint slacks absorb what the weights cannot; the residual sum is
logged every epoch so constraint satisfaction stays auditable.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .corpus import Dataset, atomic_write, read_text
from .errors import CompileError, TrainingDivergence
from .logic import (
    AndNode,
    GateParams,
    Node,
    NotNode,
    OrNode,
    RawLeaf,
    ScoringGraph,
    ThresholdLeaf,
    ThresholdParams,
    penalty_grads,
)
from .simfeatures import FeatureCatalog, FeatureTable

logger = logging.getLogger(__name__)

LR_RANGE = (1e-5, 1e-1)
MU_RANGE = (0.6, 0.95)
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-2
    mu: float = 0.6
    alpha: float = 0.7
    penalty_lambda: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not LR_RANGE[0] <= self.learning_rate <= LR_RANGE[1]:
            raise ValueError(f"learning_rate must be in {LR_RANGE}")
        if not MU_RANGE[0] <= self.mu <= MU_RANGE[1]:
            raise ValueError(f"mu must be in {MU_RANGE}")
        if not 0.5 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [1/2, 1)")
        if self.penalty_lambda < 0:
            raise ValueError("penalty_lambda must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        return cls(**obj)


_CONFIG_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)}


def load_config(path) -> TrainConfig:
    """Read a key=value config file; keys mirror TrainConfig fields."""
    values = {}
    for line_no, line in enumerate(read_text(path, ValueError).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {line_no}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path} line {line_no}: unknown key {key!r}")
        values[key] = _CONFIG_KEYS[key](raw.strip())
    return TrainConfig(**values)


def _node_to_json(node: Node) -> dict:
    """Raw parameters only; effective values are derived on load."""
    if isinstance(node, RawLeaf):
        return {"kind": "raw", "feature": node.feature}
    if isinstance(node, ThresholdLeaf):
        if node.fixed_theta is not None:
            return {"kind": "tl", "feature": node.feature, "fixed_theta": node.fixed_theta}
        return {"kind": "tl", "feature": node.feature, "gamma": float(node.params.gamma)}
    if isinstance(node, NotNode):
        return {"kind": "not", "child": _node_to_json(node.children[0])}
    gate = node.gate
    obj = {
        "kind": node.kind,
        "children": [_node_to_json(c) for c in node.children],
        "raw_weights": [float(v) for v in gate.raw_weights],
        "beta": float(gate.bias),
        "raw_slacks": [float(v) for v in gate.raw_slacks],
        "raw_slack_big": float(gate.raw_slack_big),
    }
    if node.manual_weights is not None:
        obj["manual_weights"] = [float(v) for v in node.manual_weights]
    return obj


def graph_to_json(graph: ScoringGraph) -> dict:
    """The ``graph`` object of ``model.json``."""
    return {"alpha": graph.alpha, "mode": graph.mode, "root": _node_to_json(graph.root)}


def _require_finite(kind: str, values: list) -> None:
    """CompileError unless every parameter in ``values`` (numbers or arrays) is finite."""
    if not np.isfinite(np.hstack(values).astype(float)).all():
        raise CompileError(f"{kind} node has a non-finite parameter")


def _node_from_json(obj: dict) -> Node:
    # Kind first; a missing field or wrong type is reported by load_model.
    kind = obj["kind"]
    if kind in ("raw", "tl") and not isinstance(obj["feature"], str):
        raise CompileError(f"{kind} node feature is not a string")
    if kind == "raw":
        return RawLeaf(obj["feature"])
    if kind == "tl":
        fixed = "fixed_theta" in obj
        value = float(obj["fixed_theta" if fixed else "gamma"])
        _require_finite(kind, [value])
        if fixed:
            return ThresholdLeaf(obj["feature"], fixed_theta=value)
        return ThresholdLeaf(obj["feature"], params=ThresholdParams(value))
    if kind == "not":
        return NotNode(_node_from_json(obj["child"]))
    if kind not in ("and", "or"):
        raise CompileError(f"unknown node kind {kind!r} in checkpoint")
    children = [_node_from_json(c) for c in obj["children"]]
    gate = GateParams(len(children), raw_weights=obj["raw_weights"], bias=obj["beta"],
                      raw_slacks=obj["raw_slacks"], raw_slack_big=obj["raw_slack_big"])
    manual = obj.get("manual_weights")
    if manual is not None and len(manual) != len(children):
        raise CompileError(f"{kind} node has {len(manual)} manual weights for {len(children)} children")
    _require_finite(kind, [gate.raw_weights, gate.raw_slacks, [gate.bias, gate.raw_slack_big], manual or []])
    node_cls = AndNode if kind == "and" else OrNode
    return node_cls(children, gate=gate, manual_weights=manual)


def graph_from_json(obj: dict) -> ScoringGraph:
    """Rebuild a graph from :func:`graph_to_json` output."""
    return ScoringGraph(_node_from_json(obj["root"]), alpha=obj["alpha"], mode=obj["mode"])


@dataclass
class Model:
    """A scoring graph bound to the configuration and catalog it was fit with."""

    graph: ScoringGraph
    config: TrainConfig
    catalog: FeatureCatalog
    training_log: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "graph": graph_to_json(self.graph),
            "config": self.config.to_json(),
            "catalog": self.catalog.to_json(),
            "training_log": self.training_log,
        }

    @classmethod
    def from_json(cls, obj) -> "Model":
        if not isinstance(obj, dict) or obj.get("format_version") != FORMAT_VERSION:
            raise CompileError(
                f"model format_version is not {FORMAT_VERSION}; "
                "models saved before format_version 1 must be retrained"
            )
        return cls(
            graph=graph_from_json(obj["graph"]),
            config=TrainConfig.from_json(obj["config"]),
            catalog=FeatureCatalog.from_json(obj["catalog"]),
            training_log=list(obj["training_log"]),
        )


def save_model(model: Model, path) -> None:
    """Write ``model.json`` atomically: sorted keys, compact separators."""
    atomic_write(path, json.dumps(model.to_json(), sort_keys=True, separators=(",", ":")))


def load_model(path) -> Model:
    """Read ``model.json``; malformed content of any kind raises CompileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Model.from_json(json.load(fh))
    except CompileError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CompileError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc


def prepare_labels(labels) -> tuple[np.ndarray, np.ndarray]:
    """The positive and negative candidate indices of one list's 0/1 labels,
    made once per list for :func:`margin_loss_prepared`."""
    labels = np.asarray(labels)
    return np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)


def margin_loss_prepared(scores: np.ndarray, prepared, mu: float, grad: bool = True):
    """Margin loss and its gradient d(loss)/d(scores) for one candidate list
    of float ``scores``, given its :func:`prepare_labels` indices.

    The loss sums max(0, mu - (s_p - s_n)) over every positive p and
    negative n, positive by positive. The gradient counts active hinges, -1
    on the positive and +1 on the negative per active pair, with
    sub-gradient 0 at the kink; being integer counts it does not depend on
    summation order. With ``grad`` false it is not built and comes back as
    None, for callers that read only the loss.
    """
    positives, negatives = prepared
    if positives.size == 0:
        raise ValueError("margin loss needs at least one positive label")
    negative_scores = scores[negatives]
    dscores = np.zeros(scores.shape) if grad else None
    total = 0.0
    for p in positives:
        margins = mu - (scores[p] - negative_scores)
        total += np.add.reduce(np.maximum(0.0, margins))
        if grad:
            active = margins > 0.0
            dscores[p] -= np.count_nonzero(active)
            dscores[negatives] += active
    return float(total), dscores


def margin_loss(scores, labels, mu: float):
    """:func:`margin_loss_prepared` for one list's scores and 0/1 labels."""
    return margin_loss_prepared(np.asarray(scores, dtype=float), prepare_labels(labels), mu)


def descend(params: dict, n_items: int, step, epoch_stats, config) -> list[dict]:
    """Per-item gradient descent, shared by rule and box training.

    Each epoch visits the ``n_items`` training items in an order drawn from
    one generator seeded with ``config.seed``. ``step(i)`` returns item i's
    scores and its raw-parameter gradients, applied in place as
    ``params[name] -= learning_rate * g``. After each epoch
    ``epoch_stats()`` supplies the log entry (with at least ``"loss"``).
    A non-finite score stops the run at once; an epoch loss that is
    non-finite or above 1e6 stops it once logged. Both raise
    TrainingDivergence carrying the epochs logged so far.
    """
    rng = np.random.default_rng(config.seed)
    log: list[dict] = []
    for epoch in range(config.epochs):
        for idx in rng.permutation(n_items):
            scores, grads = step(idx)
            if not np.isfinite(scores).all():
                raise TrainingDivergence(f"non-finite score in epoch {epoch}, item {idx}", log=log)
            for name, g in grads.items():
                params[name] -= config.learning_rate * g
        log.append({"epoch": epoch, **epoch_stats()})
        loss = log[-1]["loss"]
        if not np.isfinite(loss) or loss > 1e6:
            raise TrainingDivergence(f"loss {loss} diverged at epoch {epoch}", log=log)
    return log


def _mention_grads(graph: ScoringGraph, block, prepared, mu: float, grads: np.ndarray) -> np.ndarray:
    """One mention's scores (one tape run over ``block``, as
    :meth:`ScoringGraph.evaluate_batch` takes it); adds the gradients of its
    margin loss (labels as :func:`prepare_labels` indices) to the flat
    ``grads`` (laid out like ``graph.flat``)."""
    cache: dict = {}
    scores = graph.evaluate_batch(block, cache)
    _, dscores = margin_loss_prepared(scores, prepared, mu)
    if np.count_nonzero(dscores):
        graph.backward(cache, dscores, grads)
    return scores


def _blocks(graph: ScoringGraph, table: FeatureTable, instances) -> tuple:
    """``instances``' rows as one ``[features, rows]`` matrix, the list
    offsets, and one block per list: a view of the matrix. A list holding a
    NaN raises at the :meth:`ScoringGraph.evaluate_batch` call that reads it."""
    stacked, offsets = table.gather_matrix(instances, graph.feature_names)
    return stacked, offsets, [stacked[:, start:end] for start, end in zip(offsets, offsets[1:])]


def total_loss(graph: ScoringGraph, table: FeatureTable, ds: Dataset, config: TrainConfig,
               rows: tuple | None = None) -> float:
    """Margin loss summed over mentions plus the weighted constraint penalty.

    ``rows`` may hold ``ds``'s gathered ``[features, rows]`` matrix, the list
    offsets and per-list :func:`prepare_labels` indices, made once by a
    caller that sums often. One graph walk scores every row; the per-list
    losses are then added in list order.
    """
    if rows is None:
        feats, offsets = table.gather_matrix(ds.instances, graph.feature_names)
        rows = feats, offsets, [prepare_labels(inst.labels) for inst in ds.instances]
    feats, offsets, labels = rows
    scores = graph.evaluate_batch(feats)
    total = 0.0
    for prepared, start, end in zip(labels, offsets, offsets[1:]):
        total += margin_loss_prepared(scores[start:end], prepared, config.mu, grad=False)[0]
    return float(total + config.penalty_lambda * graph.residual_sum())


def gradients(graph: ScoringGraph, table: FeatureTable, ds: Dataset, config: TrainConfig) -> dict:
    """Exact d(total_loss)/d(raw parameter), reverse-mode over the graph.

    Matches central finite differences away from clamp and hinge kinks.
    """
    if not graph.parameters():
        return {}
    grads = np.zeros_like(graph.flat)
    for block, inst in zip(_blocks(graph, table, ds.instances)[2], ds.instances):
        _mention_grads(graph, block, prepare_labels(inst.labels), config.mu, grads)
    penalty_grads(graph, config.penalty_lambda, grads)
    return graph.unflatten(grads)


def train(
    ds: Dataset,
    table: FeatureTable,
    graph: ScoringGraph,
    config: TrainConfig,
    catalog: FeatureCatalog | None = None,
) -> Model:
    """Per-mention gradient descent for ``config.epochs`` passes.

    Each step descends one mention's margin loss plus the full constraint
    penalty (see :func:`descend` for the order and divergence policy). Each
    epoch appends the exact total loss and residual sum to the log.
    """
    if abs(graph.alpha - config.alpha) > 1e-12:
        raise ValueError(
            f"graph alpha {graph.alpha} differs from config alpha {config.alpha}"
        )
    learnable = bool(graph.parameters())
    instances = list(ds.instances)
    rows, offsets, blocks = _blocks(graph, table, instances)
    labels = [prepare_labels(inst.labels) for inst in instances]

    def step(idx):
        if not learnable:  # manual mode: skip the forward pass
            return (), {}
        grads = np.zeros(graph.flat.shape)
        scores = _mention_grads(graph, blocks[idx], labels[idx], config.mu, grads)
        penalty_grads(graph, config.penalty_lambda, grads)
        return scores, {"flat": grads}

    def epoch_stats():
        return {"loss": total_loss(graph, table, ds, config, (rows, offsets, labels)), "violation": graph.residual_sum()}

    log = descend({"flat": graph.flat}, len(instances), step, epoch_stats, config)
    if log:
        logger.info(
            "trained %d epochs: loss %.6f, residual sum %.2e",
            config.epochs,
            log[-1]["loss"],
            log[-1]["violation"],
        )
    return Model(graph=graph, config=config, catalog=catalog or FeatureCatalog(), training_log=log)


def hyperparameter_search(
    ds_train: Dataset,
    table_train: FeatureTable,
    ds_dev: Dataset,
    table_dev: FeatureTable,
    graph_factory,
    mu_values,
    lr_values,
    base: TrainConfig | None = None,
) -> TrainConfig:
    """Grid search over margin and learning rate, maximizing dev F1.

    Ties break toward the lower learning rate, then the lower margin. Every
    trial compiles a fresh graph via ``graph_factory``.
    """
    from .evaluation import link, prf1

    base = base or TrainConfig()
    mu_values = list(mu_values)
    lr_values = list(lr_values)
    if not mu_values or not lr_values:
        raise ValueError("empty hyperparameter grid")
    best: tuple | None = None
    failures: list[str] = []
    for mu in mu_values:
        for lr in lr_values:
            config = replace(base, mu=mu, learning_rate=lr)
            graph = graph_factory()
            try:
                model = train(ds_train, table_train, graph, config)
            except TrainingDivergence as exc:
                failures.append(f"mu={mu}, lr={lr}: {exc}")
                continue
            report = prf1(link(model, ds_dev, table_dev), ds_dev)
            key = (-report.f1, lr, mu)
            logger.info("grid mu=%s lr=%s -> dev F1 %.4f", mu, lr, report.f1)
            if best is None or key < best[0]:
                best = (key, config)
    if best is None:
        raise TrainingDivergence(
            "every grid configuration diverged: " + "; ".join(failures), log=failures
        )
    return best[1]
