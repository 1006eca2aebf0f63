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
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .corpus import Dataset, atomic_write, json_number, parse_json, read_text
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
)
from .simfeatures import FeatureCatalog, FeatureTable, ScoringBlock, scoring_rows

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
        for f in fields(self):  # numpy numbers pass, as grid searches pass them; bool is no number here
            value, kind = getattr(self, f.name), numbers.Integral if type(f.default) is int else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if kind is numbers.Integral else "a real number"
                raise ValueError(f"{f.name} must be {what}, not {type(value).__name__}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not LR_RANGE[0] <= self.learning_rate <= LR_RANGE[1]:
            raise ValueError(f"learning_rate must be in {LR_RANGE}")
        if not MU_RANGE[0] <= self.mu <= MU_RANGE[1]:
            raise ValueError(f"mu must be in {MU_RANGE}")
        if not 0.5 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [1/2, 1)")
        if not 0 <= self.penalty_lambda < np.inf:
            raise ValueError("penalty_lambda must be finite and >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        for f in [f for f in fields(cls) if f.name in obj]:  # CompileError, as model.json's reader raises
            _checked("config", obj, f.name, integer=type(f.default) is int)
        return cls(**obj)


_CONFIG_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)}


def load_config(path) -> TrainConfig:
    """Read a key=value config file; keys mirror TrainConfig fields, each
    set on one line at most."""
    values, lines = {}, {}
    for line_no, line in enumerate(read_text(path, ValueError).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {line_no}: expected key = value")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key in lines:
            raise ValueError(f"{path} line {line_no}: key {key!r} repeats line {lines[key]}")
        lines[key] = line_no
        try:
            values[key] = _CONFIG_KEYS[key](raw)
            TrainConfig(**{key: values[key]})  # the range check, named by file, line and key
        except KeyError:
            raise ValueError(f"{path} line {line_no}: unknown key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: bad value for {key!r} ({exc})") from None
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


def _checked(where: str, obj: dict, name: str, many: bool = False, integer: bool = False):
    """``obj[name]`` if it is a JSON number (a JSON integer with
    ``integer``), or with ``many`` a list of them; else CompileError, where
    float() would have taken "0.5" or true."""
    value = obj[name]
    if not (isinstance(value, list) and all(map(json_number, value)) if many else json_number(value, integer)):
        kind = "a list of JSON numbers" if many else f"a JSON {'integer' if integer else 'number'}"
        raise CompileError(f"{where} field {name!r} is not {kind}")
    return value


def _node_from_json(obj: dict) -> Node:
    # Kind first; a missing field or wrong type is reported by load_model.
    kind = obj["kind"]
    if kind in ("raw", "tl") and not isinstance(obj["feature"], str):
        raise CompileError(f"{kind} node feature is not a string")
    if kind == "raw":
        return RawLeaf(obj["feature"])
    if kind == "tl":
        fixed = "fixed_theta" in obj
        value = float(_checked("tl node", obj, "fixed_theta" if fixed else "gamma"))
        _require_finite(kind, [value])
        if fixed:
            return ThresholdLeaf(obj["feature"], fixed_theta=value)
        return ThresholdLeaf(obj["feature"], params=ThresholdParams(value))
    if kind == "not":
        return NotNode(_node_from_json(obj["child"]))
    if kind not in ("and", "or"):
        raise CompileError(f"unknown node kind {kind!r} in checkpoint")
    children = [_node_from_json(c) for c in obj["children"]]
    where = f"{kind} node"
    gate = GateParams(len(children), raw_weights=_checked(where, obj, "raw_weights", many=True),
                      bias=_checked(where, obj, "beta"), raw_slacks=_checked(where, obj, "raw_slacks", many=True),
                      raw_slack_big=_checked(where, obj, "raw_slack_big"))
    manual = obj.get("manual_weights")
    if manual is not None and len(_checked(where, obj, "manual_weights", many=True)) != len(children):
        raise CompileError(f"{kind} node has {len(manual)} manual weights for {len(children)} children")
    _require_finite(kind, [gate.raw_weights, gate.raw_slacks, [gate.bias, gate.raw_slack_big], manual or []])
    node_cls = AndNode if kind == "and" else OrNode
    return node_cls(children, gate=gate, manual_weights=manual)


def graph_from_json(obj: dict) -> ScoringGraph:
    """Rebuild a graph from :func:`graph_to_json` output."""
    return ScoringGraph(_node_from_json(obj["root"]), alpha=_checked("graph", obj, "alpha"), mode=obj["mode"])


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
    """Read ``model.json``; malformed content of any kind raises CompileError naming the file."""
    def malformed(exc) -> CompileError:
        return CompileError(f"{path}: malformed model file ({type(exc).__name__}: {exc})")

    obj = parse_json(read_text(path, CompileError), malformed)
    try:
        return Model.from_json(obj)
    except CompileError as exc:
        raise CompileError(f"{path}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise malformed(exc) from exc


def prepare_labels(labels) -> tuple[np.ndarray, np.ndarray]:
    """The positive and negative candidate indices of one list's 0/1 labels,
    made once per list for :func:`margin_loss_prepared`."""
    labels = np.asarray(labels)
    return np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)


def margin_loss_prepared(scores: np.ndarray, prepared, mu: float, grad: bool = True, loss: bool = True):
    """Margin loss and its gradient d(loss)/d(scores) for one candidate list
    of float ``scores``, given its :func:`prepare_labels` indices.

    The loss sums max(0, mu - (s_p - s_n)) over every positive p and
    negative n, positive by positive. The gradient counts active hinges, -1
    on the positive and +1 on the negative per active pair, with
    sub-gradient 0 at the kink; being integer counts it does not depend on
    summation order. With ``grad`` false it is not built and comes back as
    None, for callers that read only the loss; with ``loss`` false the loss
    is not summed and comes back as None, for the descent steps, which read
    only the gradient.
    """
    positives, negatives = prepared
    if positives.size == 0:
        raise ValueError("margin loss needs at least one positive label")
    negative_scores = scores.take(negatives)
    dscores = np.zeros(scores.shape) if grad else None
    total = 0.0
    for i, p in enumerate(positives.tolist()):
        margins = mu - (scores[p] - negative_scores)
        if loss:
            total += np.add.reduce(np.maximum(0.0, margins))
        if grad:
            active = margins > 0.0
            dscores[p] -= np.count_nonzero(active)
            if i:
                dscores[negatives] += active
            else:  # onto zeros: the values the add would give
                dscores.put(negatives, active)
    return (float(total) if loss else None), dscores


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
        for idx in rng.permutation(n_items).tolist():
            scores, grads = step(idx)
            if np.count_nonzero(np.isfinite(scores)) < len(scores):  # ``.all()`` dispatches through Python
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
    dscores = margin_loss_prepared(scores, prepared, mu, loss=False)[1]
    if np.count_nonzero(dscores):
        graph.backward(cache, dscores, grads)
    return scores


def _lists(graph: ScoringGraph, table: FeatureTable | None, ds: Dataset | ScoringBlock) -> tuple:
    """:func:`scoring_rows` of the graph's features over ``ds``, and each
    list's :func:`prepare_labels` indices. A list holding a NaN raises at
    the :meth:`ScoringGraph.evaluate_batch` call that reads it."""
    feats, offsets = scoring_rows(ds, table, graph.feature_names)
    labels = np.asarray(ds.row_keys()[3])
    return feats, offsets, [prepare_labels(labels[start:end]) for start, end in zip(offsets, offsets[1:])]


def total_loss(graph: ScoringGraph, table: FeatureTable | None, ds: Dataset | ScoringBlock, config: TrainConfig,
               rows: tuple | None = None) -> float:
    """Margin loss summed over mentions plus the weighted constraint penalty.

    ``ds`` and ``table`` are as :func:`evaluation.link` takes them. ``rows``
    may hold what :func:`_lists` gives for them, made once by a caller that
    sums often. One graph walk scores every row; the per-list losses are
    then added in list order.
    """
    feats, offsets, labels = rows or _lists(graph, table, ds)
    scores = graph.evaluate_batch(feats)
    total = 0.0
    for prepared, start, end in zip(labels, offsets, offsets[1:]):
        total += margin_loss_prepared(scores[start:end], prepared, config.mu, grad=False)[0]
    return float(total + config.penalty_lambda * graph.residual_sum())


def gradients(graph: ScoringGraph, table: FeatureTable | None, ds: Dataset | ScoringBlock, config: TrainConfig) -> dict:
    """Exact d(total_loss)/d(raw parameter), reverse-mode over the graph.

    Matches central finite differences away from clamp and hinge kinks.
    """
    if not graph.parameters():
        return {}
    grads = np.zeros_like(graph.flat)
    feats, offsets, labels = _lists(graph, table, ds)
    for prepared, start, end in zip(labels, offsets, offsets[1:]):
        _mention_grads(graph, feats[:, start:end], prepared, config.mu, grads)
    graph.penalty_grads(config.penalty_lambda, grads)
    return graph.unflatten(grads)


def train(
    ds: Dataset | ScoringBlock,
    table: FeatureTable | None,
    graph: ScoringGraph,
    config: TrainConfig,
    catalog: FeatureCatalog | None = None,
) -> Model:
    """Per-mention gradient descent for ``config.epochs`` passes.

    Each step descends one mention's margin loss plus the full constraint
    penalty (see :func:`descend` for the order and divergence policy). Each
    epoch appends the exact total loss and residual sum to the log. ``ds``
    and ``table`` are as :func:`evaluation.link` takes them.
    """
    if abs(graph.alpha - config.alpha) > 1e-12:
        raise ValueError(
            f"graph alpha {graph.alpha} differs from config alpha {config.alpha}"
        )
    learnable = bool(graph.parameters())
    rows = feats, offsets, labels = _lists(graph, table, ds)
    blocks = [feats[:, start:end] for start, end in zip(offsets, offsets[1:])]

    def step(idx):
        if not learnable:  # manual mode: skip the forward pass
            return (), {}
        grads = np.zeros(graph.flat.shape)
        scores = _mention_grads(graph, blocks[idx], labels[idx], config.mu, grads)
        graph.penalty_grads(config.penalty_lambda, grads)
        return scores, {"flat": grads}

    def epoch_stats():
        return {"loss": total_loss(graph, table, ds, config, rows), "violation": graph.residual_sum()}

    log = descend({"flat": graph.flat}, len(blocks), step, epoch_stats, config)
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
