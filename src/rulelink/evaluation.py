"""Inference, ranking metrics, transfer and ablation harnesses, weight export.

The linking decision is always top-1 with ties broken by candidate list
order, so repeated runs are reproducible. Precision counts correct top-1
links over mentions predicted; recall counts them over all dataset
mentions, which makes the two coincide whenever every mention receives a
prediction.
"""
from __future__ import annotations

import json
import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Dataset, echo
from .errors import DatasetError
from .logic import AndNode, NotNode, RawLeaf, ThresholdLeaf
from .ruledsl import builtin_templates, compile, disjoin
from .simfeatures import FeatureCatalog, FeatureTable, ScoringBlock, scoring_rows
from .training import Model, TrainConfig, train

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Prediction:
    mention_id: str
    ranked: tuple[tuple[str, float], ...]

    @property
    def top(self) -> str:
        return self.ranked[0][0]


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    recall_at: dict[int, float] = field(default_factory=dict)
    per_mention: tuple[tuple[str, bool], ...] = ()

    def to_json(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "per_mention": [[mid, bool(ok)] for mid, ok in self.per_mention],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EvalReport":
        return cls(
            precision=obj["precision"],
            recall=obj["recall"],
            f1=obj["f1"],
            recall_at={int(k): v for k, v in obj["recall_at"].items()},
            per_mention=tuple((mid, bool(ok)) for mid, ok in obj["per_mention"]),
        )

    def to_csv(self) -> str:
        ks = sorted(self.recall_at)
        header = ["precision", "recall", "f1"] + [f"recall_at_{k}" for k in ks]
        row = [repr(self.precision), repr(self.recall), repr(self.f1)]
        row += [repr(self.recall_at[k]) for k in ks]
        return ",".join(header) + "\n" + ",".join(row) + "\n"


def report_to_json_bytes(report: EvalReport) -> bytes:
    """Canonical JSON form; loading and re-dumping is byte-identical."""
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")).encode()


def rank_candidates(candidate_ids, scores) -> tuple[tuple[str, float], ...]:
    """Sort descending by score; equal scores keep candidate list order."""
    scores = np.asarray(scores, dtype=float)
    values = scores.tolist()
    return tuple((candidate_ids[i], values[i]) for i in np.argsort(-scores, kind="stable").tolist())


def link(model: Model, ds: Dataset | ScoringBlock, table: FeatureTable | None = None) -> list[Prediction]:
    """Score every mention's candidates in one graph walk and rank every
    list at once.

    ``ds`` is a Dataset scored against the rows of ``table``, or a
    ScoringBlock, whose table holds its rows (``table`` stays None). One
    stable sort ranks each list as :func:`rank_candidates` does: on -score
    for one list, keyed on (list, -score) for many. An empty candidate list
    raises DatasetError, as :func:`corpus.validate_dataset` words it.
    """
    mention_ids, offsets, candidate_ids, _ = ds.row_keys()
    lengths = [end - start for start, end in zip(offsets, offsets[1:])]
    if 0 in lengths:
        raise DatasetError(f"mention {echo(mention_ids[lengths.index(0)])}: empty candidate list")
    scores = model.graph.evaluate_batch(scoring_rows(ds, table, model.graph.feature_names)[0])
    if len(mention_ids) == 1:
        order = (-scores).argsort(kind="stable")
    else:
        order = np.lexsort((-scores, np.arange(len(lengths)).repeat(lengths)))
    ranked = list(zip(map(candidate_ids.__getitem__, order.tolist()), scores[order].tolist()))
    return [
        Prediction(mention_id=mid, ranked=tuple(ranked[start:end]))
        for mid, start, end in zip(mention_ids, offsets, offsets[1:])
    ]


def _gold_ids(preds: list[Prediction], ds: Dataset | ScoringBlock) -> tuple[dict[str, set[str]], int]:
    """Each mention's gold candidate ids, and the number of mentions;
    ValueError for a prediction of a mention ``ds`` lacks, or of one that
    earlier predictions have named as often as ``ds`` holds it."""
    mention_ids, offsets, candidate_ids, labels = ds.row_keys()
    gold = {mid: set() for mid in mention_ids}
    for row in np.flatnonzero(np.asarray(labels) == 1).tolist():
        gold[mention_ids[bisect_right(offsets, row) - 1]].add(candidate_ids[row])
    left = Counter(mention_ids)
    for pred in preds:
        if pred.mention_id not in gold:
            raise ValueError(f"prediction for unknown mention {echo(pred.mention_id)}")
        if not left[pred.mention_id]:
            raise ValueError(f"repeated prediction for mention {echo(pred.mention_id)}")
        left[pred.mention_id] -= 1
    return gold, len(mention_ids)


def prf1(preds: list[Prediction], ds: Dataset | ScoringBlock) -> EvalReport:
    """Top-1 precision/recall/F1; (0,0,0) when nothing was predicted."""
    gold, n = _gold_ids(preds, ds)
    per_mention = []
    correct = 0
    for pred in preds:
        ok = pred.top in gold[pred.mention_id]
        correct += ok
        per_mention.append((pred.mention_id, ok))
    precision = correct / len(preds) if preds else 0.0
    recall = correct / n if n else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(precision=precision, recall=recall, f1=f1, per_mention=tuple(per_mention))


def recall_at_k(preds: list[Prediction], ds: Dataset | ScoringBlock, ks) -> dict[int, float]:
    """Fraction of mentions with a gold candidate inside the top k."""
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError("k values must be positive")
    gold, n = _gold_ids(preds, ds)
    # the rank of each prediction's first gold candidate: its top k holds a
    # gold one exactly when that rank is below k
    ranks = []
    for pred in preds:
        wanted = gold[pred.mention_id]
        rank = next((r for r, (cid, _) in enumerate(pred.ranked) if cid in wanted), None)
        if rank is not None:
            ranks.append(rank)
    ranks.sort()
    return {k: bisect_left(ranks, k) / n if n else 0.0 for k in ks}


def evaluate(model: Model, ds: Dataset | ScoringBlock, table: FeatureTable | None = None,
             ks=(5, 10, 64)) -> EvalReport:
    """Link then score: P/R/F1 plus recall@k in one report."""
    preds = link(model, ds, table)
    report = prf1(preds, ds)
    return replace(report, recall_at=recall_at_k(preds, ds, ks))


def transfer_eval(model: Model, ds: Dataset, table: FeatureTable, ks=(5, 10, 64)) -> EvalReport:
    """Evaluate frozen parameters on a dataset the model never saw.

    Identical to in-domain evaluation: a target table lacking a feature the
    model reads raises FeatureError from :meth:`FeatureTable.gather_matrix`,
    naming every missing column.
    """
    return evaluate(model, ds, table, ks=ks)


@dataclass(frozen=True)
class AblationRow:
    label: str
    report: EvalReport


def ablation(
    ds: Dataset | ScoringBlock,
    table: FeatureTable | None,
    subsets: list[list[str]],
    config: TrainConfig,
    catalog: FeatureCatalog,
    eval_ds: Dataset | None = None,
    eval_table: FeatureTable | None = None,
) -> list[AblationRow]:
    """Train one fresh lnn model per subset of built-in templates, under
    identical seeds and config, and score it on ``eval_ds`` and ``eval_table``
    (by default the training data; each pair as :func:`link` takes it). Every
    name is looked up before any training; results come back in input order."""
    if not subsets:
        raise ValueError("ablation needs at least one template subset")
    if not all(subsets):
        raise ValueError("template subsets must be non-empty")
    library = builtin_templates()
    roots = [disjoin("Ablation", [library[name] for name in subset]) for subset in subsets]
    rows = []
    for subset, root in zip(subsets, roots):
        graph = compile([root], catalog, alpha=config.alpha)
        model = train(ds, table, graph, config, catalog=catalog)
        report = evaluate(model, eval_ds or ds, eval_table or table)
        label = "+".join(subset)
        logger.info("ablation %s: F1 %.4f", label, report.f1)
        rows.append(AblationRow(label=label, report=report))
    return rows


def ablation_markdown(rows: list[AblationRow]) -> str:
    lines = ["| templates | precision | recall | f1 |", "| --- | --- | --- | --- |"]
    for row in rows:
        r = row.report
        lines.append(f"| {row.label} | {r.precision:.4f} | {r.recall:.4f} | {r.f1:.4f} |")
    return "\n".join(lines) + "\n"


def ablation_csv(rows: list[AblationRow]) -> str:
    lines = ["templates,precision,recall,f1"]
    for row in rows:
        r = row.report
        lines.append(f"{row.label},{r.precision!r},{r.recall!r},{r.f1!r}")
    return "\n".join(lines) + "\n"


# --- interpretability export -------------------------------------------


def _export_node(node) -> dict:
    if isinstance(node, RawLeaf):
        return {"op": "feature", "feature": node.feature}
    if isinstance(node, ThresholdLeaf):
        return {"op": "threshold", "feature": node.feature, "theta": node.theta}
    if isinstance(node, NotNode):
        return {"op": "not", "children": [_export_node(node.children[0])]}
    kind = "and" if isinstance(node, AndNode) else "or"
    weights = (
        [float(v) for v in node.manual_weights]
        if node.manual_weights is not None
        else [float(v) for v in node.gate.weights]
    )
    return {
        "op": kind,
        "beta": float(node.gate.bias),
        "edge_weights": weights,
        "children": [_export_node(c) for c in node.children],
    }


def export_weights(model: Model) -> dict:
    """Weight tree for inspection: per node the operator, bias and effective
    edge weights; per leaf the threshold."""
    return {
        "mode": model.graph.mode,
        "alpha": model.graph.alpha,
        "tree": _export_node(model.graph.root),
    }


def weights_to_dot(doc: dict) -> str:
    """Render the exported weight tree as a DOT digraph with edge labels."""
    lines = ["digraph scoring {", '  rankdir="BT";']
    counter = [0]

    def emit(node: dict) -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        if node["op"] == "feature":
            label = node["feature"]
        elif node["op"] == "threshold":
            label = f"{node['feature']} > {node['theta']:.3f}"
        elif node["op"] == "not":
            label = "NOT"
        else:
            symbol = "AND" if node["op"] == "and" else "OR"
            label = f"{symbol} (beta={node['beta']:.3f})"
        lines.append(f'  {nid} [label="{label}"];')
        weights = node.get("edge_weights")
        for i, child in enumerate(node.get("children", [])):
            cid = emit(child)
            if weights is not None:
                lines.append(f'  {cid} -> {nid} [label="{weights[i]:.3f}"];')
            else:
                lines.append(f"  {cid} -> {nid};")
        return nid

    emit(doc["tree"])
    lines.append("}")
    return "\n".join(lines) + "\n"
