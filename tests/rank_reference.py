"""Reference oracle: ``evaluation.link`` as it scored and ranked before
scoring went through one feature matrix.

The rows are looked up one by one, each named column is built row by row
into a ``{name: column}`` dict, the columns are stacked in the graph's
feature order and checked for NaN, the tape runs over 512-row blocks, and
one lexsort keyed on (list, -score) ranks every list, the ranked pairs
built row by row. The parity tests compare ``link`` and
``RuleLinker.predict`` against it: ids equal, scores by ``tobytes()``, and
the first error by type and message.
"""
from __future__ import annotations

import numpy as np

from rulelink.errors import FeatureError
from rulelink.evaluation import Prediction
from rulelink.simfeatures import ScoringBlock

BLOCK_ROWS = 512


def _check_columns(table, names) -> None:
    missing = [n for n in names if n not in table.feature_names]
    if missing:
        raise FeatureError(f"feature table lacks columns: {', '.join(missing)}")


def _rows(table, instances) -> list[int]:
    index = dict(zip(zip(table.mention_ids, table.candidate_ids), range(len(table.candidate_ids))))
    rows = []
    for inst in instances:
        for cand in inst.candidates:
            key = (inst.mention.id, cand.id)
            if key not in index:
                raise FeatureError(f"feature table lacks row ({key[0]!r}, {key[1]!r})")
            rows.append(index[key])
    return rows


def _scores(graph, table, rows) -> np.ndarray:
    names = graph.feature_names
    cols = {name: np.array([table.matrix[row, table.feature_names.index(name)] for row in rows], dtype=float)
            for name in names}
    feats = np.stack([cols[name] for name in names])
    nan = np.isnan(feats).any(axis=1)
    if nan.any():
        raise ValueError(f"feature {names[int(np.argmax(nan))]!r} contains NaN")
    eff = graph._effective()
    blocks = range(0, max(feats.shape[1], 1), BLOCK_ROWS)
    return np.concatenate([graph._tape(feats[:, i:i + BLOCK_ROWS], eff)[0][0] for i in blocks])


def link(model, ds, table=None) -> list[Prediction]:
    """``ds`` a Dataset scored against ``table``'s rows, or a ScoringBlock."""
    names = model.graph.feature_names
    if isinstance(ds, ScoringBlock):
        table = ds.table
        _check_columns(table, names)
        mention_ids, offsets = ds.mention_ids, ds.offsets
        rows, candidate_ids = range(len(table.candidate_ids)), table.candidate_ids
    else:
        _check_columns(table, names)
        rows = _rows(table, ds.instances)
        mention_ids = [inst.mention.id for inst in ds.instances]
        offsets = np.cumsum([0] + [len(inst.candidates) for inst in ds.instances]).tolist()
        candidate_ids = [cand.id for inst in ds.instances for cand in inst.candidates]
    scores = _scores(model.graph, table, rows)
    lengths = [end - start for start, end in zip(offsets, offsets[1:])]
    order = np.lexsort((-scores, np.arange(len(lengths)).repeat(lengths)))
    values = scores.tolist()
    ranked = [(candidate_ids[i], values[i]) for i in order.tolist()]
    return [
        Prediction(mention_id=mid, ranked=tuple(ranked[start:end]))
        for mid, start, end in zip(mention_ids, offsets, offsets[1:])
    ]
