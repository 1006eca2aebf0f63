"""Reference oracles: the per-peer box training that the flat vector
replaced, and the per-mention box feature that ``boxgeom.box_feature``
replaced.

Each mention's own box and peer boxes are ``Box`` objects, the raw
parameters a dict of three arrays, and the gradient walks the peers one at
a time, recomputing ``sigmoid(raw_omega)`` for each. The feature intersects
the mention's box with each projected peer box in turn and scores each
candidate with ``box_similarity``. The exactness tests compare
``rulelink.boxgeom`` against them by ``tobytes()``.
"""
from __future__ import annotations

import numpy as np

from rulelink.boxgeom import BoxParams, box_of, box_similarity, intersect, neighborhood
from rulelink.errors import FeatureError
from rulelink.logic import sigmoid, softplus, softplus_inverse
from rulelink.simfeatures import minmax_rescale
from rulelink.training import descend, margin_loss


def _candidate_embeddings(candidates) -> np.ndarray:
    rows = []
    for c in candidates:
        if c.embedding is None:
            raise FeatureError(f"candidate {c.id!r} has no embedding")
        rows.append(c.embedding)
    return np.asarray(rows, dtype=float)


def joint_box_feature_multi(inst, peers: list[list], p: BoxParams, cos_scores) -> np.ndarray:
    """Joint score against every peer mention's projected neighborhood.

    The mention's own box is intersected with each peer's projected box in
    turn; with no peers the (rescaled) cosine column is returned unchanged
    in rank.
    """
    cos = np.asarray(cos_scores, dtype=float)
    if cos.shape[0] != len(inst.candidates):
        raise FeatureError("cos_scores must align with the candidate list")
    peers = [peer for peer in peers if peer]
    if not peers:
        return minmax_rescale(cos)
    own = box_of(_candidate_embeddings(inst.candidates))
    region = own
    for peer in peers:
        region = intersect(region, neighborhood(box_of(_candidate_embeddings(peer)), p))
    emb = _candidate_embeddings(inst.candidates)
    sims = np.array([box_similarity(e, region) for e in emb])
    return minmax_rescale(p.beta_box * sims + cos)


def box_feature(ds, p: BoxParams, cos_column="cos") -> list[np.ndarray]:
    """Each instance's column from :func:`joint_box_feature_multi`, with the
    other mentions of its text as peers."""
    by_text = ds.instances_by_text()
    columns = []
    for inst in ds.instances:
        peers = [list(o.candidates) for o in by_text[inst.mention.text_id] if o.mention.id != inst.mention.id]
        cos = np.array([c.external_scores.get(cos_column, 0.0) for c in inst.candidates])
        columns.append(joint_box_feature_multi(inst, peers, p, cos))
    return columns


def _raw_params(init: BoxParams) -> dict[str, np.ndarray]:
    return {
        "psi": np.asarray(init.psi, dtype=float).copy(),
        "raw_omega": np.asarray(softplus_inverse(init.omega), dtype=float).copy(),
        "raw_beta": np.asarray(softplus_inverse(init.beta_box)),
    }


def _effective(raw: dict[str, np.ndarray]) -> BoxParams:
    return BoxParams(
        psi=raw["psi"].copy(),
        omega=softplus(raw["raw_omega"]),
        beta_box=float(softplus(raw["raw_beta"])),
    )


def _rescale_with_grad(scores: np.ndarray):
    lo_i = int(np.argmin(scores))
    hi_i = int(np.argmax(scores))
    span = scores[hi_i] - scores[lo_i]
    if span == 0.0:
        return np.ones_like(scores), lambda dout: np.zeros_like(scores)
    out = (scores - scores[lo_i]) / span

    def backward(dout: np.ndarray) -> np.ndarray:
        ds = dout / span
        total = dout.sum()
        ds[lo_i] -= total / span
        coeff = (dout * (scores - scores[lo_i])).sum() / span**2
        ds[hi_i] -= coeff
        ds[lo_i] += coeff
        return ds

    return out, backward


def _box_loss_grad(inst, geometry, cos, raw, mu, grads):
    own_emb, own, peer_boxes = geometry
    psi = raw["psi"]
    omega = softplus(raw["raw_omega"])
    beta = float(softplus(raw["raw_beta"]))

    stacked_lo = [own.lower] + [b.lower + psi - omega / 2.0 for b in peer_boxes]
    stacked_hi = [own.upper] + [b.upper + psi + omega / 2.0 for b in peer_boxes]
    lo_stack = np.stack(stacked_lo)
    hi_stack = np.stack(stacked_hi)
    lo_arg = lo_stack.argmax(axis=0)
    hi_arg = hi_stack.argmin(axis=0)
    lo = lo_stack.max(axis=0)
    hi = hi_stack.min(axis=0)
    empty = bool(np.any(lo > hi))

    if empty:
        sims = np.zeros(len(inst.candidates))
    else:
        center = (lo + hi) / 2.0
        dists = np.abs(own_emb - center).sum(axis=1)
        sims = 1.0 / (1.0 + dists)
    scores = beta * sims + cos
    out, rescale_back = _rescale_with_grad(scores)

    loss, dout = margin_loss(out, inst.labels, mu)
    if grads is None or empty:
        return loss, out

    dscores = rescale_back(dout)
    grads["raw_beta"] += (dscores * sims).sum() * sigmoid(raw["raw_beta"])
    dsims = dscores * beta
    dcenter = (dsims[:, None] * sims[:, None] ** 2 * np.sign(own_emb - (lo + hi) / 2.0)).sum(axis=0)
    dlo = dcenter / 2.0
    dhi = dcenter / 2.0
    for peer_idx in range(1, len(stacked_lo)):
        from_lo = dlo * (lo_arg == peer_idx)
        from_hi = dhi * (hi_arg == peer_idx)
        grads["psi"] += from_lo + from_hi
        grads["raw_omega"] += (from_hi - from_lo) / 2.0 * sigmoid(raw["raw_omega"])
    return loss, out


def _training_rows(ds, cos_column):
    by_text = ds.instances_by_text()
    rows = []
    for inst in ds.instances:
        peers = [
            other
            for other in by_text.get(inst.mention.text_id, [])
            if other.mention.id != inst.mention.id and other.candidates
        ]
        if not peers:
            continue
        own_emb = _candidate_embeddings(inst.candidates)
        geometry = (own_emb, box_of(own_emb), [box_of(_candidate_embeddings(p.candidates)) for p in peers])
        cos = np.array([c.external_scores.get(cos_column, 0.0) for c in inst.candidates])
        rows.append((inst, geometry, cos))
    return rows


def box_total_loss(ds, params, mu, cos_column="cos"):
    raw = _raw_params(params)
    return sum(_box_loss_grad(*row, raw, mu, None)[0] for row in _training_rows(ds, cos_column))


def box_gradients(ds, params, mu, cos_column="cos"):
    raw = _raw_params(params)
    grads = {k: np.zeros_like(v) for k, v in raw.items()}
    for inst, geometry, cos in _training_rows(ds, cos_column):
        _box_loss_grad(inst, geometry, cos, raw, mu, grads)
    return grads


def train_box_params(ds, config, cos_column="cos", init=None):
    """Returns the trained parameters and the epoch log."""
    raw = _raw_params(init if init is not None else BoxParams.default(ds.embedding_dim))
    rows = _training_rows(ds, cos_column)

    def step(idx):
        grads = {k: np.zeros_like(v) for k, v in raw.items()}
        return _box_loss_grad(*rows[idx], raw, config.mu, grads)[1], grads

    def epoch_stats():
        return {"loss": sum(_box_loss_grad(*row, raw, config.mu, None)[0] for row in rows)}

    log = descend(raw, len(rows), step, epoch_stats, config)
    return _effective(raw), log
