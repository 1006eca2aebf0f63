"""Box geometry over candidate embeddings for joint disambiguation.

A mention's candidate set becomes the tightest axis-parallel box around
its embeddings. A learned neighborhood projection (translate the center by
psi, widen each side by omega) maps a co-mention's box onto the region its
graph neighbors occupy; intersecting that region with the mention's own
box concentrates mass on candidates that fit both. Each candidate scores

    beta_box * sim_box(e) + cos(e)

where sim_box(e) = 1 / (1 + L1(e, center(intersection))) and cos is an
externally supplied embedding-similarity column; the combined scores are
min-max rescaled per candidate list. An empty intersection contributes
sim_box = 0 for every candidate.

``train_box_params`` fits psi, omega and beta_box by per-mention gradient
descent on the margin-ranking loss, with omega and beta_box kept
non-negative by softplus reparameterization.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, LabeledInstance
from .errors import FeatureError
from .logic import sigmoid, softplus, softplus_inverse
from .simfeatures import minmax_rescale
from .training import descend, margin_loss

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise FeatureError("box corners must share a dimension")

    @property
    def empty(self) -> bool:
        return bool(np.any(self.lower > self.upper))

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.lower <= p) and np.all(p <= self.upper))


@dataclass(frozen=True)
class BoxParams:
    """Neighborhood projection: center shift psi, side growth omega >= 0."""

    psi: np.ndarray
    omega: np.ndarray
    beta_box: float

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        if self.psi.shape != self.omega.shape:
            raise FeatureError("psi and omega must share a dimension")
        if np.any(self.omega < 0):
            raise FeatureError("omega must be non-negative")
        if not np.isfinite(self.beta_box) or self.beta_box < 0:
            raise FeatureError("beta_box must be finite and non-negative")

    @classmethod
    def default(cls, dim: int) -> "BoxParams":
        return cls(psi=np.zeros(dim), omega=np.ones(dim), beta_box=1.0)

    def to_json(self) -> dict:
        return {
            "psi": [float(v) for v in self.psi],
            "omega": [float(v) for v in self.omega],
            "beta_box": float(self.beta_box),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BoxParams":
        return cls(psi=obj["psi"], omega=obj["omega"], beta_box=obj["beta_box"])


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read entity embeddings from JSONL records ``{"id": ..., "vec": [...]}``.

    Every vector must share one dimension.
    """
    out: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                vec = np.asarray([float(v) for v in rec["vec"]], dtype=float)
                eid = str(rec["id"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise FeatureError(f"{path} line {line_no}: bad embedding record ({exc})")
            if not np.all(np.isfinite(vec)):
                raise FeatureError(f"{path} line {line_no}: non-finite embedding value")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise FeatureError(
                    f"{path} line {line_no}: dimension {vec.shape[0]} != {dim}"
                )
            out[eid] = vec
    return out


def attach_embeddings(ds: Dataset, path) -> Dataset:
    """New dataset with candidate embeddings filled in from a JSONL file.

    Candidates absent from the file keep ``embedding=None`` (counted in a
    warning); present embeddings must match any dimension already set.
    """
    from .corpus import CandidateEntity, LabeledInstance

    table = load_embeddings(path)
    if not table:
        logger.warning("embedding file %s is empty; dataset unchanged", path)
        return ds
    dim = next(iter(table.values())).shape[0]
    if ds.embedding_dim is not None and ds.embedding_dim != dim:
        raise FeatureError(
            f"embedding file dimension {dim} != dataset dimension {ds.embedding_dim}"
        )
    missing = 0
    new_instances = []
    for inst in ds.instances:
        cands = []
        for c in inst.candidates:
            if c.id in table:
                cands.append(
                    CandidateEntity(
                        id=c.id,
                        name=c.name,
                        description=c.description,
                        domains=c.domains,
                        indegree=c.indegree,
                        embedding=tuple(float(v) for v in table[c.id]),
                        external_scores=dict(c.external_scores),
                    )
                )
            else:
                missing += 1
                cands.append(c)
        new_instances.append(LabeledInstance(inst.mention, tuple(cands), inst.labels))
    if missing:
        logger.warning("attach_embeddings: %d candidates not in %s", missing, path)
    return Dataset(
        instances=tuple(new_instances), embedding_dim=dim, name=ds.name, report=ds.report
    )


def save_box_params(p: BoxParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json(), fh, sort_keys=True, separators=(",", ":"))


def load_box_params(path) -> BoxParams:
    with open(path, "r", encoding="utf-8") as fh:
        return BoxParams.from_json(json.load(fh))


def box_of(embeddings) -> Box:
    """Tightest box containing every input point (component-wise min/max)."""
    pts = np.asarray(embeddings, dtype=float)
    if pts.size == 0:
        raise FeatureError("cannot build a box from no points")
    if pts.ndim != 2:
        raise FeatureError("embeddings must be a list of equal-length vectors")
    return Box(lower=pts.min(axis=0), upper=pts.max(axis=0))


def neighborhood(b: Box, p: BoxParams) -> Box:
    """Translate the center by psi, grow each side by omega.

    Written corner-wise (lower + psi - omega/2) so the zero projection is
    exactly the identity.
    """
    if p.psi.shape != b.lower.shape:
        raise FeatureError(
            f"projection dimension {p.psi.shape} does not match box {b.lower.shape}"
        )
    return Box(lower=b.lower + p.psi - p.omega / 2.0, upper=b.upper + p.psi + p.omega / 2.0)


def intersect(a: Box, b: Box) -> Box:
    """Component-wise intersection; empty boxes are flagged, not collapsed."""
    if a.lower.shape != b.lower.shape:
        raise FeatureError("cannot intersect boxes of different dimension")
    return Box(lower=np.maximum(a.lower, b.lower), upper=np.minimum(a.upper, b.upper))


def box_similarity(e, b: Box) -> float:
    """1 / (1 + L1 distance to the box center); 0 for an empty box."""
    if b.empty:
        return 0.0
    point = np.asarray(e, dtype=float)
    return float(1.0 / (1.0 + np.abs(point - b.center).sum()))


def _candidate_embeddings(candidates) -> np.ndarray:
    rows = []
    for c in candidates:
        if c.embedding is None:
            raise FeatureError(f"candidate {c.id!r} has no embedding")
        rows.append(c.embedding)
    return np.asarray(rows, dtype=float)


def joint_box_feature_multi(
    inst: LabeledInstance,
    peers: list[list],
    p: BoxParams,
    cos_scores,
) -> np.ndarray:
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


# --- training ----------------------------------------------------------


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


def _instance_geometry(inst: LabeledInstance, peer_instances: list[LabeledInstance]):
    own_emb = _candidate_embeddings(inst.candidates)
    own = box_of(own_emb)
    peer_boxes = [box_of(_candidate_embeddings(p.candidates)) for p in peer_instances]
    return own_emb, own, peer_boxes


def _rescale_with_grad(scores: np.ndarray):
    """Min-max rescale plus a closure mapping d(out) to d(scores)."""
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
    """Margin loss and rescaled joint scores of one mention; adds the
    raw-parameter gradients to ``grads`` unless it is None."""
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
    # sim = 1/(1+L1): d sim / d center_k = sim^2 * sign(e_k - center_k)
    dcenter = (dsims[:, None] * sims[:, None] ** 2 * np.sign(own_emb - (lo + hi) / 2.0)).sum(axis=0)
    dlo = dcenter / 2.0
    dhi = dcenter / 2.0
    for peer_idx in range(1, len(stacked_lo)):
        from_lo = dlo * (lo_arg == peer_idx)
        from_hi = dhi * (hi_arg == peer_idx)
        grads["psi"] += from_lo + from_hi
        grads["raw_omega"] += (from_hi - from_lo) / 2.0 * sigmoid(raw["raw_omega"])
    return loss, out


def box_total_loss(ds: Dataset, params: BoxParams, mu: float, cos_column: str = "cos") -> float:
    """Summed margin loss of the joint box feature over peer-linked mentions."""
    raw = _raw_params(params)
    return sum(_box_loss_grad(*row, raw, mu, None)[0] for row in _training_rows(ds, cos_column))


def box_gradients(ds: Dataset, params: BoxParams, mu: float, cos_column: str = "cos") -> dict:
    """Analytic d(loss)/d(raw parameter) for the box training objective."""
    raw = _raw_params(params)
    grads = {k: np.zeros_like(v) for k, v in raw.items()}
    for inst, geometry, cos in _training_rows(ds, cos_column):
        _box_loss_grad(inst, geometry, cos, raw, mu, grads)
    return grads


def _training_rows(ds: Dataset, cos_column: str):
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
        cos = np.array([c.external_scores.get(cos_column, 0.0) for c in inst.candidates])
        rows.append((inst, _instance_geometry(inst, peers), cos))
    return rows


def train_box_params(ds: Dataset, config, cos_column: str = "cos", init: BoxParams | None = None) -> BoxParams:
    """Fit the neighborhood projection by per-mention gradient descent.

    Deterministic given ``config.seed``; mentions without embedded peers in
    the same text carry no box signal and are skipped.
    """
    if ds.embedding_dim is None:
        raise FeatureError("dataset has no embeddings; cannot train box parameters")
    raw = _raw_params(init if init is not None else BoxParams.default(ds.embedding_dim))
    rows = _training_rows(ds, cos_column)
    if not rows:
        logger.warning("no mention has an embedded peer; returning initial parameters")
        return _effective(raw)

    def step(idx):
        grads = {k: np.zeros_like(v) for k, v in raw.items()}
        return _box_loss_grad(*rows[idx], raw, config.mu, grads)[1], grads

    def epoch_stats():
        return {"loss": sum(_box_loss_grad(*row, raw, config.mu, None)[0] for row in rows)}

    descend(raw, len(rows), step, epoch_stats, config)
    return _effective(raw)
