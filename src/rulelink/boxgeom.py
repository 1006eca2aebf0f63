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
non-negative by softplus reparameterization; the raw parameters are one
flat vector ``[psi (d) | raw_omega (d) | raw_beta (1)]`` with named views.
It and ``box_feature`` compile each peer-linked mention once into arrays
and score it with one kernel.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .corpus import Dataset, read_text
from .errors import FeatureError
from .logic import sigmoid, softplus, softplus_inverse
from .simfeatures import minmax_rescale
from .training import descend, margin_loss_prepared, prepare_labels

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
        for name in ("psi", "omega"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim != 1 or not np.isfinite(value).all():
                raise FeatureError(f"{name} must be a 1-D vector of finite numbers")
            object.__setattr__(self, name, value)
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
    def from_json(cls, obj) -> "BoxParams":
        """Inverse of :meth:`to_json`. A missing field, or one that is not a
        list of numbers (``psi``, ``omega``) or a number (``beta_box``),
        raises FeatureError naming it."""
        if not isinstance(obj, dict):
            raise FeatureError(f"box params must be a JSON object, not {type(obj).__name__}")
        for name in ("psi", "omega", "beta_box"):
            if name not in obj:
                raise FeatureError(f"box params lack the field {name!r}")
        for name in ("psi", "omega"):
            if not (isinstance(obj[name], list) and all(map(_is_number, obj[name]))):
                raise FeatureError(f"box params field {name!r} is not a list of numbers")
        if not _is_number(obj["beta_box"]):
            raise FeatureError("box params field 'beta_box' is not a number")
        return cls(psi=obj["psi"], omega=obj["omega"], beta_box=obj["beta_box"])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read entity embeddings from JSONL records ``{"id": ..., "vec": [...]}``.

    Every vector must share one dimension.
    """
    out: dict[str, np.ndarray] = {}
    dim = None
    for line_no, line in enumerate(read_text(path, FeatureError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            vec = np.asarray([float(v) for v in rec["vec"]], dtype=float)
            eid = rec["id"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FeatureError(f"{path} line {line_no}: bad embedding record ({exc})")
        if not isinstance(eid, str):
            raise FeatureError(f"{path} line {line_no}: embedding id {eid!r} must be a string")
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
                cands.append(replace(c, embedding=tuple(float(v) for v in table[c.id])))
            else:
                missing += 1
                cands.append(c)
        new_instances.append(replace(inst, candidates=tuple(cands)))
    if missing:
        logger.warning("attach_embeddings: %d candidates not in %s", missing, path)
    return replace(ds, instances=tuple(new_instances), embedding_dim=dim)


def save_box_params(p: BoxParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json(), fh, sort_keys=True, separators=(",", ":"))


def load_box_params(path) -> BoxParams:
    """Read a :func:`save_box_params` file; malformed content raises
    FeatureError naming the file (and the field, if it parsed as JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return BoxParams.from_json(json.load(fh))
    except (json.JSONDecodeError, UnicodeDecodeError, OverflowError, FeatureError) as exc:
        raise FeatureError(f"{path}: {exc}") from None


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


def _candidate_embeddings(candidates, dim: int) -> np.ndarray:
    rows = []
    for c in candidates:
        if c.embedding is None:
            raise FeatureError(f"candidate {c.id!r} has no embedding")
        if len(c.embedding) != dim:
            raise FeatureError(f"candidate {c.id!r} has a {len(c.embedding)}-d embedding, not {dim}-d like the box parameters")
        rows.append(c.embedding)
    return np.asarray(rows, dtype=float)


# --- compiled rows and the scoring kernel --------------------------------


class _Stack(NamedTuple):
    """R peer-linked mentions of n candidates and P peers each: embeddings
    [R, n, d], own box corners [R, 1, d], peer box corners [R, P, d], peer
    numbers 1..P [P, 1] (their rows in a corner stack under the own box),
    cos columns [R, n] and :func:`prepare_labels` indices."""

    emb: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    peer_lower: np.ndarray
    peer_upper: np.ndarray
    peer_index: np.ndarray
    cos: np.ndarray
    labels: tuple


def _training_rows(ds: Dataset, cos_column: str, dim: int) -> tuple[list[int], list[_Stack]]:
    """One single-mention stack per mention with an embedded peer, and each
    stack's mention position in ``ds``. The embeddings of these mentions and
    of their peers are read, checked to be ``dim``-d and boxed once per
    mention, in dataset order."""
    texts: dict[str, list[int]] = {}
    for i, inst in enumerate(ds.instances):
        if inst.candidates:
            texts.setdefault(inst.mention.text_id, []).append(i)
    peers = [[p for p in texts.get(inst.mention.text_id, []) if ds.instances[p].mention.id != inst.mention.id]
             for inst in ds.instances]
    positions = [i for i, linked in enumerate(peers) if linked]
    geometry = {}
    for i in sorted(set(positions).union(*(peers[i] for i in positions))):
        emb = _candidate_embeddings(ds.instances[i].candidates, dim)
        geometry[i] = emb, box_of(emb)
    rows = []
    for i in positions:
        inst = ds.instances[i]
        emb, own = geometry[i]
        peer_boxes = [geometry[p][1] for p in peers[i]]
        rows.append(_Stack(
            emb=emb[None],
            lower=own.lower[None, None],
            upper=own.upper[None, None],
            peer_lower=np.stack([b.lower for b in peer_boxes])[None],
            peer_upper=np.stack([b.upper for b in peer_boxes])[None],
            peer_index=np.arange(1, len(peer_boxes) + 1)[:, None],
            cos=np.array([[c.external_scores.get(cos_column, 0.0) for c in inst.candidates]]),
            labels=(prepare_labels(inst.labels),),
        ))
    return positions, rows


def _by_shape(rows: list[_Stack]) -> list[tuple[list[int], _Stack]]:
    """Rows of one candidate and peer count stacked together, each stack
    with its rows' positions."""
    positions: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        positions.setdefault((row.emb.shape, row.peer_lower.shape), []).append(i)
    stacks = []
    for idx in positions.values():
        members = [rows[i] for i in idx]
        arrays = {name: np.concatenate([getattr(row, name) for row in members])
                  for name in ("emb", "lower", "upper", "peer_lower", "peer_upper", "cos")}
        labels = tuple(row.labels[0] for row in members)
        stacks.append((idx, _Stack(**arrays, peer_index=members[0].peer_index, labels=labels)))
    return stacks


def _pack(p: BoxParams) -> np.ndarray:
    """The raw vector ``[psi (d) | raw_omega (d) | raw_beta (1)]``."""
    return np.concatenate((p.psi, softplus_inverse(p.omega), [softplus_inverse(p.beta_box)]))


def _named(vec: np.ndarray) -> dict[str, np.ndarray]:
    """Named views into a raw vector (``raw_beta`` is 0-d)."""
    d = (vec.size - 1) // 2
    return {"psi": vec[:d], "raw_omega": vec[d : 2 * d], "raw_beta": vec[2 * d :].reshape(())}


def _unpack(vec: np.ndarray) -> BoxParams:
    raw = _named(vec)
    return BoxParams(psi=raw["psi"].copy(), omega=softplus(raw["raw_omega"]),
                     beta_box=softplus(raw["raw_beta"]))


def _effective(raw: dict[str, np.ndarray]) -> tuple:
    """``(psi, omega / 2, beta_box)`` of a raw vector's named views."""
    return raw["psi"], softplus(raw["raw_omega"]) / 2.0, softplus(raw["raw_beta"])


def _forward(s: _Stack, effective: tuple, raw: dict | None = None, grad: dict | None = None, mu: float = 0.0) -> np.ndarray:
    """Joint scores of every mention in a stack, min-max rescaled per
    mention: [R, n], at the effective parameters ``(psi, omega / 2,
    beta_box)``. Given ``grad`` (named views like ``raw``, the raw vector
    behind ``effective``), a single-mention stack also adds the gradient of
    its margin loss at ``mu``.

    Every peer box is projected in one broadcast op, and the sigmoids are
    taken once per call.
    """
    psi, half, beta = effective
    lower = np.concatenate((s.lower, (s.peer_lower + psi) - half), axis=1)
    upper = np.concatenate((s.upper, (s.peer_upper + psi) + half), axis=1)
    lo, hi = lower.max(axis=1), upper.min(axis=1)
    empty = (lo > hi).any(axis=1)  # an empty intersection scores sim_box 0
    offset = s.emb - ((lo + hi) / 2.0)[:, None, :]
    sims = 1.0 / (1.0 + np.abs(offset).sum(axis=2))
    sims[empty] = 0.0
    scores = beta * sims + s.cos
    each = np.arange(len(scores))
    lo_i, hi_i = scores.argmin(axis=1), scores.argmax(axis=1)
    low = scores[each, lo_i]
    span = scores[each, hi_i] - low
    diff = scores - low[:, None]
    flat = span == 0.0  # all ones
    out = diff / np.where(flat, 1.0, span)[:, None]
    out[flat] = 1.0
    if grad is None or empty[0]:  # no gradient reaches an empty intersection
        return out
    sims, span, lo_i, hi_i = sims[0], span[0], lo_i[0], hi_i[0]
    if span == 0.0:
        dscores = np.zeros_like(sims)
    else:
        dout = margin_loss_prepared(out[0], s.labels[0], mu)[1]
        dscores = dout / span
        dscores[lo_i] -= dout.sum() / span
        coeff = (dout * diff[0]).sum() / span**2
        dscores[hi_i] -= coeff
        dscores[lo_i] += coeff
    grad["raw_beta"] += (dscores * sims).sum() * sigmoid(raw["raw_beta"])
    dsims = dscores * beta
    # sim = 1/(1+L1): d sim / d center_k = sim^2 * sign(e_k - center_k)
    dcenter = (dsims[:, None] * sims[:, None] ** 2 * np.sign(offset[0])).sum(axis=0)
    # each corner of the intersection is one row of its stack (row 0 is the
    # own box, which has no parameters) and moves the center by half as much
    dcorner = dcenter / 2.0
    from_lo = dcorner * (lower[0].argmax(axis=0) == s.peer_index)
    from_hi = dcorner * (upper[0].argmin(axis=0) == s.peer_index)
    grad["psi"] += np.add.reduce(from_lo + from_hi, axis=0)
    grad["raw_omega"] += np.add.reduce((from_hi - from_lo) / 2.0 * sigmoid(raw["raw_omega"]), axis=0)
    return out


def _summed_loss(stacks: list[tuple[list[int], _Stack]], raw: dict, mu: float) -> float:
    """Margin loss summed over the rows in their order, from shape stacks."""
    losses = [0.0] * sum(len(idx) for idx, _ in stacks)
    effective = _effective(raw)
    for idx, stack in stacks:
        for i, out, labels in zip(idx, _forward(stack, effective), stack.labels):
            losses[i] = margin_loss_prepared(out, labels, mu, grad=False)[0]
    return sum(losses)


def box_feature(ds: Dataset, params: BoxParams, cos_column: str = "cos") -> list[np.ndarray]:
    """Every instance's box column, in dataset order.

    A mention with an embedded peer in its text scores
    ``minmax_rescale(beta_box * sim_box + cos)`` with the kernel training
    uses, at ``params`` as given; one without scores ``minmax_rescale(cos)``.
    Every candidate needs an embedding of the parameters' dimension, peers
    or not, and a non-finite score raises FeatureError naming the mention.
    """
    positions, rows = _training_rows(ds, cos_column, params.psi.size)
    columns: list = [None] * len(ds.instances)
    effective = (params.psi, params.omega / 2.0, params.beta_box)
    for idx, stack in _by_shape(rows):
        for i, out in zip(idx, _forward(stack, effective)):
            if not np.isfinite(out).all():
                raise FeatureError(f"box feature of mention {ds.instances[positions[i]].mention.id!r} is not finite")
            columns[positions[i]] = out
    for i, inst in enumerate(ds.instances):
        if columns[i] is None:
            _candidate_embeddings(inst.candidates, params.psi.size)
            columns[i] = minmax_rescale([c.external_scores.get(cos_column, 0.0) for c in inst.candidates])
    return columns


def box_total_loss(ds: Dataset, params: BoxParams, mu: float, cos_column: str = "cos") -> float:
    """Summed margin loss of the joint box feature over peer-linked mentions."""
    rows = _training_rows(ds, cos_column, params.psi.size)[1]
    return _summed_loss(_by_shape(rows), _named(_pack(params)), mu)


def box_gradients(ds: Dataset, params: BoxParams, mu: float, cos_column: str = "cos") -> dict:
    """Analytic d(loss)/d(raw parameter) for the box training objective."""
    raw = _named(_pack(params))
    grad = {name: np.zeros_like(view) for name, view in raw.items()}
    effective = _effective(raw)
    for row in _training_rows(ds, cos_column, params.psi.size)[1]:
        _forward(row, effective, raw, grad, mu)
    return grad


def train_box_params(ds: Dataset, config, cos_column: str = "cos", init: BoxParams | None = None) -> BoxParams:
    """Fit the neighborhood projection by per-mention gradient descent.

    Deterministic given ``config.seed``; mentions without embedded peers in
    the same text carry no box signal and are skipped. Every embedding a
    peer-linked mention reads must have the dimension of ``init``.
    """
    if ds.embedding_dim is None:
        raise FeatureError("dataset has no embeddings; cannot train box parameters")
    init = init if init is not None else BoxParams.default(ds.embedding_dim)
    vec = _pack(init)
    rows = _training_rows(ds, cos_column, init.psi.size)[1]
    if not rows:
        logger.warning("no mention has an embedded peer; returning initial parameters")
        return _unpack(vec)
    stacks = _by_shape(rows)
    raw = _named(vec)
    grad_vec = np.zeros_like(vec)
    grad = _named(grad_vec)

    def step(idx):
        grad_vec.fill(0.0)
        return _forward(rows[idx], _effective(raw), raw, grad, config.mu)[0], {"flat": grad_vec}

    def epoch_stats():
        return {"loss": _summed_loss(stacks, raw, config.mu)}

    log = descend({"flat": vec}, len(rows), step, epoch_stats, config)
    if log:
        logger.info("trained box parameters %d epochs over %d mentions: loss %.6f",
                    config.epochs, len(rows), log[-1]["loss"])
    return _unpack(vec)
