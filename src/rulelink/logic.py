"""Real-valued logic kernel: weighted gates, t-norms, and scoring graphs.

The learnable conjunction over inputs x_1..x_n in [0,1] is

    AND(x; w, beta) = clamp(beta - sum_i w_i * (1 - x_i), 0, 1)

with disjunction defined by De Morgan duality, OR(x) = 1 - AND(1 - x),
and negation NOT(x) = 1 - x. Weights and slacks are kept non-negative by
softplus reparameterization, so plain gradient descent stays valid.

Truth semantics are controlled by alpha in [1/2, 1): values >= alpha act
as true, values <= 1-alpha as false. The gate parameters are softly tied
to that semantics through hinge residuals (:func:`constraint_residuals`);
training adds them to the loss as penalties.

A second operator family is the parameter-free product t-norm,
AND(x) = prod x_i, used by the thresholds-only training mode. Predicates
``f > theta`` are smoothed into the threshold gate

    TL(f, theta) = f * sigmoid(f - theta),   theta = sigmoid(gamma)

so the comparison stays differentiable and theta stays inside (0, 1).

A :class:`ScoringGraph` compiles its rule tree once into a tape of ops
over a ``[n_nodes, rows]`` value matrix; each op keeps what its backward
reads, and the backward pass runs the tape in reverse over those (the
upward and downward passes of Riegel et al. 2020). Every raw parameter
lives in one flat vector that the gate and threshold objects view.

Default initialization for fresh gates: effective weights 1, bias 1, raw
slacks 0 (effective ln 2), gamma 0 (theta 0.5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeatureError

MODES = ("lnn", "tnorm", "manual")

# softplus(x) underflows to exactly 0.0 below this, giving exact zero slacks
_NEG_CAP = -800.0


def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    both evaluated everywhere and selected: a float for 0-d input."""
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))
    denom = 1.0 + ex
    out = np.where(pos, 1.0 / denom, ex / denom)
    return float(out) if out.ndim == 0 else out


def softplus(x):
    x = np.asarray(x, dtype=float)
    out = np.logaddexp(0.0, x)
    return float(out) if out.ndim == 0 else out


def softplus_inverse(y):
    """Raw value r with softplus(r) = y; y = 0 maps to a deep negative cap."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("softplus inverse needs non-negative values")
    with np.errstate(divide="ignore"):
        out = np.where(y > 0, y + np.log1p(-np.exp(-np.maximum(y, 1e-300))), _NEG_CAP)
    out = np.maximum(out, _NEG_CAP)
    return float(out) if out.ndim == 0 else out


def _raw_vector(values, default: float, arity: int, what: str) -> np.ndarray:
    arr = np.full(arity, default) if values is None else np.array(values, dtype=float)
    if arr.shape != (arity,):
        raise ValueError(f"{what} must have shape ({arity},)")
    return arr


class GateParams:
    """Learnable parameters of one weighted gate.

    Stores raw (pre-softplus) weights and slacks plus a free bias; the
    effective values are exposed as properties. Raw arrays are mutated in
    place by the optimizer; a :class:`ScoringGraph` rebinds them to views
    into its flat parameter vector.
    """

    def __init__(self, arity: int, raw_weights=None, bias: float = 1.0, raw_slacks=None, raw_slack_big: float = 0.0):
        if arity < 1:
            raise ValueError("gate arity must be >= 1")
        self.raw_weights = _raw_vector(raw_weights, softplus_inverse(1.0), arity, "raw_weights")
        self.bias = np.asarray(float(bias))
        self.raw_slacks = _raw_vector(raw_slacks, 0.0, arity, "raw_slacks")
        self.raw_slack_big = np.asarray(float(raw_slack_big))

    @classmethod
    def from_effective(cls, weights, bias: float = 1.0, slacks=None, slack_big: float = 0.0) -> "GateParams":
        weights = np.asarray(weights, dtype=float)
        slacks = np.zeros(len(weights)) if slacks is None else np.asarray(slacks, dtype=float)
        return cls(len(weights), softplus_inverse(weights), bias, softplus_inverse(slacks), softplus_inverse(slack_big))

    @property
    def arity(self) -> int:
        return self.raw_weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return softplus(self.raw_weights)

    @property
    def slacks(self) -> np.ndarray:
        return softplus(self.raw_slacks)

    @property
    def slack_big(self) -> float:
        return softplus(self.raw_slack_big)


@dataclass
class ThresholdParams:
    """Threshold pre-activation gamma; theta = sigmoid(gamma) in (0, 1)."""

    gamma: np.ndarray

    def __init__(self, gamma: float = 0.0):
        self.gamma = np.asarray(float(gamma))

    @property
    def theta(self) -> float:
        return sigmoid(self.gamma)


def _check_unit(values, what: str):
    arr = np.asarray(values, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{what} contains NaN")
    return arr


# --- op kernels: the tape runs these, and the scalar gates below call them ---


def _fold(op, terms):
    """Reduce over the children axis left to right. numpy's ``sum`` pairs
    terms up when that axis is contiguous (a one-row batch), which would
    score a row differently alone than inside a larger batch."""
    acc = terms[0]
    for term in terms[1:]:
        acc = op(acc, term)
    return acc


def _and_core(inputs: np.ndarray, weights: np.ndarray, bias: float):
    """Pre-clamp activation, clamped value and ``1 - inputs`` (what the
    backward pass multiplies by) of the weighted conjunction."""
    w = weights[..., None] if inputs.ndim > weights.ndim else weights
    comp = 1.0 - inputs
    pre = bias - _fold(np.add, comp * w)
    # the method is np.clip's result, bit for bit (NaN payloads and signed
    # zeros included), without its Python-level dispatch
    return pre, pre.clip(0.0, 1.0), comp


def _threshold_core(f, theta):
    """Smooth predicate value f * sigmoid(f - theta), and the sigmoid."""
    s = sigmoid(f - theta)
    return f * s, s


def _hinges(alpha, w, wsum, beta, beta_per_w, slacks, slack_big):
    """Pre-activations (r0, r_i) of the truth-semantics hinges.

    r0 is positive when the bias is too small for true inputs to stay true,
    r_i when it is too large for false input i to pull the gate down:
        r0  = alpha - (beta - (1-alpha) sum w + Delta)
        r_i = (beta - alpha w_i) - (1 - alpha + delta_i)
    """
    r0 = alpha - (beta - (1.0 - alpha) * wsum + slack_big)
    return r0, (beta_per_w - alpha * w) - (1.0 - alpha + slacks)


def _residuals(r0, ri):
    """Hinge residuals max(0, r0), max(0, r_i) along the last axis, r0 first."""
    r0 = np.where(r0 > 0.0, r0, 0.0)
    return np.concatenate((r0[..., None], np.maximum(0.0, ri)), axis=-1)


def lnn_and(inputs, g: GateParams) -> float:
    """clamp(beta - sum_i w_i (1 - x_i)) for inputs in [0,1]."""
    arr = _check_unit(inputs, "lnn_and inputs")
    if arr.shape[0] != g.arity:
        raise ValueError(f"expected {g.arity} inputs, got {arr.shape[0]}")
    return float(_and_core(arr, g.weights, float(g.bias))[1])


def lnn_or(inputs, g: GateParams) -> float:
    """De Morgan dual: 1 - lnn_and(1 - inputs, g)."""
    return 1.0 - lnn_and(1.0 - _check_unit(inputs, "lnn_or inputs"), g)


def lnn_not(x: float) -> float:
    return 1.0 - x


def tnorm_and(inputs) -> float:
    return float(_fold(np.multiply, _check_unit(inputs, "tnorm_and inputs")))


def tnorm_or(inputs) -> float:
    return float(1.0 - _fold(np.multiply, 1.0 - _check_unit(inputs, "tnorm_or inputs")))


def threshold_gate(f: float, t: ThresholdParams) -> float:
    """Smooth predicate score TL(f, theta) = f * sigmoid(f - theta)."""
    return float(_threshold_core(f, t.theta)[0])


def constraint_residuals(g: GateParams, alpha: float) -> np.ndarray:
    """Hinge residuals max(0, r0), max(0, r_i); zero iff the gate is consistent."""
    if not 0.5 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [1/2, 1], got {alpha}")
    w, beta = g.weights, float(g.bias)
    return _residuals(*_hinges(alpha, w, w.sum(), beta, beta, g.slacks, g.slack_big))


def penalty_grads(graph: "ScoringGraph", lam: float, grads: np.ndarray) -> None:
    """Add d(lam * residual sum)/d(raw parameter) to the flat ``grads`` (lnn mode only)."""
    if graph.mode != "lnn" or lam == 0.0 or not graph._arity:
        return
    eff = graph._effective()
    alpha, sig, (rho, delta, beta, big) = graph.alpha, eff["sig"], graph._blocks
    r0_active, ri_active = eff["r0"] > 0.0, eff["ri"] > 0.0
    counts = np.bincount(graph._gate_of_w, weights=ri_active, minlength=len(graph._arity))
    grads[beta] += lam * (-1.0 * r0_active + counts)
    grads[rho] += lam * (r0_active[graph._gate_of_w] * (1.0 - alpha) - alpha * ri_active) * sig[rho]
    grads[delta] += lam * (-1.0) * ri_active * sig[delta]
    grads[big] += lam * (-1.0) * r0_active * sig[big]


# --- scoring graph nodes ----------------------------------------------------


class Node:
    children: tuple = ()
    uid: int = -1


class _GateNode(Node):
    def __init__(self, children, gate: GateParams | None = None, manual_weights=None):
        self.children = tuple(children)
        self.gate = gate if gate is not None else GateParams(len(self.children))
        if self.gate.arity != len(self.children):
            raise ValueError(f"gate arity {self.gate.arity} does not match {len(self.children)} children")
        self.manual_weights = None if manual_weights is None else np.asarray(manual_weights, float)


class AndNode(_GateNode):
    kind = "and"


class OrNode(_GateNode):
    kind = "or"


class NotNode(Node):
    kind = "not"

    def __init__(self, child):
        self.children = (child,)


class ThresholdLeaf(Node):
    """Learnable smooth predicate over one feature column.

    A fixed threshold (from ``f > 0.4`` in the DSL) freezes theta and
    removes gamma from the parameter set.
    """

    kind = "tl"

    def __init__(self, feature: str, params: ThresholdParams | None = None, fixed_theta: float | None = None):
        self.children = ()
        self.feature = feature
        self.fixed_theta = fixed_theta
        self.params = params if params is not None else ThresholdParams(0.0)

    @property
    def theta(self) -> float:
        return self.params.theta if self.fixed_theta is None else self.fixed_theta


class RawLeaf(Node):
    kind = "raw"

    def __init__(self, feature: str):
        self.children = ()
        self.feature = feature


# A tape op runs every inner node of one height (longest path down to a
# leaf), kind and arity at once, children axis first: (code, uids [n], kids
# [k, n] or [n] for NOT, extra, is-or), where extra is the op's position
# among the lnn ops for _LNN (its parameters are ScoringGraph._effective's
# "ops" entry of that position), arange(k) for _TNORM and the weights
# [k, n, 1] for _MANUAL. The leaves run first, in one block.
_NOT, _LNN, _TNORM, _MANUAL = range(4)
_BLOCK_ROWS = 512


class ScoringGraph:
    """A compiled rule tree plus evaluation mode and truth semantics.

    ``mode`` selects operator behavior: ``lnn`` (weighted gates, all
    parameters learnable), ``tnorm`` (product t-norm gates, only thresholds
    learnable) or ``manual`` (fixed weights, hard thresholds, nothing
    learnable). Construction copies every raw parameter of the tree into
    :attr:`flat` and rebinds the tree's parameter arrays to views into it,
    so a node tree belongs to the one graph built over it.
    """

    def __init__(self, root: Node, alpha: float = 0.7, mode: str = "lnn"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.5 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [1/2, 1), got {alpha}")
        self.root, self.alpha, self.mode = root, float(alpha), mode
        self.nodes: list[Node] = []
        self._index(root, set(), postorder := [])
        leaves = [n for n in self.nodes if isinstance(n, (ThresholdLeaf, RawLeaf))]
        self.feature_names = list(dict.fromkeys(n.feature for n in leaves))
        self._bind()
        self._compile(postorder)
        self._eff_key = self._eff = None

    def __reduce__(self):  # a copy or unpickled graph binds its own copied tree
        return ScoringGraph, (self.root, self.alpha, self.mode)

    def _index(self, node: Node, seen: set, postorder: list) -> None:
        if id(node) in seen:
            raise ValueError("a node may appear only once in a scoring graph")
        seen.add(id(node))
        node.uid = len(self.nodes)
        self.nodes.append(node)
        for child in node.children:
            self._index(child, seen, postorder)
        postorder.append(node)

    def _bind(self) -> None:
        """Fill :attr:`flat`, laid out as weights | slacks | big slacks (the
        softplus part) | biases | gammas, and rebind the tree to views."""
        gates = [n for n in self.nodes if isinstance(n, _GateNode)]
        tls = [n for n in self.nodes if isinstance(n, ThresholdLeaf) and n.fixed_theta is None]
        self._arity = arity = [n.gate.arity for n in gates]
        k, g = sum(arity), len(gates)
        self.flat = np.array([v for n in gates for v in n.gate.raw_weights.tolist()]
                             + [v for n in gates for v in n.gate.raw_slacks.tolist()]
                             + [float(n.gate.raw_slack_big) for n in gates] + [float(n.gate.bias) for n in gates]
                             + [float(n.params.gamma) for n in tls], dtype=float)
        # (weights, slacks, biases, big slacks); gammas start at _gamma0
        self._blocks = (slice(0, k), slice(k, 2 * k), slice(2 * k + g, 2 * k + 2 * g), slice(2 * k, 2 * k + g))
        self._gamma0 = 2 * k + 2 * g
        self._wstart = np.cumsum([0] + arity)[:-1]
        self._gate_of_w = np.repeat(np.arange(g), arity)
        # gates of one arity stacked: numpy sums each row of an [n, a] block
        # exactly as it sums a lone length-a array
        sizes = np.array(arity, dtype=np.intp)
        self._by_arity = [(np.flatnonzero(sizes == a), self._wstart[sizes == a][:, None] + np.arange(a))
                          for a in sorted(set(arity))]
        slots = {}  # (name suffix, start, stop, shape) per parameter
        for i, (node, lo, a) in enumerate(zip(gates, self._wstart.tolist(), arity)):
            beta, big = 2 * k + g + i, 2 * k + i
            slots[node.uid] = [(".rho", lo, lo + a, (a,)), (".beta", beta, beta + 1, ()),
                               (".delta", k + lo, k + lo + a, (a,)), (".Delta", big, big + 1, ())]
        for j, node in enumerate(tls, start=self._gamma0):
            slots[node.uid] = [(".gamma", j, j + 1, ())]
        learnable = {"lnn": (_GateNode, ThresholdLeaf), "tnorm": (ThresholdLeaf,), "manual": ()}[self.mode]
        self._slots = [(f"n{n.uid}{suffix}", *slot) for n in self.nodes if isinstance(n, learnable)
                       for suffix, *slot in slots.get(n.uid, ())]
        views = {uid: [self.flat[lo:hi].reshape(shape) for _, lo, hi, shape in s] for uid, s in slots.items()}
        for node in gates:
            node.gate.raw_weights, node.gate.bias, node.gate.raw_slacks, node.gate.raw_slack_big = views[node.uid]
        for node in tls:
            node.params.gamma = views[node.uid][0]

    def parameters(self) -> dict[str, np.ndarray]:
        """Raw parameter arrays in deterministic preorder, keyed by name:
        live views into :attr:`flat`, which optimizers update in place."""
        return self.unflatten(self.flat)

    def unflatten(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out like :attr:`flat` (a gradient, say),
        under the :meth:`parameters` names."""
        return {name: vec[lo:hi].reshape(shape) for name, lo, hi, shape in self._slots}

    def gates(self) -> list[tuple[str, Node]]:
        return [(f"n{n.uid}", n) for n in self.nodes if isinstance(n, _GateNode)]

    def _effective(self) -> dict:
        """Effective parameters and hinge inputs of every gate, one vector
        operation each, recomputed only when :attr:`flat` has changed.

        ``theta`` is a column per threshold leaf and ``dgamma`` the negated
        d(theta)/d(gamma) per learnable one. In lnn mode ``ops`` holds each
        lnn op's weights ``[k, n, 1]`` and biases ``[n, 1]``, views of one
        gather over every op's slots laid end to end, and ``dsig`` the
        weights' softplus derivatives in that order."""
        key = self.flat.tobytes()
        if key == self._eff_key:
            return self._eff
        sig = sigmoid(self.flat)
        theta = learned = sig[self._gamma0:]
        if len(learned) < len(self._theta_fixed):  # some thresholds are fixed
            theta = self._theta_fixed.copy()
            theta[self._theta_learn] = learned
        eff = {"sig": sig, "theta": theta[:, None], "dgamma": -(learned * (1.0 - learned))}
        if self.mode == "lnn" and self._arity:
            rho, delta, beta, big = self._blocks
            sp = softplus(self.flat[:beta.start])
            w, b = sp[rho], self.flat[beta].copy()
            wsum = np.empty(len(self._arity))
            for idx, cols in self._by_arity:
                wsum[idx] = w[cols].sum(axis=1)
            eff["r0"], eff["ri"] = _hinges(self.alpha, w, wsum, b, b[self._gate_of_w], sp[delta], sp[big])
            weights, biases = sp[self._lnn_slots], self.flat[self._lnn_bias]
            eff["ops"] = [(weights[at].reshape(shape), biases[bt, None]) for at, shape, bt in self._lnn_views]
            eff["dsig"] = sig[self._lnn_slots]
        self._eff_key, self._eff = key, eff
        return eff

    def _compile(self, postorder: list[Node]) -> None:
        column = {name: i for i, name in enumerate(self.feature_names)}
        raws = [n for n in self.nodes if isinstance(n, RawLeaf)]
        tls = [n for n in self.nodes if isinstance(n, ThresholdLeaf)]
        self._raw_uids, self._raw_cols = np.array([(n.uid, column[n.feature]) for n in raws], np.intp).reshape(-1, 2).T
        self._tl_uids, self._tl_cols = np.array([(n.uid, column[n.feature]) for n in tls], np.intp).reshape(-1, 2).T
        self._theta_fixed = np.array([np.nan if n.fixed_theta is None else n.fixed_theta for n in tls], dtype=float)
        self._theta_learn = np.array([i for i, n in enumerate(tls) if n.fixed_theta is None], dtype=np.intp)
        # the learnable leaves among all threshold leaves: a view when they are all of them
        self._learn = slice(None) if len(self._theta_learn) == len(tls) else self._theta_learn
        self._learn_uids = self._tl_uids[self._theta_learn]
        code = {"lnn": _LNN, "tnorm": _TNORM, "manual": _MANUAL}[self.mode]
        gate_index = {n.uid: i for i, (_, n) in enumerate(self.gates())}
        needs_grad = {n.uid: code != _MANUAL and n.fixed_theta is None for n in tls}
        height, groups = {}, {}
        for node in postorder:
            kids = [c.uid for c in node.children]
            height[node.uid] = 1 + max((height[c] for c in kids), default=-1)
            if node.uid not in needs_grad:
                own = code == _LNN and isinstance(node, _GateNode)
                needs_grad[node.uid] = own or any(needs_grad[c] for c in kids)
            if kids:
                groups.setdefault((height[node.uid], type(node), len(kids)), []).append(node)
        self._ops, self._back_ops, lnn = [], [], []
        for (_, cls, k), nodes in sorted(groups.items(), key=lambda item: item[0][0]):
            uids = np.array([n.uid for n in nodes], dtype=np.intp)
            kids = np.array([[c.uid for c in n.children] for n in nodes], dtype=np.intp).T
            flip = cls is OrNode
            if cls is NotNode:
                op = (_NOT, uids, kids[0], None, False)
            elif code == _LNN:
                index = np.array([gate_index[n.uid] for n in nodes])
                lnn.append((self._wstart[index] + np.arange(k)[:, None], self._blocks[2].start + index))
                op = (_LNN, uids, kids, len(lnn) - 1, flip)
            elif code == _TNORM:
                op = (_TNORM, uids, kids, np.arange(k), flip)
            else:
                default = np.full(k, 1.0 / k) if flip else np.ones(k)
                weights = [default if n.manual_weights is None else n.manual_weights for n in nodes]
                op = (_MANUAL, uids, kids, np.array(weights).T[:, :, None], flip)
            self._ops.append(op)
            if any(needs_grad[n.uid] for n in nodes):
                self._back_ops.insert(0, len(self._ops) - 1)
        # every lnn op's weight slots [k, n] and bias slots [n] into flat, end
        # to end in tape order, and where each op's lie in the two
        empty = [np.empty(0, np.intp)]
        self._lnn_slots = np.concatenate([slots.ravel() for slots, _ in lnn] + empty)
        self._lnn_bias = np.concatenate([bias for _, bias in lnn] + empty)
        self._lnn_views, at, bt = [], 0, 0
        for slots, bias in lnn:
            self._lnn_views.append((slice(at, at + slots.size), slots.shape + (1,), slice(bt, bt + bias.size)))
            at, bt = at + slots.size, bt + bias.size

    def _run(self, feats: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """Run the tape over the ``[features, rows]`` matrix ``feats``; the
        root's row of the value matrix. ``cache`` receives what
        :meth:`backward` reads. Without one, rows (which do not interact) go
        through in blocks small enough to stay in cache."""
        eff = self._effective()
        if cache is None:
            if feats.shape[1] <= _BLOCK_ROWS:
                return self._tape(feats, eff)[0][0]
            blocks = range(0, feats.shape[1], _BLOCK_ROWS)
            return np.concatenate([self._tape(feats[:, i:i + _BLOCK_ROWS], eff)[0][0] for i in blocks])
        values, kept, leaves = self._tape(feats, eff)
        cache["tape"] = (values, kept, leaves, eff)
        return values[0].copy()

    def _tape(self, feats: np.ndarray, eff: dict) -> tuple:
        """The value matrix over the rows of ``feats``; per op what
        :meth:`backward` reads, ``(arr [k, n, rows], pre [n, rows])`` (None
        for NOT): ``1 - inputs`` and the pre-clamp activation for lnn, the
        inputs and their product for tnorm, the inputs and the value in
        manual mode; and the learnable threshold leaves' feature rows and
        sigmoids (None in manual mode)."""
        values = np.empty((len(self.nodes), feats.shape[1]))
        values[self._raw_uids] = feats[self._raw_cols]
        f, theta = feats[self._tl_cols], eff["theta"]
        if self.mode == "manual":
            values[self._tl_uids], leaves = np.where(f > theta, f, 0.0), None
        else:
            values[self._tl_uids], s = _threshold_core(f, theta)
            leaves = f[self._learn], s[self._learn]
        kept = []
        for code, u, kids, extra, flip in self._ops:
            if code == _NOT:
                values[u] = 1.0 - values[kids]
                kept.append(None)
                continue
            xs = values[kids]
            if code == _LNN:
                weights, bias = eff["ops"][extra]
                pre, out, comp = _and_core(1.0 - xs if flip else xs, weights, bias)
                kept.append((comp, pre))
                values[u] = 1.0 - out if flip else out
            elif code == _TNORM:
                inputs = 1.0 - xs if flip else xs
                prod = _fold(np.multiply, inputs)
                kept.append((inputs, prod))
                values[u] = 1.0 - prod if flip else prod
            else:
                values[u] = out = _fold(np.add if flip else np.multiply, extra * xs)
                kept.append((xs, out))
        return values, kept, leaves

    def check_nan(self, feats: np.ndarray) -> np.ndarray:
        """``feats``, a ``[features, rows]`` matrix in :attr:`feature_names`
        order; ValueError names the first feature holding a NaN."""
        nan = np.isnan(feats)
        if nan.any():
            raise ValueError(f"feature {self.feature_names[int(np.argmax(nan.any(axis=1)))]!r} contains NaN")
        return feats

    def stack(self, cols) -> np.ndarray:
        """The ``[features, rows]`` float matrix of a name -> column mapping,
        in :attr:`feature_names` order; a missing name raises FeatureError."""
        for name in self.feature_names:
            if name not in cols:
                raise FeatureError(f"missing feature column {name!r}")
        return np.stack([np.asarray(cols[name], dtype=float) for name in self.feature_names])

    def evaluate_batch(self, cols, cache: dict | None = None) -> np.ndarray:
        """Score every row of ``cols``: a name -> column mapping, made a
        matrix by :meth:`stack`, or a ``[features, rows]`` float matrix in
        :attr:`feature_names` order. Either is checked by :meth:`check_nan`.
        ``cache`` receives what :meth:`backward` reads."""
        return self._run(self.check_nan(cols if isinstance(cols, np.ndarray) else self.stack(cols)), cache)

    def evaluate(self, row: dict[str, float]) -> float:
        return float(self.evaluate_batch({k: [v] for k, v in row.items()})[0])

    def _forward(self, node: Node, cols, cache: dict) -> np.ndarray:
        """``node``'s values over ``cols``, filling ``cache[uid] = (inputs,
        pre)`` for every gate (``pre`` is the product in tnorm mode and the
        value in manual mode), for callers that inspect pre-activations."""
        state: dict = {}
        self.evaluate_batch(cols, state)
        values, kept, _, _ = state["tape"]
        for (code, uids, kids, _, flip), keep in zip(self._ops, kept):
            for i, (u, k) in enumerate(zip(uids.tolist(), kids.T if code != _NOT else ())):
                cache[u] = (1.0 - values[k] if flip and code != _MANUAL else values[k], keep[1][i])
        return values[node.uid]

    def backward(self, cache: dict, dout: np.ndarray, grads: np.ndarray) -> None:
        """Accumulate d(loss)/d(raw parameter) into the flat ``grads``.

        ``cache`` holds the intermediates of the :meth:`evaluate_batch` call
        that produced the scores, made with the current parameters; ``dout``
        is d(loss)/d(score) per row. The sub-gradient at clamp kinks is zero.
        """
        if self.mode == "manual":
            return
        values, kept, leaves, eff = cache["tape"]
        dvalues = np.zeros(values.shape)  # rows no gradient reaches stay 0
        dvalues[0] = dout
        dw, db = [], []  # per lnn op, last op first
        for j in self._back_ops:
            code, u, kids, extra, flip = self._ops[j]
            g = dvalues[u]
            if code == _NOT:
                dvalues[kids] = -g
                continue
            arr, pre = kept[j]  # arr: 1 - inputs for lnn, the inputs for tnorm
            if code == _LNN:
                live = (pre > 0.0) & (pre < 1.0)
                ge = (-g if flip else g) * live
                db.append(ge.sum(axis=1))
                dw.append((ge[None] * arr).sum(axis=2).ravel())
                dx_inner = ge[None] * eff["ops"][extra][0]
                dvalues[kids] = -dx_inner if flip else dx_inner
            else:  # tnorm: for or, the two sign flips (1-x in, 1-prod out) cancel
                # terms[i] is the inputs with input i set to 1.0; folding it
                # multiplies the other inputs in order, exactly
                terms = np.repeat(arr[None], len(extra), axis=0)
                terms[extra, extra] = 1.0
                dvalues[kids] = g * _fold(np.multiply, terms.swapaxes(0, 1))
        # every lnn op is on the backward tape (its own parameters learn), and
        # a slot belongs to one op, so one scatter adds what one per op would
        if dw:
            grads[self._lnn_slots] += -np.concatenate(dw[::-1]) * eff["dsig"]
            grads[self._lnn_bias] += np.concatenate(db[::-1])
        if len(self._learn_uids):
            f, s = leaves
            # d(f*s)/dgamma = f * s(1-s) * (-1) * theta(1-theta)
            grads[self._gamma0:] += (dvalues[self._learn_uids] * f * s * (1.0 - s)).sum(axis=1) * eff["dgamma"]

    def residual_sum(self) -> float:
        if self.mode != "lnn" or not self._arity:
            return 0.0
        eff = self._effective()
        per_gate = np.empty(len(self._arity))
        for idx, cols in self._by_arity:
            per_gate[idx] = _residuals(eff["r0"][idx], eff["ri"][cols]).sum(axis=1)
        return float(sum(per_gate.tolist()))
