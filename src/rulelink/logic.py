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

Default initialization for fresh gates: effective weights 1, bias 1, raw
slacks 0 (effective ln 2), gamma 0 (theta 0.5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompileError, FeatureError

MODES = ("lnn", "tnorm", "manual")

# softplus(x) underflows to exactly 0.0 below this, giving exact zero slacks
_NEG_CAP = -800.0


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:  # same two formulas as the masked path, without the masks
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x):
    x = np.asarray(x, dtype=float)
    out = np.logaddexp(0.0, x)
    if out.ndim == 0:
        return float(out)
    return out


def softplus_inverse(y):
    """Raw value r with softplus(r) = y; y = 0 maps to a deep negative cap."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("softplus inverse needs non-negative values")
    with np.errstate(divide="ignore"):
        out = np.where(y > 0, y + np.log1p(-np.exp(-np.maximum(y, 1e-300))), _NEG_CAP)
    out = np.maximum(out, _NEG_CAP)
    if out.ndim == 0:
        return float(out)
    return out


class GateParams:
    """Learnable parameters of one weighted gate.

    Stores raw (pre-softplus) weights and slacks plus a free bias; the
    effective values are exposed as properties. Raw arrays are mutated in
    place by the optimizer.
    """

    def __init__(self, arity: int, raw_weights=None, bias: float = 1.0, raw_slacks=None, raw_slack_big: float = 0.0):
        if arity < 1:
            raise ValueError("gate arity must be >= 1")
        self.raw_weights = (
            np.full(arity, softplus_inverse(1.0), dtype=float)
            if raw_weights is None
            else np.asarray(raw_weights, dtype=float).copy()
        )
        if self.raw_weights.shape != (arity,):
            raise ValueError(f"raw_weights must have shape ({arity},)")
        self.bias = np.asarray(float(bias))
        self.raw_slacks = (
            np.zeros(arity, dtype=float)
            if raw_slacks is None
            else np.asarray(raw_slacks, dtype=float).copy()
        )
        if self.raw_slacks.shape != (arity,):
            raise ValueError(f"raw_slacks must have shape ({arity},)")
        self.raw_slack_big = np.asarray(float(raw_slack_big))

    @classmethod
    def from_effective(cls, weights, bias: float = 1.0, slacks=None, slack_big: float = 0.0) -> "GateParams":
        weights = np.asarray(weights, dtype=float)
        arity = weights.shape[0]
        slacks = np.zeros(arity) if slacks is None else np.asarray(slacks, dtype=float)
        return cls(
            arity,
            raw_weights=softplus_inverse(weights),
            bias=bias,
            raw_slacks=softplus_inverse(slacks),
            raw_slack_big=softplus_inverse(slack_big),
        )

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


@dataclass
class ManualWeights:
    """Hand-assigned rule and feature weights for the no-learning scorer."""

    rule_weights: list[float]
    feature_weights: list[float]


def _check_unit(values, what: str):
    arr = np.asarray(values, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{what} contains NaN")
    return arr


def _fold(op, terms):
    """Reduce over the children axis left to right. numpy's ``sum`` pairs
    terms up when that axis is contiguous (a one-row batch), which would
    score a row differently alone than inside a larger batch."""
    acc = terms[0]
    for term in terms[1:]:
        acc = op(acc, term)
    return acc


def _and_core(inputs: np.ndarray, weights: np.ndarray, bias: float):
    """Pre-clamp activation and clamped value of the weighted conjunction."""
    w = weights[:, None] if inputs.ndim == 2 else weights
    pre = bias - _fold(np.add, (1.0 - inputs) * w)
    return pre, np.clip(pre, 0.0, 1.0)


def lnn_and(inputs, g: GateParams) -> float:
    """clamp(beta - sum_i w_i (1 - x_i)) for inputs in [0,1]."""
    arr = _check_unit(inputs, "lnn_and inputs")
    if arr.shape[0] != g.arity:
        raise ValueError(f"expected {g.arity} inputs, got {arr.shape[0]}")
    _, val = _and_core(arr, g.weights, float(g.bias))
    return float(val)


def lnn_or(inputs, g: GateParams) -> float:
    """De Morgan dual: 1 - lnn_and(1 - inputs, g)."""
    arr = _check_unit(inputs, "lnn_or inputs")
    return 1.0 - lnn_and(1.0 - arr, g)


def lnn_not(x: float) -> float:
    return 1.0 - x


def tnorm_and(inputs) -> float:
    arr = _check_unit(inputs, "tnorm_and inputs")
    return float(np.prod(arr))


def tnorm_or(inputs) -> float:
    arr = _check_unit(inputs, "tnorm_or inputs")
    return float(1.0 - np.prod(1.0 - arr))


def threshold_gate(f: float, t: ThresholdParams) -> float:
    """Smooth predicate score TL(f, theta) = f * sigmoid(f - theta)."""
    theta = t.theta
    return float(f * sigmoid(np.asarray(f - theta)))


def _hinge_inputs(g: GateParams, alpha: float):
    """Pre-activations (r0, r_i) of the truth-semantics hinges of one gate.

    r0 is positive when the bias is too small for true inputs to stay true,
    r_i when it is too large for false input i to pull the gate down:
        r0  = alpha - (beta - (1-alpha) sum w + Delta)
        r_i = (beta - alpha w_i) - (1 - alpha + delta_i)
    """
    w = g.weights
    beta = float(g.bias)
    r0 = alpha - (beta - (1.0 - alpha) * w.sum() + g.slack_big)
    return r0, (beta - alpha * w) - (1.0 - alpha + g.slacks)


def constraint_residuals(g: GateParams, alpha: float) -> np.ndarray:
    """Hinge residuals max(0, r0), max(0, r_i); zero iff the gate is consistent."""
    if not 0.5 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [1/2, 1], got {alpha}")
    r0, ri = _hinge_inputs(g, alpha)
    return np.concatenate(([max(0.0, r0)], np.maximum(0.0, ri)))


def penalty_grads(graph: "ScoringGraph", lam: float, grads: dict) -> None:
    """Add d(lam * residual sum)/d(raw parameter) to ``grads`` (lnn mode only)."""
    if graph.mode != "lnn" or lam == 0.0:
        return
    for name, node in graph.gates():
        gate = node.gate
        r0, ri = _hinge_inputs(gate, graph.alpha)
        r0_active = r0 > 0.0
        ri_active = ri > 0.0
        dbeta = lam * (-1.0 * r0_active + ri_active.sum())
        drho = lam * (
            r0_active * (1.0 - graph.alpha) - graph.alpha * ri_active
        ) * sigmoid(gate.raw_weights)
        ddelta = lam * (-1.0) * ri_active * sigmoid(gate.raw_slacks)
        dbig = lam * (-1.0) * r0_active * sigmoid(gate.raw_slack_big)
        grads[f"{name}.beta"] = grads.get(f"{name}.beta", 0.0) + dbeta
        grads[f"{name}.rho"] = grads.get(f"{name}.rho", 0.0) + drho
        grads[f"{name}.delta"] = grads.get(f"{name}.delta", 0.0) + ddelta
        grads[f"{name}.Delta"] = grads.get(f"{name}.Delta", 0.0) + dbig


def manual_score(rule_values, mw: ManualWeights) -> float:
    """Fixed-weight scorer: sum_i rw_i * prod_j (fw_ij * f_ij).

    ``rule_values`` is one feature-value vector per rule; feature weights
    are consumed flat, in rule order.
    """
    flat = list(mw.feature_weights)
    needed = sum(len(vals) for vals in rule_values)
    if len(mw.rule_weights) != len(rule_values) or len(flat) != needed:
        raise ValueError("manual weight lengths do not match rule values")
    total = 0.0
    pos = 0
    for rw, vals in zip(mw.rule_weights, rule_values):
        prod = 1.0
        for v in vals:
            prod *= flat[pos] * v
            pos += 1
        total += rw * prod
    return total


# --- scoring graph nodes ----------------------------------------------------


class Node:
    children: tuple = ()
    uid: int = -1


class _GateNode(Node):
    def __init__(self, children, gate: GateParams | None = None, manual_weights=None):
        self.children = tuple(children)
        self.gate = gate if gate is not None else GateParams(len(self.children))
        if self.gate.arity != len(self.children):
            raise ValueError(
                f"gate arity {self.gate.arity} does not match {len(self.children)} children"
            )
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
        if self.fixed_theta is not None:
            return self.fixed_theta
        return self.params.theta


class RawLeaf(Node):
    kind = "raw"

    def __init__(self, feature: str):
        self.children = ()
        self.feature = feature


class ScoringGraph:
    """A compiled rule tree plus evaluation mode and truth semantics.

    ``mode`` selects operator behavior: ``lnn`` (weighted gates, all
    parameters learnable), ``tnorm`` (product t-norm gates, only thresholds
    learnable) or ``manual`` (fixed weights, hard thresholds, nothing
    learnable).
    """

    def __init__(self, root: Node, alpha: float = 0.7, mode: str = "lnn"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.5 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [1/2, 1), got {alpha}")
        self.root = root
        self.alpha = float(alpha)
        self.mode = mode
        self.nodes: list[Node] = []
        self._index(root)
        seen: list[str] = []
        for node in self.nodes:
            if isinstance(node, (ThresholdLeaf, RawLeaf)) and node.feature not in seen:
                seen.append(node.feature)
        self.feature_names = seen

    def _index(self, node: Node) -> None:
        node.uid = len(self.nodes)
        self.nodes.append(node)
        for child in node.children:
            self._index(child)

    # -- parameters -----------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Raw parameter arrays in deterministic preorder, keyed by name.

        The arrays are the live storage; optimizers update them in place.
        """
        params: dict[str, np.ndarray] = {}
        for node in self.nodes:
            name = f"n{node.uid}"
            if isinstance(node, (AndNode, OrNode)) and self.mode == "lnn":
                params[f"{name}.rho"] = node.gate.raw_weights
                params[f"{name}.beta"] = node.gate.bias
                params[f"{name}.delta"] = node.gate.raw_slacks
                params[f"{name}.Delta"] = node.gate.raw_slack_big
            elif isinstance(node, ThresholdLeaf) and node.fixed_theta is None and self.mode != "manual":
                params[f"{name}.gamma"] = node.params.gamma
        return params

    def gates(self) -> list[tuple[str, Node]]:
        return [
            (f"n{n.uid}", n) for n in self.nodes if isinstance(n, (AndNode, OrNode))
        ]

    # -- evaluation ------------------------------------------------------

    def evaluate_batch(self, cols: dict[str, np.ndarray], cache: dict | None = None) -> np.ndarray:
        """Score every row of ``cols``; ``cache`` receives what :meth:`backward` reads."""
        for name in self.feature_names:
            if name not in cols:
                raise FeatureError(f"missing feature column {name!r}")
        return self._forward(self.root, cols, {} if cache is None else cache)

    def evaluate(self, row: dict[str, float]) -> float:
        cols = {k: np.asarray([v], dtype=float) for k, v in row.items()}
        return float(self.evaluate_batch(cols)[0])

    def _forward(self, node: Node, cols, cache) -> np.ndarray:
        if isinstance(node, RawLeaf):
            val = np.asarray(cols[node.feature], dtype=float)
            if np.any(np.isnan(val)):
                raise ValueError(f"feature {node.feature!r} contains NaN")
        elif isinstance(node, ThresholdLeaf):
            f = np.asarray(cols[node.feature], dtype=float)
            if np.any(np.isnan(f)):
                raise ValueError(f"feature {node.feature!r} contains NaN")
            if self.mode == "manual":
                val = np.where(f > node.theta, f, 0.0)
            else:
                s = sigmoid(f - node.theta)
                val = f * s
                cache[node.uid] = (f, s)
        elif isinstance(node, NotNode):
            val = 1.0 - self._forward(node.children[0], cols, cache)
        elif isinstance(node, (AndNode, OrNode)):
            xs = np.stack([self._forward(c, cols, cache) for c in node.children])
            flip = isinstance(node, OrNode)
            if self.mode == "lnn":
                inputs = 1.0 - xs if flip else xs
                pre, out = _and_core(inputs, node.gate.weights, float(node.gate.bias))
                val = 1.0 - out if flip else out
                cache[node.uid] = (inputs, pre)
            elif self.mode == "tnorm":
                inputs = 1.0 - xs if flip else xs
                prod = _fold(np.multiply, inputs)
                val = 1.0 - prod if flip else prod
                cache[node.uid] = (inputs, prod)
            else:
                w = node.manual_weights
                if w is None:
                    k = len(node.children)
                    w = np.full(k, 1.0 / k) if flip else np.ones(k)
                val = _fold(np.add if flip else np.multiply, w[:, None] * xs)
                cache[node.uid] = (xs, w)
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        return val

    def backward(self, cache: dict, dout: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Accumulate d(loss)/d(raw parameter) into ``grads``.

        ``cache`` holds the intermediates of the :meth:`evaluate_batch` call
        that produced the scores, made with the current parameters; ``dout``
        is d(loss)/d(score) per row. The sub-gradient at clamp kinks is zero.
        """
        if self.mode == "manual":
            return
        self._backward(self.root, np.asarray(dout, dtype=float), cache, grads)

    def _backward(self, node: Node, g: np.ndarray, cache, grads) -> None:
        name = f"n{node.uid}"
        if isinstance(node, RawLeaf):
            return
        if isinstance(node, ThresholdLeaf):
            if node.fixed_theta is None and self.mode != "manual":
                f, s = cache[node.uid]
                theta = node.params.theta
                # d(f*s)/dgamma = f * s(1-s) * (-1) * theta(1-theta)
                dgamma = (g * f * s * (1.0 - s)).sum() * (-(theta * (1.0 - theta)))
                grads[f"{name}.gamma"] = grads.get(f"{name}.gamma", 0.0) + dgamma
            return
        if isinstance(node, NotNode):
            self._backward(node.children[0], -g, cache, grads)
            return
        flip = isinstance(node, OrNode)
        if self.mode == "lnn":
            inputs, pre = cache[node.uid]
            gate = node.gate
            w = gate.weights
            live = (pre > 0.0) & (pre < 1.0)
            ge = (-g if flip else g) * live
            grads[f"{name}.beta"] = grads.get(f"{name}.beta", 0.0) + ge.sum()
            dw = -(ge[None, :] * (1.0 - inputs)).sum(axis=1)
            grads[f"{name}.rho"] = grads.get(f"{name}.rho", 0.0) + dw * sigmoid(gate.raw_weights)
            dx_inner = ge[None, :] * w[:, None]
            dx = -dx_inner if flip else dx_inner
        else:  # tnorm: for or, the two sign flips (1-x in, 1-prod out) cancel
            inputs, _ = cache[node.uid]
            k = inputs.shape[0]
            dx = np.empty_like(inputs)
            for i in range(k):
                others = np.prod(np.delete(inputs, i, axis=0), axis=0) if k > 1 else np.ones_like(g)
                dx[i] = g * others
        for child, gc in zip(node.children, dx):
            self._backward(child, gc, cache, grads)

    # -- residuals -------------------------------------------------------

    def residual_sum(self) -> float:
        if self.mode != "lnn":
            return 0.0
        return float(
            sum(constraint_residuals(n.gate, self.alpha).sum() for _, n in self.gates())
        )

    # -- serialization ----------------------------------------------------

    def _node_to_json(self, node: Node) -> dict:
        """Raw parameters only; effective values are derived on load."""
        if isinstance(node, RawLeaf):
            return {"kind": "raw", "feature": node.feature}
        if isinstance(node, ThresholdLeaf):
            if node.fixed_theta is not None:
                return {"kind": "tl", "feature": node.feature, "fixed_theta": node.fixed_theta}
            return {"kind": "tl", "feature": node.feature, "gamma": float(node.params.gamma)}
        if isinstance(node, NotNode):
            return {"kind": "not", "child": self._node_to_json(node.children[0])}
        gate = node.gate
        obj = {
            "kind": node.kind,
            "children": [self._node_to_json(c) for c in node.children],
            "raw_weights": [float(v) for v in gate.raw_weights],
            "beta": float(gate.bias),
            "raw_slacks": [float(v) for v in gate.raw_slacks],
            "raw_slack_big": float(gate.raw_slack_big),
        }
        if node.manual_weights is not None:
            obj["manual_weights"] = [float(v) for v in node.manual_weights]
        return obj

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "mode": self.mode, "root": self._node_to_json(self.root)}

    @classmethod
    def _node_from_json(cls, obj: dict) -> Node:
        # Kind first; a missing field or wrong type is reported by load_model.
        kind = obj["kind"]
        if kind in ("raw", "tl") and not isinstance(obj["feature"], str):
            raise CompileError(f"{kind} node feature is not a string")
        if kind == "raw":
            return RawLeaf(obj["feature"])
        if kind == "tl":
            fixed = "fixed_theta" in obj
            value = float(obj["fixed_theta" if fixed else "gamma"])
            if not np.isfinite(value):
                raise CompileError("tl node has a non-finite parameter")
            if fixed:
                return ThresholdLeaf(obj["feature"], fixed_theta=value)
            return ThresholdLeaf(obj["feature"], params=ThresholdParams(value))
        if kind == "not":
            return NotNode(cls._node_from_json(obj["child"]))
        if kind not in ("and", "or"):
            raise CompileError(f"unknown node kind {kind!r} in checkpoint")
        children = [cls._node_from_json(c) for c in obj["children"]]
        gate = GateParams(len(children), raw_weights=obj["raw_weights"], bias=obj["beta"],
                          raw_slacks=obj["raw_slacks"], raw_slack_big=obj["raw_slack_big"])
        manual = obj.get("manual_weights")
        if manual is not None and len(manual) != len(children):
            raise CompileError(f"{kind} node has {len(manual)} manual weights for {len(children)} children")
        values = [gate.raw_weights, gate.raw_slacks, [gate.bias, gate.raw_slack_big], manual or []]
        if not np.isfinite(np.concatenate(values).astype(float)).all():
            raise CompileError(f"{kind} node has a non-finite parameter")
        node_cls = AndNode if kind == "and" else OrNode
        return node_cls(children, gate=gate, manual_weights=manual)

    @classmethod
    def from_json(cls, obj: dict) -> "ScoringGraph":
        return cls(cls._node_from_json(obj["root"]), alpha=obj["alpha"], mode=obj["mode"])
