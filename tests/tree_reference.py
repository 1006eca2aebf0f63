"""Reference oracle: the recursive graph walk the tape replaced.

Each function recomputes what ``ScoringGraph`` and ``rulelink.training``
compute, by walking the node tree recursively and reading every gate's
parameters through its own ``GateParams``/``ThresholdParams`` objects,
with gradients kept in a dict keyed by parameter name. The exactness
tests compare the tape against it by ``tobytes()``.
"""
from __future__ import annotations

import numpy as np

from rulelink.logic import (
    AndNode,
    NotNode,
    OrNode,
    RawLeaf,
    ThresholdLeaf,
    sigmoid,
)
from rulelink.training import descend, margin_loss


def _fold(op, terms):
    acc = terms[0]
    for term in terms[1:]:
        acc = op(acc, term)
    return acc


def _and_core(inputs, weights, bias):
    w = weights[:, None] if inputs.ndim == 2 else weights
    pre = bias - _fold(np.add, (1.0 - inputs) * w)
    return pre, np.clip(pre, 0.0, 1.0)


def forward(graph, node, cols, cache):
    if isinstance(node, RawLeaf):
        val = np.asarray(cols[node.feature], dtype=float)
        if np.any(np.isnan(val)):
            raise ValueError(f"feature {node.feature!r} contains NaN")
    elif isinstance(node, ThresholdLeaf):
        f = np.asarray(cols[node.feature], dtype=float)
        if np.any(np.isnan(f)):
            raise ValueError(f"feature {node.feature!r} contains NaN")
        if graph.mode == "manual":
            val = np.where(f > node.theta, f, 0.0)
        else:
            s = sigmoid(f - node.theta)
            val = f * s
            cache[node.uid] = (f, s)
    elif isinstance(node, NotNode):
        val = 1.0 - forward(graph, node.children[0], cols, cache)
    elif isinstance(node, (AndNode, OrNode)):
        xs = np.stack([forward(graph, c, cols, cache) for c in node.children])
        flip = isinstance(node, OrNode)
        if graph.mode == "lnn":
            inputs = 1.0 - xs if flip else xs
            pre, out = _and_core(inputs, node.gate.weights, float(node.gate.bias))
            val = 1.0 - out if flip else out
            cache[node.uid] = (inputs, pre)
        elif graph.mode == "tnorm":
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


def backward(graph, node, g, cache, grads):
    name = f"n{node.uid}"
    if isinstance(node, RawLeaf):
        return
    if isinstance(node, ThresholdLeaf):
        if node.fixed_theta is None and graph.mode != "manual":
            f, s = cache[node.uid]
            theta = node.params.theta
            dgamma = (g * f * s * (1.0 - s)).sum() * (-(theta * (1.0 - theta)))
            grads[f"{name}.gamma"] = grads.get(f"{name}.gamma", 0.0) + dgamma
        return
    if isinstance(node, NotNode):
        backward(graph, node.children[0], -g, cache, grads)
        return
    flip = isinstance(node, OrNode)
    if graph.mode == "lnn":
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
    else:
        inputs, _ = cache[node.uid]
        k = inputs.shape[0]
        dx = np.empty_like(inputs)
        for i in range(k):
            others = np.prod(np.delete(inputs, i, axis=0), axis=0) if k > 1 else np.ones_like(g)
            dx[i] = g * others
    for child, gc in zip(node.children, dx):
        backward(graph, child, gc, cache, grads)


def score(graph, cols):
    return forward(graph, graph.root, cols, {})


def hinge_inputs(gate, alpha):
    w = gate.weights
    beta = float(gate.bias)
    r0 = alpha - (beta - (1.0 - alpha) * w.sum() + gate.slack_big)
    return r0, (beta - alpha * w) - (1.0 - alpha + gate.slacks)


def residual_sum(graph):
    if graph.mode != "lnn":
        return 0.0
    total = 0
    for _, node in graph.gates():
        r0, ri = hinge_inputs(node.gate, graph.alpha)
        total += np.concatenate(([max(0.0, r0)], np.maximum(0.0, ri))).sum()
    return float(total)


def penalty_grads(graph, lam, grads):
    if graph.mode != "lnn" or lam == 0.0:
        return
    alpha = graph.alpha
    for name, node in graph.gates():
        gate = node.gate
        r0, ri = hinge_inputs(gate, alpha)
        r0_active = r0 > 0.0
        ri_active = ri > 0.0
        dbeta = lam * (-1.0 * r0_active + ri_active.sum())
        drho = lam * (r0_active * (1.0 - alpha) - alpha * ri_active) * sigmoid(gate.raw_weights)
        ddelta = lam * (-1.0) * ri_active * sigmoid(gate.raw_slacks)
        dbig = lam * (-1.0) * r0_active * sigmoid(gate.raw_slack_big)
        grads[f"{name}.beta"] = grads.get(f"{name}.beta", 0.0) + dbeta
        grads[f"{name}.rho"] = grads.get(f"{name}.rho", 0.0) + drho
        grads[f"{name}.delta"] = grads.get(f"{name}.delta", 0.0) + ddelta
        grads[f"{name}.Delta"] = grads.get(f"{name}.Delta", 0.0) + dbig


def mention_grads(graph, cols, labels, mu, grads, recompute=False):
    """One mention's scores; adds its margin-loss gradients to ``grads``.
    With ``recompute`` the backward pass reads a second, fresh forward walk."""
    cache = {}
    scores = forward(graph, graph.root, cols, cache)
    _, dscores = margin_loss(scores, labels, mu)
    if np.any(dscores != 0.0) and graph.mode != "manual":
        if recompute:
            cache = {}
            forward(graph, graph.root, cols, cache)
        backward(graph, graph.root, np.asarray(dscores, dtype=float), cache, grads)
    return scores


def total_loss(graph, table, ds, config):
    total = 0.0
    for inst in ds.instances:
        scores = score(graph, table.columns(inst, graph.feature_names))
        total += margin_loss(scores, inst.labels, config.mu)[0]
    return float(total + config.penalty_lambda * residual_sum(graph))


def gradients(graph, table, ds, config):
    params = graph.parameters()
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    if not params:
        return grads
    for inst in ds.instances:
        mention_grads(graph, table.columns(inst, graph.feature_names), inst.labels, config.mu, grads)
    penalty_grads(graph, config.penalty_lambda, grads)
    return {name: np.asarray(g) for name, g in grads.items()}


def train(ds, table, graph, config, recompute=False):
    """The per-mention descent of ``training.train`` over dict gradients,
    one ``params[name] -= lr * g`` per parameter name; returns the log."""
    params = graph.parameters()
    instances = list(ds.instances)

    def step(idx):
        grads = {}
        if not params:
            return (), grads
        inst = instances[idx]
        scores = mention_grads(graph, table.columns(inst, graph.feature_names), inst.labels,
                               config.mu, grads, recompute)
        penalty_grads(graph, config.penalty_lambda, grads)
        return scores, grads

    def epoch_stats():
        return {"loss": total_loss(graph, table, ds, config), "violation": residual_sum(graph)}

    return descend(params, len(instances), step, epoch_stats, config)
