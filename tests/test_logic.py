import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulelink.errors import FeatureError
from rulelink.logic import (
    AndNode,
    GateParams,
    NotNode,
    OrNode,
    RawLeaf,
    ScoringGraph,
    ThresholdLeaf,
    ThresholdParams,
    constraint_residuals,
    lnn_and,
    lnn_not,
    lnn_or,
    sigmoid,
    softplus,
    softplus_inverse,
    threshold_gate,
    tnorm_and,
    tnorm_or,
)
from rulelink.training import graph_from_json, graph_to_json

unit = st.floats(min_value=0.0, max_value=1.0)


def default_gate(arity=2):
    return GateParams.from_effective(np.ones(arity), bias=1.0)


class TestSoftplus:
    def test_inverse_round_trip(self):
        for y in (0.1, 1.0, 2.5, 10.0):
            assert softplus(softplus_inverse(y)) == pytest.approx(y, rel=1e-12)

    def test_zero_maps_to_exact_zero(self):
        assert softplus(softplus_inverse(0.0)) == 0.0


class TestLnnAnd:
    def test_boolean_corners(self):
        g = default_gate()
        assert lnn_and([1.0, 1.0], g) == 1.0
        assert lnn_and([0.0, 1.0], g) == 0.0
        assert lnn_and([1.0, 0.0], g) == 0.0
        assert lnn_and([0.0, 0.0], g) == 0.0

    def test_interior_value(self):
        assert lnn_and([0.8, 0.9], default_gate()) == pytest.approx(0.7)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            lnn_and([float("nan"), 1.0], default_gate())

    @given(
        st.lists(unit, min_size=2, max_size=4),
        st.floats(-3, 5),
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    )
    def test_output_in_unit_interval(self, inputs, bias, raw_w):
        g = GateParams(len(inputs), raw_weights=raw_w[: len(inputs)], bias=bias)
        assert 0.0 <= lnn_and(inputs, g) <= 1.0

    @given(st.lists(unit, min_size=2, max_size=2))
    def test_monotone_in_each_input(self, inputs):
        g = default_gate()
        base = lnn_and(inputs, g)
        for i in range(2):
            bumped = list(inputs)
            bumped[i] = min(1.0, bumped[i] + 0.1)
            assert lnn_and(bumped, g) >= base - 1e-12


class TestLnnOr:
    def test_boolean_corners(self):
        g = default_gate()
        assert lnn_or([0.0, 0.0], g) == 0.0
        assert lnn_or([1.0, 0.0], g) == 1.0
        assert lnn_or([1.0, 1.0], g) == 1.0

    def test_interior_value_via_de_morgan(self):
        # 1 - and(0.8, 0.9) with unit weights = 1 - 0.7
        assert lnn_or([0.2, 0.1], default_gate()) == pytest.approx(0.3)

    @given(
        st.lists(unit, min_size=2, max_size=4),
        st.floats(-3, 5),
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    )
    def test_de_morgan_identity_exact(self, inputs, bias, raw_w):
        g = GateParams(len(inputs), raw_weights=raw_w[: len(inputs)], bias=bias)
        lhs = lnn_or(inputs, g)
        rhs = 1.0 - lnn_and([1.0 - x for x in inputs], g)
        assert lhs == rhs


class TestNotAndTnorm:
    def test_not(self):
        assert lnn_not(0.0) == 1.0
        assert lnn_not(1.0) == 0.0
        assert lnn_not(0.3) == 0.7

    def test_tnorm_values(self):
        assert tnorm_and([0.5, 0.5]) == 0.25
        assert tnorm_and([1.0, 0.37]) == 0.37
        assert tnorm_or([0.5, 0.5]) == 0.75

    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=5))
    def test_tnorm_boolean_agreement(self, bits):
        assert tnorm_and(bits) == float(all(bits))
        assert tnorm_or(bits) == float(any(bits))


class TestThresholdGate:
    def test_zero_input_always_zero(self):
        for gamma in (-5.0, 0.0, 5.0):
            assert threshold_gate(0.0, ThresholdParams(gamma)) == 0.0

    def test_reference_value(self):
        assert threshold_gate(0.7, ThresholdParams(0.0)) == pytest.approx(0.38488, abs=1e-5)

    def test_theta_near_one_limit(self):
        # theta -> 1 from below: TL(1, theta) -> sigmoid(0+) = 0.5
        val = threshold_gate(1.0, ThresholdParams(12.0))
        assert val == pytest.approx(0.5, abs=1e-4)

    @given(st.floats(0.01, 1.0), st.floats(-4, 4))
    def test_strictly_increasing_in_f(self, f, gamma):
        t = ThresholdParams(gamma)
        smaller = threshold_gate(max(f - 0.01, 0.001), t)
        assert threshold_gate(f, t) > smaller

    @given(st.floats(1e-3, 1.0), st.floats(-4, 4))
    def test_decreasing_in_theta(self, f, gamma):
        lo, hi = ThresholdParams(gamma), ThresholdParams(gamma + 0.5)
        assert threshold_gate(f, hi) < threshold_gate(f, lo)


class TestConstraintResiduals:
    def test_violated_default_gate(self):
        g = GateParams.from_effective([1.0, 1.0], bias=1.0, slacks=[0.0, 0.0], slack_big=0.0)
        r = constraint_residuals(g, 0.7)
        assert r[0] == pytest.approx(0.3, abs=1e-12)
        assert r[1] == pytest.approx(0.0)
        assert r[2] == pytest.approx(0.0)

    def test_boundary_bias(self):
        g = GateParams.from_effective([1.0, 1.0], bias=1.3, slacks=[0.0, 0.0], slack_big=0.0)
        assert constraint_residuals(g, 0.7)[0] == pytest.approx(0.0, abs=1e-12)

    def test_huge_slacks_absorb_everything(self):
        g = GateParams.from_effective([9.0, 0.1], bias=4.0, slacks=[50.0, 50.0], slack_big=50.0)
        assert constraint_residuals(g, 0.7).tolist() == [0.0, 0.0, 0.0]

    def _feasible_sample(self, rng, alpha=0.7):
        # zero-slack feasibility at alpha=0.7 needs arity 2 and w >= 4-ish
        while True:
            w = rng.uniform(4.0, 9.0, size=2)
            lo = alpha + (1 - alpha) * w.sum()
            hi = 1 - alpha + alpha * w.min()
            if lo <= hi:
                beta = rng.uniform(lo, hi)
                return GateParams.from_effective(w, bias=beta, slacks=[0.0, 0.0], slack_big=0.0)

    def test_alpha_semantics_on_satisfying_params(self):
        rng = np.random.default_rng(11)
        alpha = 0.7
        for _ in range(200):
            g = self._feasible_sample(rng, alpha)
            assert constraint_residuals(g, alpha).sum() < 1e-9
            x = rng.uniform(alpha, 1.0, size=2)
            assert lnn_and(x, g) >= alpha - 1e-9
            low = rng.uniform(0.0, 1 - alpha)
            assert lnn_and([low, 1.0], g) <= 1 - alpha + 1e-9
            assert lnn_and([1.0, low], g) <= 1 - alpha + 1e-9


class TestEvaluateGraph:
    def test_identity_graph(self):
        graph = ScoringGraph(RawLeaf("prom"))
        assert graph.evaluate({"prom": 0.8}) == 0.8

    def test_composed_example_cross_checked(self):
        # independent calculator: sigma written out by hand
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        tl = 0.7 * sig(0.7 - 0.5)
        expected = min(1.0, max(0.0, 1.0 - (1.0 - tl) - (1.0 - tl)))
        graph = ScoringGraph(AndNode([ThresholdLeaf("jacc"), ThresholdLeaf("ctx")]))
        got = graph.evaluate({"jacc": 0.7, "ctx": 0.7})
        assert got == pytest.approx(expected)
        assert got == 0.0

    def test_tnorm_mode_ignores_gate_params(self):
        node = AndNode([RawLeaf("a"), RawLeaf("b")], gate=GateParams.from_effective([7.0, 0.2], bias=3.0))
        graph = ScoringGraph(node, mode="tnorm")
        assert graph.evaluate({"a": 0.5, "b": 0.5}) == 0.25

    def test_missing_feature_names_leaf(self):
        graph = ScoringGraph(RawLeaf("prom"))
        with pytest.raises(FeatureError, match="prom"):
            graph.evaluate({"other": 0.5})

    def test_not_node(self):
        graph = ScoringGraph(NotNode(RawLeaf("a")))
        assert graph.evaluate({"a": 0.3}) == 0.7

    def test_argmax_invariance_under_unused_columns(self):
        graph = ScoringGraph(ThresholdLeaf("jacc"))
        cols = {"jacc": np.array([0.9, 0.4, 0.6]), "unused": np.array([0.1, 0.9, 0.5])}
        base = graph.evaluate_batch(cols)
        cols2 = {"jacc": cols["jacc"], "unused": cols["unused"] * 7.0}
        again = graph.evaluate_batch(cols2)
        assert np.argsort(-base).tolist() == np.argsort(-again).tolist()


class TestSigmoid:
    @given(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    ))
    def test_scalar_path_matches_array_path(self, x):
        # the array path takes x through its boolean masks; 0-d input skips them
        batch = sigmoid(np.array([x, 0.5, -x]))
        assert np.float64(sigmoid(np.asarray(x))).tobytes() == batch[0].tobytes()
        assert np.float64(sigmoid(-x)).tobytes() == batch[2].tobytes()
        assert type(sigmoid(x)) is float


    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, float("nan"), -float("nan")]),
    ), min_size=1, max_size=40))
    def test_array_path_matches_the_masked_formulas(self, xs):
        # each formula applied to its own elements only, as sigmoid once did
        x = np.array(xs).reshape(1, -1)
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert sigmoid(x).tobytes() == expected.tobytes()


class TestWideGateBatchIndependence:
    @pytest.mark.parametrize("mode", ["lnn", "tnorm", "manual"])
    @pytest.mark.parametrize("gate_cls", [AndNode, OrNode])
    def test_one_row_scores_as_inside_a_batch(self, mode, gate_cls):
        # numpy sums a single row's children pairwise from 8 terms on, but a
        # batch's left to right; the gate must fold them the same way for both
        rng = np.random.default_rng(11)
        for k in range(8, 40):
            gate = GateParams(k, raw_weights=rng.normal(0, 1, k), bias=rng.uniform(0.5, 0.5 * k))
            manual = rng.uniform(0.5, 1.5, k) if mode == "manual" else None
            leaves = [RawLeaf(f"f{i}") for i in range(k)]
            graph = ScoringGraph(gate_cls(leaves, gate=gate, manual_weights=manual), mode=mode)
            cols = {f"f{i}": np.where(rng.random(6) < 0.3, 1.0, rng.random(6)) for i in range(k)}
            batch = graph.evaluate_batch(cols)
            for row in range(6):
                alone = graph.evaluate_batch({n: c[row:row + 1] for n, c in cols.items()})
                assert alone.tobytes() == batch[row:row + 1].tobytes(), (k, row)


def _manual_rules(rule_weights, rules):
    """A manual-mode graph: an OR of weighted AND rules over raw features.
    ``rules`` holds one list of (feature, weight) pairs per rule."""
    ands = [AndNode([RawLeaf(f) for f, _ in rule], manual_weights=[w for _, w in rule]) for rule in rules]
    return ScoringGraph(OrNode(ands, manual_weights=rule_weights), mode="manual")


class TestManualScore:
    # sum_i rw_i * prod_j (fw_ij * f_ij), written out by hand

    def test_single_rule(self):
        graph = _manual_rules([1.0], [[("jacc", 1.0), ("ctx", 1.0)]])
        assert graph.evaluate({"jacc": 0.7, "ctx": 0.5}) == pytest.approx(0.35)

    def test_zero_rule_weights(self):
        graph = _manual_rules([0.0, 0.0], [[("jacc", 1.0)], [("ctx", 1.0)]])
        assert graph.evaluate({"jacc": 0.9, "ctx": 0.4}) == 0.0

    def test_split_rule_weight_linearity(self):
        row = {"jacc": 0.7, "ctx": 0.5, "lev": 0.7, "prom": 0.5}
        one = _manual_rules([1.0], [[("jacc", 1.0), ("ctx", 1.0)]]).evaluate(row)
        two = _manual_rules([0.5, 0.5], [[("jacc", 1.0), ("ctx", 1.0)], [("lev", 1.0), ("prom", 1.0)]]).evaluate(row)
        assert one == pytest.approx(two)

    def test_manual_graph_matches_flat_formula(self):
        r1 = AndNode([RawLeaf("jacc"), RawLeaf("ctx")], manual_weights=[0.9, 0.8])
        r2 = AndNode([RawLeaf("lev"), RawLeaf("prom")], manual_weights=[0.7, 0.6])
        root = OrNode([r1, r2], manual_weights=[0.4, 0.6])
        graph = ScoringGraph(root, mode="manual")
        row = {"jacc": 0.7, "ctx": 0.5, "lev": 0.9, "prom": 0.2}
        expected = 0.4 * (0.9 * 0.7) * (0.8 * 0.5) + 0.6 * (0.7 * 0.9) * (0.6 * 0.2)
        assert graph.evaluate(row) == pytest.approx(expected)

    def test_manual_threshold_is_hard_gate(self):
        graph = ScoringGraph(ThresholdLeaf("f", fixed_theta=0.5), mode="manual")
        assert graph.evaluate({"f": 0.4}) == 0.0
        assert graph.evaluate({"f": 0.6}) == 0.6


class TestGraphSerialization:
    def test_round_trip_preserves_scores(self):
        root = OrNode(
            [
                AndNode([ThresholdLeaf("jacc"), RawLeaf("prom")]),
                NotNode(ThresholdLeaf("ctx", fixed_theta=0.4)),
            ]
        )
        graph = ScoringGraph(root, alpha=0.8)
        graph.parameters()["n1.rho"][0] = 0.33
        obj = graph_to_json(graph)
        again = graph_from_json(obj)
        row = {"jacc": 0.61, "prom": 0.37, "ctx": 0.52}
        assert again.evaluate(row) == graph.evaluate(row)
        assert graph_to_json(again) == obj


class TestRandomizedOperatorSuite:
    def test_random_draw_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            arity = int(rng.integers(2, 5))
            g = GateParams(
                arity,
                raw_weights=rng.normal(0.5, 1.0, size=arity),
                bias=rng.normal(1.0, 1.0),
                raw_slacks=rng.normal(0, 1, size=arity),
                raw_slack_big=rng.normal(0, 1),
            )
            x = rng.uniform(0, 1, size=arity)
            a = lnn_and(x, g)
            o = lnn_or(x, g)
            assert 0.0 <= a <= 1.0
            assert 0.0 <= o <= 1.0
            assert abs(o - (1.0 - lnn_and(1.0 - x, g))) < 1e-12
