import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DEEP_JSON, HUGE_JSON_INT, mutate_byte, mutate_line, outcome
from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention
from rulelink.errors import CompileError, TrainingDivergence
from rulelink.estimator import RuleLinker
from rulelink.evaluation import link
from rulelink.logic import softplus_inverse
from rulelink.ruledsl import RuleAST, builtin_templates, compile, parse
from rulelink.simfeatures import FeatureTable, ScoringBlock, build_feature_table, default_catalog
from rulelink.training import (
    Model,
    TrainConfig,
    descend,
    gradients,
    graph_to_json,
    hyperparameter_search,
    load_config,
    load_model,
    margin_loss,
    margin_loss_prepared,
    prepare_labels,
    save_model,
    total_loss,
    train,
)
import tree_reference
from synthgen import generate_dataset
from test_ruledsl import _random_expr


class TestTrainConfig:
    def test_defaults_in_range(self):
        config = TrainConfig()
        assert config.epochs == 30 and config.alpha == 0.7 and config.penalty_lambda == 10.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.5)
        with pytest.raises(ValueError):
            TrainConfig(mu=0.5)
        with pytest.raises(ValueError):
            TrainConfig(alpha=1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("penalty_lambda", float("nan"), "penalty_lambda must be finite and >= 0"),
        ("penalty_lambda", float("inf"), "penalty_lambda must be finite and >= 0"),
        ("penalty_lambda", -1.0, "penalty_lambda must be finite and >= 0"),
        ("seed", -1, "seed must be >= 0"),
        ("epochs", -1, "epochs must be >= 0"),
    ])
    def test_rejects_non_finite_penalty_and_negative_counts(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 2.5, "epochs must be an integer, not float"),
        ("epochs", "3", "epochs must be an integer, not str"),
        ("epochs", True, "epochs must be an integer, not bool"),
        ("seed", 1.5, "seed must be an integer, not float"),
        ("seed", np.float64(2.0), "seed must be an integer, not float64"),
        ("learning_rate", "0.01", "learning_rate must be a real number, not str"),
        ("learning_rate", None, "learning_rate must be a real number, not NoneType"),
        ("mu", True, "mu must be a real number, not bool"),
        ("mu", 0.7j, "mu must be a real number, not complex"),
        ("alpha", np.bool_(True), "alpha must be a real number, not bool"),
        ("alpha", [0.7], "alpha must be a real number, not list"),
        ("penalty_lambda", "10", "penalty_lambda must be a real number, not str"),
        ("penalty_lambda", False, "penalty_lambda must be a real number, not bool"),
    ])
    def test_rejects_a_value_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", np.int64(3)), ("seed", np.int32(4)), ("learning_rate", np.float64(0.02)),
        ("mu", np.float32(0.75)), ("alpha", 0.6), ("penalty_lambda", np.int64(2)),
    ])
    def test_accepts_numpy_numbers(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value

    def test_estimator_with_float_epochs_fails_before_training(self, toy_dataset):
        with pytest.raises(ValueError, match="^epochs must be an integer, not float$"):
            RuleLinker(epochs=2.5).fit(toy_dataset)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 12\nlearning_rate = 0.02\nmu = 0.7  # margin\nseed = 3\n")
        config = load_config(path)
        assert config == TrainConfig(epochs=12, learning_rate=0.02, mu=0.7, seed=3)

    def test_config_file_non_integer_epochs(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 1.5\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path} line 1: bad value for 'epochs' (invalid literal for int() with base 10: '1.5')"

    def test_config_file_out_of_range_value_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 3\nmu = 2\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path} line 2: bad value for 'mu' (mu must be in (0.6, 0.95))"

    def test_config_line_without_equals_names_file_and_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# comment\n\nepochs 3\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path} line 3: expected key = value"

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_config_file_repeated_key_names_both_lines(self, tmp_path):
        # the second value used to win silently
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 3\nmu = 0.7\n\nepochs = 5\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path} line 4: key 'epochs' repeats line 1"

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_config_raises_only_value_error(self, tmp_path, data):
        # one line dropped, repeated, blanked or replaced, or one byte changed:
        # the file loads, or a ValueError names the file and the line
        text = _CONFIG_TEXT
        if data.draw(st.booleans()):
            lines = mutate_line(text.splitlines(), data, _JUNK_CONFIG_LINES)
            raw = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
        else:
            raw = mutate_byte(text.encode(), data)
        path = tmp_path / "train.cfg"
        path.write_bytes(raw)
        got = outcome(load_config, path)
        if not isinstance(got, TrainConfig):
            assert got[0] is ValueError, got
            assert got[1].startswith(f"{path} line "), got


_CONFIG_TEXT = "epochs = 12\nlearning_rate = 0.02\nmu = 0.7  # margin\n\nalpha = 0.7\npenalty_lambda = 10.0\nseed = 3\n"
# Lines that make a valid config faulty: a repeated or unknown key, values out
# of range, not finite or too long for int(), and lines that are not key = value.
_JUNK_CONFIG_LINES = st.sampled_from(
    ["epochs = 3", "epochs = -1", "mu = 2", "mu = nan", "seed = 1e400", "learning_rate = inf", "volume = 11",
     "=", "epochs =", "= 3", "epochs 3", "#", "alpha = 0.5 = 0.6", "penalty_lambda = 1" + "0" * 400,
     "epochs = " + HUGE_JSON_INT, "seed = \ud800"]) | st.text(max_size=8)


class TestMarginLoss:
    def test_active_hinge(self):
        assert margin_loss([0.9, 0.4], [1, 0], mu=0.6)[0] == pytest.approx(0.1)

    def test_satisfied_margin_is_zero(self):
        assert margin_loss([0.95, 0.1, 0.3], [1, 0, 0], mu=0.6)[0] == 0.0

    def test_inverted_pair(self):
        assert margin_loss([0.2, 0.9], [1, 0], mu=0.6)[0] == pytest.approx(1.3)

    def test_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            margin_loss([0.2, 0.9], [0, 0], mu=0.6)

    def test_multiple_positives_sum(self):
        # each positive contributes its own hinge against the negative
        v = margin_loss([0.8, 0.7, 0.5], [1, 1, 0], mu=0.6)[0]
        assert v == pytest.approx(max(0, 0.6 - 0.3) + max(0, 0.6 - 0.2))


def _margin_grad_reference(scores, labels, mu):
    """The former per-mention margin gradient: hinge sums over active pairs."""
    labels = np.asarray(labels)
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels == 0)
    dscores = np.zeros_like(scores)
    loss = 0.0
    for p in positives:
        margins = mu - (scores[p] - scores[negatives])
        active = margins > 0.0
        loss += margins[active].sum()
        dscores[p] -= active.sum()
        dscores[negatives] += active
    return float(loss), dscores


def _box_margin_reference(out, labels, mu):
    """The former box-training margin: a double loop over (positive, negative)."""
    loss = 0.0
    dout = np.zeros_like(out)
    for p_idx in [i for i, l in enumerate(labels) if l == 1]:
        margins = mu - (out[p_idx] - out)
        for n_idx in range(len(out)):
            if n_idx == p_idx or labels[n_idx] == 1:
                continue
            if margins[n_idx] > 0.0:
                loss += margins[n_idx]
                dout[p_idx] -= 1.0
                dout[n_idx] += 1.0
    return loss, dout


@st.composite
def _scored_lists(draw):
    n = draw(st.integers(1, 24))
    scores = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = 1
    return np.array(scores), labels, draw(st.floats(0.6, 0.95))


class TestMarginLossAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(_scored_lists())
    def test_loss_and_gradient_match_both_references(self, case):
        scores, labels, mu = case
        loss, dscores = margin_loss(scores, labels, mu)
        for ref_loss, ref_d in (
            _margin_grad_reference(scores, labels, mu),
            _box_margin_reference(scores, labels, mu),
        ):
            assert np.array_equal(dscores, ref_d)
            if sum(labels) == 1 and len(labels) - 1 < 8:
                # one positive and under 8 negatives: numpy sums left to right too
                assert loss == ref_loss
            else:
                # the references add the same terms in another order
                assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)


def _margin_loss_before_split(scores, labels, mu):
    """margin_loss as it was before label preparation moved out of it."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels == 0)
    dscores = np.zeros_like(scores)
    total = 0.0
    for p in positives:
        margins = mu - (scores[p] - scores[negatives])
        total += np.maximum(0.0, margins).sum()
        active = margins > 0.0
        dscores[p] -= active.sum()
        dscores[negatives] += active
    return float(total), dscores


@st.composite
def _labelled_lists(draw):
    """1..k positives among k candidates; scores drawn from a few values
    (ties, exact margins) or anywhere in [-2, 2]."""
    k = draw(st.integers(1, 24))
    n_pos = draw(st.integers(1, k))
    labels = [1] * n_pos + [0] * (k - n_pos)
    labels = draw(st.permutations(labels))
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.4, 0.6, 1.0]), st.floats(-2.0, 2.0, allow_nan=False))
    scores = draw(st.lists(value, min_size=k, max_size=k))
    mu = draw(st.one_of(st.sampled_from([0.6, 0.95]), st.floats(0.6, 0.95)))
    return scores, list(labels), mu


class TestPreparedMarginLoss:
    @settings(max_examples=400, deadline=None)
    @given(_labelled_lists())
    def test_prepared_core_matches_margin_loss_by_bytes(self, case):
        scores, labels, mu = case
        loss, dscores = margin_loss_prepared(np.asarray(scores, dtype=float), prepare_labels(labels), mu)
        for ref_loss, ref_d in (margin_loss(scores, labels, mu), _margin_loss_before_split(scores, labels, mu)):
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert dscores.tobytes() == ref_d.tobytes()

    def test_preparation_splits_labels(self):
        positives, negatives = prepare_labels((0, 1, 0, 1, 0))
        assert positives.tolist() == [1, 3] and negatives.tolist() == [0, 2, 4]

    def test_core_requires_a_positive(self):
        with pytest.raises(ValueError, match="positive"):
            margin_loss_prepared(np.array([0.2, 0.9]), prepare_labels([0, 0]), 0.6)


def _tiny_setup(rules_text="rule Links = jacc? & prom;", alpha=0.7, mode="lnn"):
    ds = generate_dataset(6, n_candidates=4, seed=5)
    catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "prom"])
    table = build_feature_table(ds, catalog)
    graph = compile(parse(rules_text), catalog, mode=mode, alpha=alpha)
    return ds, catalog, table, graph


class TestTotalLoss:
    def test_lambda_zero_equals_pure_margin(self):
        ds, _, table, graph = _tiny_setup()
        config0 = TrainConfig(penalty_lambda=0.0)
        pure = sum(
            margin_loss(graph.evaluate_batch(table.columns(i, graph.feature_names)), i.labels, config0.mu)[0]
            for i in ds.instances
        )
        assert total_loss(graph, table, ds, config0) == pytest.approx(pure)

    def test_single_gate_residual_scales_by_lambda(self):
        ds, _, table, graph = _tiny_setup()
        # make margins satisfied irrelevant: compare loss difference across lambdas
        l0 = total_loss(graph, table, ds, TrainConfig(penalty_lambda=0.0))
        l10 = total_loss(graph, table, ds, TrainConfig(penalty_lambda=10.0))
        assert l10 - l0 == pytest.approx(10.0 * graph.residual_sum())

    def test_explicit_residual_arithmetic(self):
        # gate with r0 = 0.3, lambda 10, no data -> penalty 3.0
        ds = Dataset(instances=(), name="empty")
        from rulelink.simfeatures import FeatureTable

        table = FeatureTable(["jacc"])
        graph = compile(parse("rule Links = jacc? & jacc?;"), default_catalog())
        for node_name, node in graph.gates():
            node.gate.raw_weights[:] = softplus_inverse(np.array([1.0, 1.0]))
            node.gate.bias[()] = 1.0
            node.gate.raw_slacks[:] = -800.0
            node.gate.raw_slack_big[()] = -800.0
        assert total_loss(graph, table, ds, TrainConfig(penalty_lambda=10.0)) == pytest.approx(3.0)


def _kink_distance(graph, table, ds, config):
    """Smallest distance of any pre-clamp/pre-hinge value to its kink."""
    from rulelink.logic import AndNode, OrNode

    smallest = np.inf
    for inst in ds.instances:
        cols = table.columns(inst, graph.feature_names)
        cache = {}
        graph._forward(graph.root, cols, cache)
        for node in graph.nodes:
            if isinstance(node, (AndNode, OrNode)) and node.uid in cache:
                _, pre = cache[node.uid]
                smallest = min(smallest, np.abs(pre).min(), np.abs(pre - 1.0).min())
        scores = graph.evaluate_batch(cols)
        labels = np.asarray(inst.labels)
        for p in np.flatnonzero(labels == 1):
            for n in np.flatnonzero(labels == 0):
                smallest = min(smallest, abs(config.mu - (scores[p] - scores[n])))
    alpha = graph.alpha
    for _, node in graph.gates():
        gate = node.gate
        w = gate.weights
        beta = float(gate.bias)
        pre0 = alpha - (beta - (1.0 - alpha) * w.sum() + gate.slack_big)
        pre_i = (beta - alpha * w) - (1.0 - alpha + gate.slacks)
        smallest = min(smallest, abs(pre0), np.abs(pre_i).min())
    return smallest


def _random_graph_and_data(rng):
    n_feats = int(rng.integers(2, 5))
    names = ["jacc", "lev", "jw", "prom"][:n_feats]
    preds = [f"{n}{'?' if rng.random() < 0.7 else ''}" for n in names]
    half = max(1, len(preds) // 2)
    text = (
        f"rule R1 = {' & '.join(preds[:half])};\n"
        f"rule R2 = {' & '.join(preds[half:]) or preds[0]};\n"
        f"rule Links = R1 | R2;\n"
    )
    catalog = default_catalog().restricted(names)
    graph = compile(parse(text), catalog, alpha=0.7)
    params = graph.parameters()
    for key, arr in params.items():
        jitter = rng.normal(0, 0.6, size=arr.shape)
        if arr.ndim == 0:
            arr[()] = float(arr) + float(jitter)
        else:
            arr += jitter

    n_mentions = int(rng.integers(2, 5))
    instances = []
    for i in range(n_mentions):
        k = int(rng.integers(2, 5))
        cands = tuple(
            CandidateEntity(id=f"m{i}c{j}", name="x", indegree=int(rng.integers(0, 50)))
            for j in range(k)
        )
        labels = [0] * k
        labels[int(rng.integers(0, k))] = 1
        instances.append(
            LabeledInstance(Mention(id=f"m{i}", surface="s", text_id=f"t{i}"), cands, tuple(labels))
        )
    ds = Dataset(instances=tuple(instances), name="rand")
    from rulelink.simfeatures import FeatureTable

    table = FeatureTable(names)
    for inst in ds.instances:
        for cand in inst.candidates:
            table.add_row(inst.mention.id, cand.id, {n: float(rng.uniform(0, 1)) for n in names})
    return graph, table, ds


class TestGradients:
    def test_matches_central_differences_on_random_configs(self):
        rng = np.random.default_rng(0)
        config = TrainConfig(mu=0.7, penalty_lambda=10.0)
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 300:
            attempts += 1
            graph, table, ds = _random_graph_and_data(rng)
            if _kink_distance(graph, table, ds, config) < 1e-3:
                continue
            analytic = gradients(graph, table, ds, config)
            params = graph.parameters()
            h = 1e-5
            for key, arr in params.items():
                flat = np.atleast_1d(arr)
                an = np.atleast_1d(np.asarray(analytic[key], dtype=float))
                for i in range(flat.size):
                    old = flat[i]
                    flat[i] = old + h
                    up = total_loss(graph, table, ds, config)
                    flat[i] = old - h
                    dn = total_loss(graph, table, ds, config)
                    flat[i] = old
                    fd = (up - dn) / (2 * h)
                    if abs(fd) < 1e-10 and abs(an[i]) < 1e-10:
                        continue
                    assert an[i] == pytest.approx(fd, rel=1e-4, abs=1e-8), (key, i)
            checked += 1
        assert checked == 30

    def test_zero_loss_configuration_has_zero_gradients(self):
        graph = compile(parse("rule Links = jacc?;"), default_catalog())
        m = Mention(id="m", surface="s", text_id="t")
        cands = (CandidateEntity(id="a", name="a"), CandidateEntity(id="b", name="b"))
        ds = Dataset(instances=(LabeledInstance(m, cands, (1, 0)),), name="d")
        from rulelink.simfeatures import FeatureTable

        table = FeatureTable(["jacc"])
        table.add_row("m", "a", {"jacc": 1.0})
        table.add_row("m", "b", {"jacc": 0.0})
        config = TrainConfig(mu=0.6, penalty_lambda=0.0)
        assert margin_loss([1.0, 0.0], (1, 0), 0.6)[0] == 0.0
        grads = gradients(graph, table, ds, config)
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_gamma_gradient_sign_on_single_leaf(self):
        # one thresholded leaf; pos feature 0.9, neg 0.5, margin forced active.
        # raising gamma raises theta, lowering both scores, but it lowers the
        # *higher* f more in absolute terms... the hand derivation:
        # d loss/d gamma = (-dTL(f_pos) + dTL(f_neg))/dgamma
        graph = compile(parse("rule Links = jacc?;"), default_catalog())
        m = Mention(id="m", surface="s", text_id="t")
        cands = (CandidateEntity(id="a", name="a"), CandidateEntity(id="b", name="b"))
        ds = Dataset(instances=(LabeledInstance(m, cands, (1, 0)),), name="d")
        from rulelink.logic import sigmoid
        from rulelink.simfeatures import FeatureTable

        table = FeatureTable(["jacc"])
        f_pos, f_neg = 0.9, 0.5
        table.add_row("m", "a", {"jacc": f_pos})
        table.add_row("m", "b", {"jacc": f_neg})
        config = TrainConfig(mu=0.8, penalty_lambda=0.0)
        grads = gradients(graph, table, ds, config)
        theta = 0.5
        dtheta_dgamma = theta * (1 - theta)

        def dtl_dgamma(f):
            s = sigmoid(np.asarray(f - theta))
            return -f * s * (1 - s) * dtheta_dgamma

        expected = -dtl_dgamma(f_pos) + dtl_dgamma(f_neg)
        assert float(grads["n0.gamma"]) == pytest.approx(expected)


def _fuzzed_graph_and_data(seed, mode):
    """A random rule tree (``test_ruledsl._random_expr``) with jittered
    parameters, plus random feature values for a few candidate lists."""
    from rulelink.simfeatures import FeatureTable

    rng = np.random.default_rng(seed)
    graph = compile([RuleAST(name="Fuzz", body=_random_expr(rng, 3))], default_catalog(), mode=mode)
    for arr in graph.parameters().values():
        arr += rng.normal(0, 0.6, size=arr.shape)
    instances = []
    for i in range(int(rng.integers(2, 5))):
        k = int(rng.integers(2, 6))
        labels = [0] * k
        labels[int(rng.integers(0, k))] = 1
        cands = tuple(CandidateEntity(id=f"m{i}c{j}", name="x") for j in range(k))
        instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id="t"), cands, tuple(labels)))
    ds = Dataset(instances=tuple(instances), name="fuzz")
    table = FeatureTable(graph.feature_names)
    for inst in ds.instances:
        for cand in inst.candidates:
            table.add_row(inst.mention.id, cand.id, {n: float(rng.uniform(0, 1)) for n in graph.feature_names})
    return graph, table, ds


class TestOneForwardPerStep:
    CONFIG = TrainConfig(epochs=3, learning_rate=0.05, mu=0.7, penalty_lambda=1.0, seed=5)

    @pytest.mark.parametrize("mode", ["lnn", "tnorm"])
    def test_matches_the_recomputing_step_bit_for_bit(self, mode):
        # the reference walks the tree recursively and evaluates it afresh
        # for every backward pass
        for seed in range(40):
            graph, table, ds = _fuzzed_graph_and_data(seed, mode)
            grads = gradients(graph, table, ds, self.CONFIG)
            model = train(ds, table, graph, self.CONFIG)
            tape = (
                {k: np.asarray(g).tobytes() for k, g in grads.items()},
                {k: p.tobytes() for k, p in model.graph.parameters().items()},
                json.dumps(model.training_log),
            )
            graph, table, ds = _fuzzed_graph_and_data(seed, mode)
            grads = tree_reference.gradients(graph, table, ds, self.CONFIG)
            log = tree_reference.train(ds, table, graph, self.CONFIG, recompute=True)
            reference = (
                {k: np.asarray(g).tobytes() for k, g in grads.items()},
                {k: p.tobytes() for k, p in graph.parameters().items()},
                json.dumps(log),
            )
            assert tape == reference, seed

    @pytest.mark.parametrize("mode", ["lnn", "tnorm"])
    def test_one_forward_walk_per_mention(self, mode, monkeypatch):
        graph, table, ds = _fuzzed_graph_and_data(3, mode)
        root_walks = []
        run = graph._run

        def counting(cols, cache=None):
            root_walks.append(1)
            return run(cols, cache)

        monkeypatch.setattr(graph, "_run", counting)
        gradients(graph, table, ds, self.CONFIG)
        assert len(root_walks) == len(ds.instances)
        root_walks.clear()
        train(ds, table, graph, self.CONFIG)
        # one walk per step, one per epoch for the logged loss over all mentions
        assert len(root_walks) == self.CONFIG.epochs * len(ds.instances) + self.CONFIG.epochs


class TestTrain:
    def test_zero_epochs_leaves_parameters_unchanged(self):
        ds, catalog, table, graph = _tiny_setup()
        before = {k: np.array(v, copy=True) for k, v in graph.parameters().items()}
        model = train(ds, table, graph, TrainConfig(epochs=0), catalog=catalog)
        after = model.graph.parameters()
        assert model.training_log == []
        for key in before:
            assert np.array_equal(before[key], after[key])

    def test_same_seed_bit_identical_trajectories(self):
        results = []
        for _ in range(2):
            ds, catalog, table, graph = _tiny_setup()
            model = train(ds, table, graph, TrainConfig(epochs=5, seed=11), catalog=catalog)
            results.append(
                {k: np.array(v, copy=True) for k, v in model.graph.parameters().items()}
            )
        assert results[0].keys() == results[1].keys()
        for key in results[0]:
            assert np.array_equal(results[0][key], results[1][key]), key

    def test_alpha_mismatch_rejected(self):
        ds, catalog, table, graph = _tiny_setup(alpha=0.7)
        with pytest.raises(ValueError, match="alpha"):
            train(ds, table, graph, TrainConfig(alpha=0.8), catalog=catalog)

    def test_log_length_equals_epochs(self):
        ds, catalog, table, graph = _tiny_setup()
        model = train(ds, table, graph, TrainConfig(epochs=4), catalog=catalog)
        assert len(model.training_log) == 4
        assert {"epoch", "loss", "violation"} <= set(model.training_log[0])

    def test_one_gather_per_run(self, monkeypatch):
        ds, catalog, table, graph = _tiny_setup()
        gathers = []
        gather = FeatureTable.gather_matrix  # every gather goes through it

        def counting(self, *args, **kwargs):
            gathers.append(1)
            return gather(self, *args, **kwargs)

        monkeypatch.setattr(FeatureTable, "gather_matrix", counting)
        config = TrainConfig(epochs=5)
        model = train(ds, table, graph, config, catalog=catalog)
        assert len(gathers) == 1
        # the logged loss comes from the same core as total_loss
        last = np.float64(model.training_log[-1]["loss"]).tobytes()
        assert last == np.float64(total_loss(model.graph, table, ds, config)).tobytes()

    def test_a_nan_raises_at_the_step_that_reads_it(self, monkeypatch):
        ds, catalog, table, graph = _tiny_setup()
        first_name, second_name = graph.feature_names
        config = TrainConfig(epochs=2, seed=3)
        order = np.random.default_rng(config.seed).permutation(len(ds.instances)).tolist()
        # the second mention visited has a NaN in the second column; the
        # fourth, first in dataset order of the two, has one in the first
        for pos, name in ((order[1], second_name), (order[3], first_name)):
            inst = ds.instances[pos]
            row = table.index[(inst.mention.id, inst.candidates[-1].id)]
            table.matrix[row, table.feature_names.index(name)] = np.nan
        calls = []
        evaluate = graph.evaluate_batch

        def counting(cols, cache=None):
            calls.append(1)
            return evaluate(cols, cache)

        monkeypatch.setattr(graph, "evaluate_batch", counting)
        with pytest.raises(ValueError, match=f"^feature {second_name!r} contains NaN$"):
            train(ds, table, graph, config, catalog=catalog)
        assert len(calls) == 2
        calls.clear()
        # gradients visits the mentions in dataset order
        name = second_name if order[1] < order[3] else first_name
        with pytest.raises(ValueError, match=f"^feature {name!r} contains NaN$"):
            gradients(graph, table, ds, config)
        assert len(calls) == min(order[1], order[3]) + 1

    def test_final_loss_not_above_initial_on_fixture(self):
        ds, catalog, table, graph = _tiny_setup()
        config = TrainConfig(epochs=10, learning_rate=0.01, seed=2)
        initial = total_loss(graph, table, ds, config)
        model = train(ds, table, graph, config, catalog=catalog)
        assert model.training_log[-1]["loss"] <= initial


def _nan_setup(mode):
    """:func:`_tiny_setup` over three features, with two NaNs in one list:
    the third feature's on its first row, the second's on its last. The
    message returned names the second feature, the first in feature order
    (not row order) that holds a NaN."""
    ds, catalog, table, graph = _tiny_setup("rule Links = jacc? & lev? & prom;", mode=mode)
    names = graph.feature_names
    inst = ds.instances[2]
    for cand, name in ((inst.candidates[0], names[2]), (inst.candidates[-1], names[1])):
        table.matrix[table.index[(inst.mention.id, cand.id)], table.feature_names.index(name)] = np.nan
    return ds, catalog, table, graph, f"^feature {names[1]!r} contains NaN$"


def _scoring_block(ds, table, names):
    """``ds``'s rows of ``table`` as a ScoringBlock, the form the sidecar gives."""
    feats, offsets = table.gather_matrix(ds.instances, names)
    mention_ids, _, candidate_ids, labels = ds.row_keys()
    row_mentions = [mid for mid, start, end in zip(mention_ids, offsets, offsets[1:]) for _ in range(start, end)]
    return ScoringBlock(mention_ids, offsets, np.array(labels, np.int8),
                        FeatureTable(names, row_mentions, candidate_ids, feats.T.copy()))


_NAN_ENTRIES = ("evaluate_batch mapping", "evaluate_batch matrix", "link Dataset", "link ScoringBlock", "total_loss",
                "total_loss rows", "gradients", "train", "RuleLinker.predict")


def _nan_entries(graph, table, ds, catalog) -> dict:
    """Each of :data:`_NAN_ENTRIES` as a call over ``ds``'s rows of ``table``."""
    names, config = graph.feature_names, TrainConfig(epochs=2, seed=1)
    model = Model(graph=graph, config=config, catalog=catalog)
    linker = RuleLinker()
    linker.model_ = model
    feats, offsets = table.gather_matrix(ds.instances, names)
    rows = feats, offsets, [prepare_labels(inst.labels) for inst in ds.instances]
    return dict(zip(_NAN_ENTRIES, [
        lambda: graph.evaluate_batch(table.columns(ds.instances[2], names)),
        lambda: graph.evaluate_batch(feats),
        lambda: link(model, ds, table),
        lambda: link(model, _scoring_block(ds, table, names)),
        lambda: total_loss(graph, table, ds, config),
        lambda: total_loss(graph, table, ds, config, rows),
        lambda: gradients(graph, table, ds, config),
        lambda: train(ds, table, graph, config, catalog=catalog),
        lambda: linker.predict(ds, table),
    ]))


class TestEveryScoringEntryRejectsNaN:
    """Every entry that scores rows raises ``feature 'x' contains NaN``,
    naming the first feature holding one; evaluate_batch is the one place
    that checks."""

    # manual mode has no parameters, so gradients scores nothing
    @pytest.mark.parametrize("mode, entry", [(mode, entry) for mode in ("lnn", "tnorm", "manual")
                                             for entry in _NAN_ENTRIES if (mode, entry) != ("manual", "gradients")])
    def test_entry_raises(self, mode, entry):
        ds, catalog, table, graph, message = _nan_setup(mode)
        with pytest.raises(ValueError, match=message):
            _nan_entries(graph, table, ds, catalog)[entry]()

    def test_manual_training_raises_at_the_epoch_loss(self, monkeypatch):
        ds, catalog, table, graph, message = _nan_setup("manual")
        calls = []
        evaluate = graph.evaluate_batch

        def counting(cols, cache=None):
            calls.append(1)
            return evaluate(cols, cache)

        monkeypatch.setattr(graph, "evaluate_batch", counting)
        with pytest.raises(ValueError, match=message):
            train(ds, table, graph, TrainConfig(epochs=2), catalog=catalog)
        # no step scores in manual mode: the one call is the first epoch's loss
        assert len(calls) == 1


def _separable_dataset():
    """Gold candidates carry every name feature at 1 and max prominence;
    negatives share no character with the surface and have zero indegree."""
    instances = []
    for i in range(8):
        surface = "abcdefg"[: 5 + (i % 3)]
        gold = CandidateEntity(id=f"g{i}", name=surface, indegree=50,
                               external_scores={"spacy": 1.0})
        negs = tuple(
            CandidateEntity(id=f"n{i}_{j}", name="zyxwv"[: 3 + j], indegree=0,
                            external_scores={"spacy": 0.0})
            for j in range(3)
        )
        m = Mention(id=f"m{i}", surface=surface, text_id=f"t{i}")
        instances.append(LabeledInstance(m, (gold,) + negs, (1, 0, 0, 0)))
    return Dataset(instances=tuple(instances), name="separable")


class TestSeparableFixture:
    def test_zero_loss_parameterization_exists_by_construction(self):
        ds = _separable_dataset()
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "prom"])
        table = build_feature_table(ds, catalog)
        graph = compile([builtin_templates()["Name"]], catalog)
        # construct it: defaults plus a big-slack on every gate
        for _, node in graph.gates():
            node.gate.raw_slack_big[()] = softplus_inverse(2.0)
            node.gate.raw_slacks[:] = softplus_inverse(2.0)
        config = TrainConfig(mu=0.6, penalty_lambda=10.0)
        assert total_loss(graph, table, ds, config) == 0.0

    def test_training_reaches_near_zero_loss(self):
        ds = _separable_dataset()
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "prom"])
        table = build_feature_table(ds, catalog)
        graph = compile([builtin_templates()["Name"]], catalog)
        config = TrainConfig(epochs=30, learning_rate=0.01, mu=0.6, seed=0)
        model = train(ds, table, graph, config, catalog=catalog)
        assert model.training_log[-1]["loss"] < 0.01
        assert model.training_log[-1]["violation"] < 1e-3


class TestTnormMode:
    def test_only_gamma_changes(self):
        ds, catalog, table, graph = _tiny_setup(
            "rule Links = jacc? & prom?;", mode="tnorm"
        )
        gate_before = {
            name: (
                np.array(node.gate.raw_weights, copy=True),
                float(node.gate.bias),
                np.array(node.gate.raw_slacks, copy=True),
                float(node.gate.raw_slack_big),
            )
            for name, node in graph.gates()
        }
        gammas_before = {
            k: float(v) for k, v in graph.parameters().items() if k.endswith("gamma")
        }
        model = train(ds, table, graph, TrainConfig(epochs=8, seed=1), catalog=catalog)
        for name, node in model.graph.gates():
            w, b, s, sb = gate_before[name]
            assert np.array_equal(w, node.gate.raw_weights)
            assert float(node.gate.bias) == b
            assert np.array_equal(s, node.gate.raw_slacks)
            assert float(node.gate.raw_slack_big) == sb
        gammas_after = {
            k: float(v) for k, v in model.graph.parameters().items() if k.endswith("gamma")
        }
        assert any(gammas_after[k] != gammas_before[k] for k in gammas_before)


class TestDivergenceAndSearch:
    def test_divergence_aborts_with_log(self):
        ds, catalog, table, graph = _tiny_setup()
        graph.parameters()["n0.beta"][()] = 1e9  # absurd start, loss blows past 1e6
        # a beta of 1e9 still clamps scores to [0,1]; force divergence via loss
        # by injecting a NaN instead
        graph.parameters()["n0.beta"][()] = float("nan")
        with pytest.raises(TrainingDivergence):
            train(ds, table, graph, TrainConfig(epochs=1), catalog=catalog)

    def test_nan_parameter_stops_the_first_epoch_at_once(self):
        ds, catalog, table, graph = _tiny_setup()
        graph.parameters()["n0.beta"][()] = float("nan")
        with pytest.raises(TrainingDivergence, match="non-finite score in epoch 0") as info:
            train(ds, table, graph, TrainConfig(epochs=3), catalog=catalog)
        assert info.value.log == []

    def test_exploding_epoch_loss_stops_once_logged(self):
        # every score finite, but the epoch loss passes 1e6
        losses = iter([5.0, 2e6, 1.0])
        with pytest.raises(TrainingDivergence, match=r"^loss 2000000\.0 diverged at epoch 1$") as info:
            descend({}, 2, lambda idx: (np.array([0.5]), {}), lambda: {"loss": next(losses)}, TrainConfig(epochs=3))
        assert info.value.log == [{"epoch": 0, "loss": 5.0}, {"epoch": 1, "loss": 2e6}]

    def test_non_finite_score_carries_the_completed_epochs(self):
        calls = []

        def step(idx):
            calls.append(idx)
            return np.array([np.nan if len(calls) == 7 else 0.5]), {}

        with pytest.raises(TrainingDivergence) as info:
            descend({}, 3, step, lambda: {"loss": 1.0}, TrainConfig(epochs=5))
        assert info.value.log == [{"epoch": 0, "loss": 1.0}, {"epoch": 1, "loss": 1.0}]
        assert len(calls) == 7

    def test_singleton_grid_returns_that_config(self):
        ds, catalog, table, graph = _tiny_setup()

        def factory():
            return compile(parse("rule Links = jacc? & prom;"), catalog)

        best = hyperparameter_search(ds, table, ds, table, factory, [0.7], [0.02])
        assert best.mu == 0.7 and best.learning_rate == 0.02

    def test_tie_breaks_toward_lower_lr_then_mu(self):
        ds, catalog, table, graph = _tiny_setup()

        def factory():
            return compile(parse("rule Links = jacc? & prom;"), catalog)

        best = hyperparameter_search(
            ds, table, ds, table, factory, [0.8, 0.6], [0.01], TrainConfig(epochs=0)
        )
        # zero-epoch training: every config scores identically, ties resolve low
        assert best.mu == 0.6 and best.learning_rate == 0.01

    def test_empty_grid_rejected(self):
        ds, catalog, table, _ = _tiny_setup()
        with pytest.raises(ValueError, match="empty"):
            hyperparameter_search(ds, table, ds, table, lambda: None, [], [0.01])


class TestModelCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        ds, catalog, table, graph = _tiny_setup()
        model = train(ds, table, graph, TrainConfig(epochs=3, seed=5), catalog=catalog)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again.config == model.config
        assert graph_to_json(again.graph) == graph_to_json(model.graph)
        assert again.training_log == model.training_log
        save_model(again, tmp_path / "model2.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()


    def test_catalog_with_box_parameters_round_trips(self, tmp_path):
        from rulelink.boxgeom import BoxParams
        from rulelink.logic import RawLeaf, ScoringGraph
        from rulelink.simfeatures import FeatureCatalog, FeatureSpec

        params = BoxParams(psi=(0.5, -1.5), omega=(2.0, 0.25), beta_box=1.75)
        catalog = FeatureCatalog({"box": FeatureSpec("box", box_params=params)})
        save_model(Model(ScoringGraph(RawLeaf("box"), mode="manual"), TrainConfig(), catalog), tmp_path / "m.json")
        again = load_model(tmp_path / "m.json")
        assert again.catalog.entries["box"].box_params.to_json() == params.to_json()
        save_model(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "m.json").read_bytes()

    def test_checkpoint_holds_raw_parameters_only(self, tmp_path):
        ds, catalog, table, graph = _tiny_setup()
        model = train(ds, table, graph, TrainConfig(epochs=1), catalog=catalog)
        save_model(model, tmp_path / "model.json")
        text = (tmp_path / "model.json").read_text()
        obj = json.loads(text)
        assert obj["format_version"] == 1
        assert "batch" not in obj["config"]
        for key in ('"weights"', '"slacks"', '"slack_big"', '"theta"'):
            assert key not in text

    @pytest.mark.parametrize("text, reason", [
        (DEEP_JSON, "RecursionError: maximum recursion depth exceeded while decoding a JSON array"),
        (f"[{HUGE_JSON_INT}]", "ValueError: Exceeds the limit (4300 digits) for integer string conversion"),
        ("{", "JSONDecodeError: Expecting property name enclosed in double quotes"),
    ])
    def test_model_file_that_cannot_decode_raises_compile_error(self, tmp_path, text, reason):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(CompileError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: malformed model file ({reason}")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj.pop("format_version"), "retrained"),
            (lambda obj: obj["graph"].pop("root"), "'root'"),
            (lambda obj: obj["graph"].update(mode="fuzzy"), "mode"),
            (lambda obj: obj["graph"]["root"].update(kind="xor"), "unknown node kind"),
            (lambda obj: obj["graph"]["root"]["raw_weights"].pop(), "raw_weights must have shape"),
            (lambda obj: obj["config"].update(batch="per-mention"), "batch"),
            (lambda obj: obj["graph"]["root"].update(children=[], raw_weights=[], raw_slacks=[]),
             "gate arity must be >= 1"),
            (lambda obj: obj["graph"]["root"].update(manual_weights=[1.0]), "1 manual weights for 2 children"),
        ],
    )
    def test_malformed_checkpoint_raises_compile_error(self, tmp_path, edit, message):
        ds, catalog, table, graph = _tiny_setup()
        save_model(train(ds, table, graph, TrainConfig(epochs=0), catalog=catalog), tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        edit(obj)
        (tmp_path / "m.json").write_text(json.dumps(obj))
        with pytest.raises(CompileError, match=message):
            load_model(tmp_path / "m.json")


class TestInitializationSensitivity:
    def test_seeded_restarts_from_jittered_defaults_still_converge(self):
        """Perturbing the default initialization must not strand training."""
        ds = _separable_dataset()
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "prom"])
        table = build_feature_table(ds, catalog)
        for restart_seed in (101, 202, 303):
            graph = compile([builtin_templates()["Name"]], catalog)
            rng = np.random.default_rng(restart_seed)
            for arr in graph.parameters().values():
                jitter = rng.normal(0.0, 0.2, size=arr.shape)
                if arr.ndim == 0:
                    arr[()] = float(arr) + float(jitter)
                else:
                    arr += jitter
            config = TrainConfig(epochs=30, learning_rate=0.01, mu=0.6, seed=restart_seed)
            model = train(ds, table, graph, config, catalog=catalog)
            assert model.training_log[-1]["loss"] < 0.1, restart_seed
            assert model.training_log[-1]["violation"] < 1e-3, restart_seed


class TestPenaltyEfficacy:
    def test_residuals_vanish_on_the_synthetic_fixture(self):
        ds = generate_dataset(60, n_candidates=6, seed=31)
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "prom"])
        table = build_feature_table(ds, catalog)
        graph = compile([builtin_templates()["Name"]], catalog)
        model = train(
            ds, table, graph, TrainConfig(epochs=30, learning_rate=0.01, mu=0.6, seed=4),
            catalog=catalog,
        )
        assert model.training_log[-1]["violation"] < 1e-3


class TestAllConfigsDiverge:
    def test_error_lists_failures(self):
        ds, catalog, table, _ = _tiny_setup()

        def poisoned_factory():
            graph = compile(parse("rule Links = jacc? & prom;"), catalog)
            graph.parameters()["n0.beta"][()] = float("nan")
            return graph

        with pytest.raises(TrainingDivergence, match="every grid configuration diverged"):
            hyperparameter_search(
                ds, table, ds, table, poisoned_factory, [0.6, 0.8], [0.01]
            )
