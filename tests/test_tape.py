"""The compiled tape against the recursive reference walk (``tree_reference``).

Every comparison is by ``tobytes()``: summation and fold order are the
semantics, so the tape must reproduce the tree walk to the bit.
"""
import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference as ref
from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention
from rulelink.logic import (AndNode, GateParams, NotNode, OrNode, RawLeaf, ScoringGraph, ThresholdLeaf, ThresholdParams,
                            _and_core)
from rulelink.simfeatures import FeatureTable
from rulelink.training import TrainConfig, gradients, load_model, save_model, total_loss, train
from test_evaluation import _ragged_case
from test_training import _fuzzed_graph_and_data


def _wide_case(seed, mode):
    """One gate of 8-39 children (thresholded, raw and negated leaves) over
    a few candidate lists."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(8, 40))
    leaves = []
    for i in range(k):
        roll = rng.integers(0, 4)
        leaf = ThresholdLeaf(f"f{i}") if roll < 2 else RawLeaf(f"f{i}")
        if roll == 3:
            leaf = ThresholdLeaf(f"f{i}", fixed_theta=float(rng.uniform(0.1, 0.9)))
        leaves.append(NotNode(leaf) if rng.random() < 0.2 else leaf)
    gate = GateParams(k, raw_weights=rng.normal(-2.5, 0.7, k), bias=rng.uniform(0.5, 2.0),
                      raw_slacks=rng.normal(0, 1, k), raw_slack_big=rng.normal(0, 1))
    manual = rng.uniform(0.5, 1.5, k) if mode == "manual" else None
    graph = ScoringGraph((AndNode if rng.integers(0, 2) else OrNode)(leaves, gate=gate, manual_weights=manual),
                         mode=mode)
    for arr in graph.parameters().values():
        arr += rng.normal(0, 0.3, size=arr.shape)
    instances = []
    table = FeatureTable(graph.feature_names)
    for i in range(int(rng.integers(1, 5))):
        n = int(rng.integers(1, 13))
        labels = [0] * n
        labels[int(rng.integers(0, n))] = 1
        cands = tuple(CandidateEntity(id=f"m{i}c{j}", name="x") for j in range(n))
        instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id="t"), cands, tuple(labels)))
        for cand in cands:
            values = np.where(rng.random(k) < 0.2, 1.0, rng.random(k))
            table.add_row(f"m{i}", cand.id, dict(zip(graph.feature_names, values.tolist())))
    return graph, table, Dataset(instances=tuple(instances), name="wide")


def _case(source, seed, mode):
    if source == "expr":
        return _fuzzed_graph_and_data(seed, mode)
    if source == "ragged":
        model, ds, table = _ragged_case(seed, mode)
        return model.graph, table, ds
    return _wide_case(seed, mode)


def _bytes(named):
    return {k: np.asarray(v).tobytes() for k, v in named.items()}


class TestTapeMatchesTreeWalk:
    @settings(max_examples=150, deadline=None)
    @given(source=st.sampled_from(["expr", "ragged", "wide"]), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["lnn", "tnorm", "manual"]))
    def test_scores_gradients_loss_and_training(self, source, seed, mode):
        config = TrainConfig(epochs=2, learning_rate=0.05, mu=0.7, penalty_lambda=1.0, seed=seed % 7)
        graph, table, ds = _case(source, seed, mode)
        cols = dict(zip(graph.feature_names, table.gather_matrix(ds.instances, graph.feature_names)[0]))
        batched = graph.evaluate_batch(cols)
        assert batched.tobytes() == ref.score(graph, cols).tobytes()
        for row in range(min(len(batched), 5)):
            one = {name: col[row:row + 1] for name, col in cols.items()}
            assert graph.evaluate_batch(one).tobytes() == ref.score(graph, one).tobytes()
        assert _bytes(gradients(graph, table, ds, config)) == _bytes(ref.gradients(graph, table, ds, config))
        loss = np.float64(total_loss(graph, table, ds, config)).tobytes()
        assert loss == np.float64(ref.total_loss(graph, table, ds, config)).tobytes()
        assert np.float64(graph.residual_sum()).tobytes() == np.float64(ref.residual_sum(graph)).tobytes()

        log = train(ds, table, graph, config).training_log
        trained = _bytes(graph.parameters())
        graph, table, ds = _case(source, seed, mode)
        assert json.dumps(log) == json.dumps(ref.train(ds, table, graph, config))
        assert trained == _bytes(graph.parameters())


def _unclamped_graph():
    """Two thresholded leaves under an AND under an OR, every gate inside
    its clamp on the rows of :func:`_cols`, so every weight, bias and
    threshold moves the score."""
    inner = AndNode([ThresholdLeaf("jacc"), ThresholdLeaf("lev")])
    root = OrNode([inner, NotNode(RawLeaf("prom"))], gate=GateParams.from_effective([0.5, 0.5], bias=0.6))
    return ScoringGraph(root)


def _cols():
    return {"jacc": np.array([0.95, 0.9, 0.97]), "lev": np.array([0.92, 0.96, 0.99]),
            "prom": np.array([0.7, 0.6, 0.8])}


class TestLiveParameterViews:
    def test_every_write_through_a_view_reaches_the_tape(self):
        graph = _unclamped_graph()
        for key, arr in graph.parameters().items():
            flat = np.atleast_1d(arr)  # 0-d beta, gamma and Delta as C03 writes them
            for i in range(flat.size):
                before = (graph.evaluate_batch(_cols()).tobytes(), graph.residual_sum())
                old = flat[i]
                flat[i] = old + 0.25
                after = (graph.evaluate_batch(_cols()).tobytes(), graph.residual_sum())
                assert after[0] == ref.score(graph, _cols()).tobytes(), key
                assert after[1] == ref.residual_sum(graph), key
                if key.rsplit(".", 1)[1] in ("rho", "beta", "gamma"):
                    assert after[0] != before[0], key
                flat[i] = old
                assert graph.evaluate_batch(_cols()).tobytes() == before[0]

    def test_gate_and_threshold_objects_share_the_flat_vector(self):
        graph = _unclamped_graph()
        inner = graph.root.children[0]
        inner.gate.bias[()] = 0.5
        inner.children[0].params.gamma[()] = -1.0
        assert graph.parameters()["n1.beta"] == 0.5
        assert graph.parameters()["n2.gamma"] == -1.0
        assert {0.5, -1.0} <= set(graph.flat.tolist())

    @pytest.mark.parametrize("mode", ["lnn", "tnorm", "manual"])
    def test_save_load_save_is_byte_identical(self, tmp_path, mode):
        graph, table, ds = _fuzzed_graph_and_data(11, mode)
        model = train(ds, table, graph, TrainConfig(epochs=2, seed=3))
        save_model(model, tmp_path / "a.json")
        again = load_model(tmp_path / "a.json")
        assert _bytes(again.graph.parameters()) == _bytes(graph.parameters())
        save_model(again, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("copy_graph", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
    def test_a_copied_graph_views_its_own_vector(self, copy_graph):
        graph = _unclamped_graph()
        twin = copy_graph(graph)
        twin.parameters()["n1.beta"][()] = 0.5
        assert twin.root.children[0].gate.bias == 0.5
        assert graph.parameters()["n1.beta"] == 1.0
        assert twin.evaluate_batch(_cols()).tobytes() == ref.score(twin, _cols()).tobytes()
        assert graph.evaluate_batch(_cols()).tobytes() != twin.evaluate_batch(_cols()).tobytes()

    def test_a_node_belongs_to_one_place_in_the_tree(self):
        leaf = RawLeaf("jacc")
        with pytest.raises(ValueError, match="only once"):
            ScoringGraph(AndNode([leaf, leaf]))


class TestGradientAccumulation:
    def test_a_negative_zero_term_leaves_a_negative_zero_weight(self):
        # The OR gate is clamped on every row, so its weight gradient is
        # -(0.0) = -0.0. Added onto 0.0 it is +0.0, and the raw weight -0.0
        # keeps its sign bit through the update, as it did with dict gradients.
        gate = GateParams(2, raw_weights=[-0.0, -0.0], bias=-3.0)
        graph = ScoringGraph(OrNode([RawLeaf("jacc"), RawLeaf("lev")], gate=gate))
        m = Mention(id="m", surface="s", text_id="t")
        cands = (CandidateEntity(id="a", name="a"), CandidateEntity(id="b", name="b"))
        ds = Dataset(instances=(LabeledInstance(m, cands, (1, 0)),), name="d")
        table = FeatureTable(["jacc", "lev"])
        table.add_row("m", "a", {"jacc": 0.4, "lev": 0.3})
        table.add_row("m", "b", {"jacc": 0.2, "lev": 0.1})
        config = TrainConfig(epochs=2, penalty_lambda=0.0)
        assert graph.evaluate_batch(table.columns(ds.instances[0])).tolist() == [1.0, 1.0]
        train(ds, table, graph, config)
        assert gate.raw_weights.tobytes() == np.array([-0.0, -0.0]).tobytes()


# NaNs with payloads and either sign, signed zeros, infinities, subnormals,
# the clamp's edges, and any other bit pattern
_SPECIAL = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000ABCDEF,
                     0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64).tolist()
_SPECIAL += [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308, 1.0, np.nextafter(1.0, 2.0)]
_ANY_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats(-3.0, 3.0),
                       st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))))


class TestClamp:
    @settings(max_examples=400, deadline=None)
    @given(k=st.integers(1, 4), rows=st.integers(1, 6), data=st.data())
    def test_and_core_matches_np_clip_by_bytes(self, k, rows, data):
        def floats(n):
            return np.array(data.draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)), dtype=float)

        inputs, weights, bias = floats(k * rows).reshape(k, rows), floats(k), floats(rows)
        with np.errstate(all="ignore"):
            pre, out, comp = _and_core(inputs, weights, bias)
            ref_pre, ref_out = ref._and_core(inputs, weights, bias)
            ref_comp = 1.0 - inputs
        assert pre.tobytes() == ref_pre.tobytes()
        assert out.tobytes() == ref_out.tobytes()
        assert comp.tobytes() == ref_comp.tobytes()


# --- the value-matrix layout, and shapes the fuzzed cases rarely draw -------


def _lists_over(graph, lengths, seed):
    """A dataset of one list per entry of ``lengths`` (one positive each)
    and its feature table over ``graph``'s features; a fifth of the values
    are exactly 1.0, where clamps sit on their kinks."""
    rng = np.random.default_rng(seed)
    names = graph.feature_names
    table = FeatureTable(names)
    instances = []
    for i, n in enumerate(lengths):
        labels = [0] * n
        labels[int(rng.integers(0, n))] = 1
        cands = tuple(CandidateEntity(id=f"m{i}c{j}", name="x") for j in range(n))
        instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id="t"), cands, tuple(labels)))
        for cand in cands:
            values = np.where(rng.random(len(names)) < 0.2, 1.0, rng.random(len(names)))
            table.add_row(f"m{i}", cand.id, dict(zip(names, values.tolist())))
    return table, Dataset(instances=tuple(instances), name="layout")


def _leaf(rng, i):
    roll = rng.integers(0, 4)
    if roll == 0:
        return RawLeaf(f"f{i}")
    return ThresholdLeaf(f"f{i}", fixed_theta=0.4 if roll == 1 else None)


def _or_heavy(rng, depth, counter):
    """A random tree of mostly OR gates (1-4 children), with a few ANDs,
    NOTs and leaves of every kind."""
    if depth == 0 or rng.random() < 0.2:
        counter[0] += 1
        leaf = _leaf(rng, counter[0])
        return NotNode(leaf) if rng.random() < 0.2 else leaf
    children = [_or_heavy(rng, depth - 1, counter) for _ in range(int(rng.integers(1, 5)))]
    gate = GateParams(len(children), raw_weights=rng.normal(0.5, 0.7, len(children)), bias=rng.uniform(0.3, 1.5),
                      raw_slacks=rng.normal(0, 1, len(children)), raw_slack_big=rng.normal(0, 1))
    node = (OrNode if rng.random() < 0.8 else AndNode)(children, gate=gate)
    return NotNode(node) if rng.random() < 0.1 else node


def _graph(kind, seed, mode):
    rng = np.random.default_rng(seed)
    if kind == "threshold-root":
        root = ThresholdLeaf("f0", ThresholdParams(float(rng.normal(0, 1))))
    elif kind == "raw-root":
        root = RawLeaf("f0")
    elif kind == "not-root":
        root = NotNode(_or_heavy(rng, 3, [0]) if rng.random() < 0.7 else _leaf(rng, 0))
    else:
        root = _or_heavy(rng, 4, [0])
    return ScoringGraph(root, mode=mode)


def _matches_tree_walk(make, config):
    """``make()`` builds (graph, table, ds) afresh. The tape's scores (in one
    batch and row by row), gradients, loss and residual sum, and a training
    run's log and parameters, equal the tree walk's by bytes."""
    graph, table, ds = make()
    cols = dict(zip(graph.feature_names, table.gather_matrix(ds.instances, graph.feature_names)[0]))
    assert graph.evaluate_batch(cols).tobytes() == ref.score(graph, cols).tobytes()
    for row in range(len(cols[graph.feature_names[0]])):
        one = {name: col[row:row + 1] for name, col in cols.items()}
        assert graph.evaluate_batch(one).tobytes() == ref.score(graph, one).tobytes()
    assert _bytes(gradients(graph, table, ds, config)) == _bytes(ref.gradients(graph, table, ds, config))
    loss = np.float64(total_loss(graph, table, ds, config)).tobytes()
    assert loss == np.float64(ref.total_loss(graph, table, ds, config)).tobytes()
    assert np.float64(graph.residual_sum()).tobytes() == np.float64(ref.residual_sum(graph)).tobytes()
    log = train(ds, table, graph, config).training_log
    trained = _bytes(graph.parameters())
    graph, table, ds = make()
    assert json.dumps(log) == json.dumps(ref.train(ds, table, graph, config))
    assert trained == _bytes(graph.parameters())


class TestShapesTheFuzzRarelyDraws:
    CONFIG = TrainConfig(epochs=2, learning_rate=0.05, mu=0.7, penalty_lambda=1.0, seed=4)

    @pytest.mark.parametrize("mode", ["lnn", "tnorm", "manual"])
    @pytest.mark.parametrize("kind", ["threshold-root", "raw-root", "not-root"])
    @pytest.mark.parametrize("seed", range(6))
    def test_leaf_and_not_roots(self, kind, mode, seed):
        def make():
            graph = _graph(kind, seed, mode)
            return (graph, *_lists_over(graph, [3, 1, 5, 2], seed))

        _matches_tree_walk(make, self.CONFIG)

    @pytest.mark.parametrize("seed", range(12))
    def test_one_row_lists_under_or_heavy_lnn_graphs(self, seed):
        def make():
            graph = _graph("or-heavy", seed, "lnn")
            return (graph, *_lists_over(graph, [1, 1, 2, 1, 1, 3], seed))

        _matches_tree_walk(make, self.CONFIG)

    @pytest.mark.parametrize("mode", ["lnn", "tnorm"])
    @pytest.mark.parametrize("seed", range(12))
    def test_one_row_backward(self, mode, seed):
        # a one-row list has no negative, so training never runs backward on
        # one row; run it with a chosen d(loss)/d(score)
        graph = _graph("or-heavy" if seed % 3 else "not-root", seed, mode)
        table, ds = _lists_over(graph, [1, 1, 1], seed)
        for inst, dout in zip(ds.instances, (1.0, -2.0, 0.5)):
            cols = table.columns(inst, graph.feature_names)
            cache, grads = {}, np.zeros_like(graph.flat)
            graph.evaluate_batch(cols, cache)
            graph.backward(cache, np.array([dout]), grads)
            ref_cache, ref_grads = {}, {}
            ref.forward(graph, graph.root, cols, ref_cache)
            ref.backward(graph, graph.root, np.array([dout]), ref_cache, ref_grads)
            expected = {name: ref_grads.get(name, np.zeros_like(arr)) for name, arr in graph.parameters().items()}
            assert _bytes(graph.unflatten(grads)) == _bytes(expected)


class TestValueMatrixLayout:
    @pytest.mark.parametrize("mode", ["lnn", "tnorm", "manual"])
    @pytest.mark.parametrize("seed", range(10))
    def test_root_is_row_zero_and_each_op_one_stretch(self, mode, seed):
        graph, table, ds = _fuzzed_graph_and_data(seed, mode)
        cols = table.columns(ds.instances[0], graph.feature_names)
        cache = {}
        graph.evaluate_batch(cols, cache)
        values = cache["tape"][0]
        assert values.shape == (len(graph.nodes), len(ds.instances[0].candidates))
        rows = {node.uid: graph._row[node.uid] for node in graph.nodes}
        assert sorted(rows.values()) == list(range(len(graph.nodes)))
        assert rows[graph.root.uid] == 0
        # the ops, last first, tile the rows from 0 up; each op's nodes are
        # its stretch, and each row holds its node's values
        start = 0
        for op in reversed(graph._ops):
            stretch = op[1]
            assert (stretch.start, stretch.step) == (start, None)
            start = stretch.stop
        inner = [n for n in graph.nodes if n.children]
        assert start == len(inner)
        assert sorted(rows[n.uid] for n in inner) == list(range(len(inner)))
        for node in graph.nodes:
            assert values[rows[node.uid]].tobytes() == ref.forward(graph, node, cols, {}).tobytes()

    def test_a_leaf_root_is_row_zero(self):
        for root in (ThresholdLeaf("jacc"), RawLeaf("jacc")):
            graph = ScoringGraph(root)
            cache = {}
            scores = graph.evaluate_batch({"jacc": np.array([0.2, 0.9])}, cache)
            assert graph._ops == [] and graph._row == {0: 0}
            assert cache["tape"][0].shape == (1, 2)
            assert scores.tobytes() == ref.score(graph, {"jacc": np.array([0.2, 0.9])}).tobytes()

    def test_parameter_buffers_are_made_once(self):
        graph = _unclamped_graph()
        first = graph._effective()["ops"]
        held = [(weights, bias, weights.copy(), bias.copy()) for weights, bias in first]
        graph.flat += 0.25
        second = graph._effective()["ops"]
        assert len(second) == len(first)
        for (weights, bias), (w0, b0, w_before, b_before) in zip(second, held):
            assert weights is w0 and bias is b0
            assert weights.tobytes() != w_before.tobytes() and bias.tobytes() != b_before.tobytes()
        # the views read the new parameters, as the tree walk does
        assert graph.evaluate_batch(_cols()).tobytes() == ref.score(graph, _cols()).tobytes()
