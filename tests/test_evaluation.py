import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention, validate_dataset
from rulelink.errors import DatasetError, FeatureError
from rulelink.estimator import RuleLinker
from rulelink.evaluation import (
    EvalReport,
    Prediction,
    ablation,
    ablation_csv,
    ablation_markdown,
    evaluate,
    export_weights,
    link,
    prf1,
    rank_candidates,
    recall_at_k,
    report_to_json_bytes,
    transfer_eval,
    weights_to_dot,
)
from rulelink.logic import AndNode, GateParams, OrNode, RawLeaf, ScoringGraph, ThresholdLeaf, softplus_inverse
from rulelink.ruledsl import RuleAST, builtin_templates, compile, disjoin, parse
from rulelink.simfeatures import FeatureCatalog, FeatureTable, ScoringBlock, build_feature_table, default_catalog
from rulelink.training import Model, TrainConfig, load_model, margin_loss, save_model, total_loss, train
import rank_reference
from synthgen import generate_dataset
from test_ruledsl import _random_expr


def _dataset(rows):
    """rows: list of (mention_id, [(cand_id, label)]) pairs."""
    instances = []
    for mid, cands in rows:
        mention = Mention(id=mid, surface=mid, text_id=mid)
        entities = tuple(CandidateEntity(id=cid, name=cid) for cid, _ in cands)
        labels = tuple(l for _, l in cands)
        instances.append(LabeledInstance(mention, entities, labels))
    return Dataset(instances=tuple(instances), name="metrics")


def _preds(rows):
    return [
        Prediction(mention_id=mid, ranked=tuple((cid, float(s)) for cid, s in ranked))
        for mid, ranked in rows
    ]


class TestRanking:
    def test_sorted_descending(self):
        ranked = rank_candidates(["a", "b"], [0.4, 0.9])
        assert [cid for cid, _ in ranked] == ["b", "a"]

    def test_exact_tie_keeps_dataset_order(self):
        ranked = rank_candidates(["a", "b", "c"], [0.5, 0.5, 0.5])
        assert [cid for cid, _ in ranked] == ["a", "b", "c"]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.uniform(0, 1, size=6)
            ids = [f"c{i}" for i in range(6)]
            base = [cid for cid, _ in rank_candidates(ids, scores)]
            squashed = [cid for cid, _ in rank_candidates(ids, np.exp(3 * scores) + 1)]
            assert base == squashed


    @settings(max_examples=200, deadline=None)
    @given(lists=st.lists(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 1.0]),
                                   min_size=1, max_size=9), max_size=12))
    def test_one_sort_ranks_like_one_argsort_per_list(self, lists):
        # A raw-leaf graph scores each row with its feature value, signed
        # zeros included, so link ranks exactly the drawn scores.
        model = Model(ScoringGraph(RawLeaf("f"), mode="manual"), TrainConfig(), FeatureCatalog())
        scores = [s for lst in lists for s in lst]
        cids = [f"c{j}" for lst in lists for j in range(len(lst))]
        offsets = np.cumsum([0] + [len(lst) for lst in lists]).tolist()
        mids = [f"m{i}" for i in range(len(lists))]
        rows_of = [mid for mid, lst in zip(mids, lists) for _ in lst]
        table = FeatureTable(["f"], rows_of, cids, np.array(scores).reshape(-1, 1))
        block = ScoringBlock(mids, offsets, np.zeros(len(cids), np.int8), table)
        preds = link(model, block)
        assert [p.mention_id for p in preds] == mids
        for pred, start, end in zip(preds, offsets, offsets[1:]):
            expected = rank_candidates(cids[start:end], scores[start:end])
            assert pred.ranked == expected
            assert [np.signbit(v) for _, v in pred.ranked] == [np.signbit(v) for _, v in expected]


class TestPrf1:
    def test_all_correct_full_coverage(self):
        ds = _dataset([("m1", [("a", 1), ("b", 0)]), ("m2", [("c", 1), ("d", 0)])])
        preds = _preds([("m1", [("a", 0.9), ("b", 0.2)]), ("m2", [("c", 0.8), ("d", 0.1)])])
        report = prf1(preds, ds)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_partial_coverage(self):
        ds = _dataset([(f"m{i}", [("a", 1), ("b", 0)]) for i in range(4)])
        preds = _preds([("m0", [("a", 0.9), ("b", 0.1)]), ("m1", [("a", 0.9), ("b", 0.1)])])
        report = prf1(preds, ds)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)

    def test_zero_predictions(self):
        ds = _dataset([("m1", [("a", 1)])])
        report = prf1([], ds)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_prediction_for_an_unknown_mention_is_an_error(self):
        ds = _dataset([("m1", [("a", 1)])])
        with pytest.raises(ValueError, match="^prediction for unknown mention 'm9'$"):
            prf1(_preds([("m9", [("a", 0.9)])]), ds)

    def test_precision_equals_recall_under_full_coverage(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            ds = _dataset([(f"m{i}", [("a", 1), ("b", 0)]) for i in range(n)])
            preds = _preds(
                [
                    (f"m{i}", [("a", 0.9), ("b", 0.1)] if rng.random() < 0.5 else [("b", 0.9), ("a", 0.1)])
                    for i in range(n)
                ]
            )
            report = prf1(preds, ds)
            assert report.precision == report.recall


class TestRecallAtK:
    def test_gold_always_first(self):
        ds = _dataset([("m1", [("a", 1), ("b", 0)])])
        preds = _preds([("m1", [("a", 0.9), ("b", 0.1)])])
        out = recall_at_k(preds, ds, [1, 5, 10])
        assert out == {1: 1.0, 5: 1.0, 10: 1.0}

    def test_gold_at_rank_seven(self):
        cands = [(f"c{i}", 1 if i == 0 else 0) for i in range(10)]
        ds = _dataset([("m1", cands)])
        ranked = [(f"c{i}", 1.0 - 0.05 * i) for i in [1, 2, 3, 4, 5, 6, 0, 7, 8, 9]]
        preds = _preds([("m1", ranked)])
        out = recall_at_k(preds, ds, [5, 10])
        assert out[5] == 0.0 and out[10] == 1.0

    def test_k_beyond_list_counts_whole_list(self):
        ds = _dataset([("m1", [("a", 0), ("b", 1)])])
        preds = _preds([("m1", [("a", 0.9), ("b", 0.1)])])
        assert recall_at_k(preds, ds, [50]) == {50: 1.0}

    def test_monotone_in_k_on_fuzzed_predictions(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n_cands = int(rng.integers(2, 12))
            cands = [(f"c{i}", 0) for i in range(n_cands)]
            cands[int(rng.integers(0, n_cands))] = (cands[int(rng.integers(0, n_cands))][0], 1)
            gold_idx = int(rng.integers(0, n_cands))
            cands = [(f"c{i}", 1 if i == gold_idx else 0) for i in range(n_cands)]
            ds = _dataset([("m1", cands)])
            scores = rng.uniform(0, 1, size=n_cands)
            preds = _preds([("m1", list(zip([f"c{i}" for i in range(n_cands)], scores)))])
            ks = sorted(rng.integers(1, n_cands + 4, size=4).tolist())
            out = recall_at_k(preds, ds, ks)
            values = [out[k] for k in ks]
            assert values == sorted(values)


def _recall_brute_force(preds, ds, ks):
    """recall_at_k as one set per prediction per k, after a check of each
    prediction in turn: its mention is in ``ds``, and earlier predictions
    have not named it as often as ``ds`` holds it."""
    gold = {inst.mention.id: {c.id for c, l in zip(inst.candidates, inst.labels) if l == 1} for inst in ds.instances}
    mention_ids = [inst.mention.id for inst in ds.instances]
    for i, pred in enumerate(preds):
        if pred.mention_id not in gold:
            raise ValueError(f"prediction for unknown mention {pred.mention_id!r}")
        if [p.mention_id for p in preds[:i + 1]].count(pred.mention_id) > mention_ids.count(pred.mention_id):
            raise ValueError(f"repeated prediction for mention {pred.mention_id!r}")
    out = {}
    for k in ks:
        hits = sum(1 for pred in preds if {cid for cid, _ in pred.ranked[:k]} & gold[pred.mention_id])
        out[k] = hits / len(ds.instances) if ds.instances else 0.0
    return out


def _recall_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@st.composite
def _ranked_case(draw):
    """Mentions with 0 to 3 gold candidates among up to 8, and predictions
    for some of them that rank ids outside the list too; sometimes one more
    prediction, anywhere, repeats a mention or names an unknown one."""
    rows = []
    for i in range(draw(st.integers(0, 5))):
        labels = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=1, max_size=8))
        rows.append((f"m{i}", [(f"c{j}", l) for j, l in enumerate(labels)]))
    ids = st.sampled_from([f"c{j}" for j in range(10)])
    mids = [mid for mid, _ in rows]
    named = draw(st.lists(st.sampled_from(mids), unique=True)) if mids else []
    if draw(st.booleans()):
        extra = draw(st.sampled_from(named + ["unknown"]))
        named.insert(draw(st.integers(0, len(named))), extra)
    preds = [(mid, draw(st.lists(ids, max_size=10, unique=True))) for mid in named]
    ks = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    return _dataset(rows), _preds([(mid, [(cid, 0.5) for cid in ranked]) for mid, ranked in preds]), ks


class TestRecallAtKOnePass:
    @settings(max_examples=300, deadline=None)
    @given(_ranked_case())
    def test_matches_brute_force_count(self, case):
        ds, preds, ks = case
        assert _recall_outcome(recall_at_k, preds, ds, ks) == _recall_outcome(_recall_brute_force, preds, ds, ks)

    def test_k_below_one_rejected(self):
        ds = _dataset([("m1", [("a", 1)])])
        with pytest.raises(ValueError, match="positive"):
            recall_at_k(_preds([("m1", [("a", 0.9)])]), ds, [5, 0])


class TestBadPredictions:
    """prf1 and recall_at_k reject the same predictions with the same error."""

    DS = [("m1", [("a", 1), ("b", 0)]), ("m2", [("a", 0), ("b", 1)])]

    @pytest.mark.parametrize("score", [prf1, lambda preds, ds: recall_at_k(preds, ds, [1, 2])],
                             ids=["prf1", "recall_at_k"])
    @pytest.mark.parametrize("preds, message", [
        ([("m9", [("a", 0.9)])], "^prediction for unknown mention 'm9'$"),
        ([("m1", [("a", 0.9)]), ("m9", [("a", 0.9)])], "^prediction for unknown mention 'm9'$"),
        ([("m1", [("a", 0.9)]), ("m1", [("a", 0.9)])], "^repeated prediction for mention 'm1'$"),
        ([("m1", [("b", 0.9)]), ("m2", [("b", 0.9)]), ("m1", [("a", 0.9)])],
         "^repeated prediction for mention 'm1'$"),
    ], ids=["unknown", "unknown-after-known", "repeated", "repeated-later"])
    def test_unknown_or_repeated_mention_raises(self, score, preds, message):
        with pytest.raises(ValueError, match=message):
            score(_preds(preds), _dataset(self.DS))

    def test_a_mention_the_dataset_repeats_takes_as_many_predictions(self):
        ds = _dataset(self.DS + self.DS[:1])
        preds = _preds([("m1", [("a", 0.9)]), ("m2", [("b", 0.9)]), ("m1", [("b", 0.9)])])
        assert prf1(preds, ds).recall == pytest.approx(2 / 3)
        assert recall_at_k(preds, ds, [1, 2]) == {1: pytest.approx(2 / 3), 2: pytest.approx(2 / 3)}
        with pytest.raises(ValueError, match="^repeated prediction for mention 'm1'$"):
            prf1(preds + preds[:1], ds)

    def test_an_unknown_mention_long_id_is_cut(self):
        with pytest.raises(ValueError, match=r"^prediction for unknown mention '.{199}\.\.\.$"):
            recall_at_k(_preds([("m" * 500, [("a", 0.9)])]), _dataset(self.DS), [1])


class TestReportSerialization:
    def test_json_round_trip_byte_identical(self):
        report = EvalReport(
            precision=0.875,
            recall=0.875,
            f1=0.875,
            recall_at={5: 0.9375, 10: 1.0},
            per_mention=(("m1", True), ("m2", False)),
        )
        payload = report_to_json_bytes(report)
        again = EvalReport.from_json(json.loads(payload))
        assert report_to_json_bytes(again) == payload
        assert again == report

    def test_csv_has_fixed_columns(self):
        report = EvalReport(precision=1.0, recall=0.5, f1=2 / 3, recall_at={5: 1.0})
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "precision,recall,f1,recall_at_5"


def _trained_toy_model(toy_dataset):
    catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "prom"])
    table = build_feature_table(toy_dataset, catalog)
    graph = compile([builtin_templates()["Name"]], catalog)
    config = TrainConfig(epochs=30, learning_rate=0.01, mu=0.6, seed=0)
    model = train(toy_dataset, table, graph, config, catalog=catalog)
    return model, table


class TestLink:
    def test_ranks_by_score(self, toy_dataset):
        model, table = _trained_toy_model(toy_dataset)
        preds = link(model, toy_dataset, table)
        assert len(preds) == 2
        for pred in preds:
            scores = [s for _, s in pred.ranked]
            assert scores == sorted(scores, reverse=True)

    def test_toy_mention_links_to_director(self, toy_dataset):
        model, table = _trained_toy_model(toy_dataset)
        preds = {p.mention_id: p for p in link(model, toy_dataset, table)}
        assert preds["m1"].top == "James_Cameron"

    def test_feature_gap_is_error(self, toy_dataset):
        model, _ = _trained_toy_model(toy_dataset)
        thin = FeatureTable(["jacc"])
        with pytest.raises(FeatureError, match="lacks columns"):
            link(model, toy_dataset, thin)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_empty_candidate_list_is_a_dataset_error(self, toy_dataset, where):
        model, table = _trained_toy_model(toy_dataset)
        bare = LabeledInstance(Mention(id="z", surface="z", text_id="t9"), (), ())
        instances = list(toy_dataset.instances)
        instances.insert(where, bare)
        ds = Dataset(instances=tuple(instances), name="bare")
        for call in (link, evaluate):
            with pytest.raises(DatasetError, match="^mention 'z': empty candidate list$"):
                call(model, ds, table)
        assert validate_dataset(ds).violations == ("mention 'z': empty candidate list",)


def _wide_graph(rng, mode):
    """A hand-built gate of 8-12 children whose lnn pre-activation mostly
    stays inside the clamp, so a change in its last bits shows."""
    k = int(rng.integers(8, 13))
    leaves = [ThresholdLeaf(f"f{i}") if rng.integers(0, 2) else RawLeaf(f"f{i}") for i in range(k)]
    gate = GateParams(k, raw_weights=rng.normal(-2.5, 0.5, k), bias=rng.uniform(0.8, 1.5))
    manual = rng.uniform(0.5, 1.5, k) if mode == "manual" else None
    return ScoringGraph((AndNode if rng.integers(0, 2) else OrNode)(leaves, gate=gate, manual_weights=manual), mode=mode)


def _fuzzed_graph(rng, mode):
    """``test_ruledsl._random_expr`` with jittered parameters, or a wide gate."""
    if rng.integers(0, 2):
        graph = compile([RuleAST(name="Fuzz", body=_random_expr(rng, 3))], default_catalog(), mode=mode)
        for arr in graph.parameters().values():
            arr += rng.normal(0, 0.6, size=arr.shape)
        return graph
    return _wide_graph(rng, mode)


def _ragged_case(seed, mode):
    """A fuzzed graph over 1-6 mentions of 1-64 candidates each."""
    rng = np.random.default_rng(seed)
    graph = _fuzzed_graph(rng, mode)
    instances = []
    table = FeatureTable(graph.feature_names)
    for i in range(int(rng.integers(1, 7))):
        k = 1 if rng.random() < 0.4 else int(rng.integers(1, 65))  # one-row lists are the edge case
        labels = [int(v) for v in rng.random(k) < 0.2]
        labels[int(rng.integers(0, k))] = 1
        cands = tuple(CandidateEntity(id=f"m{i}c{j}", name="x") for j in range(k))
        instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id="t"), cands, tuple(labels)))
        for cand in cands:
            values = np.where(rng.random(len(graph.feature_names)) < 0.2, 1.0, rng.random(len(graph.feature_names)))
            table.add_row(f"m{i}", cand.id, dict(zip(graph.feature_names, values.tolist())))
    ds = Dataset(instances=tuple(instances), name="ragged")
    return Model(graph=graph, config=TrainConfig(), catalog=FeatureCatalog()), ds, table


class TestBatchedScoring:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["lnn", "tnorm", "manual"]))
    def test_one_walk_equals_a_walk_per_mention(self, seed, mode):
        model, ds, table = _ragged_case(seed, mode)
        graph, config = model.graph, TrainConfig(penalty_lambda=0.5)
        feats, offsets = table.gather_matrix(ds.instances, graph.feature_names)
        cols = dict(zip(graph.feature_names, feats))
        batched = graph.evaluate_batch(cols)
        expected_preds, expected_loss = [], 0.0
        for inst, start, end in zip(ds.instances, offsets, offsets[1:]):
            alone = graph.evaluate_batch(table.columns(inst, graph.feature_names))
            assert alone.tobytes() == batched[start:end].tobytes()
            expected_preds.append(Prediction(inst.mention.id, rank_candidates([c.id for c in inst.candidates], alone)))
            expected_loss += margin_loss(alone, inst.labels, config.mu)[0]
        assert link(model, ds, table) == expected_preds
        expected_loss = float(expected_loss + config.penalty_lambda * graph.residual_sum())
        assert np.float64(total_loss(graph, table, ds, config)).tobytes() == np.float64(expected_loss).tobytes()

    @pytest.mark.parametrize("mode", ["lnn", "tnorm", "manual"])
    def test_one_root_walk_per_call(self, mode, monkeypatch):
        model, ds, table = _ragged_case(5, mode)
        ds = Dataset(instances=ds.instances * 3, name="x")  # repeats are fine for scoring
        graph = model.graph
        root_walks = []
        run = graph._run

        def counting(cols, cache=None):
            root_walks.append(1)
            return run(cols, cache)

        monkeypatch.setattr(graph, "_run", counting)
        for call in (lambda: link(model, ds, table), lambda: evaluate(model, ds, table),
                     lambda: total_loss(graph, table, ds, TrainConfig())):
            root_walks.clear()
            call()
            assert len(root_walks) == 1

    def test_gather_names_every_missing_column(self, toy_dataset):
        table = FeatureTable(["jacc"])
        with pytest.raises(FeatureError, match="lacks columns: lev, prom"):
            table.gather_matrix(toy_dataset.instances, ["jacc", "lev", "prom"])


@st.composite
def _table_case(draw):
    """A fuzzed model over 1-6 mentions of 1-64 candidates, its table's rows
    shuffled or not, with or without rows of other mentions, and feature
    values drawn from a few levels (so scores tie and rows repeat) or spread;
    then at most one fault: a NaN in a row the dataset reads or in an extra
    row, a missing row, or a missing column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = _fuzzed_graph(rng, draw(st.sampled_from(["lnn", "tnorm", "manual"])))
    names = list(graph.feature_names)
    sizes = draw(st.lists(st.integers(1, 64), min_size=1, max_size=6))
    extra = draw(st.integers(0, 30))
    tied = draw(st.booleans())
    instances, keys = [], []
    for i, k in enumerate(sizes):
        cands = tuple(CandidateEntity(id=f"c{j}", name="x") for j in range(k))  # ids repeat across lists
        labels = (1,) + (0,) * (k - 1)
        instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id="t"), cands, labels))
        keys += [(f"m{i}", c.id) for c in cands]
    read = len(keys)
    keys += [(f"x{j % 3}", f"c{j}") for j in range(extra)]
    levels = np.array([0.0, 0.25, 0.5, 1.0])
    matrix = levels[rng.integers(0, 4, (len(keys), len(names)))] if tied else rng.random((len(keys), len(names)))
    fault = draw(st.sampled_from(["none", "none", "nan", "nan extra", "missing row", "missing column"]))
    if fault == "nan" or (fault == "nan extra" and extra):
        matrix[int(rng.integers(0, read)) if fault == "nan" else int(rng.integers(read, len(keys))),
               int(rng.integers(0, len(names)))] = np.nan
    block = FeatureTable(names, [m for m, _ in keys[:read]], [c for _, c in keys[:read]], matrix[:read].copy())
    order = rng.permutation(len(keys)) if draw(st.booleans()) else np.arange(len(keys))
    if fault == "missing row":
        order = np.delete(order, int(rng.integers(0, len(order))))
    if fault == "missing column":
        names = [n for n in names if n != names[int(rng.integers(0, len(names)))]]
        block = FeatureTable(names, block.mention_ids, block.candidate_ids, block.matrix[:, :len(names)].copy())
        matrix = matrix[:, :len(names)]
    table = FeatureTable(names, [keys[i][0] for i in order], [keys[i][1] for i in order], matrix[order])
    ds = Dataset(instances=tuple(instances), name="drawn")
    offsets = np.cumsum([0] + sizes).tolist()
    scoring_block = ScoringBlock([inst.mention.id for inst in instances], offsets, np.zeros(read, np.int8), block)
    return Model(graph=graph, config=TrainConfig(), catalog=FeatureCatalog()), ds, table, scoring_block


def _outcome(fn):
    """The predictions as (mention id, ranked ids, score bytes), or the
    error's type and message."""
    try:
        preds = fn()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return [(p.mention_id, [cid for cid, _ in p.ranked], np.array([s for _, s in p.ranked]).tobytes())
            for p in preds]


class TestOneScoringPath:
    @settings(max_examples=150, deadline=None)
    @given(case=_table_case())
    def test_link_and_predict_equal_the_reference(self, case):
        model, ds, table, block = case
        assert _outcome(lambda: link(model, ds, table)) == _outcome(lambda: rank_reference.link(model, ds, table))
        assert _outcome(lambda: link(model, block)) == _outcome(lambda: rank_reference.link(model, block))
        linker = RuleLinker()
        linker.model_ = model
        for inst in ds.instances:
            single = Dataset(instances=(inst,), name="one")
            want = _outcome(lambda: rank_reference.link(model, single, table))
            assert _outcome(lambda: linker.predict_rankings(single, table)) == want
            try:
                top = linker.predict(single, table)
            except Exception as exc:
                assert (type(exc), str(exc)) == want
            else:
                assert top == [want[0][1][0]]


class TestTransfer:
    def test_same_dataset_matches_in_domain_report(self, toy_dataset):
        model, table = _trained_toy_model(toy_dataset)
        a = evaluate(model, toy_dataset, table)
        b = transfer_eval(model, toy_dataset, table)
        assert a == b

    def test_incompatible_catalog_lists_missing(self, toy_dataset):
        model, _ = _trained_toy_model(toy_dataset)
        thin = FeatureTable(["jacc", "prom"])
        with pytest.raises(FeatureError, match="lev"):
            transfer_eval(model, toy_dataset, thin)


class TestAblation:
    def _setup(self):
        ds = generate_dataset(30, n_candidates=5, seed=21)
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "spacy", "ctx", "type", "prom"])
        table = build_feature_table(ds, catalog)
        return ds, catalog, table

    def test_single_subset_single_row(self):
        ds, catalog, table = self._setup()
        rows = ablation(ds, table, [["Name"]], TrainConfig(epochs=3), catalog=catalog)
        assert len(rows) == 1 and rows[0].label == "Name"

    def test_identical_subsets_identical_rows(self):
        ds, catalog, table = self._setup()
        rows = ablation(
            ds, table, [["Name"], ["Name"]], TrainConfig(epochs=3, seed=9), catalog=catalog
        )
        assert rows[0].report == rows[1].report

    def test_emitters_cover_every_row(self):
        ds, catalog, table = self._setup()
        rows = ablation(
            ds, table, [["Name"], ["Name", "Context"]], TrainConfig(epochs=3), catalog=catalog
        )
        md = ablation_markdown(rows)
        csv = ablation_csv(rows)
        assert "Name+Context" in md and "Name+Context" in csv
        assert md.count("|") >= 4 * 4

    def test_held_out_rows_score_each_subset_model_on_the_eval_set(self):
        ds, catalog, table = self._setup()
        held = generate_dataset(12, n_candidates=4, seed=22)
        held_table = build_feature_table(held, catalog)
        config = TrainConfig(epochs=3, seed=5)
        subsets = [["Name"], ["Name", "Context"]]
        rows = ablation(ds, table, subsets, config, catalog, eval_ds=held, eval_table=held_table)
        library = builtin_templates()
        for subset, row in zip(subsets, rows):
            graph = compile([disjoin("Ablation", [library[name] for name in subset])], catalog, alpha=config.alpha)
            model = train(ds, table, graph, config, catalog=catalog)
            assert row.report == evaluate(model, held, held_table)
            assert len(row.report.per_mention) == len(held.instances)

    @pytest.mark.parametrize("subsets, message", [
        ([], "ablation needs at least one template subset"),
        ([[]], "template subsets must be non-empty"),
        ([["Name"], []], "template subsets must be non-empty"),
    ])
    def test_no_subset_or_an_empty_one_is_an_error(self, subsets, message):
        ds, catalog, table = self._setup()
        with pytest.raises(ValueError, match=f"^{message}$"):
            ablation(ds, table, subsets, TrainConfig(epochs=1), catalog)

    def test_unknown_template_fails_before_any_training(self, monkeypatch):
        import rulelink.evaluation as evaluation

        ds, catalog, table = self._setup()
        monkeypatch.setattr(evaluation, "train", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(KeyError, match="no template 'Nope'"):
            ablation(ds, table, [["Name"], ["Nope"]], TrainConfig(epochs=1), catalog)


class TestExportWeights:
    def test_hand_set_edge_weight_appears(self, toy_dataset):
        model, _ = _trained_toy_model(toy_dataset)
        root = model.graph.root  # And node: children [Or, prom-leaf]
        root.gate.raw_weights[0] = softplus_inverse(0.26)
        doc = export_weights(model)
        assert doc["tree"]["op"] == "and"
        assert doc["tree"]["edge_weights"][0] == pytest.approx(0.26)

    def test_untrained_default_edges_are_one(self, toy_dataset):
        catalog = default_catalog().restricted(["jacc", "prom"])
        graph = compile(parse("rule Links = jacc? & prom;"), catalog)
        model = Model(graph=graph, config=TrainConfig(), catalog=catalog)
        doc = export_weights(model)
        assert doc["tree"]["edge_weights"] == pytest.approx([1.0, 1.0])

    def test_dot_output_passes_grammar_check(self, toy_dataset):
        model, _ = _trained_toy_model(toy_dataset)
        dot = weights_to_dot(export_weights(model))
        _validate_dot(dot)


def _validate_dot(text: str) -> None:
    """Minimal DOT digraph grammar check: header, balanced braces, and only
    node/edge statements of the expected shapes."""
    lines = [l.strip() for l in text.strip().split("\n")]
    assert lines[0] == "digraph scoring {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^n\d+ \[label="[^"]+"\];$')
    edge_re = re.compile(r'^n\d+ -> n\d+( \[label="[^"]+"\])?;$')
    attr_re = re.compile(r'^\w+="[^"]*";$')
    for line in lines[1:-1]:
        assert node_re.match(line) or edge_re.match(line) or attr_re.match(line), line
    assert text.count("{") == text.count("}")


class TestCheckpointFidelity:
    def test_export_import_link_identical(self, toy_dataset, tmp_path):
        model, table = _trained_toy_model(toy_dataset)
        path = tmp_path / "m.json"
        save_model(model, path)
        again = load_model(path)
        p1 = link(model, toy_dataset, table)
        p2 = link(again, toy_dataset, table)
        assert p1 == p2
