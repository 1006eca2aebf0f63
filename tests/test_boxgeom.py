import numpy as np
import pytest

from rulelink.boxgeom import (
    Box,
    BoxParams,
    _box_loss_grad,
    _raw_params,
    _training_rows,
    box_gradients,
    box_of,
    box_similarity,
    intersect,
    joint_box_feature_multi,
    neighborhood,
    train_box_params,
)
from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention
from rulelink.errors import FeatureError, TrainingDivergence
from rulelink.training import TrainConfig


def _random_box(rng, dim=3):
    a = rng.uniform(-5, 5, size=dim)
    b = rng.uniform(-5, 5, size=dim)
    return Box(lower=np.minimum(a, b), upper=np.maximum(a, b))


class TestBoxOf:
    def test_examples(self):
        b = box_of([(0.0, 0.0), (1.0, 2.0)])
        assert b.lower.tolist() == [0.0, 0.0] and b.upper.tolist() == [1.0, 2.0]
        degenerate = box_of([(3.0, 3.0)])
        assert degenerate.lower.tolist() == degenerate.upper.tolist() == [3.0, 3.0]
        b3 = box_of([(1.0, 5.0), (2.0, 1.0), (0.0, 3.0)])
        assert b3.lower.tolist() == [0.0, 1.0] and b3.upper.tolist() == [2.0, 5.0]

    def test_empty_and_ragged_rejected(self):
        with pytest.raises(FeatureError):
            box_of([])
        with pytest.raises((FeatureError, ValueError)):
            box_of([(1.0, 2.0), (1.0,)])

    def test_contains_every_input_point(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pts = rng.normal(size=(int(rng.integers(1, 8)), 3))
            b = box_of(pts)
            for p in pts:
                assert b.contains(p)


class TestNeighborhood:
    def test_pure_translation(self):
        b = Box(lower=(0.0, 0.0), upper=(2.0, 2.0))
        out = neighborhood(b, BoxParams(psi=(1.0, 0.0), omega=(0.0, 0.0), beta_box=1.0))
        assert out.lower.tolist() == [1.0, 0.0] and out.upper.tolist() == [3.0, 2.0]

    def test_offset_grows_half_width(self):
        b = Box(lower=(0.0, 0.0), upper=(0.0, 0.0))
        out = neighborhood(b, BoxParams(psi=(0.0, 0.0), omega=(2.0, 2.0), beta_box=1.0))
        assert out.lower.tolist() == [-1.0, -1.0] and out.upper.tolist() == [1.0, 1.0]

    def test_identity(self):
        rng = np.random.default_rng(1)
        ident = BoxParams(psi=np.zeros(3), omega=np.zeros(3), beta_box=1.0)
        for _ in range(200):
            b = _random_box(rng)
            out = neighborhood(b, ident)
            assert np.array_equal(out.lower, b.lower) and np.array_equal(out.upper, b.upper)


class TestIntersect:
    def test_examples(self):
        a = Box(lower=(0.0, 0.0), upper=(2.0, 2.0))
        b = Box(lower=(1.0, 1.0), upper=(3.0, 3.0))
        ab = intersect(a, b)
        assert ab.lower.tolist() == [1.0, 1.0] and ab.upper.tolist() == [2.0, 2.0]
        disjoint = intersect(a, Box(lower=(5.0, 5.0), upper=(6.0, 6.0)))
        assert disjoint.empty
        same = intersect(a, a)
        assert np.array_equal(same.lower, a.lower) and np.array_equal(same.upper, a.upper)

    def test_algebra_over_random_boxes(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b, c = (_random_box(rng) for _ in range(3))
            ab, ba = intersect(a, b), intersect(b, a)
            assert np.array_equal(ab.lower, ba.lower) and np.array_equal(ab.upper, ba.upper)
            abc1, abc2 = intersect(intersect(a, b), c), intersect(a, intersect(b, c))
            if not abc1.empty and not abc2.empty:
                assert np.allclose(abc1.lower, abc2.lower) and np.allclose(abc1.upper, abc2.upper)
            aa = intersect(a, a)
            assert np.array_equal(aa.lower, a.lower)


class TestBoxSimilarity:
    def test_center_scores_one(self):
        b = Box(lower=(0.0, 0.0), upper=(2.0, 4.0))
        assert box_similarity(b.center, b) == 1.0

    def test_unit_distance_halves(self):
        b = Box(lower=(0.0, 0.0), upper=(2.0, 2.0))
        assert box_similarity((2.0, 1.0), b) == 0.5

    def test_empty_box_scores_zero(self):
        empty = intersect(
            Box(lower=(0.0,), upper=(1.0,)), Box(lower=(2.0,), upper=(3.0,))
        )
        assert box_similarity((0.5,), empty) == 0.0

    def test_monotone_in_l1_distance(self):
        rng = np.random.default_rng(3)
        b = Box(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        for _ in range(200):
            p = rng.uniform(-4, 4, size=2)
            q = b.center + 1.5 * (p - b.center)
            assert box_similarity(q, b) <= box_similarity(p, b) + 1e-12


def _embedded_instance(mid, text, surface, embeddings, labels, cos=None):
    cands = tuple(
        CandidateEntity(
            id=f"{mid}_c{j}",
            name=f"{surface}{j}",
            embedding=tuple(float(v) for v in emb),
            external_scores={} if cos is None else {"cos": float(cos[j])},
        )
        for j, emb in enumerate(embeddings)
    )
    mention = Mention(id=mid, surface=surface, text_id=text,
                      context_ids=tuple(m for m in ("a", "b") if m != mid))
    return LabeledInstance(mention=mention, candidates=cands, labels=tuple(labels))


def _two_mention_fixture():
    """Peer gold sits so its neighborhood (psi=(2,0)) covers the target gold.

    Mention a: gold at (0,0), decoy at (0,3). Mention b: gold at (2,0)
    (inside the projected neighborhood of a), decoy at (-2,3) (outside).
    """
    inst_a = _embedded_instance("a", "t", "alpha", [(0.0, 0.0), (0.0, 3.0)], [1, 0])
    inst_b = _embedded_instance("b", "t", "beta", [(2.0, 0.0), (-2.0, 3.0)], [1, 0])
    return Dataset(instances=(inst_a, inst_b), embedding_dim=2, name="boxfix")


class TestJointBoxFeature:
    def test_in_intersection_candidate_wins(self):
        ds = _two_mention_fixture()
        inst_b = ds.instances[1]
        params = BoxParams(psi=(2.0, 0.0), omega=(1.0, 1.0), beta_box=2.0)
        cos = np.zeros(2)
        out = joint_box_feature_multi(inst_b, [list(ds.instances[0].candidates)], params, cos)
        assert out[0] > out[1]
        # brute-force check: score = beta*sim(e, center(own ∩ projected peer))
        own = box_of([(2.0, 0.0), (-2.0, 3.0)])
        peer = box_of([(0.0, 0.0), (0.0, 3.0)])
        projected = neighborhood(peer, params)
        region = intersect(own, projected)
        sims = [box_similarity(e, region) for e in [(2.0, 0.0), (-2.0, 3.0)]]
        assert sims[0] > sims[1]

    def test_beta_zero_reduces_to_rescaled_cos(self):
        ds = _two_mention_fixture()
        inst_b = ds.instances[1]
        params = BoxParams(psi=(2.0, 0.0), omega=(1.0, 1.0), beta_box=0.0)
        cos = np.array([0.2, 0.9])
        out = joint_box_feature_multi(inst_b, [list(ds.instances[0].candidates)], params, cos)
        assert out.tolist() == [0.0, 1.0]

    def test_no_peer_returns_rescaled_cos(self):
        ds = _two_mention_fixture()
        inst_b = ds.instances[1]
        out = joint_box_feature_multi(inst_b, [], BoxParams.default(2), np.array([0.4, 0.1]))
        assert out.tolist() == [1.0, 0.0]

    def test_missing_embeddings_error(self):
        bare = LabeledInstance(
            Mention(id="x", surface="x", text_id="t"),
            (CandidateEntity(id="c", name="c"),),
            (1,),
        )
        peer = _embedded_instance("p", "t", "peer", [(0.0, 0.0), (1.0, 1.0)], [1, 0])
        with pytest.raises(FeatureError, match="embedding"):
            joint_box_feature_multi(bare, [list(peer.candidates)], BoxParams.default(2), np.array([0.5]))


class TestBoxGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            insts = []
            for mid in ("a", "b"):
                emb = rng.uniform(-2, 2, size=(3, 2))
                cos = rng.uniform(0, 1, size=3)
                labels = [0, 0, 0]
                labels[int(rng.integers(0, 3))] = 1
                insts.append(_embedded_instance(mid, "t", mid, emb, labels, cos=cos))
            ds = Dataset(instances=tuple(insts), embedding_dim=2, name="g")
            params = BoxParams(
                psi=rng.uniform(-1, 1, size=2), omega=rng.uniform(0.5, 2, size=2),
                beta_box=float(rng.uniform(0.5, 2)),
            )
            analytic = box_gradients(ds, params, mu=0.7)
            raw = _raw_params(params)
            h = 1e-6

            def loss_at(raw_dict):
                total = 0.0
                for inst, geom, cos in _training_rows(ds, "cos"):
                    total += _box_loss_grad(inst, geom, cos, raw_dict, 0.7, None)[0]
                return total

            for key in raw:
                arr = raw[key]
                flat = np.atleast_1d(arr)
                an = np.atleast_1d(np.asarray(analytic[key], dtype=float))
                for i in range(flat.size):
                    old = flat[i]
                    flat[i] = old + h
                    up = loss_at(raw)
                    flat[i] = old - h
                    dn = loss_at(raw)
                    flat[i] = old
                    fd = (up - dn) / (2 * h)
                    if abs(fd) < 1e-9 and abs(an[i]) < 1e-9:
                        continue
                    assert an[i] == pytest.approx(fd, rel=2e-3, abs=2e-6), (trial, key, i)


class TestTrainBoxParams:
    def test_zero_epochs_returns_init(self):
        ds = _two_mention_fixture()
        config = TrainConfig(epochs=0, learning_rate=0.05, mu=0.6, seed=0)
        init = BoxParams(psi=(0.5, -0.5), omega=(1.0, 2.0), beta_box=1.5)
        out = train_box_params(ds, config, init=init)
        assert np.allclose(out.psi, init.psi)
        assert np.allclose(out.omega, init.omega)
        assert out.beta_box == pytest.approx(init.beta_box)

    def test_nan_projection_stops_at_the_first_step(self):
        init = BoxParams(psi=(float("nan"), 0.0), omega=(1.0, 1.0), beta_box=1.0)
        config = TrainConfig(epochs=3, learning_rate=0.05, mu=0.6, seed=0)
        with pytest.raises(TrainingDivergence, match="non-finite score in epoch 0") as info:
            train_box_params(_two_mention_fixture(), config, init=init)
        assert info.value.log == []

    def test_no_embeddings_error(self, toy_dataset):
        with pytest.raises(FeatureError, match="embedding"):
            train_box_params(toy_dataset, TrainConfig(epochs=1, mu=0.6))

    def test_separable_fixture_reaches_perfect_ranking(self):
        ds = _separable_box_dataset(seed=9, n_texts=12)
        # grid-search oracle: some exact psi in {-1,0,1}^2 ranks perfectly
        best = None
        for px in (-1.0, 0.0, 1.0):
            for py in (-1.0, 0.0, 1.0):
                params = BoxParams(psi=(px, py), omega=(0.5, 0.5), beta_box=2.0)
                acc = _ranking_accuracy(ds, params)
                best = max(best or 0.0, acc)
        assert best == 1.0

        config = TrainConfig(epochs=60, learning_rate=0.05, mu=0.6, seed=3)
        trained = train_box_params(ds, config)
        assert _ranking_accuracy(ds, trained) == 1.0


def _separable_box_dataset(seed, n_texts):
    """Texts with two mentions; the true shift is psi*=(1, 0).

    The target mention's gold embedding sits exactly at peer box center +
    psi*, decoys sit far from it, so ranking by box similarity is perfect
    for that shift.
    """
    rng = np.random.default_rng(seed)
    instances = []
    for t in range(n_texts):
        center = rng.uniform(-2, 2, size=2)
        peer_pts = np.stack([center + (0.3, 0.0), center - (0.3, 0.0)])
        gold = center + (1.0, 0.0)
        decoys = gold + np.stack([(3.0, 3.0), (-3.0, 2.5)])
        inst_p = _embedded_instance(f"p{t}", f"t{t}", "peer", peer_pts, [1, 0])
        emb = np.vstack([gold, decoys])
        inst_m = _embedded_instance(f"m{t}", f"t{t}", "mention", emb, [1, 0, 0])
        instances.append(inst_p)
        instances.append(inst_m)
    return Dataset(instances=tuple(instances), embedding_dim=2, name="sep")


def _ranking_accuracy(ds: Dataset, params: BoxParams) -> float:
    from rulelink.corpus import Dataset as _DS

    correct = 0
    total = 0
    by_text = ds.instances_by_text()
    for inst in ds.instances:
        if not inst.mention.id.startswith("m"):
            continue
        peers = [o for o in by_text[inst.mention.text_id] if o.mention.id != inst.mention.id]
        cos = np.zeros(len(inst.candidates))
        out = joint_box_feature_multi(inst, [list(p.candidates) for p in peers], params, cos)
        total += 1
        correct += int(np.argmax(out) == inst.labels.index(1))
    return correct / total


class TestEmbeddingFiles:
    def _write(self, tmp_path, records):
        import json

        path = tmp_path / "emb.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_round_trip_attach(self, tmp_path):
        from rulelink.boxgeom import attach_embeddings, load_embeddings

        ds = _two_mention_fixture()
        bare = Dataset(
            instances=tuple(
                LabeledInstance(
                    inst.mention,
                    tuple(
                        CandidateEntity(id=c.id, name=c.name, indegree=c.indegree)
                        for c in inst.candidates
                    ),
                    inst.labels,
                )
                for inst in ds.instances
            ),
            name="bare",
        )
        records = [
            {"id": c.id, "vec": list(c.embedding)}
            for inst in ds.instances
            for c in inst.candidates
        ]
        path = self._write(tmp_path, records)
        table = load_embeddings(path)
        assert len(table) == 4 and table["a_c0"].shape == (2,)
        attached = attach_embeddings(bare, path)
        assert attached.embedding_dim == 2
        for before, after in zip(ds.instances, attached.instances):
            for b, a in zip(before.candidates, after.candidates):
                assert a.embedding == b.embedding

    def test_dimension_mismatch_rejected(self, tmp_path):
        from rulelink.boxgeom import load_embeddings

        path = self._write(tmp_path, [{"id": "a", "vec": [1.0, 2.0]}, {"id": "b", "vec": [1.0]}])
        with pytest.raises(FeatureError, match="dimension"):
            load_embeddings(path)

    def test_non_finite_vector_rejected(self, tmp_path):
        from rulelink.boxgeom import load_embeddings

        path = self._write(tmp_path, [{"id": "a", "vec": [1.0, 2.0]}, {"id": "b", "vec": [float("nan"), 0.0]}])
        with pytest.raises(FeatureError, match="line 2: non-finite"):
            load_embeddings(path)

    def test_unmatched_candidates_warn(self, tmp_path, caplog):
        from rulelink.boxgeom import attach_embeddings

        ds = _two_mention_fixture()
        path = self._write(tmp_path, [{"id": "a_c0", "vec": [0.0, 0.0]}])
        with caplog.at_level("WARNING"):
            out = attach_embeddings(ds, path)
        assert any("3 candidates" in rec.message for rec in caplog.records)
        assert out.instances[0].candidates[0].embedding == (0.0, 0.0)

    def test_box_params_file_round_trip(self, tmp_path):
        from rulelink.boxgeom import load_box_params, save_box_params

        params = BoxParams(psi=(0.5, -1.5), omega=(2.0, 0.25), beta_box=1.75)
        path = tmp_path / "box.json"
        save_box_params(params, path)
        again = load_box_params(path)
        assert np.array_equal(again.psi, params.psi)
        assert np.array_equal(again.omega, params.omega)
        assert again.beta_box == params.beta_box
