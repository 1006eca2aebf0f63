import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rulelink.boxgeom as boxgeom
from rulelink.boxgeom import (
    Box,
    BoxParams,
    _by_shape,
    _effective,
    _forward,
    _named,
    _pack,
    _summed_loss,
    _training_rows,
    box_feature,
    box_gradients,
    box_of,
    box_total_loss,
    box_similarity,
    intersect,
    neighborhood,
    load_box_params,
    load_embeddings,
    save_box_params,
    train_box_params,
)
from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention
from rulelink.errors import FeatureError, TrainingDivergence
from rulelink.training import TrainConfig
import box_reference
from conftest import DEEP_JSON, HUGE_JSON_INT, JSON_VALUES, mutate_byte, mutate_key_path, mutate_line, outcome


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


class TestBoxParams:
    @pytest.mark.parametrize("psi, omega, message", [
        ((float("nan"), 0.0), (1.0, 1.0), "psi must be a 1-D vector of finite numbers"),
        ((0.0, 0.0), (1.0, float("inf")), "omega must be a 1-D vector of finite numbers"),
        (((0.0,), (0.0,)), ((1.0,), (1.0,)), "psi must be a 1-D vector"),
        (0.0, 1.0, "psi must be a 1-D vector"),
        ((0.0, 0.0), (1.0, -1.0), "omega must be non-negative"),
    ])
    def test_rejects_malformed_vectors(self, psi, omega, message):
        with pytest.raises(FeatureError, match=message):
            BoxParams(psi=psi, omega=omega, beta_box=1.0)


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
        params = BoxParams(psi=(2.0, 0.0), omega=(1.0, 1.0), beta_box=2.0)
        out = box_feature(ds, params)[1]  # no cos column: cos is zero
        assert out[0] > out[1]
        # brute-force check: score = beta*sim(e, center(own ∩ projected peer))
        own = box_of([(2.0, 0.0), (-2.0, 3.0)])
        peer = box_of([(0.0, 0.0), (0.0, 3.0)])
        projected = neighborhood(peer, params)
        region = intersect(own, projected)
        sims = [box_similarity(e, region) for e in [(2.0, 0.0), (-2.0, 3.0)]]
        assert sims[0] > sims[1]

    def test_beta_zero_reduces_to_rescaled_cos(self):
        inst_a, _ = _two_mention_fixture().instances
        inst_b = _embedded_instance("b", "t", "beta", [(2.0, 0.0), (-2.0, 3.0)], [1, 0], cos=[0.2, 0.9])
        params = BoxParams(psi=(2.0, 0.0), omega=(1.0, 1.0), beta_box=0.0)
        out = box_feature(Dataset(instances=(inst_a, inst_b), embedding_dim=2), params)[1]
        assert out.tolist() == [0.0, 1.0]

    def test_no_peer_returns_rescaled_cos(self):
        inst_b = _embedded_instance("b", "t", "beta", [(2.0, 0.0), (-2.0, 3.0)], [1, 0], cos=[0.4, 0.1])
        out = box_feature(Dataset(instances=(inst_b,), embedding_dim=2), BoxParams.default(2))[0]
        assert out.tolist() == [1.0, 0.0]

    def test_missing_embeddings_error(self):
        bare = LabeledInstance(
            Mention(id="x", surface="x", text_id="t"),
            (CandidateEntity(id="c", name="c"),),
            (1,),
        )
        peer = _embedded_instance("p", "t", "peer", [(0.0, 0.0), (1.0, 1.0)], [1, 0])
        with pytest.raises(FeatureError, match="embedding"):
            box_feature(Dataset(instances=(bare, peer)), BoxParams.default(2))

    def test_wrong_dimension_names_the_candidate(self):
        ds = _two_mention_fixture()
        with pytest.raises(FeatureError, match="candidate 'a_c0' has a 2-d embedding, not 3-d like the box parameters"):
            box_feature(ds, BoxParams.default(3))
        config = TrainConfig(epochs=1, learning_rate=0.05, mu=0.6, seed=0)
        with pytest.raises(FeatureError, match="candidate 'a_c0' has a 2-d embedding, not 3-d like the box parameters"):
            train_box_params(ds, config, init=BoxParams.default(3))

    def test_first_bad_embedding_in_dataset_order_is_named(self):
        # a's peer c and b (of another text) are both 3-d; b comes first in
        # the dataset, though a's peers are read before b's list
        a = _embedded_instance("a", "t", "alpha", [(0.0, 0.0), (0.0, 3.0)], [1, 0])
        b = _embedded_instance("b", "u", "beta", [(0.0, 0.0, 0.0)], [1])
        c = _embedded_instance("c", "t", "gamma", [(1.0, 1.0, 1.0)], [1])
        d = _embedded_instance("d", "u", "delta", [(1.0, 1.0)], [1])
        ds = Dataset(instances=(a, b, c, d), embedding_dim=2)
        expected = "candidate 'b_c0' has a 3-d embedding, not 2-d like the box parameters"
        with pytest.raises(FeatureError, match=expected):
            box_feature(ds, BoxParams.default(2))
        with pytest.raises(FeatureError, match=expected):
            train_box_params(ds, TrainConfig(epochs=1, seed=0))

    def test_one_box_per_mention(self, monkeypatch):
        # a text of k mentions boxes each candidate list once, not once per co-mention
        insts = tuple(_embedded_instance(m, "t", m, [(float(k), 0.0), (0.0, float(k))], [1, 0])
                      for k, m in enumerate("abcde"))
        calls = []
        monkeypatch.setattr(boxgeom, "box_of", lambda emb: calls.append(1) or box_of(emb))
        box_feature(Dataset(instances=insts, embedding_dim=2), BoxParams.default(2))
        assert len(calls) == len(insts)

    def test_non_finite_score_names_the_mention(self):
        inst_a, _ = _two_mention_fixture().instances
        inst_b = _embedded_instance("b", "t", "beta", [(2.0, 0.0), (-2.0, 3.0)], [1, 0], cos=[0.2, float("nan")])
        with pytest.raises(FeatureError, match="box feature of mention 'b' is not finite"):
            box_feature(Dataset(instances=(inst_a, inst_b), embedding_dim=2), BoxParams.default(2))

    def test_first_non_finite_score_in_dataset_order_is_named(self):
        # a and c have two candidates and b three, so one shape stack holds a
        # and c and the next holds b: b fails first in the dataset, c first
        # in the stacks
        a = _embedded_instance("a", "t", "alpha", [(0.0, 0.0), (0.0, 3.0)], [1, 0], cos=[0.2, 0.4])
        b = _embedded_instance("b", "t", "beta", [(2.0, 0.0), (-2.0, 3.0), (1.0, 1.0)], [1, 0, 0],
                               cos=[0.2, float("nan"), 0.1])
        c = _embedded_instance("c", "t", "gamma", [(1.0, 0.0), (0.0, 1.0)], [0, 1], cos=[float("nan"), 0.3])
        with pytest.raises(FeatureError, match="box feature of mention 'b' is not finite"):
            box_feature(Dataset(instances=(a, b, c), embedding_dim=2), BoxParams.default(2))


@st.composite
def _box_feature_cases(draw):
    """Datasets of 1-4 texts with 1-6 mentions each (0-5 peers, so several
    candidate and peer counts, hence several stacks), 1-6 candidates per
    list, 1-40 dimensions, clustered or scattered embeddings, a text whose
    last mention sits far away (empty intersections), identical candidates
    with equal cos (all-equal scores), and parameters with psi, omega or
    beta_box 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 40))
    instances = []
    for t in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([0.0, 0.05, 0.3, 1.5]))
        center = rng.uniform(-2, 2, size=dim)
        n_mentions, far = draw(st.integers(1, 6)), draw(st.booleans())
        for k in range(n_mentions):
            i = len(instances)
            n = int(rng.integers(1, 7))
            spot = center + 8.0 * (far and k == n_mentions - 1)
            emb = spot + rng.normal(scale=scale, size=(n, dim))
            cos = np.full(n, 0.5) if scale == 0.0 else rng.uniform(size=n)
            cands = tuple(
                CandidateEntity(id=f"m{i}_c{j}", name=f"c{j}", embedding=tuple(float(v) for v in emb[j]),
                                external_scores={"cos": float(cos[j])})
                for j in range(n)
            )
            labels = [1] + [0] * (n - 1)
            instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id=f"t{t}"), cands,
                                             tuple(labels)))
    psi = draw(st.sampled_from([0.0, 0.05, 0.5])) * rng.uniform(-1, 1, size=dim)
    omega = draw(st.sampled_from([0.0, 0.3, 3.0])) * rng.uniform(size=dim)
    params = BoxParams(psi=psi, omega=omega, beta_box=draw(st.sampled_from([0.0, 0.7, float(rng.uniform(0.1, 3.0))])))
    return Dataset(instances=tuple(instances), embedding_dim=dim, name="fuzz"), params


class TestBoxFeatureAgainstPerMentionReference:
    @staticmethod
    def _assert_same_bytes(ds, params):
        got, want = box_feature(ds, params), box_reference.box_feature(ds, params)
        assert len(got) == len(want) == len(ds.instances)
        for inst, column, expected in zip(ds.instances, got, want):
            assert column.dtype == expected.dtype and column.shape == (len(inst.candidates),)
            assert column.tobytes() == expected.tobytes(), inst.mention.id

    @settings(max_examples=150, deadline=None)
    @given(_box_feature_cases())
    def test_columns_match_by_bytes(self, case):
        self._assert_same_bytes(*case)

    def test_scores_at_the_parameters_as_given(self):
        # softplus(softplus_inverse(omega)) can differ from omega in the last
        # bit; on the golden dataset that changes some columns at these seeds
        ds = _golden_box_dataset()
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi, omega = rng.uniform(-0.3, 0.3, size=4), rng.uniform(0.05, 1.0, size=4)
            self._assert_same_bytes(ds, BoxParams(psi=psi, omega=omega, beta_box=float(rng.uniform(0.5, 2.0))))


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
            an = np.concatenate([np.atleast_1d(analytic[key]) for key in ("psi", "raw_omega", "raw_beta")])
            vec = _pack(params)
            stacks = _by_shape(_training_rows(ds, 2)[1])
            h = 1e-6

            def loss_at(v):
                return _summed_loss(stacks, _named(v), 0.7)

            for i in range(vec.size):
                old = vec[i]
                vec[i] = old + h
                up = loss_at(vec)
                vec[i] = old - h
                dn = loss_at(vec)
                vec[i] = old
                fd = (up - dn) / (2 * h)
                if abs(fd) < 1e-9 and abs(an[i]) < 1e-9:
                    continue
                assert an[i] == pytest.approx(fd, rel=2e-3, abs=2e-6), (trial, i)


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
        # BoxParams rejects a NaN psi, so the NaN enters through a candidate
        # embedding: it is in both mentions' boxes, so every step sees it
        inst_a, inst_b = _two_mention_fixture().instances
        inst_a = _embedded_instance("a", "t", "alpha", [(float("nan"), 0.0), (0.0, 3.0)], [1, 0])
        ds = Dataset(instances=(inst_a, inst_b), embedding_dim=2, name="nan")
        config = TrainConfig(epochs=3, learning_rate=0.05, mu=0.6, seed=0)
        with pytest.raises(TrainingDivergence, match="non-finite score in epoch 0") as info:
            train_box_params(ds, config)
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


def _golden_box_dataset():
    """Seeded inputs for the golden-bytes box test.

    Ragged candidate counts (1 to 7), a text of 11 mentions (10 peers
    each), a two-mention text whose boxes sit far apart (empty
    intersection), one-candidate lists and a list of identical candidates
    (rescale span 0), lists with two positives, and a mention with no peer.
    """
    rng = np.random.default_rng(20261018)
    dim = 4
    specs = []  # (text, embeddings [n, dim], cos [n], labels)

    def labels_for(n, n_pos=1):
        labels = [0] * n
        for j in rng.choice(n, size=n_pos, replace=False):
            labels[int(j)] = 1
        return labels

    center = rng.uniform(-1, 1, size=dim)
    for _ in range(11):
        n = int(rng.integers(1, 8))
        specs.append(("wide", center + rng.normal(scale=0.12, size=(n, dim)), rng.uniform(size=n), labels_for(n)))
    for t in range(5):
        c = rng.uniform(-2, 2, size=dim)
        for _ in range(int(rng.integers(2, 4))):
            n = int(rng.integers(2, 6))
            specs.append((f"pair{t}", c + rng.normal(scale=0.3, size=(n, dim)), rng.uniform(size=n),
                          labels_for(n, 2 if n > 3 else 1)))
    specs.append(("far", rng.normal(scale=0.2, size=(3, dim)), rng.uniform(size=3), labels_for(3)))
    specs.append(("far", 10.0 + rng.normal(scale=0.2, size=(4, dim)), rng.uniform(size=4), labels_for(4)))
    same = rng.uniform(-1, 1, size=dim)
    specs.append(("flat", np.stack([same] * 3), np.full(3, 0.25), [0, 1, 0]))
    specs.append(("flat", same + rng.normal(scale=0.3, size=(1, dim)), np.array([0.5]), [1]))
    specs.append(("flat", same + rng.normal(scale=0.3, size=(5, dim)), rng.uniform(size=5), labels_for(5)))
    specs.append(("alone", rng.normal(size=(3, dim)), rng.uniform(size=3), labels_for(3)))

    instances = []
    for i, (text, emb, cos, labels) in enumerate(specs):
        cands = tuple(
            CandidateEntity(id=f"m{i}_c{j}", name=f"c{j}", embedding=tuple(float(v) for v in emb[j]),
                            external_scores={"cos": float(cos[j])})
            for j in range(len(labels))
        )
        instances.append(LabeledInstance(Mention(id=f"m{i}", surface=f"s{i}", text_id=text), cands, tuple(labels)))
    return Dataset(instances=tuple(instances), embedding_dim=dim, name="golden")


# (config, init, then hex of psi, omega, beta_box, box_total_loss and the
# box_gradients at the trained parameters), recorded from the per-peer,
# dict-parameter implementation this training replaced
GOLDEN_BOX_RUNS = [
    (
        TrainConfig(epochs=6, learning_rate=0.05, mu=0.6, seed=4),
        None,
        "94501ae606b9de3f70c395f75218afbf459e5005f6e9a43f0000000000000000",
        "d29f1d067e2ced3f755e45404b08f23f0d31e9c816a4f03f000000000000f03f",
        "cccc2ae92121f83f",
        "35931a84138b4740",
        {
            "psi": "2c9f373c17c7f2bf54f561effb180dc06c4dce5f8aafccbf0000000000000000",
            "raw_omega": "787ee5bebd76d63facd93b68016ee43f474a7deb168cb23f0000000000000000",
            "raw_beta": "1908cecfe60cfebf",
        },
    ),
    (
        TrainConfig(epochs=3, learning_rate=0.1, mu=0.8, seed=11),
        BoxParams(psi=(0.05, -0.1, 0.0, 0.2), omega=(0.1, 0.3, 0.05, 0.2), beta_box=0.8),
        "e30de58abc05e23fcc18550576ddc1bf3a59b5c19a24b33fa1117ead27bfbdbf",
        "60e9d3b0d85bb93f6802cdce875dd33f7edd6b484995a93fef59f7ba2edec93f",
        "b48e3bdd11ceef3f",
        "82611c1e12094e40",
        {
            "psi": "0000000000000000a01aa98d5c71c73f8a1998b8e6cdd5bfa01aa98d5c71c73f",
            "raw_omega": "000000000000000097023f65a97b983f1e2d0ab1ec00813f750d0e9a8a28913f",
            "raw_beta": "1913a1818deeb7bf",
        },
    ),
    (
        TrainConfig(epochs=8, learning_rate=0.03, mu=0.7, seed=2),
        BoxParams(psi=(0.013, -0.071, 0.029, 0.11), omega=(0.07, 0.11, 0.09, 0.13), beta_box=1.3),
        "82abe1175178db3fa5f72f4dd9b5c4bfd4d68657f66395bfa9c037b6c189c2bf",
        "4244bec64ad9b13fd5db09a1735dbc3fde0c2d456fc2b63fdd3ce16ef8cfc03f",
        "6c30d7200d39f83f",
        "541aa521018f4940",
        {
            "psi": "8a540146359bd63f5b3befcbb9cdc43f4857dce48ddde13f97ea2728b618edbf",
            "raw_omega": "7dbea352fc148a3f6f6f9f13a174813f83aabd4b3427b33f90048478317c843f",
            "raw_beta": "53b585ad3daeeebf",
        },
    ),
    (
        TrainConfig(epochs=5, learning_rate=0.07, mu=0.9, seed=5),
        BoxParams(psi=(-0.031, 0.047, 0.0123, -0.019), omega=(0.21, 0.17, 0.33, 0.27), beta_box=2.1),
        "5ccc7f193459ea3f574946732381cdbf260e00b87a36d2bf802c2ae0210d4e3f",
        "96f1584f3e58ca3fddb34cc4ecc2c53f1bba858ad603d43fff13cd169b5cd13f",
        "357c7380f5780140",
        "1edf65644d745040",
        {
            "psi": "0000000000000000ea5e4297d8c6da3f00000000000000000000000000000000",
            "raw_omega": "0000000000000000b3ea413edfbea03f00000000000000000000000000000000",
            "raw_beta": "95fffa18ea2997bf",
        },
    ),
]


class TestGoldenBoxTraining:
    def test_dataset_covers_the_edge_cases(self):
        ds = _golden_box_dataset()
        positions, rows = _training_rows(ds, 4)
        assert positions == list(range(len(ds.instances) - 1))
        assert len(rows) == len(ds.instances) - 1  # the "alone" mention has no peer
        assert max(len(row.peer_index) for row in rows) >= 9
        assert len({row.emb.shape[1] for row in rows}) >= 5
        params = BoxParams.default(4)
        empties, flats = [], []
        for row in rows:
            lo = np.maximum(row.lower[0, 0], (row.peer_lower[0] + params.psi - params.omega / 2).max(axis=0))
            hi = np.minimum(row.upper[0, 0], (row.peer_upper[0] + params.psi + params.omega / 2).min(axis=0))
            empties.append(bool((lo > hi).any()))
            flats.append(bool((_forward(row, _effective(_named(_pack(params))))[0] == 1.0).all()))  # rescale span 0
        assert any(empties) and not all(empties)
        assert any(flat and not empty for flat, empty in zip(flats, empties))

    @pytest.mark.parametrize("run", range(len(GOLDEN_BOX_RUNS)))
    def test_reproduces_recorded_bytes(self, run):
        config, init, psi, omega, beta, loss, grads = GOLDEN_BOX_RUNS[run]
        ds = _golden_box_dataset()
        trained = train_box_params(ds, config, init=init)
        assert trained.psi.tobytes().hex() == psi
        assert trained.omega.tobytes().hex() == omega
        assert np.float64(trained.beta_box).tobytes().hex() == beta
        assert np.float64(box_total_loss(ds, trained, config.mu)).tobytes().hex() == loss
        got = box_gradients(ds, trained, config.mu)
        assert {k: np.asarray(v, dtype=float).tobytes().hex() for k, v in got.items()} == grads

    def test_logs_epochs_and_final_loss(self, caplog):
        config, init = GOLDEN_BOX_RUNS[0][:2]
        ds = _golden_box_dataset()
        with caplog.at_level("INFO", logger="rulelink.boxgeom"):
            trained = train_box_params(ds, config, init=init)
        loss = box_total_loss(ds, trained, config.mu)
        assert [rec.getMessage() for rec in caplog.records] == [
            f"trained box parameters 6 epochs over {len(ds.instances) - 1} mentions: loss {loss:.6f}"
        ]

    def test_zero_epochs_log_nothing(self, caplog):
        with caplog.at_level("INFO", logger="rulelink.boxgeom"):
            train_box_params(_golden_box_dataset(), TrainConfig(epochs=0, mu=0.6))
        assert caplog.records == []


@st.composite
def _box_training_cases(draw):
    """Seeded datasets of 1-4 texts with 1-11 mentions each, 1-8 candidates
    per list (1..k positives), clustered or scattered embeddings and
    random start parameters, plus a short training config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    instances = []
    for t in range(draw(st.integers(1, 4))):
        center, scale = rng.uniform(-2, 2, size=dim), draw(st.sampled_from([0.05, 0.3, 1.5]))
        for _ in range(draw(st.integers(1, 11))):
            i = len(instances)
            n = int(rng.integers(1, 9))
            emb = center + rng.normal(scale=scale, size=(n, dim))
            labels = [1] * int(rng.integers(1, n + 1)) + [0] * n
            labels = rng.permutation(labels[:n]).tolist()
            cands = tuple(
                CandidateEntity(id=f"m{i}_c{j}", name=f"c{j}", embedding=tuple(float(v) for v in emb[j]),
                                external_scores={"cos": float(rng.choice([0.5, rng.uniform()]))})
                for j in range(n)
            )
            instances.append(LabeledInstance(Mention(id=f"m{i}", surface="s", text_id=f"t{t}"), cands,
                                             tuple(labels)))
    init = BoxParams(psi=rng.uniform(-0.5, 0.5, size=dim), omega=rng.uniform(0.05, 3.0, size=dim),
                     beta_box=float(rng.uniform(0.1, 3.0)))
    config = TrainConfig(epochs=draw(st.integers(1, 4)), learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.1])),
                         mu=draw(st.floats(0.6, 0.95)), seed=draw(st.integers(0, 100)))
    return Dataset(instances=tuple(instances), embedding_dim=dim, name="fuzz"), init, config


class TestAgainstPerPeerReference:
    @settings(max_examples=120, deadline=None)
    @given(_box_training_cases())
    def test_training_loss_and_gradients_match(self, case):
        ds, init, config = case
        descend, logs = boxgeom.descend, []

        def recording_descend(*args):
            logs.append(descend(*args))
            return logs[-1]

        boxgeom.descend = recording_descend
        try:
            trained = train_box_params(ds, config, init=init)
        finally:
            boxgeom.descend = descend
        ref, ref_log = box_reference.train_box_params(ds, config, init=init)
        assert trained.psi.tobytes() == ref.psi.tobytes()
        assert trained.omega.tobytes() == ref.omega.tobytes()
        assert np.float64(trained.beta_box).tobytes() == np.float64(ref.beta_box).tobytes()
        if logs:
            assert repr(logs) == repr([ref_log])
        else:  # no mention has a peer: nothing to train
            assert all(entry["loss"] == 0 for entry in ref_log)
        loss = box_total_loss(ds, init, config.mu)
        assert np.float64(loss).tobytes() == np.float64(box_reference.box_total_loss(ds, init, config.mu)).tobytes()
        # a row adds its peers' terms into the running sum as one reduction
        # where the reference added them peer by peer: equal up to rounding
        got, want = box_gradients(ds, init, config.mu), box_reference.box_gradients(ds, init, config.mu)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12)


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
    """Share of the target ("m") mentions whose gold candidate the box
    feature ranks first, scored with zero cos."""
    assert not any(c.external_scores for inst in ds.instances for c in inst.candidates)  # so cos is 0
    columns = box_feature(ds, params)
    ranked = [int(np.argmax(col) == inst.labels.index(1))
              for inst, col in zip(ds.instances, columns) if inst.mention.id.startswith("m")]
    return sum(ranked) / len(ranked)


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

    def test_attach_keeps_every_other_field(self, tmp_path, toy_dataset):
        from dataclasses import replace

        from rulelink.boxgeom import attach_embeddings

        records = [{"id": c.id, "vec": [0.5, 1.5]} for inst in toy_dataset.instances for c in inst.candidates]
        out = attach_embeddings(toy_dataset, self._write(tmp_path, records))
        assert (out.name, out.report, out.embedding_dim) == (toy_dataset.name, toy_dataset.report, 2)
        for before, after in zip(toy_dataset.instances, out.instances):
            assert (after.mention, after.labels) == (before.mention, before.labels)
            assert all(c.embedding == (0.5, 1.5) for c in after.candidates)
            assert [replace(c, embedding=None) for c in after.candidates] == list(before.candidates)

    def test_dimension_mismatch_rejected(self, tmp_path):
        from rulelink.boxgeom import load_embeddings

        path = self._write(tmp_path, [{"id": "a", "vec": [1.0, 2.0]}, {"id": "b", "vec": [1.0]}])
        with pytest.raises(FeatureError, match="dimension"):
            load_embeddings(path)

    @pytest.mark.parametrize("eid", [7, None])
    def test_non_string_id_rejected(self, tmp_path, eid):
        # str() would load 7 as "7" and null as "None"
        from rulelink.boxgeom import load_embeddings

        path = self._write(tmp_path, [{"id": "a", "vec": [1.0, 2.0]}, {"id": eid, "vec": [0.0, 1.0]}])
        with pytest.raises(FeatureError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path} line 2: embedding id {eid!r} must be a string"

    @pytest.mark.parametrize("eid", [["i" * 100_000], [[[[["i" * 500]]]]]])
    def test_long_id_is_cut_in_the_message(self, tmp_path, eid):
        path = self._write(tmp_path, [{"id": "a", "vec": [1.0, 2.0]}, {"id": eid, "vec": [0.0, 1.0]}])
        with pytest.raises(FeatureError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path} line 2: embedding id {repr(eid)[:200]}... must be a string"

    def test_non_finite_vector_rejected(self, tmp_path):
        from rulelink.boxgeom import load_embeddings

        path = self._write(tmp_path, [{"id": "a", "vec": [1.0, 2.0]}, {"id": "b", "vec": [float("nan"), 0.0]}])
        with pytest.raises(FeatureError, match="line 2: non-finite"):
            load_embeddings(path)

    @pytest.mark.parametrize("vec, reason", [
        ('"123"', "vec must be a list, not str"),
        ('["0.5", true, 2]', "vec values must be JSON numbers, not bool, str"),
        ("[null, 1.0]", "vec values must be JSON numbers, not NoneType"),
        ("[1" + "0" * 400 + ", 1.0]", "int too large to convert to float"),
    ])
    def test_vec_that_is_not_a_list_of_numbers_rejected(self, tmp_path, vec, reason):
        # float() would load "123" as [1, 2, 3] and true as 1.0
        from rulelink.boxgeom import load_embeddings

        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vec": [1.0, 2.0]}\n{"id": "b", "vec": ' + vec + "}\n")
        with pytest.raises(FeatureError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path} line 2: bad embedding record ({reason})"

    @pytest.mark.parametrize("line, reason", [
        (DEEP_JSON, "maximum recursion depth exceeded while decoding a JSON array"),
        ('{"id": "b", "vec": [' + HUGE_JSON_INT + "]}",
         "Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_line_that_cannot_decode_names_the_line(self, tmp_path, line, reason):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vec": [1.0, 2.0]}\n' + line + "\n")
        with pytest.raises(FeatureError) as info:
            load_embeddings(path)
        assert str(info.value).startswith(f"{path} line 2: bad embedding record ({reason}")

    def test_repeated_id_keeps_the_last_vector_and_warns_with_the_count(self, tmp_path, caplog):
        path = self._write(tmp_path, [{"id": "e1", "vec": [0.1, 0.2]}, {"id": "e2", "vec": [0.3, 0.4]},
                                      {"id": "e1", "vec": [0.9, 0.9]}, {"id": "e1", "vec": [0.7, 0.8]}])
        with caplog.at_level("WARNING", logger="rulelink.boxgeom"):
            table = load_embeddings(path)
        assert {key: vec.tolist() for key, vec in table.items()} == {"e1": [0.7, 0.8], "e2": [0.3, 0.4]}
        assert [rec.message for rec in caplog.records] == [f"embeddings {path}: 2 repeated ids, last vector wins"]

    def test_distinct_ids_load_without_a_warning(self, tmp_path, caplog):
        path = self._write(tmp_path, [{"id": "e1", "vec": [0.1, 0.2]}, {"id": "e2", "vec": [0.3, 0.4]}])
        with caplog.at_level("WARNING", logger="rulelink.boxgeom"):
            assert len(load_embeddings(path)) == 2
        assert caplog.records == []

    def test_attach_empty_file_leaves_the_dataset(self, tmp_path, caplog):
        from rulelink.boxgeom import attach_embeddings

        ds = _two_mention_fixture()
        with caplog.at_level("WARNING"):
            assert attach_embeddings(ds, self._write(tmp_path, [])) is ds
        assert any("is empty; dataset unchanged" in rec.message for rec in caplog.records)

    def test_attach_of_another_dimension_rejected(self, tmp_path):
        from rulelink.boxgeom import attach_embeddings

        ds = _two_mention_fixture()
        assert ds.embedding_dim == 2
        with pytest.raises(FeatureError, match="^embedding file dimension 3 != dataset dimension 2$"):
            attach_embeddings(ds, self._write(tmp_path, [{"id": "a_c0", "vec": [0.0, 0.0, 0.0]}]))

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

    @pytest.mark.parametrize("text, reason", [
        (DEEP_JSON, "maximum recursion depth exceeded while decoding a JSON array"),
        ('{"psi": [' + HUGE_JSON_INT + '], "omega": [1.0], "beta_box": 1.0}',
         "Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_box_params_that_cannot_decode_are_feature_errors(self, tmp_path, text, reason):
        path = tmp_path / "box.json"
        path.write_text(text)
        with pytest.raises(FeatureError) as info:
            load_box_params(path)
        assert str(info.value).startswith(f"{path}: {reason}")

    def test_box_params_bytes_are_the_recorded_ones(self, tmp_path):
        # pinned bytes: sorted keys, compact separators, floats as repr writes them
        save_box_params(BoxParams(psi=(0.1, -2.5, 1e-17), omega=(1.0, 1 / 3, 7e20), beta_box=0.75),
                        tmp_path / "box.json")
        digest = hashlib.sha256((tmp_path / "box.json").read_bytes()).hexdigest()
        assert digest == "66704567d016f386992da94c509c0cdc1f4abcee364b4c78e9c1dbd78dbf9f53"
        assert [p.name for p in tmp_path.iterdir()] == ["box.json"]  # no temp file left behind


# Values that make a valid embedding record or box parameter file faulty in
# ways JSON_VALUES does not reach: a repeated id, another dimension, numbers
# no float holds, NaN, a lone surrogate.
_EMBEDDING_VALUES = JSON_VALUES | st.sampled_from(
    ["e1", "é2", [0.5], [0.5, 0.5, 0.5], [True, 0.5], ["0.5", 1.0], 10**400, float("inf"), float("nan"), "e\ud800"])
_JUNK_LINES = st.sampled_from(["{", "[]", "null", '"x"', '{"id": 5}', '{"vec": [1.0, 2.0]}', " ", "\x0c", "{}",
                               DEEP_JSON, f"[{HUGE_JSON_INT}]"]) | st.text(max_size=8)


def _embedding_records() -> list[dict]:
    return [{"id": "e1", "vec": [0.1, 0.2]}, {"id": "é2", "vec": [-1.5, 3]}, {"id": "e,3", "vec": [0.0, 1e-300]}]


def _records_text(records) -> str:
    return "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)


class TestFuzzedEmbeddingAndBoxFiles:
    """One key path, line or byte of a valid embeddings JSONL or box
    parameter file mutated: each loads or raises only FeatureError, whose
    message names the file (and, for embeddings, the line)."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_embeddings_jsonl_raises_only_feature_error(self, tmp_path, data):
        records = _embedding_records()
        kind = data.draw(st.sampled_from(["key path", "line", "byte"]))
        if kind == "key path":
            mutate_key_path(records[data.draw(st.integers(0, len(records) - 1))], data, _EMBEDDING_VALUES)
            raw = _records_text(records).encode("utf-8", "surrogatepass")
        elif kind == "line":
            lines = mutate_line(_records_text(records).splitlines(), data, _JUNK_LINES)
            raw = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
        else:
            raw = mutate_byte(_records_text(records).encode(), data)
        path = tmp_path / "emb.jsonl"
        path.write_bytes(raw)
        got = outcome(load_embeddings, path)
        if not isinstance(got, dict):
            assert got[0] is FeatureError, got
            assert got[1].startswith(f"{path} line "), got

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_box_params_raise_only_feature_error(self, tmp_path, data):
        path = tmp_path / "box.json"
        save_box_params(BoxParams(psi=(0.5, -1.5), omega=(2.0, 0.25), beta_box=1.75), path)
        kind = data.draw(st.sampled_from(["key path", "line", "byte"]))
        if kind == "key path":
            obj = json.loads(path.read_text())
            mutate_key_path(obj, data, _EMBEDDING_VALUES)
            path.write_bytes(json.dumps(obj).encode("utf-8", "surrogatepass"))
        elif kind == "line":
            lines = mutate_line(path.read_text().splitlines(), data, _JUNK_LINES)
            path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass"))
        else:
            path.write_bytes(mutate_byte(path.read_bytes(), data))
        got = outcome(load_box_params, path)
        if not isinstance(got, BoxParams):
            assert got[0] is FeatureError, got
            assert got[1].startswith(f"{path}"), got
