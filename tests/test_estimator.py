import dataclasses

import pytest

from rulelink.corpus import Dataset, LabeledInstance, Mention
from rulelink.errors import CompileError, DatasetError, ParseError
from rulelink.estimator import RuleLinker
from synthgen import generate_dataset


@pytest.fixture(scope="module")
def small_ds():
    return generate_dataset(40, n_candidates=5, seed=13)


class TestParams:
    def test_get_set_round_trip(self):
        est = RuleLinker(epochs=5, margin=0.7)
        params = est.get_params()
        assert params["epochs"] == 5 and params["margin"] == 0.7
        clone = RuleLinker().set_params(**params)
        assert clone.get_params() == params

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            RuleLinker().set_params(volume=11)

    def test_unknown_rules_value_fails_at_fit(self, small_ds):
        est = RuleLinker(rules="NoSuchTemplate")
        with pytest.raises(CompileError, match="neither a built-in"):
            est.fit(small_ds)

    def test_rules_nested_too_deep_fail_at_fit_with_a_parse_error(self, small_ds):
        with pytest.raises(ParseError, match="nested too deeply"):
            RuleLinker(rules="rule Links = " + "(" * 5000 + "jacc?" + ")" * 5000 + ";", epochs=1).fit(small_ds)

    def test_in_code_non_string_description_fails_at_fit(self, toy_dataset):
        inst = toy_dataset.instances[0]
        bad = dataclasses.replace(inst.candidates[0], description=5)
        broken = LabeledInstance(inst.mention, (bad,) + inst.candidates[1:], inst.labels)
        ds = Dataset(instances=(broken, toy_dataset.instances[1]), name="broken")
        with pytest.raises(DatasetError, match="description must be a string or null"):
            RuleLinker(rules="rule Links = ctx?;", epochs=1).fit(ds)


class TestFitPredict:
    def test_fit_returns_self_and_sets_state(self, small_ds):
        est = RuleLinker(rules="Name", epochs=5, seed=1)
        assert est.fit(small_ds) is est
        assert hasattr(est, "model_")
        assert len(est.training_log_) == 5

    def test_predict_before_fit_raises(self, small_ds):
        with pytest.raises(RuntimeError, match="not fitted"):
            RuleLinker().predict(small_ds)

    def test_predict_shape_and_membership(self, small_ds):
        est = RuleLinker(rules="Name", epochs=5, seed=1).fit(small_ds)
        out = est.predict(small_ds)
        assert len(out) == len(small_ds.instances)
        for inst, cid in zip(small_ds.instances, out):
            assert cid in {c.id for c in inst.candidates}

    def test_score_is_f1_in_unit_interval(self, small_ds):
        est = RuleLinker(rules="Name", epochs=10, seed=1).fit(small_ds)
        f1 = est.score(small_ds)
        assert 0.0 <= f1 <= 1.0

    def test_dsl_source_accepted(self, small_ds):
        est = RuleLinker(rules="rule Links = jacc? & prom;", epochs=3).fit(small_ds)
        assert est.model_.graph.feature_names == ["jacc", "prom"]

    def test_tnorm_mode_trains(self, small_ds):
        est = RuleLinker(rules="Name", mode="tnorm", epochs=3).fit(small_ds)
        assert est.model_.graph.mode == "tnorm"

    def test_one_mention_with_no_candidates_is_a_dataset_error(self, small_ds):
        est = RuleLinker(rules="rule R = jacc? | lev?;", epochs=1).fit(small_ds)
        bare = Dataset(instances=(LabeledInstance(Mention(id="z", surface="z", text_id="t"), (), ()),))
        for call in (est.predict, est.predict_rankings, est.score):
            with pytest.raises(DatasetError, match="^mention 'z': empty candidate list$"):
                call(bare)

    def test_same_seed_same_predictions(self, small_ds):
        a = RuleLinker(rules="Name", epochs=5, seed=4).fit(small_ds).predict(small_ds)
        b = RuleLinker(rules="Name", epochs=5, seed=4).fit(small_ds).predict(small_ds)
        assert a == b
