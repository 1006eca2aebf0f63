import csv
import dataclasses
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DEEP_JSON,
    HUGE_JSON_INT,
    JSON_VALUES,
    StubHandler,
    instance_obj,
    mutate_byte,
    mutate_key_path,
    mutate_line,
    outcome,
    write_jsonl,
    write_oversized_number,
)
from rulelink.corpus import (
    CandidateEntity,
    Dataset,
    LabeledInstance,
    Mention,
    canonical_lines,
    fetch_candidates,
    load_dataset,
    merge_external_scores,
    parse_json,
    save_dataset,
    validate_dataset,
)
from rulelink.cli import run
from rulelink.errors import DatasetError, FetchError
import reader_reference
import validate_reference


class TestLoadDataset:
    def test_drops_all_negative_instances(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                instance_obj("m1"),
                instance_obj("m2", labels=[0, 0]),
                instance_obj("m3"),
            ],
        )
        ds = load_dataset(path)
        assert len(ds.instances) == 2
        assert ds.report.all_negative == 1
        assert "dropped 1 all-negative" in ds.report.summary()

    def test_empty_file_loads_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        ds = load_dataset(path)
        assert ds.instances == ()

    def test_drops_empty_candidate_instances(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [instance_obj("m1"), instance_obj("m2", candidates=[], labels=[])],
        )
        ds = load_dataset(path)
        assert len(ds.instances) == 1
        assert ds.report.empty_candidates == 1
        assert "dropped 1 empty-candidate" in ds.report.summary()

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(instance_obj("m1")) + "\n{not json\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("field, message", [
        ("embedding", "malformed candidate (int too large to convert to float)"),
        ("external_scores", "malformed candidate (int too large to convert to float)"),
        ("indegree", "malformed candidate (int too large to convert to float)"),
        ("indegree_inf", "malformed candidate (cannot convert float infinity to integer)"),
        ("labels", "missing or malformed field (cannot convert float infinity to integer)"),
        ("mention_id", "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_oversized_number_names_line(self, tmp_path, field, message):
        path = write_oversized_number(tmp_path / "d.jsonl", field)
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"line 2: {message}")

    def test_line_nested_too_deep_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(instance_obj("m1")) + "\n" + DEEP_JSON + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value).startswith("line 2: invalid JSON (maximum recursion depth exceeded")

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), instance_obj("m2")])
        with open(path, "ab") as fh:
            fh.write(b"\n" + json.dumps(instance_obj("m3")).encode()[:-2] + b"\xff}\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path} line 4: not UTF-8 (invalid start byte)"

    def test_duplicate_mention_id_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), instance_obj("m1")])
        with pytest.raises(DatasetError, match="duplicate mention id"):
            load_dataset(path)

    def test_embedding_dim_mismatch_rejected(self, tmp_path):
        c1 = instance_obj("m1")
        c1["candidates"][0]["embedding"] = [0.0, 1.0]
        c2 = instance_obj("m2")
        c2["candidates"][0]["embedding"] = [0.0, 1.0, 2.0]
        path = write_jsonl(tmp_path / "d.jsonl", [c1, c2])
        with pytest.raises(DatasetError, match="dimension mismatch"):
            load_dataset(path)

    def test_duplicate_candidate_id_rejected(self, tmp_path):
        obj = instance_obj("m1")
        obj["candidates"][1]["id"] = "e1"
        path = write_jsonl(tmp_path / "d.jsonl", [obj])
        with pytest.raises(DatasetError, match="line 1: duplicate candidate id 'e1'"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_embedding_rejected(self, tmp_path, bad):
        obj = instance_obj("m1")
        obj["candidates"][0]["embedding"] = [0.5, bad]
        path = write_jsonl(tmp_path / "d.jsonl", [obj])
        with pytest.raises(DatasetError, match="non-finite embedding"):
            load_dataset(path)


    @pytest.mark.parametrize("edit, start", [
        (lambda obj: obj["candidates"][0].update(name=["n" * 100_000]), "line 1: candidate 'e1' name ['nnn"),
        (lambda obj: obj["mention"].update(id=[[[[["x" * 500]]]]]), "line 1: mention id [[[[['xxx"),
        (lambda obj: obj["mention"].update(type={"k": "t" * 10_000}), "line 1: mention type must be a string"),
        (lambda obj: obj["candidates"][0].update(external_scores={"s" * 10_000: 2.0}), "line 1: external score 'sss"),
    ])
    def test_echoed_value_is_cut_at_200_characters(self, tmp_path, edit, start):
        obj = instance_obj("m1")
        edit(obj)
        with pytest.raises(DatasetError) as info:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [obj]))
        message = str(info.value)
        assert message.startswith(start) and len(message) < 300, message[:400]
    @pytest.mark.parametrize(
        "where, key, value",
        [("candidate", "description", 5), ("candidate", "description", ["a thing"]),
         ("mention", "type", ["Person"]), ("mention", "type", 3)],
    )
    def test_non_string_description_or_type_rejected(self, tmp_path, where, key, value):
        bad = instance_obj("m2")
        target = bad["candidates"][1] if where == "candidate" else bad["mention"]
        target[key] = value
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), bad])
        with pytest.raises(DatasetError, match=f"line 2: .*{key}.* must be a string or null"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["mention id", "candidate id", "text_id", "context id"])
    def test_lone_surrogate_id_rejected(self, tmp_path, field):
        bad = instance_obj("m2", context_ids=["m1"])
        if field == "mention id":
            bad["mention"]["id"] = "m\ud800"
        elif field == "candidate id":
            bad["candidates"][0]["id"] = "e\udfff"
        elif field == "text_id":
            bad["mention"]["text_id"] = "t\ud800x"
        else:
            bad["mention"]["context_ids"] = ["m1", "c\udc00"]
        # json.dumps writes the lone surrogate as a \uXXXX escape: valid JSON
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), bad])
        with pytest.raises(DatasetError, match=f"line 2: {field} .* lone surrogate"):
            load_dataset(path)

    def test_surrogate_pairs_and_unicode_ids_load(self, tmp_path):
        obj = instance_obj("m\U0001f600", text_id="t\u00e9")
        obj["candidates"][0]["id"] = "Z\u00fcrich,_CH"
        path = write_jsonl(tmp_path / "d.jsonl", [obj])
        ds = load_dataset(path)
        assert ds.instances[0].mention.id == "m\U0001f600"
        assert ds.instances[0].candidates[0].id == "Z\u00fcrich,_CH"

    @pytest.mark.parametrize(
        "where, key, value",
        [("mention", "context_ids", "m2"), ("candidate", "domains", "Place"),
         ("instance", "labels", "10"), ("candidate", "embedding", "12")],
    )
    def test_string_for_list_rejected(self, tmp_path, where, key, value):
        # iterated as characters, each would load as a wrong but plausible value
        bad = instance_obj("m2", context_ids=["m1"])
        target = {"mention": bad["mention"], "candidate": bad["candidates"][0], "instance": bad}[where]
        target[key] = value
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), bad])
        with pytest.raises(DatasetError, match=f"line 2: .*{key} must be a list, not str"):
            load_dataset(path)

    @pytest.mark.parametrize("labels, kinds", [([0.7, 1], "float"), (["1", 0], "str"), ([True, False], "bool"),
                                               ([1.0, 0], "float"), ([1, 0.0, "0"], "float, str")])
    def test_label_that_is_not_a_json_integer_rejected(self, tmp_path, labels, kinds):
        # each would otherwise load as a 0/1 label through int()
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), instance_obj("m2", labels=labels)])
        with pytest.raises(DatasetError, match=f"^line 2: labels must be JSON integers 0 or 1, not {kinds}$"):
            load_dataset(path)

    @pytest.mark.parametrize("labels, reason", [
        (["x", 0], "invalid literal for int() with base 10: 'x'"),
        ([float("nan"), 0], "cannot convert float NaN to integer"),  # json writes and reads NaN
    ])
    def test_label_int_refuses_names_line(self, tmp_path, labels, reason):
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), instance_obj("m2", labels=labels)])
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"line 2: missing or malformed field ({reason})"

    @pytest.mark.parametrize("indegree, kind", [(3.9, "float"), (3.0, "float"), (True, "bool"), ("3", "str")])
    def test_indegree_that_is_not_a_json_integer_rejected(self, tmp_path, indegree, kind):
        bad = instance_obj("m2")
        bad["candidates"][1]["indegree"] = indegree
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), bad])
        with pytest.raises(DatasetError, match=f"^line 2: candidate 'e2' indegree must be a non-negative JSON "
                                               f"integer, not {kind}$"):
            load_dataset(path)

    @pytest.mark.parametrize("edit, fault", [
        (lambda obj: obj["mention"].update(id=7), "mention id 7 must be a string"),
        (lambda obj: obj["mention"].update(text_id=None), "text_id None must be a string"),
        (lambda obj: obj["mention"].update(context_ids=["m1", 7]), "context id 7 must be a string"),
        (lambda obj: obj["mention"].update(surface=12), "mention surface 12 must be a string"),
        (lambda obj: obj["candidates"][1].update(id=7), "candidate id 7 must be a string"),
        (lambda obj: obj["candidates"][1].update(name=None), "candidate 'e2' name None must be a string"),
        (lambda obj: obj["candidates"][1].update(domains=["Person", 5, None]),
         "candidate 'e2' domains must be strings, not NoneType, int"),
    ], ids=["mention_id", "text_id", "context_id", "surface", "candidate_id", "name", "domains"])
    def test_non_string_text_field_rejected(self, tmp_path, edit, fault):
        # str() would load null as "None" and 7 as "7", colliding with a real "7"
        bad = instance_obj("m2", context_ids=["m1"])
        edit(bad)
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), bad])
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"line 2: {fault}"

    @pytest.mark.parametrize("field, value, kinds", [
        ("external_scores", {"spacy": "0.9"}, "str"),
        ("external_scores", {"spacy": 0.5, "blink": True}, "bool"),
        ("embedding", ["1.5", True], "bool, str"),
        ("embedding", [0.5, None], "NoneType"),
    ])
    def test_non_number_rejected(self, tmp_path, field, value, kinds):
        # float() would load "0.9" as 0.9 and true as 1.0
        bad = instance_obj("m2")
        bad["candidates"][1][field] = value
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1"), bad])
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"line 2: malformed candidate ({field} values must be JSON numbers, not {kinds})"

    def test_integer_embedding_and_scores_load_as_floats(self, tmp_path):
        obj = instance_obj("m1")
        obj["candidates"][0].update(embedding=[1, 0.5], external_scores={"spacy": 1})
        cand = load_dataset(write_jsonl(tmp_path / "d.jsonl", [obj])).instances[0].candidates[0]
        assert cand.embedding == (1.0, 0.5) and cand.external_scores == {"spacy": 1.0}
        assert all(type(v) is float for v in (*cand.embedding, *cand.external_scores.values()))

    def test_integer_labels_and_indegree_load(self, tmp_path):
        obj = instance_obj("m1", labels=[0, 1])
        obj["candidates"][0].pop("indegree")
        inst = load_dataset(write_jsonl(tmp_path / "d.jsonl", [obj])).instances[0]
        assert inst.labels == (0, 1) and [c.indegree for c in inst.candidates] == [0, 1]
        assert all(type(v) is int for v in inst.labels)

    @pytest.mark.parametrize("candidates", [[5], 5, ["e1"]])
    def test_non_object_candidates_rejected(self, tmp_path, candidates):
        obj = instance_obj("m1")
        obj["candidates"] = candidates
        with pytest.raises(DatasetError, match="line 1: .*malformed"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [obj]))

    def test_label_length_mismatch_is_malformed(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1", labels=[1])])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_dangling_context_ids_pruned(self, tmp_path):
        keep = instance_obj("m1", context_ids=["m2", "m3"])
        dropped = instance_obj("m2", labels=[0, 0])
        other = instance_obj("m3")
        path = write_jsonl(tmp_path / "d.jsonl", [keep, dropped, other])
        ds = load_dataset(path)
        assert ds.instances[0].mention.context_ids == ("m3",)
        assert ds.report.pruned_context_ids == 1

    def test_every_retained_instance_has_positive_and_candidates(self, tmp_path):
        objs = [instance_obj(f"m{i}", labels=[0, 0] if i % 3 == 0 else [0, 1]) for i in range(9)]
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", objs))
        for inst in ds.instances:
            assert inst.candidates
            assert any(inst.labels)


class TestRoundTrip:
    def test_save_load_is_identity_on_retained(self, tmp_path):
        objs = [
            instance_obj("m1", context_ids=["m3"]),
            instance_obj("m2", labels=[0, 0]),
            instance_obj("m3", type="Person"),
        ]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_jsonl(first, objs)
        ds1 = load_dataset(first)
        save_dataset(ds1, second)
        ds2 = load_dataset(second)
        assert canonical_lines(ds1) == canonical_lines(ds2)
        assert second.read_text() == "\n".join(canonical_lines(ds1)) + "\n"

    def test_saved_bytes_are_the_recorded_ones(self, toy_dataset, tmp_path):
        # pinned bytes: non-ASCII escaped, floats as repr writes them, one line per instance
        first, second = toy_dataset.instances
        cand = dataclasses.replace(first.candidates[0], name="Z\u00fcrich \U0001f600", embedding=(0.5, -1e-300))
        ds = Dataset(instances=(dataclasses.replace(first, candidates=(cand,) + first.candidates[1:]), second))
        save_dataset(ds, tmp_path / "d.jsonl")
        digest = hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest()
        assert digest == "03ba1d84dcff348e4b8d4848c6cb729e537bfe5426d16030053d8d569a8740d3"
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]  # no temp file left behind


def _scores_csv(tmp_path, rows, name="scores.csv"):
    path = tmp_path / name
    path.write_text("mention_id,candidate_id,score\n" + "".join(f"{m},{c},{s}\n" for m, c, s in rows))
    return path


class TestMergeExternalScores:
    def test_values_stored_and_rescaled_when_out_of_range(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = _scores_csv(tmp_path, [("m1", "e1", 0.9), ("m1", "e2", 0.3)])
        merged = merge_external_scores(ds, path, "blinkscore")
        assert merged.instances[0].candidates[0].external_scores["blinkscore"] == 0.9
        assert merged.instances[0].candidates[1].external_scores["blinkscore"] == 0.3

        wide = _scores_csv(tmp_path, [("m1", "e1", 5.0), ("m1", "e2", -3.0)], name="wide.csv")
        merged = merge_external_scores(ds, wide, "blinkscore")
        assert merged.instances[0].candidates[0].external_scores["blinkscore"] == 1.0
        assert merged.instances[0].candidates[1].external_scores["blinkscore"] == 0.0

    def test_empty_file_gives_all_zero_column(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = _scores_csv(tmp_path, [])
        merged = merge_external_scores(ds, path, "col")
        assert all(c.external_scores["col"] == 0.0 for c in merged.instances[0].candidates)

    def test_duplicate_key_last_wins_with_warning(self, tmp_path, caplog):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = _scores_csv(tmp_path, [("m1", "e1", 0.2), ("m1", "e1", 0.8), ("m1", "e2", 0.5)])
        with caplog.at_level("WARNING"):
            merged = merge_external_scores(ds, path, "col")
        assert merged.instances[0].candidates[0].external_scores["col"] == 0.8
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_unknown_mention_warns_not_fails(self, tmp_path, caplog):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = _scores_csv(tmp_path, [("mX", "e1", 0.5), ("m1", "e1", 0.5), ("m1", "e2", 0.1)])
        with caplog.at_level("WARNING"):
            merged = merge_external_scores(ds, path, "col")
        assert merged.instances[0].candidates[0].external_scores["col"] == 0.5
        assert any("unknown mention" in rec.message for rec in caplog.records)

    def test_feature_name_collision_rejected(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = _scores_csv(tmp_path, [("m1", "e1", 0.5), ("m1", "e2", 0.2)])
        merged = merge_external_scores(ds, path, "col")
        with pytest.raises(DatasetError, match="already present"):
            merge_external_scores(merged, path, "col")

    def test_non_target_columns_bit_identical(self, tmp_path):
        obj = instance_obj("m1")
        obj["candidates"][0]["external_scores"] = {"pre": 0.123456789012345}
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [obj]))
        path = _scores_csv(tmp_path, [("m1", "e1", 0.5), ("m1", "e2", 0.25)])
        merged = merge_external_scores(ds, path, "col")
        stripped = [
            {k: v for k, v in json.loads(line)["candidates"][0].items()}
            for line in canonical_lines(merged)
        ]
        for cand in stripped:
            cand["external_scores"].pop("col")
        original = [json.loads(line)["candidates"][0] for line in canonical_lines(ds)]
        assert json.dumps(stripped, sort_keys=True) == json.dumps(original, sort_keys=True)

    @pytest.mark.parametrize("text, message", [
        ("mention,candidate,score\nm1,e1,0.5\n", "{path}: expected header mention_id,candidate_id,score"),
        ("mention_id,candidate_id,score\nm1,e1\n", "{path} line 2: expected 3 columns"),
        ("mention_id,candidate_id,score\nm1,e1,0.5,x\n", "{path} line 2: expected 3 columns"),
    ])
    def test_bad_header_or_row_width_names_file_and_line(self, tmp_path, text, message):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(DatasetError) as info:
            merge_external_scores(ds, path, "col")
        assert str(info.value) == message.format(path=path)

    def test_blank_first_line_is_an_empty_header(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = tmp_path / "scores.csv"
        path.write_text("\nm1,e1,0.5\n\nm1,e2,0.25\n")
        merged = merge_external_scores(ds, path, "col")
        assert [c.external_scores["col"] for c in merged.instances[0].candidates] == [0.5, 0.25]

    def test_unknown_candidate_warns_not_fails(self, tmp_path, caplog):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = _scores_csv(tmp_path, [("m1", "e1", 0.5), ("m1", "eX", 0.9)])
        with caplog.at_level("WARNING"):
            merged = merge_external_scores(ds, path, "col")
        assert [c.external_scores["col"] for c in merged.instances[0].candidates] == [0.5, 0.0]
        messages = [rec.message for rec in caplog.records]
        assert "merge col: 1 unknown candidate ids ignored" in messages
        assert "merge col: 1 dataset pairs defaulted to 0.0" in messages

    def test_quoted_cells_hold_commas_and_quotes(self, tmp_path):
        obj = instance_obj("m1")
        obj["candidates"][0]["id"] = "Washington,_D.C."
        obj["candidates"][1]["id"] = 'The_"Boss"'
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [obj]))
        path = tmp_path / "scores.csv"
        path.write_text(
            'mention_id,candidate_id,score\n'
            'm1,"Washington,_D.C.",0.5\n'
            '"m1","The_""Boss""",0.25\n'
        )
        merged = merge_external_scores(ds, path, "col")
        assert [c.external_scores["col"] for c in merged.instances[0].candidates] == [0.5, 0.25]

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "x"])
    def test_non_finite_or_bad_score_rejected(self, tmp_path, score):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = tmp_path / "scores.csv"
        path.write_text(f"mention_id,candidate_id,score\nm1,e1,0.5\nm1,e2,{score}\n")
        with pytest.raises(DatasetError, match="line 3: bad score"):
            merge_external_scores(ds, path, "col")

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = tmp_path / "scores.csv"
        path.write_bytes(b"mention_id,candidate_id,score\nm1,e1,0.5\nm1,e\xff2,0.25\n")
        with pytest.raises(DatasetError) as info:
            merge_external_scores(ds, path, "col")
        assert str(info.value) == f"{path} line 3: not UTF-8 (invalid start byte)"

    def test_csv_error_is_dataset_error(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        path = tmp_path / "scores.csv"
        path.write_text(f"mention_id,candidate_id,score\nm1,{'e' * 200_000},0.5\n")
        with pytest.raises(DatasetError, match="field larger than field limit"):
            merge_external_scores(ds, path, "col")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_kg_ids_written_by_csv_writer_merge_onto_their_candidates(self, tmp_path, data):
        # commas, quotes, line breaks and astral chars; no lone surrogates
        chars = st.one_of(st.sampled_from(',"\r\n \u00e9\U0001f600'), st.characters(blacklist_categories=("Cs",)))
        ident = st.text(chars, min_size=1, max_size=12)
        mention_ids = data.draw(st.lists(ident, min_size=1, max_size=4, unique=True))
        instances, rows = [], []
        for mid in mention_ids:
            cand_ids = data.draw(st.lists(ident, min_size=1, max_size=4, unique=True))
            values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(cand_ids), max_size=len(cand_ids)))
            cands = tuple(CandidateEntity(id=c, name="x") for c in cand_ids)
            labels = (1,) + (0,) * (len(cands) - 1)
            instances.append(LabeledInstance(Mention(id=mid, surface="s", text_id="t"), cands, labels))
            rows += [(mid, c, v) for c, v in zip(cand_ids, values)]
        path = tmp_path / "scores.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mention_id", "candidate_id", "score"])
            writer.writerows(data.draw(st.permutations(rows)))
        merged = merge_external_scores(Dataset(instances=tuple(instances), name="kg"), path, "col")
        expected = {(m, c): v for m, c, v in rows}
        for inst in merged.instances:
            for cand in inst.candidates:
                assert cand.external_scores["col"] == expected[(inst.mention.id, cand.id)]


class TestParseJson:
    """The one JSON decode rule: each fault of the text raises the error
    the boundary passes, chained to what json.loads raised."""

    @pytest.mark.parametrize("text, start, cause", [
        ("{", "Expecting property name enclosed in double quotes", json.JSONDecodeError),
        (f"[{HUGE_JSON_INT}]", "Exceeds the limit (4300 digits) for integer string conversion", ValueError),
        (DEEP_JSON, "maximum recursion depth exceeded while decoding a JSON array", RecursionError),
        (DEEP_JSON.encode(), "maximum recursion depth exceeded while decoding a JSON array", RecursionError),
    ])
    def test_each_fault_raises_the_given_error(self, text, start, cause):
        with pytest.raises(DatasetError) as info:
            parse_json(text, DatasetError)
        assert str(info.value).startswith(start)
        assert type(info.value.__cause__) is cause

    def test_valid_text_and_bytes_decode(self):
        assert parse_json('{"a": [1, 2.5, null]}', DatasetError) == {"a": [1, 2.5, None]}
        assert parse_json(b"[[[]]]", DatasetError) == [[[]]]


class TestFetchCandidates:
    def test_prunes_denylisted_and_truncates_to_k(self, stub_server):
        StubHandler.payload = [
            {"id": "kb/Titanic", "label": "Titanic", "typeName": ["Ship"]},
            {"id": "kb/Category:Ships", "label": "Ships", "typeName": []},
            {"id": "kb/Titanic_(1997_film)", "label": "Titanic (1997 film)", "typeName": ["Film"]},
            {"id": "kb/Titanic_Belfast", "label": "Titanic Belfast", "typeName": ["Museum"]},
            {"id": "kb/RMS_Titanic", "label": "RMS Titanic", "typeName": ["Ship"]},
        ]
        out = fetch_candidates(stub_server, "Titanic", k=2, denylist=("kb/Category:",))
        assert [c.id for c in out] == ["kb/Titanic", "kb/Titanic_(1997_film)"]
        assert out[1].domains == frozenset({"Film"})

    def test_k_zero_is_precondition_error(self, stub_server):
        with pytest.raises(ValueError, match="k must be >= 1"):
            fetch_candidates(stub_server, "x", k=0)

    def test_unreachable_endpoint_retries_then_raises(self):
        sleeps = []
        with pytest.raises(FetchError) as exc:
            fetch_candidates(
                "http://127.0.0.1:1/lookup",
                "x",
                timeout=0.2,
                sleep=sleeps.append,
            )
        assert exc.value.retriable
        assert len(sleeps) == 2  # 3 attempts, backoff between them

    def test_server_errors_retry_then_succeed(self, stub_server):
        StubHandler.payload = [{"id": "kb/A", "label": "A", "typeName": []}]
        StubHandler.fail_times = 2
        out = fetch_candidates(stub_server, "A", k=5, denylist=(), sleep=lambda s: None)
        assert [c.id for c in out] == ["kb/A"]
        assert StubHandler.calls == 3

    @pytest.mark.parametrize("record, fault", [
        ({"id": 7, "label": "A", "typeName": []}, "field 'id' is 7, not a string"),
        ({"id": "kb/A", "label": None, "typeName": []}, "field 'label' is None, not a string"),
        ({"id": "kb/A", "label": "A", "typeName": [5]}, "field 'typeName' is [5], not a list of strings"),
        ({"id": "kb/A", "label": "A", "typeName": "Place"}, "field 'typeName' is 'Place', not a list of strings"),
        ({"id": "kb/Category:A", "label": "A", "typeName": "Place"},  # checked before the denylist
         "field 'typeName' is 'Place', not a list of strings"),
    ])
    def test_reply_fields_taken_as_they_are(self, stub_server, record, fault):
        # str() would load 7 as '7', null as 'None', and "Place" as its characters
        StubHandler.payload = [{"id": "kb/B", "label": "B", "typeName": ["Thing"]}, record]
        with pytest.raises(FetchError) as exc:
            fetch_candidates(stub_server, "x", k=5, denylist=("kb/Category:",))
        assert str(exc.value).startswith(f"malformed lookup response ({fault}): ")
        assert not exc.value.retriable
        assert StubHandler.calls == 1

    @pytest.mark.parametrize("body, reason", [
        (DEEP_JSON, "maximum recursion depth exceeded while decoding a JSON array"),
        (f"[{HUGE_JSON_INT}]", "Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_reply_that_cannot_decode_is_fetch_error(self, stub_server, body, reason):
        StubHandler.payload = body.encode()
        with pytest.raises(FetchError) as exc:
            fetch_candidates(stub_server, "x", k=5)
        assert str(exc.value).startswith(f"malformed lookup response ({reason}")
        assert not exc.value.retriable
        assert StubHandler.calls == 1

    def test_missing_label_and_types_default(self, stub_server):
        StubHandler.payload = [{"id": "kb/A"}]
        assert fetch_candidates(stub_server, "x", k=5, denylist=()) == [CandidateEntity(id="kb/A", name="kb/A")]

    def test_malformed_response_is_parse_error(self, stub_server):
        StubHandler.payload = {"oops": True}
        with pytest.raises(FetchError, match="malformed lookup response"):
            fetch_candidates(stub_server, "x", k=1)


class TestFuzzedLookupReply:
    """One key path or byte of a valid lookup reply mutated: fetch_candidates
    returns candidates or raises only FetchError."""

    REPLY = [{"id": "kb/A", "label": "A", "typeName": ["Place", "Thing"]},
             {"id": "kb/Category:B", "label": "B", "typeName": []}, {"id": "kb/C"}]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_reply_raises_only_fetch_error(self, stub_server, data):
        reply = json.loads(json.dumps(self.REPLY))
        if data.draw(st.booleans()):
            mutate_key_path(reply, data, JSON_VALUES)
            StubHandler.payload = json.dumps(reply).encode("utf-8", "surrogatepass")
        else:
            StubHandler.payload = mutate_byte(json.dumps(reply).encode(), data)
        got = outcome(fetch_candidates, stub_server, "x", 5, ("kb/Category:",))
        if not isinstance(got, list):
            assert got[0] is FetchError, got
            assert got[1].startswith("malformed lookup response ("), got


# Every type JSON can produce, nested a little, plus integers no float holds.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)]) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


# Values of each field's own kind, so that the old check accepts enough drawn
# cases for the verdicts to be compared.
_WELL_TYPED = {
    "indegree": st.integers() | st.floats() | st.booleans(),
    "external_scores": st.dictionaries(st.text(max_size=3), st.floats() | st.integers(-1, 2) | st.booleans(),
                                       max_size=3),
    "embedding": st.none() | st.lists(st.floats() | st.integers() | st.booleans(), max_size=3),
    "domains": st.lists(st.text(max_size=3), max_size=3),
}


@st.composite
def _mistyped_fields(draw):
    """Some of a candidate's ``indegree``, ``external_scores``, ``embedding``
    and ``domains``, each a JSON value of any type or of its own kind; an
    ``external_scores`` mapping's values may be of any type too."""
    fields = draw(st.lists(st.sampled_from(sorted(_WELL_TYPED)), min_size=1, unique=True))
    values = {name: draw(_WELL_TYPED[name] | _JSON) for name in fields}
    if "external_scores" in values and draw(st.booleans()):
        values["external_scores"] = draw(st.dictionaries(st.text(max_size=3), _JSON, max_size=3))
    return values


# Mention fields and labels, each of its own kind, for the same reason.
_WELL_TYPED_MENTION = {
    "id": st.text(max_size=3),
    "surface": st.text(max_size=3),
    "text_id": st.text(max_size=3),
    "context_ids": st.lists(st.text(max_size=3), max_size=3).map(tuple),
    "mention_type": st.none() | st.text(max_size=3),
    "labels": st.lists(st.integers(0, 1), max_size=3).map(tuple),
}


@st.composite
def _mistyped_mention(draw):
    """Some of a mention's fields and its instance's ``labels``, each a JSON
    value of any type or of its own kind."""
    fields = draw(st.lists(st.sampled_from(sorted(_WELL_TYPED_MENTION)), unique=True))
    return {name: draw(_WELL_TYPED_MENTION[name] | _JSON) for name in fields}


class TestValidateDataset:
    def test_full_coverage_and_no_violations(self, toy_dataset):
        report = validate_dataset(toy_dataset)
        assert report.ok
        assert report.coverage["description"] == 1.0

    def test_missing_description_lowers_coverage_without_violation(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")]))
        report = validate_dataset(ds)
        assert report.ok
        assert report.coverage["description"] == 0.5

    def test_repeated_mention_and_empty_list_are_violations(self, toy_dataset):
        first = toy_dataset.instances[0]
        empty = LabeledInstance(Mention(id="m9", surface="s", text_id="t1"), (), ())
        report = validate_dataset(Dataset(instances=(*toy_dataset.instances, first, empty)))
        assert report.violations == ("duplicate mention id 'm1'", "mention 'm9': empty candidate list")

    def test_duplicate_candidate_id_is_violation(self, toy_dataset):
        from rulelink.corpus import Dataset, LabeledInstance

        inst = toy_dataset.instances[0]
        doubled = LabeledInstance(inst.mention, inst.candidates * 2, inst.labels * 2)
        report = validate_dataset(Dataset(instances=(doubled,), name="doubled"))
        assert "mention 'm1': duplicate candidate id 'James_Cameron'" in report.violations
        assert "mention 'm1': duplicate candidate id 'Roderick_Cameron'" in report.violations

    def test_label_length_mismatch_is_violation(self, toy_dataset):
        from rulelink.corpus import Dataset, LabeledInstance

        inst = toy_dataset.instances[0]
        broken = LabeledInstance(inst.mention, inst.candidates, (1,))
        ds = Dataset(instances=(broken, toy_dataset.instances[1]), name="broken")
        report = validate_dataset(ds)
        assert any("m1" in v and "labels" in v for v in report.violations)

    @pytest.mark.parametrize(
        "field, value, fault",
        [
            ("description", 5, "candidate 'James_Cameron' description must be a string or null"),
            ("embedding", (0.5, float("nan")), "candidate 'James_Cameron' has a non-finite embedding value"),
            ("id", "James\ud800", "candidate id 'James\\ud800' holds a lone surrogate"),
        ],
    )
    def test_in_code_faults_reported_as_at_load(self, toy_dataset, tmp_path, field, value, fault):
        inst = toy_dataset.instances[0]
        bad = dataclasses.replace(inst.candidates[0], **{field: value})
        broken = LabeledInstance(inst.mention, (bad,) + inst.candidates[1:], inst.labels)
        ds = Dataset(instances=(broken, toy_dataset.instances[1]), name="broken")
        assert validate_dataset(ds).violations == (f"mention 'm1': {fault}",)
        # the load boundary raises the same fault, with the line number
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(canonical_lines(ds)) + "\n")
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"line 1: {fault}"

    def test_in_code_non_string_id_is_violation(self, toy_dataset):
        inst = toy_dataset.instances[1]
        broken = LabeledInstance(dataclasses.replace(inst.mention, text_id=7), inst.candidates, inst.labels)
        report = validate_dataset(Dataset(instances=(toy_dataset.instances[0], broken), name="broken"))
        assert report.violations == ("mention 'm2': text_id 7 must be a string",)


    def test_in_code_unhashable_ids_are_violations(self, toy_dataset):
        from rulelink.estimator import RuleLinker

        first, second = toy_dataset.instances
        broken = LabeledInstance(dataclasses.replace(first.mention, id=["m1"], context_ids=(["m2"],)),
                                 first.candidates, first.labels)
        ds = Dataset(instances=(broken, broken, second), name="broken")
        assert validate_dataset(ds).violations == (
            "mention ['m1']: mention id ['m1'] must be a string",
            "mention ['m1']: context id ['m2'] must be a string",
        ) * 2 + ("mention 'm2': unknown context id 'm1'",)
        with pytest.raises(DatasetError, match=r"^dataset 'broken' has 5 violations: mention \['m1'\]: mention id"):
            RuleLinker(rules="LNN-EL", epochs=1).fit(ds)

    def test_in_code_non_string_text_is_violation(self, toy_dataset):
        inst = toy_dataset.instances[0]
        cand = dataclasses.replace(inst.candidates[0], name=None, domains=frozenset({"Person", 5}))
        broken = LabeledInstance(dataclasses.replace(inst.mention, surface=12), (cand,) + inst.candidates[1:],
                                 inst.labels)
        report = validate_dataset(Dataset(instances=(broken, toy_dataset.instances[1]), name="broken"))
        assert report.violations == (
            "mention 'm1': mention surface 12 must be a string",
            "mention 'm1': candidate 'James_Cameron' name None must be a string",
            "mention 'm1': candidate 'James_Cameron' domains must be strings, not int",
        )

    @pytest.mark.parametrize(
        "field, value, fault",
        [
            ("indegree", None, "candidate 'James_Cameron' indegree must be a number, not NoneType"),
            ("external_scores", {"spacy": "x"},
             "external score 'spacy' on candidate 'James_Cameron' must be a number, not str"),
            ("embedding", ("a",), "candidate 'James_Cameron' embedding must be a list of numbers"),
            ("external_scores", [], "candidate 'James_Cameron' external_scores must be a mapping, not list"),
            ("embedding", 5, "candidate 'James_Cameron' embedding must be a list of numbers"),
            ("domains", 5, "candidate 'James_Cameron' domains must be strings, not int"),
        ],
    )
    def test_in_code_mistyped_field_is_violation(self, toy_dataset, field, value, fault):
        from rulelink.estimator import RuleLinker

        inst = toy_dataset.instances[0]
        bad = dataclasses.replace(inst.candidates[0], **{field: value})
        broken = LabeledInstance(inst.mention, (bad,) + inst.candidates[1:], inst.labels)
        ds = Dataset(instances=(broken, toy_dataset.instances[1]), name="broken")
        assert validate_dataset(ds).violations == (f"mention 'm1': {fault}",)
        with pytest.raises(DatasetError) as info:
            RuleLinker(rules="LNN-EL", epochs=1).fit(ds)
        assert str(info.value) == f"dataset 'broken' has 1 violations: mention 'm1': {fault}"

    @pytest.mark.parametrize(
        "edit, fault",
        [
            (lambda inst: dataclasses.replace(inst, labels=None), "labels must be a list, not NoneType"),
            (lambda inst: dataclasses.replace(inst, labels=5), "labels must be a list, not int"),
            (lambda inst: dataclasses.replace(inst, mention=dataclasses.replace(inst.mention, context_ids=None)),
             "context_ids must be a list, not NoneType"),
        ],
        ids=["labels_none", "labels_int", "context_ids_none"],
    )
    def test_in_code_mistyped_mention_field_is_violation(self, toy_dataset, edit, fault):
        from rulelink.estimator import RuleLinker

        first, second = toy_dataset.instances
        ds = Dataset(instances=(edit(first), second), name="broken")
        assert validate_dataset(ds).violations == (f"mention 'm1': {fault}",)
        with pytest.raises(DatasetError) as info:
            RuleLinker(rules="LNN-EL", epochs=1).fit(ds)
        assert str(info.value) == f"dataset 'broken' has 1 violations: mention 'm1': {fault}"

    def test_long_mention_id_is_cut_in_every_violation(self, toy_dataset):
        first, second = toy_dataset.instances
        mid = ["m" * 100_000]
        ds = Dataset(instances=(dataclasses.replace(first, mention=dataclasses.replace(first.mention, id=mid)), second))
        cut = f"{repr(mid)[:200]}..."
        assert validate_dataset(ds).violations == (f"mention {cut}: mention id {cut} must be a string",
                                                   "mention 'm2': unknown context id 'm1'")

    def test_in_code_string_labels_keep_their_report(self, toy_dataset):
        first, second = toy_dataset.instances
        ds = Dataset(instances=(dataclasses.replace(first, labels="10"), second))
        assert validate_dataset(ds) == validate_reference.validate_dataset(ds)
        assert validate_dataset(ds).violations == ("mention 'm1': labels must be 0 or 1",)

    def test_in_code_score_names_of_mixed_types_are_violations(self, toy_dataset):
        from rulelink.estimator import RuleLinker

        first, second = toy_dataset.instances
        cand = dataclasses.replace(first.candidates[0], external_scores={1: 0.5})
        ds = Dataset(instances=(dataclasses.replace(first, candidates=(cand,) + first.candidates[1:]), second),
                     name="broken")
        report = validate_dataset(ds)
        fault = "mention 'm1': external score name 1 on candidate 'James_Cameron' must be a string"
        assert report.violations == (fault,)
        assert report.coverage["external:spacy"] == 0.75 and "external:1" not in report.coverage
        with pytest.raises(DatasetError, match=f"^dataset 'broken' has 1 violations: {fault}$"):
            RuleLinker(rules="LNN-EL", epochs=1).fit(ds)

    @pytest.mark.parametrize("indegree", [3.0, np.int64(3), np.int32(0), True])
    def test_in_code_numeric_indegree_is_accepted(self, toy_dataset, indegree):
        inst = toy_dataset.instances[0]
        cands = (dataclasses.replace(inst.candidates[0], indegree=indegree),) + inst.candidates[1:]
        ds = Dataset(instances=(LabeledInstance(inst.mention, cands, inst.labels), toy_dataset.instances[1]))
        assert validate_dataset(ds).ok

    @given(case=_mistyped_fields(), mention_case=_mistyped_mention(), dim=st.sampled_from([None, 2]))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_in_code_fields_of_any_json_type_never_raise(self, toy_dataset, case, mention_case, dim):
        inst = toy_dataset.instances[0]
        cands = (dataclasses.replace(inst.candidates[0], **case),) + inst.candidates[1:]
        labels = mention_case.pop("labels", inst.labels)
        mention = dataclasses.replace(inst.mention, **mention_case)
        ds = Dataset(instances=(LabeledInstance(mention, cands, labels), toy_dataset.instances[1]),
                     embedding_dim=dim)
        report = validate_dataset(ds)
        assert all(isinstance(v, str) for v in report.violations)
        try:
            want = validate_reference.validate_dataset(ds)
        except Exception:  # noqa: BLE001 - the old check raised: any report will do
            return
        assert report == want


class TestFetchAll:
    def test_bounded_pool_fetches_every_surface(self, stub_server):
        from rulelink.corpus import fetch_all

        StubHandler.payload = [{"id": "kb/X", "label": "X", "typeName": []}]
        out = fetch_all(stub_server, ["a", "b", "c"], k=3, max_in_flight=2, denylist=())
        assert set(out) == {"a", "b", "c"}
        assert all(len(v) == 1 and v[0].id == "kb/X" for v in out.values())


def _fuzz_instances() -> list[dict]:
    """A valid dataset that reaches every branch of the load walk: context
    ids (one dangling once m4 is dropped), embeddings, ids with a comma, a
    quote and a non-ASCII character, an all-negative list holding a 3-d
    embedding (dropped, so it sets no dimension) and an empty list."""
    m1 = instance_obj("m1", context_ids=["m2", "m4"], type="Person")
    m1["candidates"][0].update(embedding=[0.1, 0.2], external_scores={"spacy": 0.5})
    m1["candidates"][1].update(embedding=[0.3, 0.4], external_scores={"spacy": 0.25})
    m2 = instance_obj("m2", surface="Zürich", context_ids=["m1"], labels=[0, 1])
    m2["candidates"][0]["id"], m2["candidates"][1]["id"] = "Washington,_D.C.", 'The_"Boss"'
    m3 = instance_obj("m3", labels=[0, 0], text_id="t2")
    m3["candidates"][0]["embedding"] = [0.5, 0.5, 0.5]
    m4 = instance_obj("m4", candidates=[], labels=[], text_id="t2")
    m5 = instance_obj("m5", surface="Köln", candidates=[instance_obj()["candidates"][0]], labels=[1], text_id="t3")
    m5["candidates"][0].update(id="é1", embedding=[0.5, 0.6])
    return [m1, m2, m3, m4, m5]


def _jsonl(objs) -> str:
    return "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)


# Values that make a valid line faulty in ways JSON_VALUES does not reach: a
# repeated mention or candidate id, another embedding dimension, a lone
# surrogate, numbers no float holds, NaN.
_DATASET_VALUES = JSON_VALUES | st.sampled_from(
    ["m1", "m2", "m5", "e1", [0.5, 0.5, 0.5], [1, 0], [0], "e\ud800", 10**400, float("inf"), float("nan")])
_JUNK_LINES = st.sampled_from(["{", "[]", "null", '"x"', '{"mention": 5}', " ", "\x0c", "{}"]) | st.text(max_size=8)
_JUNK_ROWS = st.lists(st.sampled_from(["m1", "e1", "0.5", "", '"', "a,b", "x", "\n", "nan"]), max_size=4)
_SCORE_CELLS = st.sampled_from(
    ["m1", "m2", "e1", "e2", "mX", "eX", "0.5", "1.5", "-2", "nan", "inf", "x", "", "1e400", '"', "a,b", "\r",
     "mention_id", "candidate_id", "score"]) | st.text(max_size=3)


def _score_rows() -> list[list[str]]:
    """A valid scores CSV for ``_fuzz_instances``: quoted ids, a list whose
    scores leave [0, 1], a repeated key, an unknown mention and candidate,
    and a pair with no score."""
    return [["mention_id", "candidate_id", "score"], ["m1", "e1", "0.9"], ["m1", "e2", "0.3"],
            ["m2", "Washington,_D.C.", "5"], ["m2", 'The_"Boss"', "-3"], ["m1", "e1", "0.8"],
            ["mX", "e1", "0.5"], ["m1", "eX", "0.5"]]


class TestFuzzedFiles:
    """One line, key path, cell, header or byte of a valid dataset JSONL or
    scores CSV mutated. Each reader accepts what the reader it replaced
    accepted (``reader_reference``), with the same result, or raises only
    ``DatasetError`` with the same message: the load walk adds the line to a
    repeated mention id and to an embedding dimension mismatch, and merge
    messages name the file where they said ``scores file``."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_dataset_jsonl_loads_as_reference(self, tmp_path, data):
        objs = _fuzz_instances()
        kind = data.draw(st.sampled_from(["key path", "embedding", "line", "byte"]))
        if kind == "key path":
            mutate_key_path(objs[data.draw(st.integers(0, len(objs) - 1))], data, _DATASET_VALUES)
            raw = _jsonl(objs).encode("utf-8", "surrogatepass")
        elif kind == "embedding":  # one key path, which a uniform draw rarely picks
            cand = data.draw(st.sampled_from([c for obj in objs for c in obj["candidates"]]))
            cand["embedding"] = [0.5] * data.draw(st.integers(0, 3))
            raw = _jsonl(objs).encode()
        elif kind == "line":
            lines = mutate_line(_jsonl(objs).splitlines(), data, _JUNK_LINES)
            raw = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
        else:
            raw = mutate_byte(_jsonl(objs).encode(), data)
        path = tmp_path / "d.jsonl"
        path.write_bytes(raw)
        got, want = outcome(load_dataset, path), outcome(reader_reference.load_dataset, path)
        if isinstance(want, Dataset):
            assert got == want and got.report == want.report
        else:
            assert got[0] is want[0] is DatasetError
            if want[1].startswith(("duplicate mention id ", "embedding dimension mismatch: ")):
                assert re.fullmatch(rf"line \d+: {re.escape(want[1])}", got[1])
            else:
                assert got == want
        code = run(["featurize", "--data", str(path), "--rules", "builtin:Name", "--out", str(tmp_path / "f.csv")])
        assert code in ((0, 1) if isinstance(want, Dataset) else (1,))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_scores_csv_merges_as_reference(self, tmp_path, data):
        ds_path = tmp_path / "d.jsonl"
        ds_path.write_text(_jsonl(_fuzz_instances()), encoding="utf-8")
        ds = load_dataset(ds_path)
        rows = _score_rows()
        kind = data.draw(st.sampled_from(["cell", "header", "line", "byte"]))
        if kind in ("cell", "header"):
            at = 0 if kind == "header" else data.draw(st.integers(1, len(rows) - 1))
            rows[at][data.draw(st.integers(0, 2))] = data.draw(_SCORE_CELLS)
        elif kind == "line":
            rows = mutate_line(rows, data, _JUNK_ROWS)
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        raw = text.getvalue().encode("utf-8", "surrogatepass")
        path = tmp_path / "scores.csv"
        path.write_bytes(mutate_byte(raw, data) if kind == "byte" else raw)
        got = outcome(merge_external_scores, ds, path, "blink")
        want = outcome(reader_reference.merge_external_scores, ds, path, "blink")
        if isinstance(want, Dataset):
            assert got == want
        else:
            assert got[0] is want[0] is DatasetError
            assert got[1] == want[1].replace(f"scores file {path}", str(path)).replace("scores file", str(path))

    def test_first_faulty_line_is_reported(self, tmp_path):
        # a duplicate on line 2 outranks a parse fault on line 3 and a dimension mismatch on line 5
        objs = _fuzz_instances()
        objs[1]["mention"].update(id="m1", context_ids=[])
        objs[4]["candidates"][0]["embedding"] = [0.5]
        lines = _jsonl(objs).splitlines()
        lines[2] = "{"
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^line 2: duplicate mention id 'm1'$"):
            load_dataset(path)
        with pytest.raises(DatasetError, match=r"^line 3: invalid JSON"):
            reader_reference.load_dataset(path)
        objs = _fuzz_instances()
        objs[4]["candidates"][0]["embedding"] = [0.5]
        path.write_text(_jsonl(objs) + '{"mention"}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^line 5: embedding dimension mismatch: 1 vs 2 \(candidate 'é1'\)$"):
            load_dataset(path)
