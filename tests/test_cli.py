import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DEEP_JSON,
    HUGE_JSON_INT,
    JSON_VALUES,
    StubHandler,
    instance_obj,
    mutate_key_path,
    write_jsonl,
    write_oversized_number,
)
from rulelink import cli, errors, evaluation
from rulelink.cli import run
from rulelink.corpus import load_dataset, save_dataset
from rulelink.ruledsl import ast_leaves, find_root, parse
from rulelink.simfeatures import FeatureTable, sidecar_path
from rulelink.training import load_model, save_model
from synthgen import generate_dataset

RULES = (
    "rule NameSim = jacc? | lev? | jw?;\n"
    "rule Links = NameSim & prom;\n"
)


@pytest.fixture
def workdir(tmp_path):
    ds = generate_dataset(20, n_candidates=5, seed=17)
    data = tmp_path / "data.jsonl"
    save_dataset(ds, data)
    rules = tmp_path / "rules.elr"
    rules.write_text(RULES)
    return tmp_path


def _featurize(workdir, out="features.csv"):
    code = run(
        [
            "featurize",
            "--data", str(workdir / "data.jsonl"),
            "--rules", str(workdir / "rules.elr"),
            "--out", str(workdir / out),
        ]
    )
    assert code == 0
    return workdir / out


def _edit_first_instance(workdir, edit):
    """Rewrite data.jsonl with ``edit`` applied to its first instance."""
    path = workdir / "data.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    edit(obj)
    lines[0] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    return obj


def _train(workdir, out="model.json", seed="7", features="features.csv"):
    code = run(
        [
            "train",
            "--data", str(workdir / "data.jsonl"),
            "--features", str(workdir / features),
            "--rules", str(workdir / "rules.elr"),
            "--epochs", "5",
            "--mu", "0.6",
            "--lr", "0.01",
            "--seed", seed,
            "--out", str(workdir / out),
        ]
    )
    assert code == 0
    return workdir / out


class TestFeaturize:
    def test_header_matches_rule_leaves(self, workdir):
        path = _featurize(workdir)
        header = path.read_text().splitlines()[0].split(",")
        leaves = ast_leaves(find_root(parse(RULES)), parse(RULES))
        assert header == ["mention_id", "candidate_id"] + leaves

    def test_missing_data_file_exits_one(self, workdir, capsys):
        code = run(
            ["featurize", "--data", str(workdir / "nope.jsonl"),
             "--rules", str(workdir / "rules.elr"), "--out", str(workdir / "f.csv")]
        )
        assert code == 1
        assert "nope.jsonl" in capsys.readouterr().err

    def test_builtin_rules_accepted(self, workdir):
        code = run(
            ["featurize", "--data", str(workdir / "data.jsonl"),
             "--rules", "builtin:Name", "--out", str(workdir / "f.csv")]
        )
        assert code == 0
        header = (workdir / "f.csv").read_text().splitlines()[0]
        assert header == "mention_id,candidate_id,jacc,lev,jw,spacy,prom"

    def test_out_that_is_the_data_file_is_refused_and_left_alone(self, workdir, capsys):
        data = workdir / "data.jsonl"
        before = data.read_bytes()
        code = run(["featurize", "--data", str(data), "--rules", str(workdir / "rules.elr"), "--out", str(data)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"rulelink: --out {data} is the input --data {data}; no command writes over its inputs\n")
        assert data.read_bytes() == before


class TestTrainCli:
    def test_bit_identical_across_runs(self, workdir):
        _featurize(workdir)
        first = _train(workdir, out="m1.json")
        second = _train(workdir, out="m2.json")
        assert first.read_bytes() == second.read_bytes()

    def test_does_not_mutate_inputs(self, workdir):
        _featurize(workdir)
        data_before = (workdir / "data.jsonl").read_bytes()
        features_before = (workdir / "features.csv").read_bytes()
        _train(workdir)
        assert (workdir / "data.jsonl").read_bytes() == data_before
        assert (workdir / "features.csv").read_bytes() == features_before

    def test_config_file_applies(self, workdir):
        _featurize(workdir)
        cfg = workdir / "train.cfg"
        cfg.write_text("epochs = 2\nmu = 0.7\n")
        code = run(
            ["train", "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "features.csv"),
             "--rules", str(workdir / "rules.elr"),
             "--config", str(cfg),
             "--out", str(workdir / "m.json")]
        )
        assert code == 0
        model = json.loads((workdir / "m.json").read_text())
        assert model["config"]["epochs"] == 2
        assert model["config"]["mu"] == 0.7


    def test_lr_flag_sets_learning_rate(self, workdir, capsys):
        _featurize(workdir)
        code = run(
            ["train", "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "features.csv"),
             "--rules", str(workdir / "rules.elr"),
             "--epochs", "2", "--lr", "0.05",
             "--out", str(workdir / "m.json")]
        )
        assert code == 0
        assert '"learning_rate":0.05' in (workdir / "m.json").read_text()
        assert run(["train", "--nonsense"]) == 1
        assert "[--lr LR]" in capsys.readouterr().err


class TestLinkEvalCli:
    def test_link_then_eval(self, workdir, capsys):
        _featurize(workdir)
        _train(workdir)
        code = run(
            ["link", "--model", str(workdir / "model.json"),
             "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "features.csv"),
             "--out", str(workdir / "preds.json")]
        )
        assert code == 0
        preds = json.loads((workdir / "preds.json").read_text())
        assert len(preds) == 20

        code = run(
            ["eval", "--model", str(workdir / "model.json"),
             "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "features.csv"),
             "--ks", "1,5",
             "--out", str(workdir / "report.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=" in out and "R@5=" in out
        report = json.loads((workdir / "report.json").read_text())
        assert set(report) == {"precision", "recall", "f1", "recall_at", "per_mention"}

    def test_kg_id_with_comma_survives_featurize_train_link(self, workdir):
        def rename(obj):
            obj["candidates"][0]["id"] = "Washington,_D.C."

        obj = _edit_first_instance(workdir, rename)
        _featurize(workdir)
        _train(workdir)
        code = run(
            ["link", "--model", str(workdir / "model.json"),
             "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "features.csv"),
             "--out", str(workdir / "preds.json")]
        )
        assert code == 0
        preds = json.loads((workdir / "preds.json").read_text())
        ranked = next(p["ranked"] for p in preds if p["mention_id"] == obj["mention"]["id"])
        assert "Washington,_D.C." in [cid for cid, _ in ranked]

    def test_transfer_subcommand(self, workdir):
        _featurize(workdir)
        _train(workdir)
        code = run(
            ["transfer", "--model", str(workdir / "model.json"),
             "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "features.csv")]
        )
        assert code == 0


class TestInspectCli:
    def test_dot_export(self, workdir):
        _featurize(workdir)
        _train(workdir)
        code = run(
            ["inspect", "--model", str(workdir / "model.json"),
             "--dot", str(workdir / "tree.dot"),
             "--json", str(workdir / "weights.json")]
        )
        assert code == 0
        dot = (workdir / "tree.dot").read_text()
        assert dot.startswith("digraph scoring {")
        weights = json.loads((workdir / "weights.json").read_text())
        assert weights["tree"]["op"] == "and"

    def test_negated_leaf_in_json_dot_and_stdout(self, workdir, capsys):
        (workdir / "rules.elr").write_text(NOT_RULES)
        _featurize(workdir)
        _train(workdir)
        model = ["inspect", "--model", str(workdir / "model.json")]
        assert run(model + ["--json", str(workdir / "w.json"), "--dot", str(workdir / "w.dot")]) == 0
        doc = json.loads((workdir / "w.json").read_text())
        negated = doc["tree"]["children"][1]
        assert negated["op"] == "not" and negated["children"][0]["feature"] == "jw"
        dot = (workdir / "w.dot").read_text()
        assert '[label="NOT"];' in dot
        capsys.readouterr()
        assert run(model) == 0  # neither flag: the JSON goes to stdout
        assert json.loads(capsys.readouterr().out) == doc


NOT_RULES = "rule NameSim = jacc? | lev?;\nrule Links = NameSim & !jw? & prom;\n"


class TestModesCli:
    @pytest.mark.parametrize("mode", ["lnn", "tnorm", "manual"])
    def test_train_save_reload_and_link(self, workdir, mode):
        (workdir / "rules.elr").write_text(NOT_RULES)
        _featurize(workdir)
        inputs = ["--data", str(workdir / "data.jsonl"), "--features", str(workdir / "features.csv")]
        assert run(["train", *inputs, "--rules", str(workdir / "rules.elr"), "--mode", mode, "--epochs", "2",
                    "--out", str(workdir / "model.json")]) == 0
        model = load_model(workdir / "model.json")
        assert model.graph.mode == mode
        assert (model.graph.root.manual_weights is not None) == (mode == "manual")
        save_model(model, workdir / "again.json")  # the reloaded model writes the same bytes
        assert (workdir / "again.json").read_bytes() == (workdir / "model.json").read_bytes()
        assert run(["link", "--model", str(workdir / "model.json"), *inputs, "--out", str(workdir / "p.json")]) == 0
        ds, table = load_dataset(workdir / "data.jsonl"), FeatureTable.from_csv(workdir / "features.csv")
        expected = [{"mention_id": p.mention_id, "ranked": [list(r) for r in p.ranked]}
                    for p in evaluation.link(model, ds, table)]
        assert json.loads((workdir / "p.json").read_text()) == expected


class TestAblateCli:
    def test_markdown_table(self, workdir, capsys):
        code = run(
            ["featurize", "--data", str(workdir / "data.jsonl"),
             "--rules", "builtin:LNN-EL", "--out", str(workdir / "f.csv")]
        )
        assert code == 0
        code = run(
            ["ablate", "--data", str(workdir / "data.jsonl"),
             "--features", str(workdir / "f.csv"),
             "--templates", "Name,Name+Context",
             "--epochs", "2",
             "--out", str(workdir / "ablation.md")]
        )
        assert code == 0
        table = (workdir / "ablation.md").read_text()
        assert "| Name |" in table and "| Name+Context |" in table


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert run(["train", "--nonsense"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["upload"]) == 1

    def test_duplicate_candidate_ids_exit_one(self, workdir, capsys):
        def duplicate(obj):
            obj["candidates"][1]["id"] = obj["candidates"][0]["id"]

        _edit_first_instance(workdir, duplicate)
        code = run(
            ["featurize", "--data", str(workdir / "data.jsonl"),
             "--rules", str(workdir / "rules.elr"), "--out", str(workdir / "f.csv")]
        )
        assert code == 1
        assert "duplicate candidate id" in capsys.readouterr().err

    def test_jobs_flag_is_a_usage_error(self, workdir, capsys):
        code = run(
            ["featurize", "--data", str(workdir / "data.jsonl"),
             "--rules", str(workdir / "rules.elr"), "--out", str(workdir / "f.csv"), "--jobs", "2"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("rulelink: unrecognized arguments: --jobs 2\nusage: rulelink")
        assert not (workdir / "f.csv").exists()

    @pytest.mark.parametrize("flag", ["rules", "config", "embeddings", "model", "box-params"])
    def test_non_utf8_input_names_file_and_line(self, workdir, capsys, flag):
        text = {"rules": RULES, "config": "epochs = 2\n", "embeddings": '{"id": "e", "vec": [1.0]}\n',
                "model": '{"format_version": 1,\n', "box-params": '{"psi": [0.0],\n'}[flag]
        path = workdir / f"bad.{flag}"
        path.write_bytes(text.encode() + b"\xff\n")
        _featurize(workdir)
        common = ["--data", str(workdir / "data.jsonl"), "--out", str(workdir / "out")]
        rules, features = str(workdir / "rules.elr"), str(workdir / "features.csv")
        argv = {
            "rules": ["featurize", *common, "--rules", str(path)],
            "embeddings": ["featurize", *common, "--rules", rules, "--embeddings", str(path)],
            "config": ["train", *common, "--features", features, "--rules", rules, "--config", str(path)],
            "model": ["link", *common, "--features", features, "--model", str(path)],
            "box-params": ["featurize", *common, "--rules", rules, "--box-params", str(path)],
        }[flag]
        capsys.readouterr()
        assert run(argv) == 1
        line = text.count("\n") + 1
        assert capsys.readouterr().err == f"rulelink: {path} line {line}: not UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("command, name, unknown", [
        ("featurize", "Nope", "Nope"), ("featurize", "", ""), ("train", "Nope", "Nope"), ("ablate", "Nope", "Nope"),
        ("ablate", "", ""), ("ablate", "Name+", ""),
    ])
    def test_unknown_template_is_a_usage_error(self, workdir, capsys, command, name, unknown):
        _featurize(workdir)
        data, features = str(workdir / "data.jsonl"), str(workdir / "features.csv")
        argv = {
            "featurize": ["featurize", "--data", data, "--rules", f"builtin:{name}", "--out", str(workdir / "f.csv")],
            "train": ["train", "--data", data, "--features", features, "--rules", f"builtin:{name}",
                      "--out", str(workdir / "m.json")],
            "ablate": ["ablate", "--data", data, "--features", features, "--templates", f"Name,{name}"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == (f"rulelink: no template {unknown!r}; known: Name, Context, Type, Blink, "
                                           "Box, Bert, LNN-EL, LNN-EL+BLINK, LNN-EL_ens\n")

    def test_config_value_that_does_not_convert_names_file_line_and_key(self, workdir, capsys):
        _featurize(workdir)
        cfg = workdir / "train.cfg"
        cfg.write_text("mu = 0.7\nepochs = abc\n")
        capsys.readouterr()
        assert run(["train", "--data", str(workdir / "data.jsonl"), "--features", str(workdir / "features.csv"),
                    "--rules", str(workdir / "rules.elr"), "--config", str(cfg), "--out", str(workdir / "m.json")]) == 1
        assert capsys.readouterr().err == (
            f"rulelink: {cfg} line 2: bad value for 'epochs' (invalid literal for int() with base 10: 'abc')\n")

    @pytest.mark.parametrize("flags, message", [
        (["--ks", "a"], "argument --ks: expected comma-separated positive integers, not 'a'"),
        (["--ks", "0"], "argument --ks: expected comma-separated positive integers, not '0'"),
        (["--penalty-lambda", "nan"], "penalty_lambda must be finite and >= 0"),
        (["--seed", "-1"], "seed must be >= 0"),
    ])
    def test_setting_out_of_range_names_it(self, cli_inputs, capsys, flags, message):
        inputs = ["--data", str(cli_inputs / "data.jsonl"), "--features", str(cli_inputs / "features.csv")]
        command = (["eval", "--model", str(cli_inputs / "model.json")] if flags[0] == "--ks" else
                   ["train", "--rules", "builtin:LNN-EL", "--out", str(cli_inputs / "unwritten.json")])
        assert run(command + inputs + flags) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"rulelink: {message}"

    @pytest.mark.parametrize("target, code", [("missing", 1), ("directory", 2)])
    def test_out_that_cannot_be_written_names_the_path(self, workdir, capsys, target, code):
        out = workdir / "missing" / "f.csv" if target == "missing" else workdir
        capsys.readouterr()
        assert run(["featurize", "--data", str(workdir / "data.jsonl"), "--rules", str(workdir / "rules.elr"),
                    "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("rulelink: [Errno ") and err.endswith(f": {str(out)!r}\n")
        assert ".rulelink-" not in err and not list(out.parent.glob(".rulelink-*"))

    def test_bad_rules_syntax_exits_one(self, workdir, capsys):
        (workdir / "bad.elr").write_text("rule broken = ;")
        code = run(
            ["featurize", "--data", str(workdir / "data.jsonl"),
             "--rules", str(workdir / "bad.elr"), "--out", str(workdir / "f.csv")]
        )
        assert code == 1


    def test_python_dash_m_exits_as_documented(self, tmp_path):
        # ``python -m rulelink.cli`` runs what the ``rulelink`` script runs
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "rulelink.cli", "eval", "--model", "missing.json", "--data", "data.jsonl",
             "--features", "features.csv"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "rulelink: no such file: missing.json\n")


class TestParserReuse:
    def test_a_flag_of_one_run_does_not_reach_the_next(self, workdir, capsys):
        _featurize(workdir)
        _train(workdir)
        argv = ["eval", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.jsonl"),
                "--features", str(workdir / "features.csv")]
        capsys.readouterr()
        assert run(argv + ["--ks", "1"]) == 0
        assert "R@1=" in capsys.readouterr().out
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "R@1=" not in out and all(f"R@{k}=" in out for k in (5, 10, 64))

    def test_usage_error_is_the_same_on_every_run(self, capsys):
        with pytest.raises(cli.UsageError) as fresh:
            cli.build_parser().parse_args(["train", "--nonsense"])
        errs = []
        for _ in range(2):
            assert run(["train", "--nonsense"]) == 1
            errs.append(capsys.readouterr().err)
        assert errs == [f"rulelink: {fresh.value}\n"] * 2


class TestTypedFieldsCli:
    @pytest.mark.parametrize(
        "rule, edit",
        [
            ("ctx", lambda obj: obj["candidates"][0].update(description=5)),
            ("type", lambda obj: obj["mention"].update(type=["Person"])),
        ],
    )
    def test_non_string_field_exits_one(self, tmp_path, capsys, rule, edit):
        objs = [instance_obj("m1", context_ids=["m2"]), instance_obj("m2", context_ids=["m1"])]
        edit(objs[1])
        write_jsonl(tmp_path / "d.jsonl", objs)
        (tmp_path / "r.elr").write_text(f"rule Links = jacc? & {rule}?;\n")
        code = run(["featurize", "--data", str(tmp_path / "d.jsonl"),
                    "--rules", str(tmp_path / "r.elr"), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "line 2:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj["mention"].update(context_ids="m1"),
            lambda obj: obj["candidates"][0].update(domains="Place"),
            lambda obj: obj.update(labels="10"),
            lambda obj: obj["candidates"][0].update(embedding="12"),
        ],
        ids=["context_ids", "domains", "labels", "embedding"],
    )
    def test_string_for_list_exits_one(self, tmp_path, capsys, edit):
        objs = [instance_obj("m1", context_ids=["m2"]), instance_obj("m2", context_ids=["m1"])]
        edit(objs[1])
        write_jsonl(tmp_path / "d.jsonl", objs)
        (tmp_path / "r.elr").write_text("rule Links = jacc? & type?;\n")
        code = run(["featurize", "--data", str(tmp_path / "d.jsonl"),
                    "--rules", str(tmp_path / "r.elr"), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "must be a list" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj.update(labels=[0.7, 1]), "labels must be JSON integers 0 or 1, not float"),
            (lambda obj: obj.update(labels=[True, False]), "labels must be JSON integers 0 or 1, not bool"),
            (lambda obj: obj["candidates"][0].update(indegree=3.9),
             "candidate 'e1' indegree must be a non-negative JSON integer, not float"),
        ],
        ids=["float_label", "bool_label", "float_indegree"],
    )
    def test_coerced_number_exits_one(self, tmp_path, capsys, edit, message):
        objs = [instance_obj("m1"), instance_obj("m2")]
        edit(objs[1])
        write_jsonl(tmp_path / "d.jsonl", objs)
        (tmp_path / "r.elr").write_text("rule Links = jacc? & prom;\n")
        code = run(["featurize", "--data", str(tmp_path / "d.jsonl"),
                    "--rules", str(tmp_path / "r.elr"), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"rulelink: line 2: {message}\n"

    @pytest.mark.parametrize("field", ["embedding", "external_scores", "indegree", "indegree_inf", "labels",
                                       "mention_id"])
    def test_oversized_number_exits_one(self, tmp_path, capsys, field):
        write_oversized_number(tmp_path / "d.jsonl", field)
        (tmp_path / "r.elr").write_text("rule Links = jacc? & prom;\n")
        code = run(["featurize", "--data", str(tmp_path / "d.jsonl"),
                    "--rules", str(tmp_path / "r.elr"), "--out", str(tmp_path / "f.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("rulelink: line 2: ") and "Traceback" not in err

    def test_non_utf8_dataset_exits_one(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "d.jsonl", [instance_obj("m1")])
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        (tmp_path / "r.elr").write_text("rule Links = jacc? & prom;\n")
        code = run(["featurize", "--data", str(path), "--rules", str(tmp_path / "r.elr"),
                    "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"rulelink: {path} line 2: not UTF-8 (invalid start byte)\n"


class TestFeatureCsvFaults:
    """A feature CSV that repeats a row or holds a non-finite cell fails
    ``link`` with exit 1, naming the file and line, on the demo data."""

    @pytest.fixture
    def demo(self, tmp_path):
        data = Path(__file__).resolve().parent.parent / "demo" / "toy.jsonl"
        rules = data.parent / "rules.elr"
        feats, model = tmp_path / "features.csv", tmp_path / "model.json"
        assert run(["featurize", "--data", str(data), "--rules", str(rules), "--out", str(feats)]) == 0
        assert run(["train", "--data", str(data), "--features", str(feats), "--rules", str(rules),
                    "--epochs", "3", "--out", str(model)]) == 0
        return data, feats, model

    def _link(self, demo):
        data, feats, model = demo
        return run(["link", "--model", str(model), "--data", str(data), "--features", str(feats),
                    "--out", str(feats.parent / "preds.json")])

    def test_clean_features_link(self, demo):
        assert self._link(demo) == 0

    def test_repeated_row_exits_one(self, demo, capsys):
        feats = demo[1]
        lines = feats.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("m1,James_Cameron,"))
        cells = lines[first].split(",")
        lines.append(",".join(cells[:2] + ["0.0"] * (len(cells) - 2)))
        feats.write_text("\n".join(lines) + "\n")
        assert self._link(demo) == 1
        err = capsys.readouterr().err
        assert f"line {len(lines)}: row ('m1', 'James_Cameron') repeats line {first + 1}" in err

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_exits_one(self, demo, capsys, cell):
        feats = demo[1]
        lines = feats.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[2] = cell
        lines[2] = ",".join(cells)
        feats.write_text("\n".join(lines) + "\n")
        assert self._link(demo) == 1
        assert f"features.csv line 3: column {header[2]!r} is {cell}, not finite" in capsys.readouterr().err


    def test_out_of_range_cell_exits_one(self, demo, capsys):
        feats = demo[1]
        lines = feats.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[2] = "7.5"
        lines[2] = ",".join(cells)
        feats.write_text("\n".join(lines) + "\n")
        assert self._link(demo) == 1
        assert f"features.csv line 3: column {header[2]!r} is 7.5, outside [0, 1]" in capsys.readouterr().err

    def test_non_utf8_byte_exits_one(self, demo, capsys):
        feats = demo[1]
        lines = feats.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        feats.write_bytes(b"\n".join(lines))
        assert self._link(demo) == 1
        err = capsys.readouterr().err
        assert err == f"rulelink: {feats} line 3: not UTF-8 (invalid start byte)\n"

    def test_non_numeric_cell_exits_one(self, demo, capsys):
        feats = demo[1]
        lines = feats.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[3] = "abc"
        lines[2] = ",".join(cells)
        feats.write_text("\n".join(lines) + "\n")
        assert self._link(demo) == 1
        assert f"features.csv line 3: column {header[3]!r} is 'abc', not a number" in capsys.readouterr().err


_MODEL_COMMANDS = ("inspect", "link", "eval", "transfer")


def _model_command(workdir, command, model):
    if command == "inspect":
        return ["inspect", "--model", str(model), "--json", str(workdir / "w.json")]
    argv = [command, "--model", str(model), "--data", str(workdir / "data.jsonl"),
            "--features", str(workdir / "features.csv")]
    return argv + ["--out", str(workdir / "out.json")]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("trained")
    save_dataset(generate_dataset(12, n_candidates=4, seed=3), workdir / "data.jsonl")
    (workdir / "rules.elr").write_text(RULES)
    _featurize(workdir)
    _train(workdir)
    return workdir


class TestModelFileCli:
    @pytest.mark.parametrize("command", _MODEL_COMMANDS)
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"graph": {"alpha": 0.7, "mode": "lnn"}}, "must be retrained"),
            ({"format_version": 1, "graph": {"alpha": 0.7, "mode": "lnn"}, "config": {},
              "catalog": {}, "training_log": []}, "'root'"),
        ],
    )
    def test_truncated_model_exits_one(self, trained, tmp_path, capsys, command, doc, message):
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert run(_model_command(trained, command, tmp_path / "m.json")) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", _MODEL_COMMANDS)
    @pytest.mark.parametrize("edit, message", [
        (lambda root, obj: root.update(beta=True), "and node field 'beta' is not a JSON number"),
        (lambda root, obj: root.update(raw_weights=[str(v) for v in root["raw_weights"]]),
         "and node field 'raw_weights' is not a list of JSON numbers"),
        (lambda root, obj: root.update(raw_slacks=None), "and node field 'raw_slacks' is not a list of JSON numbers"),
        (lambda root, obj: root.update(raw_slack_big="0"), "and node field 'raw_slack_big' is not a JSON number"),
        (lambda root, obj: root.update(manual_weights=[True, 1.0]),
         "and node field 'manual_weights' is not a list of JSON numbers"),
        (lambda root, obj: root["children"][0]["children"][0].update(gamma="0.25"),
         "tl node field 'gamma' is not a JSON number"),
        (lambda root, obj: obj["graph"].update(alpha="0.7"), "graph field 'alpha' is not a JSON number"),
        (lambda root, obj: obj["config"].update(epochs=True), "config field 'epochs' is not a JSON integer"),
        (lambda root, obj: obj["config"].update(seed=7.0), "config field 'seed' is not a JSON integer"),
        (lambda root, obj: obj["config"].update(learning_rate="0.01"),
         "config field 'learning_rate' is not a JSON number"),
    ])
    def test_field_of_the_wrong_json_type_exits_one(self, trained, tmp_path, capsys, command, edit, message):
        # float() and int() would load true as 1, and "0.25" as 0.25
        obj = json.loads((trained / "model.json").read_text())
        edit(obj["graph"]["root"], obj)
        (tmp_path / "m.json").write_text(json.dumps(obj))
        assert run(_model_command(trained, command, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err == f"rulelink: {tmp_path / 'm.json'}: {message}\n"

    @pytest.mark.parametrize("command", _MODEL_COMMANDS)
    def test_unknown_node_kind_exits_one(self, trained, tmp_path, capsys, command):
        obj = json.loads((trained / "model.json").read_text())
        obj["graph"]["root"] = {"kind": "xor", "children": obj["graph"]["root"]["children"]}
        (tmp_path / "m.json").write_text(json.dumps(obj))
        assert run(_model_command(trained, command, tmp_path / "m.json")) == 1
        assert "unknown node kind 'xor'" in capsys.readouterr().err


_PACKAGE_ERRORS = (errors.DatasetError, errors.FeatureError, errors.ParseError,
                   errors.CompileError, errors.TrainingDivergence, errors.FetchError)


class TestFuzzedModelFile:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_only_package_errors_and_exit_one(self, trained, data):
        obj = json.loads((trained / "model.json").read_text())
        path, action = mutate_key_path(obj, data, JSON_VALUES)
        model_path = trained / "fuzzed.json"
        model_path.write_text(json.dumps(obj))
        try:
            load_model(model_path)
            loaded = True
        except _PACKAGE_ERRORS:
            loaded = False
        for command in ("inspect", "link"):
            code = run(_model_command(trained, command, model_path))
            assert code in ((0, 1) if loaded else (1,)), (command, path, action)


class TestBoxFeaturizeCli:
    @staticmethod
    def _featurize_box(workdir, box_params_text: str) -> int:
        """CLI featurize of a rule reading ``box``, with 2-d embeddings for
        every candidate and ``box_params_text`` as the --box-params file."""
        import numpy as np

        from rulelink.corpus import load_dataset

        ds = load_dataset(workdir / "data.jsonl")
        rng = np.random.default_rng(0)
        emb_path = workdir / "emb.jsonl"
        with open(emb_path, "w") as fh:
            for inst in ds.instances:
                for cand in inst.candidates:
                    fh.write(json.dumps({"id": cand.id, "vec": rng.normal(size=2).tolist()}) + "\n")
        (workdir / "box.json").write_text(box_params_text)
        (workdir / "box_rules.elr").write_text("rule Links = (jacc? | box?) & prom;\n")
        return run(
            ["featurize", "--data", str(workdir / "data.jsonl"),
             "--rules", str(workdir / "box_rules.elr"),
             "--embeddings", str(emb_path),
             "--box-params", str(workdir / "box.json"),
             "--out", str(workdir / "fbox.csv")]
        )

    def test_embeddings_and_box_params_flags(self, workdir):
        from rulelink.boxgeom import BoxParams

        params = BoxParams(psi=(0.5, 0.0), omega=(1.0, 1.0), beta_box=2.0)
        assert self._featurize_box(workdir, json.dumps(params.to_json())) == 0
        header = (workdir / "fbox.csv").read_text().splitlines()[0]
        assert header == "mention_id,candidate_id,jacc,box,prom"

    @pytest.mark.parametrize("text, message", [
        ('{"psi": [0.0]}', "box params lack the field 'omega'"),
        ("[1, 2]", "box params must be a JSON object, not list"),
        ('{"psi": [NaN, 0.0], "omega": [1.0, 1.0], "beta_box": 1.0}', "psi must be a 1-D vector of finite numbers"),
        ('{"psi": [0.0, 0.0], "omega": [[1.0], [1.0]], "beta_box": 1.0}', "box params field 'omega' is not a list of numbers"),
        ('{"psi": [0.0, 0.0], "omega": [1.0, 1.0], "beta_box": true}', "box params field 'beta_box' is not a number"),
        ('{"psi": [0.0, 0.0], "omega": [1.0, 1.0], "beta_box": 1e400}', "beta_box must be finite"),
        ('{"psi": ', "Expecting value: line 1 column 9"),
        ('{"psi": [1' + "0" * 400 + '], "omega": [1.0], "beta_box": 1.0}', "int too large to convert to float"),
        ('{"psi": [0.0, 0.0], "omega": [1.0, 1.0], "beta_box": 1' + "0" * 400 + "}",
         "int too large to convert to float"),
    ])
    def test_malformed_box_params_exit_one(self, workdir, capsys, text, message):
        assert self._featurize_box(workdir, text) == 1
        err = capsys.readouterr().err
        assert f"{workdir / 'box.json'}: {message}" in err
        assert "Traceback" not in err

    def test_wrong_dimension_box_params_exit_one(self, workdir, capsys):
        assert self._featurize_box(workdir, '{"psi": [0, 0, 0], "omega": [1, 1, 1], "beta_box": 1}') == 1
        err = capsys.readouterr().err
        assert "has a 2-d embedding, not 3-d" in err and "Traceback" not in err


def _context_objs(seed: int) -> list[dict]:
    """Two texts of four mutually co-mentioning mentions, typed, each with
    five described, typed and embedded candidates carrying ``spacy`` and
    ``blink`` scores; two of every list's candidates come from a pool its
    text's mentions share, so (surface, description) pairs repeat."""
    rng = random.Random(seed)

    def word(lo=3, hi=7):
        return "".join(rng.choice("abcdefgh") for _ in range(rng.randint(lo, hi)))

    def candidate(cid):
        return {"id": cid, "name": word(), "description": " ".join(word() for _ in range(8)),
                "domains": rng.sample(["Person", "Place", "Work", "Agent"], rng.randint(1, 3)),
                "indegree": rng.randint(0, 50), "embedding": [rng.uniform(-1, 1) for _ in range(3)],
                "external_scores": {"spacy": rng.random(), "blink": rng.random()}}

    objs = []
    for t in range(2):
        mids = [f"t{t}m{i}" for i in range(4)]
        pool = [candidate(f"t{t}_shared{k}") for k in range(3)]
        for mid in mids:
            cands = rng.sample(pool, 2) + [candidate(f"{mid}_c{k}") for k in range(3)]
            labels = [0] * 5
            labels[rng.randrange(5)] = 1
            objs.append({"mention": {"id": mid, "surface": word(2, 6), "text_id": f"t{t}",
                                     "context_ids": [m for m in mids if m != mid],
                                     "type": rng.choice(["Person", "Place", None])},
                         "candidates": cands, "labels": labels})
    return objs


class TestHashSeedDeterminism:
    def test_pipeline_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """CLI featurize (CSV and sidecar), train and link of ``LNN-EL_ens``
        write the same bytes under two ``PYTHONHASHSEED`` values: no output
        follows the iteration order of a set or a str-keyed hash."""
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        write_jsonl(tmp_path / "data.jsonl", _context_objs(3))
        outputs = {}
        for hash_seed in ("0", "1"):
            out = tmp_path / hash_seed
            out.mkdir()
            data, features = ["--data", str(tmp_path / "data.jsonl")], ["--features", str(out / "f.csv")]
            for argv in (["featurize", *data, "--rules", "builtin:LNN-EL_ens", "--out", str(out / "f.csv")],
                         ["train", *data, *features, "--rules", "builtin:LNN-EL_ens", "--mode", "tnorm",
                          "--epochs", "3", "--out", str(out / "model.json")],
                         ["link", "--model", str(out / "model.json"), *data, *features,
                          "--out", str(out / "links.json")]):
                proc = subprocess.run(
                    [sys.executable, "-m", "rulelink.cli", *argv], capture_output=True, text=True, timeout=120,
                    env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                         "PYTHONHASHSEED": hash_seed})
                assert proc.returncode == 0, proc.stderr
            outputs[hash_seed] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(outputs["0"]) == ["f.csv", "f.csv.npz", "links.json", "model.json"]
        assert outputs["0"] == outputs["1"]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A dataset, its LNN-EL feature CSV and a one-epoch LNN-EL model."""
    workdir = tmp_path_factory.mktemp("cli_inputs")
    save_dataset(generate_dataset(12, n_candidates=4, seed=3), workdir / "data.jsonl")
    assert run(["featurize", "--data", str(workdir / "data.jsonl"), "--rules", "builtin:LNN-EL",
                "--out", str(workdir / "features.csv")]) == 0
    assert run(["train", "--data", str(workdir / "data.jsonl"), "--features", str(workdir / "features.csv"),
                "--rules", "builtin:LNN-EL", "--epochs", "1", "--out", str(workdir / "model.json")]) == 0
    return workdir


def _file(path, content) -> Path:
    """``path``, holding ``content`` (bytes or text)."""
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    return path


def _dataset_file(path) -> Path:
    """``path``, holding a small valid dataset."""
    save_dataset(generate_dataset(3, n_candidates=2, seed=0), path)
    return path


def _symlink(path, target) -> Path:
    """``path``, a symbolic link to ``target``."""
    path.symlink_to(target)
    return path


def _sidecar_as_out(path) -> dict:
    """Flags that read a dataset and its LNN-EL features, made in ``path``,
    and write to the features' sidecar."""
    data, features = _dataset_file(path / "d.jsonl"), path / "f.csv"
    assert run(["featurize", "--data", str(data), "--rules", "builtin:LNN-EL", "--out", str(features)]) == 0
    return {"data": data, "features": features, "out": Path(sidecar_path(features))}


def _argv(command: str, inputs: Path, fresh: Path, endpoint: str | None, **changed) -> list[str]:
    """A run of ``command`` that succeeds on ``cli_inputs``, writing into
    ``fresh``, with the flags ``changed`` replacing or joining its own."""
    argv = [command]
    for key, value in {**_flags(command, inputs, fresh, endpoint), **changed}.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def _flags(command: str, inputs: Path, fresh: Path, endpoint: str | None) -> dict:
    """The flags of a run of ``command`` that succeeds on ``cli_inputs``."""
    data, features, model = inputs / "data.jsonl", inputs / "features.csv", inputs / "model.json"
    return {
        "featurize": {"data": data, "rules": "builtin:LNN-EL", "out": fresh / "f.csv"},
        "train": {"data": data, "features": features, "rules": "builtin:LNN-EL", "epochs": 1, "out": fresh / "m.json"},
        "link": {"model": model, "data": data, "features": features, "out": fresh / "p.json"},
        "eval": {"model": model, "data": data, "features": features},
        "transfer": {"model": model, "data": data, "features": features},
        "ablate": {"data": data, "features": features, "templates": "Name", "epochs": 1},
        "inspect": {"model": model, "json": fresh / "w.json"},
        "fetch": {"endpoint": endpoint, "surface": "x"},
    }[command]


def _model_text(graph_edit=None, config=None) -> str:
    """A one-gate ``model.json`` over ``jacc``, its gate edited by ``graph_edit``."""
    gate = {"kind": "and", "children": [{"kind": "raw", "feature": "jacc"}], "raw_weights": [0.5], "beta": 1.0,
            "raw_slacks": [0.0], "raw_slack_big": 0.0, **(graph_edit or {})}
    return json.dumps({"format_version": 1, "graph": {"alpha": 0.7, "mode": "lnn", "root": gate},
                       "config": config or {}, "catalog": {}, "training_log": []})


# Each rule doubles the one before: 31 lines inline to 2**31 - 1 nodes.
EXPONENTIAL_RULES = "rule A0 = jacc?;\n" + "".join(f"rule A{i} = A{i - 1} & A{i - 1};\n" for i in range(1, 31))


# Every subcommand x failure kind, and its exit code (1 validation, 2 runtime):
# the flags that replace or join a succeeding run's, given its fresh directory
# t. "divergence" runs against a train that raises TrainingDivergence; fetch
# reads the stub lookup server, whose reply for a "reply" failure is in _REPLIES.
_EXIT_CODES = [
    ("featurize", "missing data file", 1, lambda t: {"data": t / "nope.jsonl"}),
    ("featurize", "non-UTF-8 data", 1, lambda t: {"data": _file(t / "d.jsonl", b'{"mention": \xff}\n')}),
    ("featurize", "dataset field", 1, lambda t: {"data": _file(t / "d.jsonl", '{"mention": 5}\n')}),
    ("featurize", "unknown template", 1, lambda t: {"rules": "builtin:Nope"}),
    ("featurize", "empty template name", 1, lambda t: {"rules": "builtin:"}),
    ("featurize", "rules syntax", 1, lambda t: {"rules": _file(t / "r.elr", "rule broken = ;")}),
    ("featurize", "rules not in catalog", 1, lambda t: {"rules": _file(t / "r.elr", "rule R = nope?;")}),
    ("featurize", "embeddings", 1, lambda t: {"embeddings": _file(t / "e.jsonl", '{"id": "e"}\n')}),
    ("featurize", "box params", 1, lambda t: {"box_params": _file(t / "b.json", '{"psi": [0.0]}')}),
    ("featurize", "data nested too deep", 1, lambda t: {"data": _file(t / "d.jsonl", DEEP_JSON + "\n")}),
    ("featurize", "embeddings nested too deep", 1, lambda t: {"embeddings": _file(t / "e.jsonl", DEEP_JSON + "\n")}),
    ("featurize", "box params nested too deep", 1, lambda t: {"box_params": _file(t / "b.json", DEEP_JSON)}),
    ("featurize", "box params integer too long", 1,
     lambda t: {"box_params": _file(t / "b.json", f'{{"psi": [{HUGE_JSON_INT}], "omega": [1.0], "beta_box": 1.0}}')}),
    ("featurize", "rules nested too deep", 1,
     lambda t: {"rules": _file(t / "r.elr", "rule R = " + "(" * 5000 + "jacc?" + ")" * 5000 + ";")}),
    ("featurize", "rules negated too deep", 1,
     lambda t: {"rules": _file(t / "r.elr", "rule R = " + "!" * 5000 + "jacc?;")}),
    ("featurize", "rules inline past the size bound", 1, lambda t: {"rules": _file(t / "r.elr", EXPONENTIAL_RULES)}),
    ("featurize", "unknown flag", 1, lambda t: {"jobs": 2}),
    ("featurize", "out in a missing directory", 1, lambda t: {"out": t / "missing" / "f.csv"}),
    ("featurize", "out is a directory", 2, lambda t: {"out": t}),
    ("featurize", "out is the data file", 1, lambda t: {"data": _dataset_file(t / "d.jsonl"), "out": t / "d.jsonl"}),
    ("featurize", "sidecar is the data file", 1,
     lambda t: {"data": _dataset_file(t / "f.csv.npz"), "out": t / "f.csv"}),
    ("featurize", "out links to the rules file", 1,
     lambda t: {"rules": _file(t / "r.elr", "rule R = jacc?;"), "out": _symlink(t / "f.csv", t / "r.elr")}),
    ("train", "unknown template", 1, lambda t: {"rules": "builtin:Nope"}),
    ("train", "config value", 1, lambda t: {"config": _file(t / "c.cfg", "epochs = abc\n")}),
    ("train", "config key", 1, lambda t: {"config": _file(t / "c.cfg", "volume = 11\n")}),
    ("train", "config range", 1, lambda t: {"mu": 2.0}),
    ("train", "config file range", 1, lambda t: {"config": _file(t / "c.cfg", "mu = 2\n")}),
    ("train", "config repeated key", 1, lambda t: {"config": _file(t / "c.cfg", "epochs = 3\nepochs = 5\n")}),
    ("train", "penalty not finite", 1, lambda t: {"penalty_lambda": "nan"}),
    ("train", "negative seed", 1, lambda t: {"seed": -1}),
    ("train", "feature CSV cell", 1,
     lambda t: {"features": _file(t / "f.csv", "mention_id,candidate_id,jacc\nm,c,7.5\n")}),
    ("train", "divergence", 2, lambda t: {}),
    ("train", "out is a directory", 2, lambda t: {"out": t}),
    ("train", "out is the features sidecar", 1, _sidecar_as_out),
    ("link", "missing model", 1, lambda t: {"model": t / "nope.json"}),
    ("link", "malformed model", 1, lambda t: {"model": _file(t / "m.json", '{"format_version": 1}')}),
    ("link", "model number that is a string", 1, lambda t: {"model": _file(t / "m.json", _model_text({"beta": "1"}))}),
    ("link", "non-UTF-8 model", 1, lambda t: {"model": _file(t / "m.json", b'{"graph": "\xff"}')}),
    ("link", "out in a missing directory", 1, lambda t: {"out": t / "missing" / "p.json"}),
    ("link", "out is a directory", 2, lambda t: {"out": t}),
    ("link", "out is the model", 1, lambda t: {"model": _file(t / "m.json", _model_text()), "out": t / "m.json"}),
    ("link", "out is the features sidecar", 1, _sidecar_as_out),
    ("eval", "cutoff below 1", 1, lambda t: {"ks": 0}),
    ("eval", "cutoff not an integer", 1, lambda t: {"ks": "a"}),
    ("transfer", "empty cutoff", 1, lambda t: {"ks": "5,"}),
    ("eval", "out is a directory", 2, lambda t: {"out": t}),
    ("eval", "out is the features sidecar", 1, _sidecar_as_out),
    ("transfer", "missing feature CSV", 1, lambda t: {"features": t / "nope.csv"}),
    ("ablate", "unknown template", 1, lambda t: {"templates": "Nope"}),
    ("ablate", "empty template list", 1, lambda t: {"templates": ""}),
    ("ablate", "empty template name", 1, lambda t: {"templates": "Name+"}),
    ("ablate", "divergence", 2, lambda t: {}),
    ("ablate", "out is a directory", 2, lambda t: {"out": t}),
    ("inspect", "missing model", 1, lambda t: {"model": t / "nope.json"}),
    ("inspect", "model integer that is a bool", 1,
     lambda t: {"model": _file(t / "m.json", _model_text(config={"epochs": True}))}),
    ("inspect", "model nested too deep", 1, lambda t: {"model": _file(t / "m.json", DEEP_JSON)}),
    ("inspect", "model integer too long", 1, lambda t: {"model": _file(t / "m.json", f"[{HUGE_JSON_INT}]")}),
    ("inspect", "json out is a directory", 2, lambda t: {"json": t}),
    ("inspect", "json out is the model", 1, lambda t: {"model": _file(t / "m.json", _model_text()), "json": t / "m.json"}),
    ("inspect", "dot out is the model", 1, lambda t: {"model": _file(t / "m.json", _model_text()), "dot": t / "m.json"}),
    ("fetch", "k below 1", 1, lambda t: {"k": 0}),
    ("fetch", "malformed reply", 2, lambda t: {}),
    ("fetch", "reply nested too deep", 2, lambda t: {}),
    ("fetch", "reply integer too long", 2, lambda t: {}),
    ("fetch", "out is a directory", 2, lambda t: {"out": t}),
]


_REPLIES = {
    "malformed reply": {"oops": True},
    "reply nested too deep": DEEP_JSON.encode(),
    "reply integer too long": f"[{HUGE_JSON_INT}]".encode(),
}


class TestExitCodes:
    @pytest.mark.parametrize("command", list(dict.fromkeys(command for command, *_ in _EXIT_CODES)))
    def test_each_failure_starts_from_a_run_that_succeeds(self, cli_inputs, tmp_path, request, command):
        endpoint = request.getfixturevalue("stub_server") if command == "fetch" else None
        StubHandler.payload = [{"id": "kb/A", "label": "A"}]
        assert run(_argv(command, cli_inputs, tmp_path, endpoint)) == 0

    @pytest.mark.parametrize("command, failure, code, flags", _EXIT_CODES,
                             ids=[f"{command}-{failure}" for command, failure, _, _ in _EXIT_CODES])
    def test_one_message_and_the_documented_code(self, cli_inputs, tmp_path, capsys, monkeypatch, request,
                                                 command, failure, code, flags):
        def diverge(*args, **kwargs):
            raise errors.TrainingDivergence("loss diverged at epoch 1", log=[])

        if failure == "divergence":
            monkeypatch.setattr(cli, "train", diverge)
            monkeypatch.setattr(evaluation, "train", diverge)
        endpoint = request.getfixturevalue("stub_server") if command == "fetch" else None
        StubHandler.payload = _REPLIES.get(failure, [{"id": "kb/A", "label": "A"}])
        argv = _argv(command, cli_inputs, tmp_path, endpoint, **flags(tmp_path))
        capsys.readouterr()
        assert run(argv) == code  # an exception escaping run() is what prints a traceback
        err = capsys.readouterr().err
        assert err.startswith("rulelink: ") and "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("rulelink")] == [err.splitlines()[0]]

    @pytest.mark.parametrize("command", ["train", "link", "eval"])
    def test_out_that_is_the_features_sidecar_is_refused_and_left_alone(self, cli_inputs, tmp_path, capsys, command):
        flags = _sidecar_as_out(tmp_path)
        sidecar = flags["out"]
        before = sidecar.read_bytes()
        capsys.readouterr()
        assert run(_argv(command, cli_inputs, tmp_path, None, **flags)) == 1
        assert capsys.readouterr().err == (
            f"rulelink: --out {sidecar} is the input --features {sidecar}; no command writes over its inputs\n")
        assert sidecar.read_bytes() == before
