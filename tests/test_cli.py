import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import instance_obj, write_jsonl, write_oversized_number
from rulelink import cli, errors
from rulelink.cli import run
from rulelink.corpus import save_dataset
from rulelink.ruledsl import ast_leaves, find_root, parse
from rulelink.training import load_model
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

    @pytest.mark.parametrize("flag", ["rules", "config", "embeddings"])
    def test_non_utf8_input_names_file_and_line(self, workdir, capsys, flag):
        text = {"rules": RULES, "config": "epochs = 2\n", "embeddings": '{"id": "e", "vec": [1.0]}\n'}[flag]
        path = workdir / f"bad.{flag}"
        path.write_bytes(text.encode() + b"\xff\n")
        _featurize(workdir)
        common = ["--data", str(workdir / "data.jsonl"), "--out", str(workdir / "out")]
        rules, features = str(workdir / "rules.elr"), str(workdir / "features.csv")
        argv = {
            "rules": ["featurize", *common, "--rules", str(path)],
            "embeddings": ["featurize", *common, "--rules", rules, "--embeddings", str(path)],
            "config": ["train", *common, "--features", features, "--rules", rules, "--config", str(path)],
        }[flag]
        capsys.readouterr()
        assert run(argv) == 1
        line = text.count("\n") + 1
        assert capsys.readouterr().err == f"rulelink: {path} line {line}: not UTF-8 (invalid start byte)\n"

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
    def test_unknown_node_kind_exits_one(self, trained, tmp_path, capsys, command):
        obj = json.loads((trained / "model.json").read_text())
        obj["graph"]["root"] = {"kind": "xor", "children": obj["graph"]["root"]["children"]}
        (tmp_path / "m.json").write_text(json.dumps(obj))
        assert run(_model_command(trained, command, tmp_path / "m.json")) == 1
        assert "unknown node kind 'xor'" in capsys.readouterr().err


_PACKAGE_ERRORS = (errors.DatasetError, errors.FeatureError, errors.ParseError,
                   errors.CompileError, errors.TrainingDivergence, errors.FetchError)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3), st.text(max_size=4),
    st.just([]), st.just({}), st.sampled_from(["and", "or", "not", "tl", "raw", "xor", "lnn", "tnorm"]),
)


def _paths(obj, prefix=()):
    """The key path of every value nested in a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


class TestFuzzedModelFile:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_only_package_errors_and_exit_one(self, trained, data):
        obj = json.loads((trained / "model.json").read_text())
        path = data.draw(st.sampled_from(sorted(_paths(obj), key=repr)))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = data.draw(st.sampled_from(["drop", "replace", "truncate"]))
        if action == "drop":
            del parent[key]
        elif action == "truncate" and isinstance(parent[key], list):
            parent[key] = parent[key][: data.draw(st.integers(0, max(0, len(parent[key]) - 1)))]
        else:
            parent[key] = data.draw(_JSON_VALUES)
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
