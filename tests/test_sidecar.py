"""The scoring sidecar ``featurize`` writes beside the feature CSV.

Every command given ``--data`` and ``--features`` (``link``, ``eval``,
``transfer``, ``train`` in each mode and ``ablate``) must give byte-identical
files, stdout, stderr and exit codes whether it reads the sidecar or the
JSONL and the CSV; a stale or damaged sidecar costs one WARNING naming it.
"""
import io
import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DEEP_JSON, HUGE_JSON_INT
from rulelink import cli
from rulelink.cli import run
from rulelink.corpus import CandidateEntity, save_dataset
from rulelink.simfeatures import SIDECAR_VERSION, FeatureTable, sidecar_path
from synthgen import generate_dataset

RULES = "rule NameSim = jacc? | lev? | jw?;\nrule Links = NameSim & prom;\n"
# the columns of the built-in Name template, which train and ablate read
FEATURE_RULES = "rule NameSim = jacc? | lev? | jw? | spacy?;\nrule Links = NameSim & prom;\n"
COMMANDS = ("link", "eval", "transfer", "train-lnn", "train-tnorm", "train-manual", "ablate")


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    work = tmp_path_factory.mktemp("model")
    save_dataset(generate_dataset(12, n_candidates=4, seed=3), work / "data.jsonl")
    (work / "rules.elr").write_text(RULES)
    assert run(["featurize", "--data", str(work / "data.jsonl"), "--rules", str(work / "rules.elr"),
                "--out", str(work / "features.csv")]) == 0
    assert run(["train", "--data", str(work / "data.jsonl"), "--features", str(work / "features.csv"),
                "--rules", str(work / "rules.elr"), "--epochs", "3", "--out", str(work / "model.json")]) == 0
    return work / "model.json"


def _featurize(work: Path, rules: str = FEATURE_RULES) -> None:
    (work / "rules.elr").write_text(rules)
    assert run(["featurize", "--data", str(work / "data.jsonl"), "--rules", str(work / "rules.elr"),
                "--out", str(work / "features.csv")]) == 0


def _outcome(work: Path, model: Path, command: str, capsys, caplog) -> tuple:
    """Exit code, output bytes, stdout, stderr and warnings of one command."""
    out = work / f"{command}.json"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    caplog.clear()
    inputs = ["--data", str(work / "data.jsonl"), "--features", str(work / "features.csv"), "--out", str(out)]
    if command.startswith("train"):
        argv = ["train", *inputs, "--rules", "builtin:Name", "--mode", command.split("-")[1], "--epochs", "2"]
    elif command == "ablate":
        argv = ["ablate", *inputs, "--templates", "Name,Name+Name", "--epochs", "2", "--format", "csv"]
    else:
        argv = [command, "--model", str(model), *inputs] + (["--ks", "1,2"] if command != "link" else [])
    code = run(argv)
    captured = capsys.readouterr()
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    return code, out.read_bytes() if out.exists() else None, captured.out, captured.err, warnings


def _both_paths(work: Path, model: Path, capsys, caplog) -> list[tuple]:
    """Each command's outcome with the sidecar, then with it deleted."""
    with_sidecar = [_outcome(work, model, c, capsys, caplog) for c in COMMANDS]
    Path(sidecar_path(work / "features.csv")).unlink()
    without = [_outcome(work, model, c, capsys, caplog) for c in COMMANDS]
    return list(zip(with_sidecar, without))


_ID_CHARS = st.sampled_from([",", '"', "\n", "\r\n", "a", "é", "\U0001F600", "\x00", " "])
_IDS = st.lists(_ID_CHARS, max_size=4).map("".join)


@st.composite
def _instances(draw):
    mention_ids = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    objs = []
    for mid in mention_ids:
        cids = draw(st.lists(_IDS, max_size=4, unique=True))
        others = [m for m in mention_ids if m != mid] + ["absent"]
        objs.append({
            "mention": {"id": mid, "surface": draw(st.text("abé ", min_size=1, max_size=5)),
                        "text_id": "t", "context_ids": draw(st.lists(st.sampled_from(others), max_size=2))},
            "candidates": [{"id": cid, "name": draw(st.text("abé ", max_size=5)),
                            "indegree": draw(st.integers(0, 9))} for cid in cids],
            "labels": draw(st.lists(st.integers(0, 1), min_size=len(cids), max_size=len(cids))),
        })
    return objs


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


class TestSameOutputEitherWay:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(objs=_instances())
    def test_sidecar_and_full_read_agree_by_bytes(self, model, capsys, caplog, objs):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            _write_jsonl(work / "data.jsonl", objs)
            _featurize(work)
            for with_sidecar, without in _both_paths(work, model, capsys, caplog):
                assert with_sidecar == without
                assert with_sidecar[0] == 0

    def test_awkward_ids_and_dropped_instances(self, model, capsys, caplog, tmp_path):
        ids = ["a,b", 'q"t', "new\nline", "cr\r\nlf", "\U0001F600", "nul\x00"]
        cands = [{"id": cid, "name": cid, "indegree": k} for k, cid in enumerate(ids)]
        objs = [
            {"mention": {"id": "m,\x00", "surface": "nul", "text_id": "t", "context_ids": ["gone"]},
             "candidates": cands, "labels": [0, 0, 0, 0, 0, 1]},
            {"mention": {"id": "gone", "surface": "x", "text_id": "t"}, "candidates": cands,
             "labels": [0] * 6},
            {"mention": {"id": "empty", "surface": "x", "text_id": "t"}, "candidates": [], "labels": []},
        ]
        _write_jsonl(tmp_path / "data.jsonl", objs)
        _featurize(tmp_path)
        for with_sidecar, without in _both_paths(tmp_path, model, capsys, caplog):
            assert with_sidecar == without
            assert with_sidecar[0] == 0
            assert with_sidecar[4] == [
                f"load {tmp_path / 'data.jsonl'}: kept 1 of 3 instances; dropped 1 empty-candidate; "
                "dropped 1 all-negative; pruned 1 dangling context ids"
            ]
        preds = json.loads((tmp_path / "link.json").read_text(encoding="utf-8"))
        assert preds[0]["mention_id"] == "m,\x00"
        assert sorted(cid for cid, _ in preds[0]["ranked"]) == sorted(ids)


def _arrays(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return dict(npz)


def _save(path: Path, arrays: dict) -> None:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    path.write_bytes(buf.getvalue())


def _edit_header(**changes):
    def edit(arrays):
        header = json.loads(arrays["header"].tobytes())
        header.update(changes)
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    return edit


def _set(key, fn):
    def edit(arrays):
        arrays[key] = fn(arrays[key])
    return edit


def _drop(key):
    def edit(arrays):
        del arrays[key]
    return edit


def _append_line(path: Path, text: str) -> None:
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _npy(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _poke(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


# Each fault leaves the sidecar unusable; the names are the test ids.
_ARCHIVE_FAULTS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
    "not-a-zip": lambda p: p.write_bytes(b"not an archive"),
    "npy-not-npz": lambda p: p.write_bytes(_npy(np.zeros(3))),
    "empty": lambda p: p.write_bytes(b""),
}
_BLOCK_FAULTS = {
    "missing-matrix": _drop("matrix"),
    "missing-header": _drop("header"),
    "labels-int64": _set("labels", lambda a: a.astype(np.int64)),
    "matrix-float32": _set("matrix", lambda a: a.astype(np.float32)),
    "matrix-transposed": _set("matrix", lambda a: np.ascontiguousarray(a.T)),
    "offsets-short": _set("offsets", lambda a: a[:-1]),
    "offsets-not-monotone": _set("offsets", lambda a: _poke(a, 1, a[2] + 1)),
    "offsets-end-short": _set("offsets", lambda a: _poke(a, -1, a[-1] - 1)),
    "offsets-start-late": _set("offsets", lambda a: _poke(a, 0, 1)),
    "label-two": _set("labels", lambda a: _poke(a, 0, 2)),
    "matrix-nan": _set("matrix", lambda a: _poke(a, (1, 0), np.nan)),
    "matrix-inf": _set("matrix", lambda a: _poke(a, (0, 1), np.inf)),
    "matrix-above-one": _set("matrix", lambda a: _poke(a, (1, 0), 1.5)),
    "version": _edit_header(format_version=SIDECAR_VERSION + 1),
    "header-not-json": _set("header", lambda a: np.frombuffer(b"{", dtype=np.uint8)),
    "header-nested-too-deep": _set("header", lambda a: np.frombuffer(DEEP_JSON.encode(), dtype=np.uint8)),
    "ids-integer-too-long": _set("ids", lambda a: np.frombuffer(f"[[{HUGE_JSON_INT}], []]".encode(), dtype=np.uint8)),
    "header-2d": _set("header", lambda a: a.reshape(1, -1)),
    "bad-report": _edit_header(load_report={"kept": "all"}),
    "ids-not-strings": _set("ids", lambda a: np.frombuffer(b"[[1], []]", dtype=np.uint8)),
    "names-lack-prom": _edit_header(feature_names=["jacc", "lev", "jw", "spacy", "x"]),
}
_INPUT_FAULTS = {
    "data-edited": lambda w: _append_line(w / "data.jsonl", "\n"),
    "csv-edited": lambda w: _append_line(w / "features.csv", "\n"),
}


class TestFuzzedSidecar:
    """Each fault leaves every output and the exit code as the full read
    gives them, with one WARNING naming the sidecar and no traceback."""

    @pytest.fixture
    def work(self, tmp_path):
        save_dataset(generate_dataset(8, n_candidates=4, seed=11), tmp_path / "data.jsonl")
        _featurize(tmp_path)
        return tmp_path

    def _check(self, work, model, capsys, caplog) -> list[tuple]:
        """Compares both paths; returns each command's exit code and stderr."""
        sidecar = sidecar_path(work / "features.csv")
        outcomes = []
        for with_sidecar, without in _both_paths(work, model, capsys, caplog):
            code, out, stdout, stderr, warnings = with_sidecar
            assert (code, out, stdout, stderr) == without[:4]
            assert [w for w in warnings if sidecar in w] == [w for w in warnings if "sidecar" in w]
            assert len([w for w in warnings if sidecar in w]) == 1
            assert [w for w in warnings if sidecar not in w] == without[4]
            assert "Traceback" not in stderr
            outcomes.append((code, stderr))
        return outcomes

    @pytest.mark.parametrize("fault", sorted(_ARCHIVE_FAULTS))
    def test_damaged_archive(self, work, model, capsys, caplog, fault):
        _ARCHIVE_FAULTS[fault](Path(sidecar_path(work / "features.csv")))
        assert self._check(work, model, capsys, caplog) == [(0, "")] * len(COMMANDS)

    def test_json_at_the_sidecar_path_is_not_an_npz_archive(self, work, model, capsys, caplog):
        sidecar = sidecar_path(work / "features.csv")
        Path(sidecar).write_text('[{"mention_id": "m0", "ranked": []}]')
        code, out, stdout, stderr, warnings = _outcome(work, model, "link", capsys, caplog)
        assert [w for w in warnings if sidecar in w] == [
            f"feature sidecar {sidecar} not used (not an npz archive); "
            f"reading {work / 'data.jsonl'} and {work / 'features.csv'}"]
        assert self._check(work, model, capsys, caplog) == [(0, "")] * len(COMMANDS)

    @pytest.mark.parametrize("fault", sorted(_BLOCK_FAULTS))
    def test_damaged_block(self, work, model, capsys, caplog, fault):
        path = Path(sidecar_path(work / "features.csv"))
        arrays = _arrays(path)
        _BLOCK_FAULTS[fault](arrays)
        _save(path, arrays)
        assert self._check(work, model, capsys, caplog) == [(0, "")] * len(COMMANDS)

    @pytest.mark.parametrize("fault", sorted(_INPUT_FAULTS))
    def test_input_edited_after_featurize(self, work, model, capsys, caplog, fault):
        _INPUT_FAULTS[fault](work)
        assert self._check(work, model, capsys, caplog) == [(0, "")] * len(COMMANDS)

    def test_model_needs_a_column_the_features_lack(self, work, model, capsys, caplog):
        _featurize(work, rules="rule Links = jacc? | lev? | jw?;\n")
        scoring = [(1, "rulelink: feature table lacks columns: prom\n")] * 3
        training = [(1, "rulelink: feature table lacks columns: spacy, prom\n")] * 3
        ablation = [(1, "rulelink: predicate 'spacy' in rule 'Ablation' not in catalog\n")]
        assert self._check(work, model, capsys, caplog) == scoring + training + ablation

    def test_valid_sidecar_is_read_alone(self, work, model, capsys, caplog, monkeypatch):
        def unexpected(*args):
            raise AssertionError("read the inputs despite a valid sidecar")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "load_dataset", unexpected)
            patch.setattr(FeatureTable, "from_csv", unexpected)
            with_sidecar = [_outcome(work, model, c, capsys, caplog) for c in COMMANDS]
        Path(sidecar_path(work / "features.csv")).unlink()
        assert with_sidecar == [_outcome(work, model, c, capsys, caplog) for c in COMMANDS]
        assert [o[0] for o in with_sidecar] == [0] * len(COMMANDS)
        assert [o[4] for o in with_sidecar] == [[]] * len(COMMANDS)

    def test_the_fallback_builds_no_instances(self, work, model, capsys, caplog, monkeypatch):
        # with no sidecar, every command reads the JSONL and the CSV as
        # columns and builds no candidate object
        with_sidecar = [_outcome(work, model, c, capsys, caplog) for c in COMMANDS]
        Path(sidecar_path(work / "features.csv")).unlink()
        built = []
        init = CandidateEntity.__init__

        def counting(self, *args, **kwargs):
            built.append(args[:1] or kwargs.get("id"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(CandidateEntity, "__init__", counting)
        assert [_outcome(work, model, c, capsys, caplog) for c in COMMANDS] == with_sidecar
        assert built == []
