"""A loaded dataset's columns stand in for its instances.

``load_dataset`` reads a file into :class:`Columns` and builds ``instances``
only when they are read. Everything that reads the columns (``row_keys``,
``build_feature_table`` over every kind but ``box``, ``write_features``)
must give the same bytes for a loaded dataset as for the same instances
built in code, and the column walk must load what the line walk loads.
"""
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rulelink import cli, corpus
from rulelink.boxgeom import attach_embeddings
from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention, load_dataset, merge_external_scores
from rulelink.simfeatures import (
    FeatureCatalog,
    FeatureSpec,
    build_feature_table,
    read_sidecar,
    sidecar_path,
    write_features,
)

# every feature kind but box, and an external column no candidate carries
CATALOG = FeatureCatalog({
    **{kind: FeatureSpec(kind) for kind in ("jacc", "lev", "jw", "pr", "ctx", "type", "prom")},
    "spacy": FeatureSpec("external", source="spacy"),
    "bert": FeatureSpec("external", source="bert"),
})

_TEXT = st.lists(st.sampled_from(["a", "b", ",", '"', "é", "\U0001F600", " ", "\n", "Zü"]), max_size=4).map("".join)
_IDS = st.lists(_TEXT, min_size=1, max_size=6, unique=True)
_TYPES = ["Person", "Place", "Work"]


@st.composite
def _candidate(draw, cid: str) -> dict:
    cand = {"id": cid, "name": draw(_TEXT)}
    optional = {
        "description": st.none() | _TEXT,
        "domains": st.lists(st.sampled_from(_TYPES), max_size=2),
        "indegree": st.integers(0, 10**6),
        "embedding": st.none() | st.lists(st.floats(-2, 2) | st.integers(-3, 3), min_size=2, max_size=2),
        "external_scores": st.dictionaries(st.sampled_from(["spacy", "blink"]),
                                           st.floats(0, 1) | st.sampled_from([0, 1])),
    }
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        cand[key] = draw(optional[key])
    return cand


@st.composite
def _dataset_objs(draw) -> list[dict]:
    """Lines that load: awkward ids, empty lists (some with labels),
    all-negative lists and context ids that dangle or name a dropped mention."""
    mention_ids = draw(_IDS)
    objs = []
    for mid in mention_ids:
        cids = draw(st.lists(_TEXT, max_size=4, unique=True))
        kind = draw(st.sampled_from(["kept", "kept", "kept", "empty", "negative"]))
        if kind == "empty":
            cids, labels = [], draw(st.sampled_from([[], [1], [0, 1]]))
        elif kind == "negative" or not cids:
            labels = [0] * len(cids)
        else:
            labels = [0] * len(cids)
            labels[draw(st.integers(0, len(cids) - 1))] = 1
        others = [m for m in mention_ids if m != mid] + ["dangling,\"id\""]
        mention = {"id": mid, "surface": draw(_TEXT.filter(bool)), "text_id": draw(st.sampled_from(["t1", "t,2"]))}
        if draw(st.booleans()):
            mention["context_ids"] = draw(st.lists(st.sampled_from(others), max_size=3))
        if draw(st.booleans()):
            mention["type"] = draw(st.none() | st.sampled_from(_TYPES))
        objs.append({"mention": mention, "candidates": [draw(_candidate(c)) for c in cids], "labels": labels})
    return objs


def _write(path: Path, objs, ascii_only: bool = True) -> Path:
    path.write_text("".join(json.dumps(obj, ensure_ascii=ascii_only) + "\n" for obj in objs), encoding="utf-8")
    return path


def _features(ds: Dataset, path: Path):
    """Row keys, the table's keys and matrix bytes, the feature CSV and the
    sidecar's arrays as written bytes (the archive's member timestamps aside)."""
    table = build_feature_table(ds, CATALOG)
    write_features(path, ds, table)
    with zipfile.ZipFile(sidecar_path(path)) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    return (ds.row_keys(), table.mention_ids, table.candidate_ids, table.matrix.tobytes(), path.read_bytes(),
            members)


def _line_walk_only(monkeypatch, path):
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "_column_walk", lambda data: None)
        return load_dataset(path)


class TestColumnsAndInstancesAgree:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(objs=_dataset_objs(), ascii_only=st.booleans())
    def test_same_bytes_from_both_forms(self, monkeypatch, objs, ascii_only):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            path = _write(work / "d.jsonl", objs, ascii_only)
            assert corpus._column_walk(path.read_bytes()) is not None
            loaded = load_dataset(path)
            from_columns = _features(loaded, work / "a.csv")
            assert "instances" not in vars(loaded)
            built = Dataset(instances=loaded.instances, embedding_dim=loaded.embedding_dim, name=loaded.name,
                            report=loaded.report)
            assert _features(built, work / "b.csv") == from_columns
            walked = _line_walk_only(monkeypatch, path)
            assert walked == loaded and walked.report == loaded.report
            assert walked.embedding_dim == loaded.embedding_dim and walked.name == loaded.name

    def test_merged_scores_and_attached_embeddings_reach_the_features(self, tmp_path):
        objs = [
            {"mention": {"id": "m1", "surface": "Paris", "text_id": "t"},
             "candidates": [{"id": "e,1", "name": "Paris", "external_scores": {"spacy": 0.5}},
                            {"id": 'e"2', "name": "Parma"}], "labels": [1, 0]},
            {"mention": {"id": "m2", "surface": "Rome", "text_id": "t", "context_ids": ["m1"]},
             "candidates": [{"id": "e3", "name": "Rome", "description": "Paris and Rome"}], "labels": [1]},
        ]
        loaded = load_dataset(_write(tmp_path / "d.jsonl", objs))
        assert build_feature_table(loaded, CATALOG.restricted(["bert"])).matrix.ravel().tolist() == [0.0] * 3

        (tmp_path / "s.csv").write_text('mention_id,candidate_id,score\nm1,"e,1",0.25\nm1,"e""2",0.75\nm2,e3,1\n')
        merged = merge_external_scores(loaded, tmp_path / "s.csv", "bert")
        assert merged.columns is not loaded.columns
        table = build_feature_table(merged, CATALOG.restricted(["bert", "spacy"]))
        assert table.matrix.tolist() == [[0.25, 0.5], [0.75, 0.0], [1.0, 0.0]]

        (tmp_path / "e.jsonl").write_text('{"id": "e,1", "vec": [1, 2]}\n{"id": "e3", "vec": [0.5, 0.25]}\n')
        attached = attach_embeddings(loaded, tmp_path / "e.jsonl")
        assert attached.columns is not loaded.columns
        assert attached.columns.embeddings == [(1.0, 2.0), None, (0.5, 0.25)]


def _link_serve_lines(n_mentions: int, seed: int = 0) -> list[dict]:
    """Single-mention texts with ragged lists of 1 to 64 short names, an
    in-degree and a spacy score each, and no descriptions, types or embeddings."""
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(n_mentions):
        n = int(rng.integers(1, 65))
        surface = "".join(rng.choice(list("bcdfgklmnpst"), size=int(rng.integers(4, 9))))
        cands = [{"id": f"s{i}_c{j}", "name": surface[: 2 + j % 5] + "ae"[j % 2], "description": None,
                  "domains": [], "indegree": int(rng.integers(0, 500)), "embedding": None,
                  "external_scores": {"spacy": round(float(rng.random()), 6)}} for j in range(n)]
        objs.append({"mention": {"id": f"s{i:05d}", "surface": surface, "text_id": f"ts{i:05d}",
                                 "context_ids": [], "type": None},
                     "candidates": cands, "labels": [int(j == i % n) for j in range(n)]})
    return objs


def test_cli_featurize_builds_no_instances(tmp_path, monkeypatch):
    data = _write(tmp_path / "serve.jsonl", _link_serve_lines(40))
    built = {cls.__name__: 0 for cls in (Mention, CandidateEntity, LabeledInstance)}
    for cls in (Mention, CandidateEntity, LabeledInstance):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    loaded = []
    monkeypatch.setattr(cli, "load_dataset", lambda path: loaded.append(load_dataset(path)) or loaded[-1])
    assert cli.run(["featurize", "--data", str(data), "--rules", "builtin:LNN-EL",
                    "--out", str(tmp_path / "f.csv")]) == 0
    assert built == {"Mention": 0, "CandidateEntity": 0, "LabeledInstance": 0}
    assert len(loaded) == 1 and "instances" not in vars(loaded[0])
    assert read_sidecar(tmp_path / "f.csv", data, ["jacc", "prom"]) is not None
    assert len(loaded[0].instances) == 40 and built["CandidateEntity"] == len(loaded[0].columns.candidate_ids)
