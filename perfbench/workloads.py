"""The benchmark workloads: seeded set-up plus one timed pipeline round.

Each workload is a closed loop driven by one caller. ``setup`` generates the
inputs from the seed, writes them as JSONL, loads them back through the
library, compiles the rule template and (for ``link-serve``) fits the served
model. ``run_round`` runs the timed ``featurize -> train -> link -> eval``
pipeline once and then an online phase in which one client asks
``RuleLinker.predict`` for one mention at a time.

The library is reached through its module attributes at call time
(``self.rl.evaluation.link``), never through names bound here, so the traced
run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

import gen
from hostspeed import REF_NOMINAL_S, SPEED

KS = (1, 5, 10)

SIZES = {
    "train-lnn": {
        "full": {"mentions": 24, "cands": 10, "epochs": 30, "online": 300, "probe_pairs": 240},
        "tiny": {"mentions": 8, "cands": 5, "epochs": 2, "online": 20, "probe_pairs": 20},
    },
    "context-featurize": {
        "full": {"texts": 2, "per_text": 6, "cands": 10, "shared": 0.3, "desc": 300,
                 "box_epochs": 20, "epochs": 10, "online": 600, "probe_pairs": 60},
        "tiny": {"texts": 1, "per_text": 3, "cands": 4, "shared": 0.25, "desc": 60,
                 "box_epochs": 2, "epochs": 2, "online": 20, "probe_pairs": 12},
    },
    "link-serve": {
        "full": {"serve": 600, "fit": 60, "fit_epochs": 6, "online": 300, "probe_pairs": 2000},
        "tiny": {"serve": 30, "fit": 8, "fit_epochs": 2, "online": 20, "probe_pairs": 50},
    },
}

# Feature kinds timed one at a time in the traced run's probes; ``external``
# reads the ``spacy`` column every workload carries.
PROBE_KINDS = ("jacc", "lev", "jw", "pr", "ctx", "type", "prom", "external")


class OpFailed(Exception):
    """An operation raised or a CLI command exited non-zero."""


class Ops:
    """Counts attempted and failed operations; a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must report, not crash
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed{': ' + detail if detail else ''}")
        return ok


def feature_digest(table) -> str:
    """sha256 over the table's columns, row keys and exact value reprs."""
    h = hashlib.sha256(",".join(table.feature_names).encode())
    for (mid, cid), values in table.rows.items():
        h.update(f"\n{mid}\t{cid}\t".encode())
        h.update(",".join(repr(values[n]) for n in table.feature_names).encode())
    return h.hexdigest()


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_jsonl(objs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


@dataclass
class Round:
    """One pipeline round. ``stages`` holds measured seconds per stage and
    ``scaled`` the same seconds at the reference host speed (see
    ``hostspeed.HostSpeed.interval``).
    ``online`` holds (measured ns, scaled ns) per single-mention call."""

    stages: dict[str, float]
    scaled: dict[str, float]
    pairs: int
    mentions: int
    steps: int
    outputs: dict
    online: list[tuple[int, float]] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stages.values())


class Workload:
    name = ""
    salt = 0
    template = "LNN-EL"
    mode = "lnn"

    def __init__(self, rl, work_dir, seed: int, scale: str, ops: Ops, tracer):
        self.rl = rl
        self.work = work_dir
        self.seed = seed
        self.size = SIZES[self.name][scale]
        self.ops = ops
        self.tracer = tracer
        self.properties: dict = {}
        self._cursor = 0

    # -- set-up ------------------------------------------------------------

    def _rng(self):
        return np.random.default_rng([self.salt, self.seed])

    def _leaves(self) -> list[str]:
        rd = self.rl.ruledsl
        return rd.ast_leaves(rd.builtin_templates()[self.template])

    def _compile(self, catalog) -> None:
        rd = self.rl.ruledsl
        rules = [rd.builtin_templates()[self.template]]
        graph = self.ops.run("compile", rd.compile, rules, catalog, mode=self.mode)
        self.ops.check("compile covers catalog", set(graph.feature_names) <= set(catalog.names()))

    def _load(self, objs, fname: str):
        path = self.work / fname
        self.ops.run("write inputs", write_jsonl, objs, path)
        ds = self.ops.run("load_dataset", self.rl.corpus.load_dataset, path)
        self.ops.check(f"{fname} loads every instance", len(ds.instances) == len(objs))
        return ds, path

    def _singles(self, ds) -> list:
        order = np.random.default_rng([self.salt, self.seed, 1]).permutation(len(ds.instances))
        Dataset = self.rl.corpus.Dataset
        return [Dataset(instances=(ds.instances[i],), embedding_dim=ds.embedding_dim) for i in order]

    def setup(self) -> dict:
        """Build inputs; returns set-up side measurements and the input digest."""
        raise NotImplementedError

    # -- one round -----------------------------------------------------------

    def _timed(self, stage: str, stages: dict, scaled: dict, fn, *args, **kwargs):
        """Run one stage and add its measured and scaled seconds."""
        with SPEED.interval() as span, self.tracer.span(f"stage.{stage}"):
            out = self.ops.run(stage, fn, *args, **kwargs)
        stages[stage] = stages.get(stage, 0.0) + span.seconds
        scaled[stage] = scaled.get(stage, 0.0) + span.scaled
        return out

    def online(self, n: int) -> list[tuple[int, float]]:
        """``n`` single-mention predictions with the last round's model and
        features, each checked against that round's batch link top-1.
        One kernel call precedes and one follows each prediction; the mean
        of the two gives the call's host speed. Phases of the host can be
        as short as a few milliseconds, so only the calls next to it tell.
        The sampler's timer is paused meanwhile. Returns (measured ns,
        scaled ns) per prediction."""
        linker, table, batch_top = self.serving
        latency_ns = []
        kernel_s = [SPEED.call()]
        with SPEED.paused(), self.tracer.span("stage.online"):
            for _ in range(n):
                single = self.singles[self._cursor % len(self.singles)]
                self._cursor += 1
                self.ops.attempted += 1
                t0 = time.perf_counter_ns()
                try:
                    top = linker.predict(single, feature_table=table)[0]
                except Exception as exc:
                    self.ops.failed += 1
                    self.ops.errors.append(f"predict: {type(exc).__name__}: {exc}")
                    raise OpFailed("predict") from exc
                latency_ns.append(time.perf_counter_ns() - t0)
                kernel_s.append(SPEED.call())
                mid = single.instances[0].mention.id
                if top != batch_top[mid]:
                    self.ops.failed += 1
                    self.ops.errors.append(f"check online top-1 failed: {mid}: {top} != batch {batch_top[mid]}")
        return [
            (ns, ns * 2 * REF_NOMINAL_S / (kernel_s[i] + kernel_s[i + 1]))
            for i, ns in enumerate(latency_ns)
        ]

    def run_round(self) -> Round:
        raise NotImplementedError

    # -- probes for the traced run --------------------------------------------

    def probe_slice(self):
        """Whole texts from the start of the dataset, at least ``probe_pairs``
        pairs (context features need every co-mention present)."""
        by_text = self.ds.instances_by_text()
        seen, picked, pairs = set(), [], 0
        for inst in self.ds.instances:
            tid = inst.mention.text_id
            if tid in seen:
                continue
            if pairs >= self.size["probe_pairs"]:
                break
            seen.add(tid)
            picked += by_text[tid]
            pairs += sum(len(p.candidates) for p in by_text[tid])
        return self.rl.corpus.Dataset(instances=tuple(picked), embedding_dim=self.ds.embedding_dim)

    def probe_specs(self) -> dict:
        sf = self.rl.simfeatures
        specs = {k: sf.FeatureSpec(k) for k in PROBE_KINDS if k != "external"}
        specs["external"] = sf.FeatureSpec("external", source="spacy")
        return specs


class _ApiWorkload(Workload):
    """Pipeline through the library API: featurize, fit, link, evaluate."""

    def _fit(self, table):
        linker = self.rl.estimator.RuleLinker(
            rules=self.template, mode=self.mode, epochs=self.size["epochs"], seed=self.seed
        )
        return linker.fit(self.ds, feature_table=table)

    def _featurize(self, catalog):
        table = self.rl.simfeatures.build_feature_table(self.ds, catalog)
        table.to_csv(self.work / "features.csv")
        return table

    def run_round(self) -> Round:
        rl = self.rl
        stages: dict[str, float] = {}
        scaled: dict[str, float] = {}
        box_params = None
        if "box_epochs" in self.size:
            config = rl.training.TrainConfig(epochs=self.size["box_epochs"], seed=self.seed)
            box_params = self._timed("box", stages, scaled, rl.boxgeom.train_box_params, self.ds, config)
        catalog = rl.simfeatures.default_catalog(box_params=box_params).restricted(self._leaves())
        table = self._timed("featurize", stages, scaled, self._featurize, catalog)
        linker = self._timed("train", stages, scaled, self._fit, table)
        preds = self._timed("link", stages, scaled, rl.evaluation.link, linker.model_, self.ds, table)
        report = self._timed("eval", stages, scaled, rl.evaluation.evaluate, linker.model_, self.ds, table, ks=KS)
        self.catalog, self.box_params = catalog, box_params
        self.serving = (linker, table, {p.mention_id: p.top for p in preds})
        n_mentions = len(self.ds.instances)
        return Round(
            stages=stages,
            scaled=scaled,
            pairs=self.properties["pairs"],
            mentions=n_mentions,
            steps=n_mentions * self.size["epochs"],
            outputs={
                "feature_digest": feature_digest(table),
                "f1": report.f1,
                "recall_at": {str(k): v for k, v in sorted(report.recall_at.items())},
                "final_loss": linker.training_log_[-1]["loss"],
            },
            online=self.online(self.size["online"]),
        )

    def _setup_dataset(self, objs) -> dict:
        self.properties = gen.input_properties(objs)
        self.ds, path = self._load(objs, "data.jsonl")
        self._compile(self.rl.simfeatures.default_catalog().restricted(self._leaves()))
        self.singles = self._singles(self.ds)
        return {"data_digest": file_digest(path)}


class TrainLnn(_ApiWorkload):
    """Short names, 10 candidates, LNN-EL in lnn mode, ~30 epochs: training
    and the logic forward/backward dominate; string kernels barely run."""

    name = "train-lnn"
    salt = 1

    def setup(self) -> dict:
        n = self.size["mentions"]
        objs = gen.name_instances(self._rng(), [self.size["cands"]] * n, "m")
        return self._setup_dataset(objs)


class ContextFeaturize(_ApiWorkload):
    """~6-mention texts whose candidates carry ~300-char descriptions, types,
    embeddings and a cos column: the ctx string kernels dominate, then the
    tnorm-mode fit and box training; logic is a small share."""

    name = "context-featurize"
    salt = 2
    template = "LNN-EL_ens"
    mode = "tnorm"

    def setup(self) -> dict:
        s = self.size
        objs = gen.context_instances(self._rng(), s["texts"], s["per_text"], s["cands"], s["shared"], s["desc"])
        return self._setup_dataset(objs)

    def probe_specs(self) -> dict:
        specs = super().probe_specs()
        specs["box"] = self.rl.simfeatures.FeatureSpec("box", box_params=self.box_params)
        return specs


class LinkServe(Workload):
    """Ragged candidate lists (1 to 64) with short names, served by an lnn
    model fitted in set-up: CLI featurize, link and eval over the whole set,
    then single-mention predictions."""

    name = "link-serve"
    salt = 3

    def setup(self) -> dict:
        rl, s = self.rl, self.size
        rng = self._rng()
        serve = gen.name_instances(rng, gen.ragged_lengths(s["serve"], rng), "s")
        fit = gen.name_instances(rng, gen.ragged_lengths(s["fit"], rng), "f")
        self.properties = gen.input_properties(serve)
        self.ds, self.data_path = self._load(serve, "serve.jsonl")
        ds_fit, fit_path = self._load(fit, "fit.jsonl")
        catalog = rl.simfeatures.default_catalog().restricted(self._leaves())
        self._compile(catalog)
        self.catalog = catalog
        table = self.ops.run("featurize fit set", rl.simfeatures.build_feature_table, ds_fit, catalog)
        self.linker = rl.estimator.RuleLinker(
            rules=self.template, mode=self.mode, epochs=s["fit_epochs"], seed=self.seed
        )
        with SPEED.interval() as fit:
            self.ops.run("fit served model", self.linker.fit, ds_fit, feature_table=table)
        self.model_path = self.work / "model.json"
        self.ops.run("save_model", rl.training.save_model, self.linker.model_, self.model_path)
        self.singles = self._singles(self.ds)
        return {
            "data_digest": file_digest(self.data_path, fit_path),
            "train_steps_per_s": len(ds_fit.instances) * s["fit_epochs"] / fit.seconds,
            "train_steps_per_s_scaled": len(ds_fit.instances) * s["fit_epochs"] / fit.scaled,
        }

    def _cli(self, argv: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with self.tracer.span(f"cli.{argv[0]}"):
                code = self.rl.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"rulelink {argv[0]} exited {code}: {out.getvalue().strip()}")

    def run_round(self) -> Round:
        rl, w = self.rl, self.work
        data, feats, preds_path, report_path = (str(self.data_path), str(w / "features.csv"),
                                                str(w / "preds.json"), str(w / "report.json"))
        model = str(self.model_path)
        stages: dict[str, float] = {}
        scaled: dict[str, float] = {}
        self._timed("featurize", stages, scaled, self._cli,
                    ["featurize", "--data", data, "--rules", f"builtin:{self.template}", "--out", feats])
        self._timed("link", stages, scaled, self._cli,
                    ["link", "--model", model, "--data", data, "--features", feats, "--out", preds_path])
        self._timed("eval", stages, scaled, self._cli,
                    ["eval", "--model", model, "--data", data, "--features", feats,
                     "--ks", ",".join(map(str, KS)), "--out", report_path])
        table = self.ops.run("read features", rl.simfeatures.FeatureTable.from_csv, feats)
        preds = self.ops.run("read predictions", read_json, preds_path)
        report = self.ops.run("read report", read_json, report_path)
        self.serving = (self.linker, table, {p["mention_id"]: p["ranked"][0][0] for p in preds})
        return Round(
            stages=stages,
            scaled=scaled,
            pairs=self.properties["pairs"],
            mentions=len(self.ds.instances),
            steps=0,
            outputs={
                "feature_digest": feature_digest(table),
                "f1": report["f1"],
                "recall_at": {str(k): report["recall_at"][str(k)] for k in KS},
                "final_loss": self.linker.training_log_[-1]["loss"],
            },
            online=self.online(self.size["online"]),
        )


WORKLOADS = {cls.name: cls for cls in (TrainLnn, ContextFeaturize, LinkServe)}
