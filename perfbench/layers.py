"""Per-layer metrics of the traced run.

``install`` wraps the library's public functions and methods with spans
(traced run only). ``probes`` times single library calls on a slice of the
workload's own inputs: each feature kind alone, jobs=2 against jobs=1, and
the dataset and feature-table codecs. ``metrics`` turns spans and probes
into the per-layer numbers, named after the module they measure.
"""
from __future__ import annotations

import statistics
import time

from workloads import PROBE_KINDS

PROBE_REPS = 3
PROBE_CAP_S = 1.5


def _steps(ds, config, *args, **kwargs) -> dict:
    return {"steps": len(ds.instances) * config.epochs}


def _box_steps(ds, config, *args, **kwargs) -> dict:
    by_text = ds.instances_by_text()
    rows = sum(1 for inst in ds.instances if len(by_text[inst.mention.text_id]) > 1)
    return {"steps": rows * config.epochs}


def _mentions(model, ds, *args, **kwargs) -> dict:
    return {"mentions": len(ds.instances)}


def install(tracer, rl) -> None:
    f, m = tracer.wrap_function, tracer.wrap_method
    f(rl.corpus, "load_dataset", "corpus.load_dataset")
    f(rl.corpus, "save_dataset", "corpus.save_dataset")
    f(rl.ruledsl, "compile", "ruledsl.compile")
    f(rl.simfeatures, "build_feature_table", "simfeatures.build_feature_table")
    m(rl.simfeatures.FeatureTable, "to_csv", "simfeatures.to_csv")
    m(rl.simfeatures.FeatureTable, "from_csv", "simfeatures.from_csv")
    f(rl.boxgeom, "train_box_params", "boxgeom.train_box_params", _box_steps)
    m(rl.logic.ScoringGraph, "evaluate_batch", "logic.evaluate_batch")
    m(rl.logic.ScoringGraph, "backward", "logic.backward")
    f(rl.training, "train", "training.train", lambda ds, table, graph, config, *a, **k: _steps(ds, config))
    f(rl.training, "total_loss", "training.total_loss")
    f(rl.evaluation, "link", "evaluation.link", _mentions)
    f(rl.evaluation, "evaluate", "evaluation.evaluate")
    f(rl.evaluation, "prf1", "evaluation.prf1")
    f(rl.evaluation, "recall_at_k", "evaluation.recall_at_k")
    m(rl.estimator.RuleLinker, "predict", "estimator.predict")


def _timed_median(ops, name: str, fn) -> float:
    """Median wall time of up to PROBE_REPS calls, fewer past PROBE_CAP_S."""
    times = []
    start = time.perf_counter()
    while len(times) < PROBE_REPS and (not times or time.perf_counter() - start < PROBE_CAP_S):
        t0 = time.perf_counter()
        ops.run(name, fn)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(rl, wl, ops) -> dict:
    sf, corpus = rl.simfeatures, rl.corpus
    part = wl.probe_slice()
    pairs = sum(len(inst.candidates) for inst in part.instances)
    out = {}
    for kind, spec in wl.probe_specs().items():
        catalog = sf.FeatureCatalog({kind: spec})
        seconds = _timed_median(ops, f"probe {kind}", lambda: sf.build_feature_table(part, catalog))
        out[kind] = seconds / pairs * 1e6
    # Alternate the two settings so drift on a shared host hits both alike.
    jobs = {1: [], 2: []}
    for _ in range(2):
        for n in (1, 2):
            t0 = time.perf_counter()
            ops.run(f"probe jobs={n}", sf.build_feature_table, part, wl.catalog, jobs=n)
            jobs[n].append(time.perf_counter() - t0)
    out["jobs2_over_jobs1"] = statistics.median(jobs[2]) / statistics.median(jobs[1])
    path = wl.work / "probe.jsonl"
    out["save_dataset"] = _timed_median(ops, "probe save_dataset", lambda: corpus.save_dataset(wl.ds, path))
    out["load_dataset"] = _timed_median(ops, "probe load_dataset", lambda: corpus.load_dataset(path))
    table = wl.serving[1]
    csv = wl.work / "probe.csv"
    out["to_csv"] = _timed_median(ops, "probe to_csv", lambda: table.to_csv(csv))
    out["from_csv"] = _timed_median(ops, "probe from_csv", lambda: sf.FeatureTable.from_csv(csv))
    return out


def metrics(tracer, wl, probe: dict) -> tuple[dict, list[str]]:
    """(name -> (value, unit), names not collectable on this workload)."""
    med = statistics.median
    kids = tracer.children()
    dur = tracer.duration
    # Call counts cover set-up plus the first traced round, so they repeat
    # exactly from run to run; durations pool every traced span.
    first = {"setup", "round-0"}

    def calls(name):
        return sum(1 for s in tracer.named(name) if s["phase"] in first)

    def p50_us(name):
        spans = tracer.named(name)
        return med(dur(s) for s in spans) * 1e6 if spans else None

    out: dict[str, tuple[float, str]] = {}
    missing: list[str] = []

    def put(name, value, unit):
        if value is None:
            missing.append(name)
        else:
            out[name] = (value, unit)

    for layer in ("evaluate_batch", "backward"):
        put(f"logic.{layer}.calls", calls(f"logic.{layer}"), "count")
        put(f"logic.{layer}.us_p50", p50_us(f"logic.{layer}"), "us")

    trains = tracer.named("training.train")
    losses = tracer.named("training.total_loss")
    steps = sum(t["attrs"]["steps"] for t in trains)
    put("training.total_loss.s", med(dur(s) for s in losses) if losses else None, "s")
    put("training.step_other.us",
        med(tracer.self_time(t, kids) / t["attrs"]["steps"] * 1e6 for t in trains) if steps else None, "us")
    in_train = sum(1 for s in tracer.named("logic.backward") if tracer.has_ancestor(s, "training.train"))
    put("training.backward_share", in_train / steps if steps else None, "ratio")

    links = [s for s in tracer.named("evaluation.link") if not tracer.has_ancestor(s, "estimator.predict")]
    linked = sum(s["attrs"]["mentions"] for s in links)
    put("evaluation.link.us_per_mention", sum(dur(s) for s in links) / linked * 1e6 if linked else None, "us")
    evals = tracer.named("evaluation.evaluate")
    ranking = ("evaluation.prf1", "evaluation.recall_at_k")
    rank = [sum(dur(k) for k in kids.get(e["id"], []) if k["name"] in ranking) for e in evals]
    put("evaluation.rank_metrics.s", med(rank) if rank else None, "s")
    put("estimator.predict.us_p50", p50_us("estimator.predict"), "us")
    compiles = tracer.named("ruledsl.compile")
    put("ruledsl.compile.ms", med(dur(s) for s in compiles) * 1e3 if compiles else None, "ms")

    for kind in PROBE_KINDS:
        put(f"simfeatures.{kind}.us_per_pair", probe.get(kind), "us")
    put("simfeatures.ctx.repeat_share", wl.properties["repeat_share"], "ratio")
    put("simfeatures.jobs2_over_jobs1", probe["jobs2_over_jobs1"], "ratio")
    put("simfeatures.to_csv.s", probe["to_csv"], "s")
    put("simfeatures.from_csv.s", probe["from_csv"], "s")
    put("corpus.load_dataset.s", probe["load_dataset"], "s")
    put("corpus.save_dataset.s", probe["save_dataset"], "s")

    put("boxgeom.box.us_per_pair", probe.get("box"), "us")
    boxes = tracer.named("boxgeom.train_box_params")
    put("boxgeom.train_box_params.steps_per_s",
        med(s["attrs"]["steps"] / dur(s) for s in boxes) if boxes else None, "1/s")
    for cmd in ("featurize", "link", "eval"):
        spans = tracer.named(f"cli.{cmd}")
        put(f"cli.{cmd}.self_s", med(tracer.self_time(s, kids) for s in spans) if spans else None, "s")
    return out, missing
