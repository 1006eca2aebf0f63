"""rulelink benchmark: seeded featurize -> train -> link -> eval workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-lnn --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run. Both print a
human-readable table and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See perfbench/README.md for the workloads and every metric's definition.
"""
from __future__ import annotations

import os

# One caller, one thread: keep numpy's BLAS pools from adding threads. The
# only second thread the benchmark runs is the jobs=2 featurization probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

import layers
from hostspeed import SPEED, pin_to_one_cpu
from spans import NullTracer, Tracer
from workloads import WORKLOADS, OpFailed, Ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5
# After each round, set-ups repeat until they have taken this long (at least
# one), so a workload whose set-up takes milliseconds gets dozens of samples.
SETUP_SLOT_S = 0.3
MIN_ONLINE = {"full": 1000, "tiny": 40}
# Online tail percentiles are medians over consecutive blocks of this many
# samples, so at least 10 lie beyond each block's 99th percentile.
TAIL_BLOCK = {"full": 1000, "tiny": 40}
# Share of --seconds given to the rounds of a traced run; the fixed-size
# probes take the rest.
TRACED_RUN_SHARE = 0.6
FINAL_LOSS_RTOL = 1e-9


def import_library():
    """Import rulelink from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "rulelink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rulelink sources at {src / 'rulelink'}")
    sys.path.insert(0, str(src))
    import rulelink
    from rulelink import (  # noqa: F401  (binds the submodules as attributes)
        boxgeom, cli, corpus, estimator, evaluation, logic, ruledsl, simfeatures, training,
    )

    if Path(rulelink.__file__).resolve().parent != (src / "rulelink").resolve():
        raise SystemExit(f"perfbench: imported rulelink from {rulelink.__file__}, not {src}")
    return rulelink


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the harness smoke check")
    p.add_argument("--record", action="store_true",
                   help="store this run's outputs as the expected values for the seed")
    return p.parse_args(argv)


def median(values):
    return statistics.median(list(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def outputs_match(a: dict, b: dict) -> list[str]:
    """Keys on which two output records differ (final loss to a tolerance)."""
    bad = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if key == "final_loss" and x is not None and y is not None:
            if abs(x - y) > FINAL_LOSS_RTOL * max(abs(x), abs(y), 1e-300):
                bad.append(key)
        elif x != y:
            bad.append(key)
    return bad


class Bench:
    def __init__(self, rl, args, run_dir: Path):
        self.rl = rl
        self.args = args
        self.run_dir = run_dir
        self.ops = Ops()
        self.cls = WORKLOADS[args.workload]
        self.tracer = Tracer() if args.trace else None
        self.null = NullTracer()
        self.wl = None
        self.setups: list[dict] = []

    # -- phases -----------------------------------------------------------------

    def setup(self, index: int):
        """One timed set-up in its own directory; the first one's workload
        object is the one the rounds run on."""
        work = self.run_dir / f"setup{index}"
        work.mkdir()
        wl = self.cls(self.rl, work, self.args.seed, self.args.scale, self.ops, self.tracer or self.null)
        with SPEED.interval() as span:
            info = wl.setup()
        info["setup_s"], info["setup_scaled_s"] = span.seconds, span.scaled
        if self.wl is None:
            self.wl = wl
        self.setups.append(info)
        self.ops.check(f"set-up {index} reproduces set-up 0", info["data_digest"] == self.setups[0]["data_digest"])

    def rounds(self, budget_s: float, setups: bool = False):
        """Rounds until the next one would overrun ``budget_s`` (at least one).
        With ``setups``, every round is followed by timed set-ups for
        SETUP_SLOT_S (at least one), and there are at least SETUP_REPEATS
        set-ups, so set-up samples spread over the run like round samples do. A round that fails ends the run;
        its failure is already counted."""
        done = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                done.append(self.wl.run_round())
                slot = time.perf_counter()
                while setups:
                    self.setup(len(self.setups))
                    if time.perf_counter() - slot >= SETUP_SLOT_S:
                        break
            except OpFailed:
                break
            last = time.perf_counter() - t0
            enough_setups = not setups or len(self.setups) >= SETUP_REPEATS
            if time.perf_counter() - start + last > budget_s and enough_setups:
                break
        return done

    def check_outputs(self, rounds, data_digest: str) -> dict:
        first = dict(rounds[0].outputs, data_digest=data_digest)
        for k, r in enumerate(rounds[1:], start=1):
            bad = outputs_match(rounds[0].outputs, r.outputs)
            self.ops.check(f"round {k} reproduces round 0", not bad, ", ".join(bad))
        table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        # Values are recorded at full scale only.
        full = self.args.scale == "full"
        recorded = table.get(self.args.workload, {}).get(str(self.args.seed)) if full else None
        if self.args.record and full:
            table.setdefault(self.args.workload, {})[str(self.args.seed)] = first
            table[self.args.workload] = dict(sorted(table[self.args.workload].items(), key=lambda kv: int(kv[0])))
            EXPECTED.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
        elif recorded is not None:
            for key in sorted(recorded):
                bad = outputs_match({key: recorded[key]}, {key: first.get(key)})
                self.ops.check(f"{key} equals recorded value", not bad,
                               f"{first.get(key)!r} != recorded {recorded[key]!r}")
        return {"outputs": first, "recorded": recorded is not None}

    def online_samples(self, rounds) -> list[tuple[int, float]]:
        """Every round's (measured, scaled) latency samples; if they number
        fewer than MIN_ONLINE, extra online calls make up the difference so
        the 99th percentile has at least MIN_ONLINE / 100 samples beyond it."""
        samples = [pair for r in rounds for pair in r.online]
        if len(samples) < MIN_ONLINE[self.args.scale]:
            try:
                samples += self.wl.online(MIN_ONLINE[self.args.scale] - len(samples))
            except OpFailed:
                pass
        return samples

    def timing_metrics(self, rounds, online, scaled: bool) -> dict:
        """The timing metrics, each a median over the rounds (set-ups,
        online calls). ``scaled`` gives them at the reference host speed,
        the numbers the benchmark reports; otherwise as measured."""
        stages = (lambda r: r.scaled) if scaled else (lambda r: r.stages)
        key = "_scaled" if scaled else ""
        infos = self.setups
        if rounds[0].steps:
            steps_per_s = median(r.steps / stages(r)["train"] for r in rounds)
        else:
            steps_per_s = median(i["train_steps_per_s" + key] for i in infos)
        latency_ns = [pair[1 if scaled else 0] for pair in online]
        blocks = numpy.array_split(latency_ns, max(len(latency_ns) // TAIL_BLOCK[self.args.scale], 1))
        return {
            "pipeline_s": (median(sum(stages(r).values()) for r in rounds), "s"),
            "setup_s": (median(i[f"setup{key}_s"] for i in infos), "s"),
            "featurize_pairs_per_s": (median(r.pairs / stages(r)["featurize"] for r in rounds), "1/s"),
            "train_steps_per_s": (steps_per_s, "1/s"),
            "link_mentions_per_s": (
                median(r.mentions / (stages(r)["link"] + stages(r)["eval"]) for r in rounds), "1/s"),
            "online_p50_ms": (percentile(latency_ns, 50) / 1e6, "ms"),
            "online_p95_ms": (median(percentile(b, 95) for b in blocks) / 1e6, "ms"),
            "online_p99_ms": (median(percentile(b, 99) for b in blocks) / 1e6, "ms"),
        }

    # -- the two kinds of run ------------------------------------------------------

    def run_untraced(self) -> dict:
        cpu = pin_to_one_cpu()
        SPEED.start()
        try:
            self.setup(0)
            # Warm-up: fills the library's lazy caches; checked, not timed.
            warm = self.wl.run_round()
            rounds = self.rounds(self.args.seconds, setups=True)
            online = self.online_samples(rounds)
        except OpFailed:
            return {}
        finally:
            SPEED.stop()
        if not rounds:
            return {}
        infos = self.setups
        checked = self.check_outputs([warm] + rounds, infos[0]["data_digest"])
        metrics = self.timing_metrics(rounds, online, scaled=True)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["f1"] = (checked["outputs"]["f1"], "ratio")
        for k in sorted(checked["outputs"]["recall_at"], key=int):
            metrics[f"recall_at_{k}"] = (checked["outputs"]["recall_at"][k], "ratio")
        metrics["error_rate"] = (self.ops.failed / max(self.ops.attempted, 1), "ratio")
        for name, value in self.timing_metrics(rounds, online, scaled=False).items():
            metrics[f"{name}.measured"] = value
        stage_names = sorted({s for r in rounds for s in r.stages})
        return {
            "metrics": metrics,
            "notes": {
                "rounds": len(rounds),
                "online_samples": len(online),
                "setups": len(infos),
                "pinned_cpu": cpu,
                "kernel_us_median": median(SPEED.samples) * 1e6,
                "pipeline_s_best": min(r.pipeline_s for r in rounds),
                "stage_s_median": {s: median(r.stages[s] for r in rounds) for s in stage_names},
                "final_loss": checked["outputs"]["final_loss"],
                "expected_values_recorded": checked["recorded"],
            },
        }

    def run_traced(self) -> dict:
        """Traced set-up, then untraced and traced rounds in alternation (so
        drift on a shared host hits both alike), then the probes."""
        tracer = self.tracer
        layers.install(tracer, self.rl)
        try:
            self.setup(0)
        except OpFailed:
            return {}
        finally:
            tracer.restore()
        wl = self.wl
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                wl.tracer = self.null
                untraced.append(wl.run_round())
                tracer.phase = f"round-{len(traced)}"
                layers.install(tracer, self.rl)
                wl.tracer = tracer
                try:
                    traced.append(wl.run_round())
                finally:
                    tracer.restore()
                    wl.tracer = self.null
            except OpFailed:
                break
            pair_s = time.perf_counter() - t0
            if time.perf_counter() - start + pair_s > self.args.seconds * TRACED_RUN_SHARE:
                break
        if not traced:
            return {}
        self.check_outputs(untraced + traced, self.setups[0]["data_digest"])
        probes = layers.probes(self.rl, wl, self.ops)
        metrics, missing = layers.metrics(tracer, wl, probes)
        overhead = median(r.pipeline_s for r in traced) - median(r.pipeline_s for r in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        spans_path = ROOT / ".perfbench" / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        return {
            "metrics": metrics,
            "missing": missing,
            "notes": {
                "untraced_rounds": len(untraced),
                "traced_rounds": len(traced),
                "untraced_pipeline_s": median(r.pipeline_s for r in untraced),
                "traced_pipeline_s": median(r.pipeline_s for r in traced),
                "spans": str(spans_path.relative_to(ROOT)),
            },
        }


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this run kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    rl = import_library()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    declared = declared_metrics(args.trace)
    out_dir = ROOT / ".perfbench"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(rl, args, run_dir)
    try:
        result = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ops = bench.ops
    for err in ops.errors[:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    if len(ops.errors) > 20:
        print(f"perfbench: ... {len(ops.errors) - 20} more errors", file=sys.stderr)
    if not result:
        print("perfbench: no round completed; no result", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    wrong = [name for name, unit in declared.items() if metrics.get(name, (None, None))[1] != unit]
    if wrong:
        raise SystemExit(f"perfbench: BENCHMARK.json metrics not produced with their units: {', '.join(wrong)}")
    properties = bench.wl.properties
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    print("host " + " ".join(f"{k}={v}" for k, v in host().items()))
    print("inputs " + " ".join(f"{k}={round(v, 4) if isinstance(v, float) else v}" for k, v in properties.items()))
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        mark = "" if name in declared else "  (printed only)"
        print(f"  {name:<40} {value:>16.6g} {unit}{mark}")
    for name in result.get("missing", []):
        print(f"  {name:<40} {'missing':>16} (not collectable on {args.workload})")
    print(f"checks: attempted {ops.attempted}, failed {ops.failed}")

    out_dir.joinpath(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "host": host(), "inputs": properties, "notes": result["notes"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing": result.get("missing", []), "errors": ops.errors,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
