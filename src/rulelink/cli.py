"""Command-line pipeline: featurize, train, link, eval, transfer, ablate,
inspect, fetch.

Feature generation and training are separate stages so features can be
cached between runs. ``featurize --out F`` also writes the sidecar
``F.npz``: the rows ``link``, ``eval`` and ``transfer`` score, keyed on the
sha256 of the data file and of ``F``. Those commands score from it when both
digests match and it passes its checks; otherwise they log why and read the
JSONL and the CSV, with the same outputs. Outputs are written atomically
(temp file + rename); no subcommand mutates its inputs. Exit codes: 0
success, 1 validation error (bad flags, missing files), 2 runtime error. Set
ELR_LOG to a level name (DEBUG, INFO, ...) to control verbosity.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import fields, replace

from . import evaluation
from .boxgeom import attach_embeddings, load_box_params
from .corpus import DEFAULT_DENYLIST, atomic_write, fetch_candidates, load_dataset, read_text
from .errors import (
    CompileError,
    DatasetError,
    FeatureError,
    FetchError,
    ParseError,
    TrainingDivergence,
)
from .ruledsl import builtin_templates, compile, parse, rule_catalog
from .simfeatures import FeatureTable, build_feature_table, default_catalog, read_sidecar, write_features
from .training import TrainConfig, load_config, load_model, save_model, train

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Flag or input validation failure; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    return path


def _load_rules(spec: str):
    """A rules flag is either ``builtin:<name>`` or a .elr file path."""
    if spec.startswith("builtin:"):
        return [builtin_templates()[spec.split(":", 1)[1]]]
    return parse(read_text(_require_file(spec), UsageError))


def _config_from_args(args) -> TrainConfig:
    config = load_config(_require_file(args.config)) if args.config else TrainConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if getattr(args, f.name) is not None}
    return replace(config, **overrides)


def _cmd_featurize(args) -> int:
    ds = load_dataset(_require_file(args.data))
    if args.embeddings:
        ds = attach_embeddings(ds, _require_file(args.embeddings))
    rules = _load_rules(args.rules)
    box_params = load_box_params(_require_file(args.box_params)) if args.box_params else None
    table = build_feature_table(ds, rule_catalog(rules, box_params))
    write_features(args.out, ds, table)
    logger.info("wrote %d feature rows to %s", len(table.candidate_ids), args.out)
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(_require_file(args.data))
    table = FeatureTable.from_csv(_require_file(args.features))
    rules = _load_rules(args.rules)
    config = _config_from_args(args)
    catalog = rule_catalog(rules)
    graph = compile(rules, catalog, mode=args.mode, alpha=config.alpha)
    model = train(ds, table, graph, config, catalog=catalog)
    save_model(model, args.out)
    final = model.training_log[-1] if model.training_log else {"loss": None, "violation": None}
    logger.info("model written to %s (final loss %s)", args.out, final["loss"])
    return 0


def _scoring_input(args, names: list[str]):
    """What ``link``, ``eval`` and ``transfer`` score, as ``evaluation``
    takes it: the ``--features`` sidecar when it matches the two files, else
    the dataset and the feature CSV."""
    data, features = _require_file(args.data), _require_file(args.features)
    block = read_sidecar(features, data, names)
    if block is None:
        return load_dataset(data), FeatureTable.from_csv(features)
    return block, None


def _cmd_link(args) -> int:
    model = load_model(_require_file(args.model))
    preds = evaluation.link(model, *_scoring_input(args, model.graph.feature_names))
    payload = [{"mention_id": p.mention_id, "ranked": p.ranked} for p in preds]
    atomic_write(args.out, json.dumps(payload, sort_keys=True, separators=(",", ":")))
    logger.info("wrote %d predictions to %s", len(preds), args.out)
    return 0


def _cmd_eval(args) -> int:
    model = load_model(_require_file(args.model))
    inputs = _scoring_input(args, model.graph.feature_names)
    ks = [int(k) for k in args.ks.split(",")] if args.ks else (5, 10, 64)
    report = evaluation.evaluate(model, *inputs, ks=ks)
    if args.out:
        atomic_write(args.out, evaluation.report_to_json_bytes(report))
    print(
        f"precision={report.precision:.4f} recall={report.recall:.4f} f1={report.f1:.4f} "
        + " ".join(f"R@{k}={v:.4f}" for k, v in sorted(report.recall_at.items()))
    )
    return 0


def _cmd_ablate(args) -> int:
    ds = load_dataset(_require_file(args.data))
    table = FeatureTable.from_csv(_require_file(args.features))
    subsets = [part.split("+") for part in args.templates.split(",")]
    config = _config_from_args(args)
    catalog = default_catalog().restricted(table.feature_names)
    rows = evaluation.ablation(ds, table, subsets, config, catalog=catalog)
    text = evaluation.ablation_csv(rows) if args.format == "csv" else evaluation.ablation_markdown(rows)
    if args.out:
        atomic_write(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_inspect(args) -> int:
    model = load_model(_require_file(args.model))
    doc = evaluation.export_weights(model)
    if args.json:
        atomic_write(args.json, json.dumps(doc, sort_keys=True, indent=2))
    if args.dot:
        atomic_write(args.dot, evaluation.weights_to_dot(doc))
    if not args.json and not args.dot:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_fetch(args) -> int:
    denylist = tuple(args.denylist.split(",")) if args.denylist else DEFAULT_DENYLIST
    candidates = fetch_candidates(args.endpoint, args.surface, k=args.k, denylist=denylist)
    payload = [
        {"id": c.id, "name": c.name, "domains": sorted(c.domains)} for c in candidates
    ]
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        atomic_write(args.out, text)
    else:
        print(text)
    return 0


def _add_train_flags(sub) -> None:
    sub.add_argument("--config", help="key=value config file (TrainConfig keys)")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--penalty-lambda", dest="penalty_lambda", type=float)
    sub.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="rulelink", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("featurize", help="generate the feature CSV for a rule file")
    p.add_argument("--data", required=True)
    p.add_argument("--rules", required=True, help=".elr file or builtin:<template>")
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", help="entity embedding JSONL for box features")
    p.add_argument("--box-params", dest="box_params", help="trained box parameter JSON")
    p.set_defaults(func=_cmd_featurize)

    p = subs.add_parser("train", help="fit rule parameters on a featurized dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--mode", choices=("lnn", "tnorm", "manual"), default="lnn")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("link", help="rank candidates with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_link)

    for name in ("eval", "transfer"):
        p = subs.add_parser(name, help="evaluate a trained model")
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--features", required=True)
        p.add_argument("--ks", help="comma-separated recall@k cutoffs")
        p.add_argument("--out")
        p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("ablate", help="train and score template subsets")
    p.add_argument("--data", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--templates", required=True, help="e.g. Name,Name+Context")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = subs.add_parser("inspect", help="export learned weights as JSON/DOT")
    p.add_argument("--model", required=True)
    p.add_argument("--json")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_inspect)

    p = subs.add_parser("fetch", help="query a lookup endpoint for candidates")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--denylist", help="comma-separated IRI prefixes to prune")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fetch)

    return parser


# Built on first use and shared by every later run() in the process: parsing
# reads the parser and fills a fresh namespace, so no call sees another's values.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    level = os.environ.get("ELR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"rulelink: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, FeatureError, ParseError, CompileError, FileNotFoundError, ValueError) as exc:
        print(f"rulelink: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergence, FetchError, OSError) as exc:
        print(f"rulelink: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
