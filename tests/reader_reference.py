"""Reference oracle: ``corpus.load_dataset`` and ``merge_external_scores``
as they were before both read through one walk or one CSV row reader.

``load_dataset`` parsed every line first, then ran four passes over the
parsed instances: duplicate mention ids, empty lists, all-negative lists
and embedding dimensions. So every parse fault outranked every duplicate,
and every duplicate every dimension mismatch, and neither of the last two
named a line. ``merge_external_scores`` read the scores CSV with its own
``csv.reader`` and named it ``scores file``. The fuzz tests require the same
accept-or-raise decision, error type and message of the readers that
replaced them, up to those differences.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import replace

from rulelink.corpus import Dataset, LabeledInstance, LoadReport, _parse_instance, logger, not_utf8
from rulelink.errors import DatasetError
from rulelink.simfeatures import minmax_rescale


class _HashingReader(io.RawIOBase):
    """Reads ``fh`` and feeds every byte read to ``sha256``."""

    def __init__(self, fh):
        self.fh, self.sha256 = fh, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self.fh.readinto(buf)
        self.sha256.update(memoryview(buf)[:n])
        return n


def load_dataset(path) -> Dataset:
    """Load a JSONL linking dataset, dropping instances that cannot rank.

    Dropped are instances with an empty candidate set and instances whose
    labels are all zero; the counts are logged and kept on the returned
    dataset's ``report``. Context ids pointing at mentions absent from the
    retained set are pruned (counted) so context features stay computable.
    """
    parsed: list[LabeledInstance] = []
    total = 0
    # The digest is taken from the very bytes parsed, read once, with
    # open()'s decoding and newline rules.
    with open(path, "rb", buffering=0) as fh:
        source = _HashingReader(fh)
        text = io.TextIOWrapper(io.BufferedReader(source), encoding="utf-8")
        try:
            for line_no, line in enumerate(text, start=1):
                line = line.strip()
                if not line:
                    continue
                total += 1
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
                    raise DatasetError(f"line {line_no}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                parsed.append(_parse_instance(obj, line_no))
        except UnicodeDecodeError as exc:
            raise DatasetError(not_utf8(path, exc)) from exc

    seen_ids: set[str] = set()
    for inst in parsed:
        if inst.mention.id in seen_ids:
            raise DatasetError(f"duplicate mention id {inst.mention.id!r}")
        seen_ids.add(inst.mention.id)

    empty = sum(1 for i in parsed if not i.candidates)
    retained = [i for i in parsed if i.candidates]
    negative = sum(1 for i in retained if not any(i.labels))
    retained = [i for i in retained if any(i.labels)]

    dim: int | None = None
    for inst in retained:
        for cand in inst.candidates:
            if cand.embedding is None:
                continue
            if dim is None:
                dim = len(cand.embedding)
            elif len(cand.embedding) != dim:
                raise DatasetError(
                    f"embedding dimension mismatch: {len(cand.embedding)} vs {dim} "
                    f"(candidate {cand.id!r})"
                )

    kept_ids = {i.mention.id for i in retained}
    pruned = 0
    fixed: list[LabeledInstance] = []
    for inst in retained:
        ctx = tuple(c for c in inst.mention.context_ids if c in kept_ids)
        pruned += len(inst.mention.context_ids) - len(ctx)
        if ctx != inst.mention.context_ids:
            inst = replace(inst, mention=replace(inst.mention, context_ids=ctx))
        fixed.append(inst)

    report = LoadReport(
        total_lines=total,
        kept=len(fixed),
        empty_candidates=empty,
        all_negative=negative,
        pruned_context_ids=pruned,
        sha256=source.sha256.hexdigest(),
    )
    report.log(path)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(instances=tuple(fixed), embedding_dim=dim, name=name, report=report)


def merge_external_scores(ds: Dataset, scores_path, feature_name: str) -> Dataset:
    """Attach a precomputed score column to every candidate of ``ds``.

    The scores file is CSV with header ``mention_id,candidate_id,score``;
    cells may be quoted as in RFC 4180, so ids can hold commas and quotes.
    Dataset pairs missing from the file default to 0.0 (counted); file keys
    naming unknown mentions or candidates are warned about, not fatal.
    Duplicate keys keep the last value. If a mention's resulting values
    leave [0,1] they are min-max rescaled over that candidate list.
    """
    scores: dict[tuple[str, str], float] = {}
    duplicates = 0
    with open(scores_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header and header[:3] != ["mention_id", "candidate_id", "score"]:
                raise DatasetError(
                    f"scores file {scores_path}: expected header mention_id,candidate_id,score"
                )
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != 3:
                    raise DatasetError(f"scores file line {reader.line_num}: expected 3 columns")
                key = (cells[0], cells[1])
                if key in scores:
                    duplicates += 1
                try:
                    value = float(cells[2])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DatasetError(f"scores file line {reader.line_num}: bad score {cells[2]!r}")
                scores[key] = value
        except csv.Error as exc:
            raise DatasetError(f"scores file {scores_path} line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DatasetError(not_utf8(scores_path, exc)) from exc
    if duplicates:
        logger.warning("merge %s: %d duplicate keys, last value wins", feature_name, duplicates)

    known_pairs = set()
    for inst in ds.instances:
        for cand in inst.candidates:
            if feature_name in cand.external_scores:
                raise DatasetError(
                    f"feature {feature_name!r} already present on candidate {cand.id!r}"
                )
            known_pairs.add((inst.mention.id, cand.id))
    known_mentions = {inst.mention.id for inst in ds.instances}
    unknown_mentions = {m for (m, _) in scores if m not in known_mentions}
    unknown_pairs = {k for k in scores if k[0] in known_mentions and k not in known_pairs}
    if unknown_mentions:
        logger.warning("merge %s: %d unknown mention ids ignored", feature_name, len(unknown_mentions))
    if unknown_pairs:
        logger.warning("merge %s: %d unknown candidate ids ignored", feature_name, len(unknown_pairs))

    defaulted = 0
    new_instances = []
    for inst in ds.instances:
        values = []
        for cand in inst.candidates:
            key = (inst.mention.id, cand.id)
            if key in scores:
                values.append(scores[key])
            else:
                values.append(0.0)
                defaulted += 1
        if values and (min(values) < 0.0 or max(values) > 1.0):
            values = list(minmax_rescale(values))
        new_cands = tuple(
            replace(c, external_scores={**c.external_scores, feature_name: v})
            for c, v in zip(inst.candidates, values)
        )
        new_instances.append(LabeledInstance(inst.mention, new_cands, inst.labels))
    if defaulted:
        logger.warning("merge %s: %d dataset pairs defaulted to 0.0", feature_name, defaulted)
    return replace(ds, instances=tuple(new_instances))
