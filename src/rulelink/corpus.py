"""Dataset model and I/O for labeled mention-candidate linking data.

A dataset is JSONL, one labeled instance per line: a mention, its ordered
candidate list, and aligned 0/1 link labels. Instances that cannot carry a
ranking signal (empty candidate set, or no positive label) are dropped at
load time and counted in the load report, never silently.

An optional HTTP lookup client retrieves candidates from a lookup-style
endpoint; all tests run from static fixtures and the client is never
required for offline use.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterable, Mapping, Sized
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import accumulate
from numbers import Real

import requests

from .errors import DatasetError, FetchError

logger = logging.getLogger(__name__)

# Lookup results whose id starts with one of these prefixes are not real
# entities (categories, files, ...). Callers override per knowledge graph.
DEFAULT_DENYLIST = (
    "http://dbpedia.org/resource/Category:",
    "http://dbpedia.org/resource/Template:",
    "http://dbpedia.org/resource/File:",
)

# A str holds a surrogate only where it is unpaired, or where surrogateescape decoded a bad byte.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")

# instance_faults checks a field's type before its value, concrete types first:
# isinstance against an ABC alone costs 0.2-0.9 us, paid per candidate at load.
_REAL, _ITERABLE, _MAPPING = (float, int, Real), (frozenset, tuple, Iterable), (dict, Mapping)


@dataclass(frozen=True)
class Mention:
    id: str
    surface: str
    text_id: str
    context_ids: tuple[str, ...] = ()
    mention_type: str | None = None


@dataclass(frozen=True)
class CandidateEntity:
    id: str
    name: str
    description: str | None = None
    domains: frozenset[str] = frozenset()
    indegree: int = 0
    embedding: tuple[float, ...] | None = None
    external_scores: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LabeledInstance:
    mention: Mention
    candidates: tuple[CandidateEntity, ...]
    labels: tuple[int, ...]


@dataclass(frozen=True)
class LoadReport:
    """What one :func:`load_dataset` call read (``sha256`` of the file's
    bytes) and dropped."""

    total_lines: int = 0
    kept: int = 0
    empty_candidates: int = 0
    all_negative: int = 0
    pruned_context_ids: int = 0
    sha256: str = ""

    def summary(self) -> str:
        parts = [f"kept {self.kept} of {self.total_lines} instances"]
        if self.empty_candidates:
            parts.append(f"dropped {self.empty_candidates} empty-candidate")
        if self.all_negative:
            parts.append(f"dropped {self.all_negative} all-negative")
        if self.pruned_context_ids:
            parts.append(f"pruned {self.pruned_context_ids} dangling context ids")
        return "; ".join(parts)

    def log(self, path) -> None:
        """The load line for ``path``: a warning when anything was dropped."""
        dropped = self.empty_candidates or self.all_negative or self.pruned_context_ids
        logger.log(logging.WARNING if dropped else logging.INFO, "load %s: %s", path, self.summary())


@dataclass(frozen=True)
class Dataset:
    instances: tuple[LabeledInstance, ...]
    embedding_dim: int | None = None
    name: str = ""
    report: LoadReport | None = field(default=None, compare=False)

    def mentions_by_id(self) -> dict[str, Mention]:
        return {inst.mention.id: inst.mention for inst in self.instances}

    def row_keys(self) -> tuple[list[str], list[int], list[str], list[int]]:
        """Mention ids and list offsets, then candidate ids and 0/1 labels
        row by row: instance i owns rows ``offsets[i]:offsets[i+1]`` of the
        candidate lists concatenated in dataset order."""
        return (
            [inst.mention.id for inst in self.instances],
            [0, *accumulate(len(inst.candidates) for inst in self.instances)],
            [c.id for inst in self.instances for c in inst.candidates],
            [l for inst in self.instances for l in inst.labels],
        )

    def instances_by_text(self) -> dict[str, list[LabeledInstance]]:
        by_text: dict[str, list[LabeledInstance]] = {}
        for inst in self.instances:
            by_text.setdefault(inst.mention.text_id, []).append(inst)
        return by_text


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    coverage: dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.violations


def instance_faults(inst: LabeledInstance) -> list[str]:
    """Every fault of one built instance, in a fixed order.

    The one set of per-instance checks: ``load_dataset`` raises the first
    fault with its line number and ``validate_dataset`` reports all of
    them under the mention id.
    """
    faults: list[str] = []
    mention = inst.mention
    if not isinstance(mention.surface, str):
        faults.append(f"mention surface {mention.surface!r} must be a string")
    elif not mention.surface:
        faults.append("mention surface is empty")
    if mention.id in mention.context_ids:
        faults.append(f"mention {mention.id!r} lists itself as context")
    if any(l not in (0, 1) for l in inst.labels):
        faults.append("labels must be 0 or 1")
    if not isinstance(mention.mention_type, (str, type(None))):
        faults.append(f"mention type must be a string or null, not {mention.mention_type!r}")
    ids = [("mention id", mention.id), ("text_id", mention.text_id)]
    ids += [("context id", c) for c in mention.context_ids]
    ids += [("candidate id", c.id) for c in inst.candidates]
    for what, ident in ids:
        if not isinstance(ident, str):
            faults.append(f"{what} {ident!r} must be a string")
        elif _LONE_SURROGATE.search(ident):  # UTF-8 files cannot hold one
            faults.append(f"{what} {ident!r} holds a lone surrogate")

    cand_ids: set[str] = set()
    for cand in inst.candidates:
        if not isinstance(cand.name, str):
            faults.append(f"candidate {cand.id!r} name {cand.name!r} must be a string")
        if not isinstance(cand.description, (str, type(None))):
            faults.append(f"candidate {cand.id!r} description must be a string or null")
        domains = cand.domains if isinstance(cand.domains, _ITERABLE) else [cand.domains]
        if cand.domains and not set(map(type, domains)) <= {str}:
            faults.append(f"candidate {cand.id!r} domains must be strings, not {_type_names(domains, str)}")
        if not isinstance(cand.indegree, _REAL):
            faults.append(f"candidate {cand.id!r} indegree must be a number, not {type(cand.indegree).__name__}")
        elif cand.indegree < 0:
            faults.append(f"candidate {cand.id!r} has negative indegree")
        emb = cand.embedding
        if emb is not None and not (isinstance(emb, _ITERABLE) and all(isinstance(v, _REAL) for v in emb)):
            faults.append(f"candidate {cand.id!r} embedding must be a list of numbers")
        elif emb is not None and not all(abs(v) <= sys.float_info.max for v in emb):  # NaN and 10**400 fail
            faults.append(f"candidate {cand.id!r} has a non-finite embedding value")
        if isinstance(cand.id, str):  # a non-string id is reported above, and may not hash
            if cand.id in cand_ids:
                faults.append(f"duplicate candidate id {cand.id!r}")
            cand_ids.add(cand.id)
        scores = cand.external_scores
        if not isinstance(scores, _MAPPING):
            faults.append(f"candidate {cand.id!r} external_scores must be a mapping, not {type(scores).__name__}")
            scores = {}
        for k, v in scores.items():
            if not isinstance(v, _REAL):
                faults.append(f"external score {k!r} on candidate {cand.id!r} must be a number, not {type(v).__name__}")
            elif not 0.0 <= v <= 1.0:
                faults.append(f"external score {k!r}={v} outside [0,1] on candidate {cand.id!r}")

    if inst.candidates and len(inst.labels) != len(inst.candidates):
        faults.append(f"{len(inst.labels)} labels for {len(inst.candidates)} candidates")
    return faults


def _as_list(value, what: str) -> list:
    """A JSON array field; a string would otherwise iterate as characters."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _type_names(values, *allowed: type) -> str:
    """The sorted names of the types in ``values`` that are not ``allowed``."""
    return ", ".join(sorted({type(v).__name__ for v in values if type(v) not in allowed}))


def _numbers(values, what: str):
    """``values`` if they are all JSON numbers; float() would load "0.9" as
    0.9 and true as 1.0, so this check runs before it."""
    if not set(map(type, values)) <= {int, float}:
        raise TypeError(f"{what} values must be JSON numbers, not {_type_names(values, int, float)}")
    return values


def _parse_instance(obj: dict, line_no: int) -> LabeledInstance:
    def fail(msg: str):
        raise DatasetError(f"line {line_no}: {msg}")

    # Text fields are taken as they are: instance_faults rejects one that is not a string.
    try:
        m = obj["mention"]
        mention = Mention(
            id=m["id"],
            surface=m["surface"],
            text_id=m["text_id"],
            context_ids=tuple(_as_list(m.get("context_ids", []), "context_ids")),
            mention_type=m.get("type"),
        )
        raw_cands = _as_list(obj["candidates"], "candidates")
        raw_labels = _as_list(obj["labels"], "labels")
        labels = tuple(int(l) for l in raw_labels)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        fail(f"missing or malformed field ({exc})")
    if not set(map(type, raw_labels)) <= {int}:  # int() would load true, 0.7 or "1" as 1, 0 or 1
        fail(f"labels must be JSON integers 0 or 1, not {_type_names(raw_labels, int)}")

    candidates = []
    for c in raw_cands:
        try:
            emb = c.get("embedding")
            if emb is not None:
                emb = tuple(map(float, _numbers(_as_list(emb, "embedding"), "embedding")))
            scores = c.get("external_scores", {})
            _numbers(scores.values(), "external_scores")
            raw_indegree = c.get("indegree", 0)
            indegree = int(raw_indegree)
            float(indegree)  # OverflowError if no float holds it: prom rescales in-degrees as floats
            candidates.append(CandidateEntity(
                id=c["id"],
                name=c["name"],
                description=c.get("description"),
                domains=frozenset(_as_list(c.get("domains", []), "domains")),
                indegree=indegree,
                embedding=emb,
                external_scores={k: float(v) for k, v in scores.items()},
            ))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            fail(f"malformed candidate ({exc})")
        if type(raw_indegree) is not int:  # int() would load 3.9 as 3 and true as 1
            fail(f"candidate {candidates[-1].id!r} indegree must be a non-negative JSON integer, "
                 f"not {type(raw_indegree).__name__}")

    inst = LabeledInstance(mention=mention, candidates=tuple(candidates), labels=labels)
    faults = instance_faults(inst)
    if faults:
        fail(faults[0])
    return inst


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


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8: the file, and the line of
    its first bad byte, with lines split as open() splits them."""
    with open(path, encoding="utf-8", errors="surrogateescape") as again:
        bad = next(n for n, line in enumerate(again, start=1) if _LONE_SURROGATE.search(line))
    return f"{path} line {bad}: not UTF-8 ({exc.reason})"


def read_text(path, error: type[Exception]) -> str:
    """The text of the UTF-8 file ``path``, line ends as open() reads them;
    a byte that is not UTF-8 raises ``error`` with :func:`not_utf8`'s message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(not_utf8(path, exc)) from exc


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


def atomic_write(path, data: str | bytes | memoryview) -> None:
    """Write ``data`` verbatim (text as UTF-8) to ``path`` through a temp file
    and a rename."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".rulelink-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _instance_to_obj(inst: LabeledInstance) -> dict:
    return {
        "mention": {
            "id": inst.mention.id,
            "surface": inst.mention.surface,
            "text_id": inst.mention.text_id,
            "context_ids": list(inst.mention.context_ids),
            "type": inst.mention.mention_type,
        },
        "candidates": [
            {
                "id": c.id,
                "name": c.name,
                "description": c.description,
                "domains": sorted(c.domains),
                "indegree": c.indegree,
                "embedding": None if c.embedding is None else list(c.embedding),
                "external_scores": dict(sorted(c.external_scores.items())),
            }
            for c in inst.candidates
        ],
        "labels": list(inst.labels),
    }


def canonical_lines(ds: Dataset) -> list[str]:
    """Canonical JSONL serialization: sorted keys, compact separators."""
    return [
        json.dumps(_instance_to_obj(inst), sort_keys=True, separators=(",", ":"))
        for inst in ds.instances
    ]


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in canonical_lines(ds):
            fh.write(line + "\n")


def merge_external_scores(ds: Dataset, scores_path, feature_name: str) -> Dataset:
    """Attach a precomputed score column to every candidate of ``ds``.

    The scores file is CSV with header ``mention_id,candidate_id,score``;
    cells may be quoted as in RFC 4180, so ids can hold commas and quotes.
    Dataset pairs missing from the file default to 0.0 (counted); file keys
    naming unknown mentions or candidates are warned about, not fatal.
    Duplicate keys keep the last value. If a mention's resulting values
    leave [0,1] they are min-max rescaled over that candidate list.
    """
    from .simfeatures import minmax_rescale

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
    return Dataset(
        instances=tuple(new_instances),
        embedding_dim=ds.embedding_dim,
        name=ds.name,
        report=ds.report,
    )


def fetch_candidates(
    endpoint: str,
    surface: str,
    k: int = 100,
    denylist: tuple[str, ...] = DEFAULT_DENYLIST,
    timeout: float = 10.0,
    max_attempts: int = 3,
    backoff: float = 0.5,
    sleep=time.sleep,
    session=None,
) -> list[CandidateEntity]:
    """Query a lookup-style endpoint for entity candidates.

    Sends ``GET endpoint?query=<surface>&maxResults=<k>`` and expects a JSON
    array of ``{id, label, typeName[]}`` records. Non-entity results (id
    matching a denylist prefix) are pruned before truncation to ``k``.
    Network failures are retried ``max_attempts`` times with exponential
    backoff before raising a retriable :class:`FetchError`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    http = session or requests
    last_exc = None
    for attempt in range(max_attempts):
        try:
            resp = http.get(endpoint, params={"query": surface, "maxResults": k}, timeout=timeout)
            resp.raise_for_status()
            body = resp.text
            break
        except requests.RequestException as exc:
            last_exc = exc
            if attempt + 1 < max_attempts:
                sleep(backoff * (2**attempt))
    else:
        raise FetchError(
            f"lookup failed after {max_attempts} attempts: {last_exc}", retriable=True
        )

    try:
        records = json.loads(body)
        if not isinstance(records, list):
            raise TypeError("top-level JSON is not an array")
        out = []
        for rec in records:
            # taken as they are, like dataset fields: str() would load 7 as
            # '7' and null as 'None', and a string typeName iterates as characters
            rid = rec["id"]
            label, types = rec.get("label", rid), rec.get("typeName", [])
            for name, value in (("id", rid), ("label", label)):
                if not isinstance(value, str):
                    raise TypeError(f"field {name!r} is {value!r}, not a string")
            if not isinstance(types, list) or not set(map(type, types)) <= {str}:
                raise TypeError(f"field 'typeName' is {types!r}, not a list of strings")
            if any(rid.startswith(prefix) for prefix in denylist):
                continue
            out.append(CandidateEntity(id=rid, name=label, domains=frozenset(types)))
    except (TypeError, KeyError, json.JSONDecodeError) as exc:
        raise FetchError(f"malformed lookup response ({exc}): {body[:200]!r}") from exc
    return out[:k]


def fetch_all(
    endpoint: str,
    surfaces: list[str],
    k: int = 100,
    max_in_flight: int = 4,
    **kwargs,
) -> dict[str, list[CandidateEntity]]:
    """Fetch candidates for many surfaces with a bounded worker pool."""
    with ThreadPoolExecutor(max_workers=max(1, max_in_flight)) as pool:
        futures = {s: pool.submit(fetch_candidates, endpoint, s, k, **kwargs) for s in surfaces}
        return {s: f.result() for s, f in futures.items()}


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Report invariant violations and per-field coverage; never mutates.

    Each instance gets the same checks as at load (:func:`instance_faults`),
    plus the ones load settles by dropping or pruning: empty candidate
    lists, no positive label and unknown context ids.
    """
    violations: list[str] = []
    seen: set[str] = set()
    # a non-string id is reported by instance_faults, and may not hash
    known = {i.mention.id for i in ds.instances if isinstance(i.mention.id, str)}
    dim = ds.embedding_dim
    for inst in ds.instances:
        mid = inst.mention.id
        if isinstance(mid, str):
            if mid in seen:
                violations.append(f"duplicate mention id {mid!r}")
            seen.add(mid)
        violations += (f"mention {mid!r}: {fault}" for fault in instance_faults(inst))
        for ctx in inst.mention.context_ids:
            if isinstance(ctx, str) and ctx not in known:
                violations.append(f"mention {mid!r}: unknown context id {ctx!r}")
        if not inst.candidates:
            violations.append(f"mention {mid!r}: empty candidate list")
        elif not any(inst.labels):
            violations.append(f"mention {mid!r}: no positive label")
        for cand in inst.candidates:
            if dim is not None and isinstance(cand.embedding, Sized) and len(cand.embedding) != dim:
                violations.append(f"candidate {cand.id!r}: embedding dim {len(cand.embedding)} != {dim}")

    cands = [cand for inst in ds.instances for cand in inst.candidates]
    denom = max(len(cands), 1)
    coverage = {
        "description": sum(c.description is not None for c in cands) / denom,
        "embedding": sum(c.embedding is not None for c in cands) / denom,
        "mention_type": sum(i.mention.mention_type is not None for i in ds.instances) / max(len(ds.instances), 1),
    }
    # external_scores that are not a mapping are reported by instance_faults
    external = Counter(k for c in cands if isinstance(c.external_scores, _MAPPING) for k in c.external_scores)
    for k, count in sorted(external.items()):
        coverage[f"external:{k}"] = count / denom
    return ValidationReport(violations=tuple(violations), coverage=coverage)
