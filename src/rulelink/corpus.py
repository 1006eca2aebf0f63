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
from collections.abc import Callable, Iterable, Mapping, Sized
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from numbers import Real
from operator import itemgetter
from types import MappingProxyType

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


class Columns:
    """A dataset as one list per field, in dataset order.

    Per mention: ``mention_ids``, ``surfaces``, ``text_ids``,
    ``context_ids`` (tuples) and ``types``; ``offsets``, so that list i owns
    rows ``offsets[i]:offsets[i+1]``. Per row: ``candidate_ids``, ``names``,
    ``descriptions``, ``domains``, ``indegrees``, ``embeddings``,
    ``external_scores`` and the 0/1 ``labels``.

    Each value is the one an instance holds (domains as frozensets,
    embeddings as tuples of floats, scores as dicts of floats) and the same
    object: :func:`load_dataset` fills every column, and :meth:`instances`
    builds on them; made from ``instances``, each column is read off them on
    its first use.
    """

    def __init__(self, instances: tuple[LabeledInstance, ...] = (), **columns):
        self._instances = instances
        self.__dict__.update(columns)

    def instances(self) -> tuple[LabeledInstance, ...]:
        """The instances the columns hold, equal to the line walk's."""
        cands = list(map(CandidateEntity, self.candidate_ids, self.names, self.descriptions, self.domains,
                         self.indegrees, self.embeddings, [s or {} for s in self.external_scores]))
        labels, offsets = tuple(self.labels), self.offsets
        mentions = map(Mention, self.mention_ids, self.surfaces, self.text_ids, self.context_ids, self.types)
        return tuple(LabeledInstance(m, tuple(cands[a:b]), labels[a:b])
                     for m, a, b in zip(mentions, offsets, offsets[1:]))

    mention_ids = cached_property(lambda self: [i.mention.id for i in self._instances])
    surfaces = cached_property(lambda self: [i.mention.surface for i in self._instances])
    text_ids = cached_property(lambda self: [i.mention.text_id for i in self._instances])
    context_ids = cached_property(lambda self: [i.mention.context_ids for i in self._instances])
    types = cached_property(lambda self: [i.mention.mention_type for i in self._instances])
    offsets = cached_property(lambda self: [0, *accumulate(len(i.candidates) for i in self._instances)])
    _candidates = cached_property(lambda self: [c for i in self._instances for c in i.candidates])
    candidate_ids = cached_property(lambda self: [c.id for c in self._candidates])
    names = cached_property(lambda self: [c.name for c in self._candidates])
    descriptions = cached_property(lambda self: [c.description for c in self._candidates])
    domains = cached_property(lambda self: [c.domains for c in self._candidates])
    indegrees = cached_property(lambda self: [c.indegree for c in self._candidates])
    embeddings = cached_property(lambda self: [c.embedding for c in self._candidates])
    external_scores = cached_property(lambda self: [c.external_scores for c in self._candidates])
    labels = cached_property(lambda self: [l for i in self._instances for l in i.labels])


@dataclass(frozen=True)
class Dataset:
    """Labeled instances, in dataset order.

    A dataset from :func:`load_dataset` holds its :class:`Columns` and
    builds ``instances`` from them on first read. One built in code reads
    its columns off ``instances``, each on first use; ``replace(ds,
    instances=...)`` makes such a dataset, so it never keeps the columns of
    the dataset it replaces.
    """

    instances: tuple[LabeledInstance, ...]
    embedding_dim: int | None = None
    name: str = ""
    report: LoadReport | None = field(default=None, compare=False)
    _columns: Columns | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _of_columns(cls, columns: Columns, embedding_dim, name: str, report: LoadReport) -> "Dataset":
        """A dataset that builds its instances from ``columns`` when first read."""
        ds = object.__new__(cls)
        for key, value in (("embedding_dim", embedding_dim), ("name", name), ("report", report), ("_columns", columns)):
            object.__setattr__(ds, key, value)
        return ds

    def __getattr__(self, name: str):
        # reached only for an attribute not set: the instances of a dataset made by _of_columns
        columns = self.__dict__.get("_columns")
        if name != "instances" or columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        instances = columns.instances()
        object.__setattr__(self, "instances", instances)
        return instances

    @property
    def columns(self) -> Columns:
        """The dataset as one list per field (see :class:`Columns`)."""
        if self._columns is None:
            object.__setattr__(self, "_columns", Columns(self.instances))
        return self._columns

    def mentions_by_id(self) -> dict[str, Mention]:
        return {inst.mention.id: inst.mention for inst in self.instances}

    def row_keys(self) -> tuple[list[str], list[int], list[str], list[int]]:
        """Mention ids and list offsets, then candidate ids and 0/1 labels
        row by row: instance i owns rows ``offsets[i]:offsets[i+1]`` of the
        candidate lists concatenated in dataset order. Read from
        :attr:`columns`; the lists are shared, not copies."""
        columns = self.columns
        return columns.mention_ids, columns.offsets, columns.candidate_ids, columns.labels

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
    context_ids = mention.context_ids if isinstance(mention.context_ids, _ITERABLE) else ()
    if not isinstance(mention.surface, str):
        faults.append(f"mention surface {echo(mention.surface)} must be a string")
    elif not mention.surface:
        faults.append("mention surface is empty")
    if not isinstance(mention.context_ids, _ITERABLE):
        faults.append(f"context_ids must be a list, not {type(mention.context_ids).__name__}")
    # ``in`` raises on a non-string id against a string, or an unhashable one against a mapping
    elif (isinstance(mention.id, str) or isinstance(context_ids, (tuple, list))) and mention.id in context_ids:
        faults.append(f"mention {echo(mention.id)} lists itself as context")
    if not isinstance(inst.labels, _ITERABLE):
        faults.append(f"labels must be a list, not {type(inst.labels).__name__}")
    elif any(l not in (0, 1) for l in inst.labels):
        faults.append("labels must be 0 or 1")
    if not isinstance(mention.mention_type, (str, type(None))):
        faults.append(f"mention type must be a string or null, not {echo(mention.mention_type)}")
    ids = [("mention id", mention.id), ("text_id", mention.text_id)]
    ids += [("context id", c) for c in context_ids]
    ids += [("candidate id", c.id) for c in inst.candidates]
    for what, ident in ids:
        if not isinstance(ident, str):
            faults.append(f"{what} {echo(ident)} must be a string")
        elif _LONE_SURROGATE.search(ident):  # UTF-8 files cannot hold one
            faults.append(f"{what} {echo(ident)} holds a lone surrogate")

    cand_ids: set[str] = set()
    for cand in inst.candidates:
        if not isinstance(cand.name, str):
            faults.append(f"candidate {echo(cand.id)} name {echo(cand.name)} must be a string")
        if not isinstance(cand.description, (str, type(None))):
            faults.append(f"candidate {echo(cand.id)} description must be a string or null")
        domains = cand.domains if isinstance(cand.domains, _ITERABLE) else [cand.domains]
        if cand.domains and not _only(domains, str):
            faults.append(f"candidate {echo(cand.id)} domains must be strings, not {_type_names(domains, str)}")
        if not isinstance(cand.indegree, _REAL):
            faults.append(f"candidate {echo(cand.id)} indegree must be a number, not {type(cand.indegree).__name__}")
        elif cand.indegree < 0:
            faults.append(f"candidate {echo(cand.id)} has negative indegree")
        emb = cand.embedding
        if emb is not None and not (isinstance(emb, _ITERABLE) and all(isinstance(v, _REAL) for v in emb)):
            faults.append(f"candidate {echo(cand.id)} embedding must be a list of numbers")
        elif emb is not None and not all(abs(v) <= sys.float_info.max for v in emb):  # NaN and 10**400 fail
            faults.append(f"candidate {echo(cand.id)} has a non-finite embedding value")
        if isinstance(cand.id, str):  # a non-string id is reported above, and may not hash
            if cand.id in cand_ids:
                faults.append(f"duplicate candidate id {echo(cand.id)}")
            cand_ids.add(cand.id)
        scores = cand.external_scores
        if not isinstance(scores, _MAPPING):
            faults.append(f"candidate {echo(cand.id)} external_scores must be a mapping, not {type(scores).__name__}")
            scores = {}
        for k, v in scores.items():
            if not isinstance(k, str):
                faults.append(f"external score name {echo(k)} on candidate {echo(cand.id)} must be a string")
            if not isinstance(v, _REAL):
                faults.append(f"external score {echo(k)} on candidate {echo(cand.id)} must be a number, not {type(v).__name__}")
            elif not 0.0 <= v <= 1.0:
                faults.append(f"external score {echo(k)}={v} outside [0,1] on candidate {echo(cand.id)}")

    if inst.candidates and isinstance(inst.labels, _ITERABLE) and len(inst.labels) != len(inst.candidates):
        faults.append(f"{len(inst.labels)} labels for {len(inst.candidates)} candidates")
    return faults


def _as_list(value, what: str) -> list:
    """A JSON array field; a string would otherwise iterate as characters."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _only(values, *types: type) -> bool:
    """Whether every value is of one of ``types`` exactly (a bool is no int)."""
    return set(map(type, values)) <= set(types)


def _type_names(values, *allowed: type) -> str:
    """The sorted names of the types in ``values`` that are not ``allowed``."""
    return ", ".join(sorted({type(v).__name__ for v in values if type(v) not in allowed}))


def json_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a number as JSON holds one: an int or a float
    (only an int with ``integer``), not a bool, which isinstance counts as
    an int, nor a string that float() would convert."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


def echo(value) -> str:
    """``repr(value)`` for a message that quotes an input, cut at 200
    characters (the limit of a lookup reply's echo) and marked with "..."."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _numbers(values, what: str):
    """``values`` if they are all JSON numbers; float() would load "0.9" as
    0.9 and true as 1.0, so this check runs before it."""
    if not _only(values, int, float):
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
    if not _only(raw_labels, int):  # int() would load true, 0.7 or "1" as 1, 0 or 1
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
            fail(f"candidate {echo(candidates[-1].id)} indegree must be a non-negative JSON integer, "
                 f"not {type(raw_indegree).__name__}")

    inst = LabeledInstance(mention=mention, candidates=tuple(candidates), labels=labels)
    faults = instance_faults(inst)
    if faults:
        fail(faults[0])
    return inst


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


def parse_json(text: str | bytes, error: Callable[[Exception], Exception]):
    """``text`` parsed as JSON. A fault of the text itself raises
    ``error(exc)`` instead: bad JSON or an integer past int()'s digit limit
    (both ValueErrors), or nesting too deep for the parser (a RecursionError)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(exc) from exc


def csv_rows(path, error: type[Exception]):
    """Each row of the UTF-8 CSV file ``path``, streamed, as ``(line, cells)``
    with csv.reader's line count. The first row is the header, ``[]`` if the
    file is empty or starts blank; later blank rows are skipped. A malformed
    row or a bad byte raises ``error`` naming the file and the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader.line_num, next(reader, [])
            for cells in reader:
                if cells:
                    yield reader.line_num, cells
        except csv.Error as exc:
            raise error(f"{path} line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise error(not_utf8(path, exc)) from exc


def load_dataset(path) -> Dataset:
    """Load a JSONL linking dataset, dropping instances that cannot rank.

    Dropped are instances with an empty candidate set and instances whose
    labels are all zero; the counts are logged and kept on the returned
    dataset's ``report``. Context ids pointing at mentions absent from the
    retained set are pruned (counted) so context features stay computable.

    The file is read into :class:`Columns` (:func:`_column_walk`), and
    ``instances`` are built from them only when first read. A file holding
    anything those column checks do not accept is read again line by line
    (:func:`_line_walk`), which raises the first faulty line's error (a bad
    byte once its decoded block is read) or returns the same dataset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    body, dim, counts = _column_walk(data) or _line_walk(path, data)
    report = LoadReport(**counts, sha256=hashlib.sha256(data).hexdigest())
    report.log(path)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    if isinstance(body, Columns):
        return Dataset._of_columns(body, dim, name, report)
    return Dataset(instances=body, embedding_dim=dim, name=name, report=report)


def _counts(kept: int, empty: int, negative: int, pruned: int) -> dict[str, int]:
    """A load report's counts; every line not counted here raised."""
    return dict(total_lines=kept + empty + negative, kept=kept, empty_candidates=empty,
                all_negative=negative, pruned_context_ids=pruned)


def _line_walk(path, data: bytes) -> tuple[tuple[LabeledInstance, ...], int | None, dict[str, int]]:
    """The retained instances of the dataset file ``data``, its embedding
    dimension and its load counts. Each line is checked, then kept or
    dropped, as it is parsed, so the first faulty line raises."""
    retained: list[LabeledInstance] = []
    seen_ids: set[str] = set()
    empty = negative = 0
    dim: int | None = None
    try:  # lines, decoding and newlines as open() gives them
        for line_no, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), start=1):
            line = line.strip()
            if not line:
                continue
            obj = parse_json(line, lambda exc: DatasetError(
                f"line {line_no}: invalid JSON ({getattr(exc, 'msg', exc)})"))
            inst = _parse_instance(obj, line_no)
            if inst.mention.id in seen_ids:
                raise DatasetError(f"line {line_no}: duplicate mention id {echo(inst.mention.id)}")
            seen_ids.add(inst.mention.id)
            if not inst.candidates:
                empty += 1
            elif not any(inst.labels):
                negative += 1
            else:
                for cand in inst.candidates:
                    if cand.embedding is None:
                        continue
                    if dim is None:
                        dim = len(cand.embedding)
                    elif len(cand.embedding) != dim:
                        raise DatasetError(f"line {line_no}: embedding dimension mismatch: "
                                           f"{len(cand.embedding)} vs {dim} (candidate {echo(cand.id)})")
                retained.append(inst)
    except UnicodeDecodeError as exc:
        raise DatasetError(not_utf8(path, exc)) from exc

    kept_ids = {i.mention.id for i in retained}
    pruned = 0
    for n, inst in enumerate(retained):
        ctx = tuple(c for c in inst.mention.context_ids if c in kept_ids)
        pruned += len(inst.mention.context_ids) - len(ctx)
        if ctx != inst.mention.context_ids:
            retained[n] = replace(inst, mention=replace(inst.mention, context_ids=ctx))
    return tuple(retained), dim, _counts(len(retained), empty, negative, pruned)


# A candidate's domains and external_scores in the columns when the file gives none.
_NO_DOMAINS, _NO_SCORES = frozenset(), MappingProxyType({})


def _column_walk(data: bytes) -> tuple[Columns, int | None, dict[str, int]] | None:
    """What :func:`_line_walk` returns for ``data``, with the retained
    instances as :class:`Columns`, when every value passes checks made a
    column at a time; they accept only the JSON types and ranges the line
    walk accepts. None, and never an error, for anything else: bad bytes or
    JSON, a missing field, or a type or value these checks do not know."""
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")  # as open() splits
        objs = [parse_json(line, ValueError) for line in filter(None, map(str.strip, lines))]
        del lines
        if not _only(objs, dict):
            return None
        mentions, lists, label_lists = (list(map(itemgetter(key), objs)) for key in ("mention", "candidates", "labels"))
        if not (_only(mentions, dict) and _only(lists, list) and _only(label_lists, list)):
            return None
        mention_ids, surfaces, text_ids = (list(map(itemgetter(key), mentions)) for key in ("id", "surface", "text_id"))
        context_ids = list(map(dict.get, mentions, repeat("context_ids"), repeat([])))
        types = list(map(dict.get, mentions, repeat("type")))
        counts = list(map(len, lists))
        label_values = list(chain.from_iterable(label_lists))
        cands = list(chain.from_iterable(lists))
        if not (_only(chain(mention_ids, text_ids, surfaces), str) and all(surfaces)
                and _only(types, str, type(None)) and _only(context_ids, list)
                and _only(chain.from_iterable(context_ids), str)
                and len(set(mention_ids)) == len(mention_ids)
                and not any(mid in ctx for mid, ctx in zip(mention_ids, context_ids) if ctx)
                and _only(label_values, int) and set(label_values) <= {0, 1}
                and all(n in (0, len(ls)) for n, ls in zip(counts, label_lists))
                and _only(cands, dict)):
            return None
        candidate_ids, names = (list(map(itemgetter(key), cands)) for key in ("id", "name"))
        descriptions, embeddings = (list(map(dict.get, cands, repeat(key))) for key in ("description", "embedding"))
        domains = list(map(dict.get, cands, repeat("domains"), repeat(())))
        indegrees = list(map(dict.get, cands, repeat("indegree"), repeat(0)))
        scores = list(map(dict.get, cands, repeat("external_scores"), repeat(_NO_SCORES)))
        vectors = [e for e in embeddings if e is not None]
        if not (_only(vectors, list) and _only(scores, dict, MappingProxyType)):
            return None
        values = list(chain.from_iterable(vectors))
        score_values = list(chain.from_iterable(map(dict.values, filter(None, scores))))
        offsets = [0, *accumulate(counts)]
        if not (_only(chain(candidate_ids, names), str) and _only(descriptions, str, type(None))
                and _only(domains, list, tuple) and _only(chain.from_iterable(domains), str)
                and _only(indegrees, int) and min(indegrees, default=0) >= 0
                and float(max(indegrees, default=0)) >= 0  # OverflowError if no float holds it
                and _only(values, int, float) and all(map(math.isfinite, values))
                and _only(score_values, int, float)
                and all(map((0.0).__le__, score_values)) and all(map((1.0).__ge__, score_values))  # NaN fails
                and not _LONE_SURROGATE.search("".join(chain(
                    mention_ids, text_ids, chain.from_iterable(context_ids), candidate_ids)))
                and (len(set(candidate_ids)) == len(candidate_ids) or all(
                    len(set(candidate_ids[a:b])) == b - a for a, b in zip(offsets, offsets[1:])))):
            return None
    except (ValueError, KeyError, OverflowError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None

    labels = list(chain.from_iterable(compress(label_lists, counts)))  # an empty list's labels label no row
    keep = [n > 0 and 1 in ls for n, ls in zip(counts, label_lists)]
    empty = counts.count(0)
    negative = len(keep) - sum(keep) - empty
    mention_columns = [mention_ids, surfaces, text_ids, context_ids, types]
    row_columns = [candidate_ids, names, descriptions, domains, indegrees, embeddings, scores, labels]
    if not all(keep):
        rows = list(chain.from_iterable(map(repeat, keep, counts)))
        mention_columns = [list(compress(column, keep)) for column in mention_columns]
        row_columns = [list(compress(column, rows)) for column in row_columns]
        counts = list(compress(counts, keep))
        offsets = [0, *accumulate(counts)]
    candidate_ids, names, descriptions, domains, indegrees, embeddings, scores, labels = row_columns
    dims = {len(e) for e in embeddings if e is not None}
    if len(dims) > 1:
        return None
    mention_ids, surfaces, text_ids, context_ids, types = mention_columns
    kept_ids = set(mention_ids)
    pruned = 0
    for n, ctx in enumerate(context_ids):
        if ctx:
            context_ids[n] = tuple(c for c in ctx if c in kept_ids)
            pruned += len(ctx) - len(context_ids[n])
        else:
            context_ids[n] = ()
    columns = Columns(
        mention_ids=mention_ids, surfaces=surfaces, text_ids=text_ids, context_ids=context_ids, types=types,
        offsets=offsets, candidate_ids=candidate_ids, names=names, descriptions=descriptions,
        domains=[frozenset(d) if d else _NO_DOMAINS for d in domains], indegrees=indegrees,
        embeddings=[e if e is None else tuple(map(float, e)) for e in embeddings] if dims else embeddings,
        external_scores=scores if _only(score_values, float) else [{k: float(v) for k, v in s.items()} for s in scores],
        labels=labels)
    return columns, dims.pop() if dims else None, _counts(len(mention_ids), empty, negative, pruned)


def atomic_write(path, data: str | bytes | memoryview) -> None:
    """Write ``data`` verbatim (text as UTF-8) to ``path`` through a temp file
    and a rename. An OSError that names a file names ``path``, not the temp
    file, and keeps its type."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".rulelink-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
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
    atomic_write(path, "".join(line + "\n" for line in canonical_lines(ds)))


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
    rows = csv_rows(scores_path, DatasetError)
    _, header = next(rows)
    if header and header[:3] != ["mention_id", "candidate_id", "score"]:
        raise DatasetError(f"{scores_path}: expected header mention_id,candidate_id,score")
    for line, cells in rows:
        if len(cells) != 3:
            raise DatasetError(f"{scores_path} line {line}: expected 3 columns")
        key = (cells[0], cells[1])
        if key in scores:
            duplicates += 1
        try:
            value = float(cells[2])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DatasetError(f"{scores_path} line {line}: bad score {cells[2]!r}")
        scores[key] = value
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


def fetch_candidates(
    endpoint: str,
    surface: str,
    k: int = 100,
    denylist: tuple[str, ...] = DEFAULT_DENYLIST,
    timeout: float = 10.0,
    max_attempts: int = 3,
    backoff: float = 0.5,
    sleep=time.sleep,
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
    last_exc = None
    for attempt in range(max_attempts):
        try:
            resp = requests.get(endpoint, params={"query": surface, "maxResults": k}, timeout=timeout)
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

    def malformed(exc) -> FetchError:
        return FetchError(f"malformed lookup response ({exc}): {echo(body)}")

    records = parse_json(body, malformed)
    try:
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
                    raise TypeError(f"field {name!r} is {echo(value)}, not a string")
            if not isinstance(types, list) or not _only(types, str):
                raise TypeError(f"field 'typeName' is {echo(types)}, not a list of strings")
            if any(rid.startswith(prefix) for prefix in denylist):
                continue
            out.append(CandidateEntity(id=rid, name=label, domains=frozenset(types)))
    except (TypeError, KeyError) as exc:
        raise malformed(exc) from exc
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
                violations.append(f"duplicate mention id {echo(mid)}")
            seen.add(mid)
        violations += (f"mention {echo(mid)}: {fault}" for fault in instance_faults(inst))
        for ctx in inst.mention.context_ids if isinstance(inst.mention.context_ids, _ITERABLE) else ():
            if isinstance(ctx, str) and ctx not in known:
                violations.append(f"mention {echo(mid)}: unknown context id {echo(ctx)}")
        if not inst.candidates:
            violations.append(f"mention {echo(mid)}: empty candidate list")
        elif isinstance(inst.labels, _ITERABLE) and not any(inst.labels):  # else instance_faults reports it
            violations.append(f"mention {echo(mid)}: no positive label")
        for cand in inst.candidates:
            if dim is not None and isinstance(cand.embedding, Sized) and len(cand.embedding) != dim:
                violations.append(f"candidate {echo(cand.id)}: embedding dim {len(cand.embedding)} != {dim}")

    cands = [cand for inst in ds.instances for cand in inst.candidates]
    denom = max(len(cands), 1)
    coverage = {
        "description": sum(c.description is not None for c in cands) / denom,
        "embedding": sum(c.embedding is not None for c in cands) / denom,
        "mention_type": sum(i.mention.mention_type is not None for i in ds.instances) / max(len(ds.instances), 1),
    }
    # a non-mapping external_scores and a non-string score name are reported by instance_faults
    external = Counter(k for c in cands if isinstance(c.external_scores, _MAPPING)
                       for k in c.external_scores if isinstance(k, str))
    for k, count in sorted(external.items()):
        coverage[f"external:{k}"] = count / denom
    return ValidationReport(violations=tuple(violations), coverage=coverage)
