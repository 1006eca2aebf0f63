"""Non-embedding feature functions and feature table assembly.

All features map a (mention, candidate) pair into [0, 1]:

* ``jacc``  -- character-level Jaccard similarity of surface and name
* ``lev``   -- normalized Levenshtein similarity
* ``jw``    -- Jaro-Winkler similarity
* ``pr``    -- partial ratio: best Levenshtein over equal-length windows
* ``ctx``   -- summed partial ratio of co-mentions against the candidate
  description, min-max rescaled over the candidate list
* ``type``  -- 1 if the mention type is among the candidate's domains
* ``prom``  -- candidate in-degree, min-max rescaled over the candidate list
* ``external`` -- a stored score column copied through
* ``box``   -- joint box-geometry score (see :mod:`rulelink.boxgeom`)

Degenerate min-max ranges (max == min) rescale to 1.0 everywhere so a lone
candidate is never penalized for lacking competition.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import re
import zipfile
from itertools import chain
from operator import itemgetter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Dataset, LabeledInstance, LoadReport, Mention, atomic_write
from .errors import FeatureError

logger = logging.getLogger(__name__)

FEATURE_KINDS = ("jacc", "lev", "jw", "pr", "ctx", "type", "prom", "external", "box")


def char_jaccard(a: str, b: str) -> float:
    """|chars(a) & chars(b)| / |chars(a) | chars(b)| over case-folded sets."""
    sa, sb = set(a.casefold()), set(b.casefold())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _levenshtein(a: str, b: str) -> int:
    """Edit distance by the bit-parallel algorithm of Myers (1999) in
    Hyyrö's (2001) formulation.

    Bit i of the Python-int column vectors holds the vertical delta at
    character i of the longer string; one pass over the shorter string
    updates them. Characters are dict keys, so any code point is exact.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ca in enumerate(a):
        peq[ca] = peq.get(ca, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, dist = mask, 0, len(a)
    for cb in b:
        eq = peq.get(cb, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def lev_sim(a: str, b: str) -> float:
    """1 - editdistance(a, b) / max(|a|, |b|); 1.0 when both empty."""
    if not a and not b:
        return 1.0
    return 1.0 - _levenshtein(a, b) / max(len(a), len(b))


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity with prefix scale 0.1 and max prefix 4."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len(a)):
        if a_flags[i]:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    t = transpositions // 2
    jaro = (matches / len(a) + matches / len(b) + (matches - t) / matches) / 3.0
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _codes(s: str) -> np.ndarray:
    """Code points of ``s``; lone surrogates stay single code points."""
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<i4")


def _window_distances(short: str, longs: list[str]) -> np.ndarray:
    """Per long, the least edit distance of ``short`` to any of its
    ``len(short)``-char windows. Needs ``len(long) >= len(short) >= 1``.

    One integer DP covers every window of every long: rows run over
    ``short``; a row is an ``[n + 1, windows]`` matrix. Cell (i, j) is
    stored minus j, which turns the insertion chain
    ``D[i][j] = min(x, D[i][j-1] + 1)`` into a running minimum over j.
    Memory is O(n * windows).
    """
    n = len(short)
    lens = np.array([len(t) for t in longs])
    counts = lens - n + 1
    first = np.cumsum(counts) - counts
    starts = np.arange(counts.sum()) + np.repeat(np.cumsum(lens) - lens - first, counts)
    windows = sliding_window_view(_codes("".join(longs)), n)[starts].T
    pattern = _codes(short)
    d = np.zeros((n + 1, starts.size), dtype=np.int32)
    diag = np.empty((n, starts.size), dtype=np.int32)
    for i in range(n):
        np.subtract(d[:-1], windows == pattern[i], out=diag)
        d[1:] += 1
        np.minimum(d[1:], diag, out=d[1:])
        d[0] = i + 1
        # numpy's minimum.accumulate along this axis runs one short inner
        # loop per window and is several times slower than these row ops.
        for j in range(1, n + 1):
            np.minimum(d[j], d[j - 1], out=d[j])
    return np.minimum.reduceat(d[n], first) + n


def partial_ratio(short: str, long: str) -> float:
    """Best ``lev_sim`` of the shorter string against equal-length windows.

    Arguments are reordered internally so the first is the shorter one;
    an empty short string scores 1.0.
    """
    if len(short) > len(long):
        short, long = long, short
    if not short:
        return 1.0
    return 1.0 - int(_window_distances(short, [long])[0]) / len(short)


def _partial_ratios(surface: str, texts: list[str]) -> np.ndarray:
    """``partial_ratio(surface, t)`` per text; one windowed DP serves every
    text at least as long as a non-empty ``surface``."""
    n = len(surface)
    out = np.empty(len(texts))
    batch = []
    for k, t in enumerate(texts):
        if len(t) >= n >= 1:
            batch.append(k)
        else:
            out[k] = partial_ratio(surface, t)
    if batch:
        out[batch] = 1.0 - _window_distances(surface, [texts[k] for k in batch]) / n
    return out


def minmax_rescale(values) -> np.ndarray:
    """(v - min) / (max - min); all ones when the range is degenerate."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise FeatureError("cannot rescale an empty vector")
    if not np.all(np.isfinite(arr)):
        raise FeatureError("cannot rescale non-finite values")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.ones_like(arr)
    return (arr - lo) / (hi - lo)


def context_scores(inst: LabeledInstance, all_mentions: dict[str, Mention]) -> np.ndarray:
    """Raw context score per candidate, min-max rescaled over the list.

    raw(e) = sum over context mentions m_k of partial_ratio(m_k.surface,
    e.description); candidates without a description contribute raw 0.
    """
    surfaces = []
    for ctx_id in inst.mention.context_ids:
        if ctx_id not in all_mentions:
            raise FeatureError(f"unknown context mention id {ctx_id!r}")
        surfaces.append(all_mentions[ctx_id].surface)
    raws = np.zeros(len(inst.candidates))
    described = [k for k, c in enumerate(inst.candidates) if c.description is not None]
    if described:
        descriptions = [inst.candidates[k].description for k in described]
        for s in surfaces:
            raws[described] += _partial_ratios(s, descriptions)
    return minmax_rescale(raws)


def type_score(m: Mention, e) -> float:
    """1 iff the mention has a type and it appears in the candidate domains."""
    if m.mention_type is None:
        return 0.0
    return 1.0 if m.mention_type in e.domains else 0.0


def prominence_score(inst: LabeledInstance) -> np.ndarray:
    """Min-max rescaled in-degrees over the instance's candidate list."""
    if not inst.candidates:
        raise FeatureError("prominence needs a non-empty candidate list")
    return minmax_rescale([c.indegree for c in inst.candidates])


@dataclass(frozen=True)
class FeatureSpec:
    """Descriptor for one catalog entry.

    ``source`` names the stored column for ``external`` features;
    ``box_params``/``cos_column`` configure ``box`` features.
    """

    kind: str
    source: str | None = None
    cos_column: str = "cos"
    box_params: object | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise FeatureError(f"unknown feature kind {self.kind!r}")
        if self.kind == "external" and not self.source:
            raise FeatureError("external features need a source column")

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        if self.source:
            obj["source"] = self.source
        if self.kind == "box":
            obj["cos_column"] = self.cos_column
            if self.box_params is not None:
                obj["box_params"] = self.box_params.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSpec":
        params = None
        if obj.get("box_params") is not None:
            from .boxgeom import BoxParams

            params = BoxParams.from_json(obj["box_params"])
        return cls(
            kind=obj["kind"],
            source=obj.get("source"),
            cos_column=obj.get("cos_column", "cos"),
            box_params=params,
        )


class FeatureCatalog:
    """Ordered name -> FeatureSpec registry; names must be unique."""

    def __init__(self, entries: dict[str, FeatureSpec] | None = None):
        self.entries: dict[str, FeatureSpec] = dict(entries or {})

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> FeatureSpec:
        return self.entries[name]

    def names(self) -> list[str]:
        return list(self.entries)

    def restricted(self, names) -> "FeatureCatalog":
        missing = [n for n in names if n not in self.entries]
        if missing:
            raise FeatureError(f"features not in catalog: {', '.join(missing)}")
        return FeatureCatalog({n: self.entries[n] for n in names})

    def to_json(self) -> dict:
        return {name: spec.to_json() for name, spec in self.entries.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureCatalog":
        return cls({name: FeatureSpec.from_json(spec) for name, spec in obj.items()})


def default_catalog(box_params=None) -> FeatureCatalog:
    """Catalog covering every predicate used by the built-in templates."""
    return FeatureCatalog(
        {
            "jacc": FeatureSpec("jacc"),
            "lev": FeatureSpec("lev"),
            "jw": FeatureSpec("jw"),
            "pr": FeatureSpec("pr"),
            "ctx": FeatureSpec("ctx"),
            "type": FeatureSpec("type"),
            "prom": FeatureSpec("prom"),
            "spacy": FeatureSpec("external", source="spacy"),
            "blink": FeatureSpec("external", source="blink"),
            "bert": FeatureSpec("external", source="bert"),
            "box": FeatureSpec("box", box_params=box_params),
        }
    )


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, with quotes doubled, when it holds
    a comma, quote or line break (RFC 4180), else unchanged. ``csv.writer``
    would also scan every character of every float cell, and took 1.7 times
    as long to write a 12k-row, 7-feature table."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


class FeatureTable:
    """Per (mention, candidate) feature vectors, keyed by feature name."""

    def __init__(self, feature_names: list[str]):
        self.feature_names = list(feature_names)
        self.rows: dict[tuple[str, str], dict[str, float]] = {}

    def add_row(self, mention_id: str, candidate_id: str, values: dict[str, float]) -> None:
        missing = [n for n in self.feature_names if n not in values]
        if missing:
            raise FeatureError(f"row ({mention_id},{candidate_id}) missing {missing}")
        self.rows[(mention_id, candidate_id)] = {n: float(values[n]) for n in self.feature_names}

    def value(self, mention_id: str, candidate_id: str, name: str) -> float:
        return self.rows[(mention_id, candidate_id)][name]

    def gather(self, instances, names=None) -> tuple[dict[str, np.ndarray], list[int]]:
        """Feature columns over many instances' candidates, concatenated in
        order, plus offsets: instance i owns rows ``offsets[i]:offsets[i+1]``."""
        names = list(names) if names is not None else self.feature_names
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise FeatureError(f"feature table lacks columns: {', '.join(missing)}")
        rows = []
        offsets = [0]
        for inst in instances:
            mid = inst.mention.id
            for cand in inst.candidates:
                row = self.rows.get((mid, cand.id))
                if row is None:
                    raise FeatureError(f"feature table lacks row ({mid!r}, {cand.id!r})")
                rows.append(row)
            offsets.append(len(rows))
        return {name: np.fromiter(map(itemgetter(name), rows), float, len(rows)) for name in names}, offsets

    def columns(self, inst: LabeledInstance, names=None) -> dict[str, np.ndarray]:
        """Feature columns over one instance's candidates, in list order."""
        return self.gather([inst], names)[0]

    def to_csv(self, path) -> str:
        """Write the table to ``path`` through a temp file and a rename:
        header ``mention_id,candidate_id,<features>``, then one row per pair
        with each value's ``repr``; ``from_csv`` reads it back. Returns the
        sha256 hex of the bytes written."""
        names = self.feature_names
        lines = [",".join(map(_csv_cell, ["mention_id", "candidate_id"] + names))]
        for (mid, cid), values in self.rows.items():
            lines.append(",".join([_csv_cell(mid), _csv_cell(cid)] + [repr(values[n]) for n in names]))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        atomic_write(path, data)
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Read a feature CSV. A repeated (mention_id, candidate_id) row or a
        cell that is not a finite number raises FeatureError naming the file
        and line(s)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                if header[:2] != ["mention_id", "candidate_id"] or len(set(header)) < len(header):
                    raise FeatureError(f"bad feature CSV header in {path}")
                table = cls(header[2:])
                names, rows, lines = table.feature_names, table.rows, []
                for cells in reader:
                    if not cells:
                        continue
                    if len(cells) != len(header):
                        raise FeatureError(
                            f"{path} line {reader.line_num}: expected {len(header)} cells"
                        )
                    key = (cells[0], cells[1])
                    try:
                        rows[key] = dict(zip(names, map(float, cells[2:])))
                    except ValueError:  # find the cell float() refused
                        for name, cell in zip(names, cells[2:]):
                            try:
                                float(cell)
                            except ValueError:
                                raise FeatureError(f"{path} line {reader.line_num}: column {name!r} is "
                                                   f"{cell!r}, not a number") from None
                    lines.append(reader.line_num)
                    if len(rows) < len(lines):
                        raise FeatureError(f"{path} line {reader.line_num}: row {key!r} repeats "
                                           f"line {lines[list(rows).index(key)]}")
            except csv.Error as exc:
                raise FeatureError(f"{path} line {reader.line_num}: {exc}") from exc
        cells = chain.from_iterable(row.values() for row in rows.values())
        finite = np.isfinite(np.fromiter(cells, float, len(rows) * len(names)))
        if not finite.all():
            row, col = divmod(int(np.argmin(finite)), len(names))
            value = list(rows.values())[row][names[col]]
            raise FeatureError(f"{path} line {lines[row]}: column {names[col]!r} is {value!r}, not finite")
        return table


# --- scoring sidecar ------------------------------------------------------
#
# ``write_features`` puts an npz archive beside the CSV: the rows that
# ``link`` and ``eval`` score, keyed on the sha256 of the data file and of
# the CSV. Strings travel as JSON text in uint8 arrays, because numpy ``U``
# arrays drop trailing NULs, and ``np.load`` runs with pickles refused.

SIDECAR_VERSION = 1
_SIDECAR_KEYS = ("header", "ids", "offsets", "labels", "matrix")
_COUNT_FIELDS = tuple(f.name for f in fields(LoadReport) if f.name != "sha256")


def sidecar_path(features_path) -> str:
    """The scoring sidecar of the feature CSV at ``features_path``."""
    return f"{features_path}.npz"


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class ScoringBlock:
    """The rows a dataset's candidate lists score, in dataset order: list i
    of mention ``mention_ids[i]`` owns rows ``offsets[i]:offsets[i+1]``.
    ``matrix`` has one column per name in ``feature_names``; ``labels``
    holds each row's 0/1 gold label; ``report`` is the dataset's load."""

    mention_ids: list[str]
    candidate_ids: list[str]
    offsets: list[int]
    labels: np.ndarray
    matrix: np.ndarray
    feature_names: list[str]
    report: LoadReport

    @property
    def instances(self) -> list[str]:
        """The mention ids, one per candidate list: ``evaluation`` counts a
        block's mentions as it counts a Dataset's."""
        return self.mention_ids

    def row_keys(self) -> tuple[list[str], list[int], list[str], np.ndarray]:
        """As :meth:`Dataset.row_keys` gives them for the block's dataset."""
        return self.mention_ids, self.offsets, self.candidate_ids, self.labels

    def columns(self, names) -> dict[str, np.ndarray]:
        """The named columns, as :meth:`FeatureTable.gather` gives them."""
        index = {name: j for j, name in enumerate(self.feature_names)}
        return {name: np.ascontiguousarray(self.matrix[:, index[name]]) for name in names}


class _Unusable(Exception):
    """Why a sidecar cannot stand in for the files it was made from."""


def _blob(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode("ascii"), dtype=np.uint8)


def _expect(arr: np.ndarray, dtype, shape: tuple, what: str) -> None:
    if arr.dtype != dtype or arr.shape != shape:
        raise _Unusable(f"{what} is {arr.dtype} {arr.shape}, not {np.dtype(dtype)} {shape}")


def _unblob(arr: np.ndarray, what: str):
    _expect(arr, np.uint8, (arr.size,), what)
    return json.loads(arr.tobytes())


def _str_list(obj) -> bool:
    return isinstance(obj, list) and set(map(type, obj)) <= {str}


def write_features(path, ds: Dataset, table: FeatureTable) -> None:
    """Write ``table`` as the feature CSV at ``path`` and, at
    :func:`sidecar_path`, the scoring block of ``ds`` (as loaded by
    :func:`load_dataset`) over it; each through a temp file and a rename."""
    features_sha256 = table.to_csv(path)
    names = table.feature_names
    mention_ids, offsets, candidate_ids, labels = ds.row_keys()
    rows = [table.rows[(inst.mention.id, c.id)] for inst in ds.instances for c in inst.candidates]
    header = {
        "format_version": SIDECAR_VERSION,
        "data_sha256": ds.report.sha256,
        "features_sha256": features_sha256,
        "load_report": {name: getattr(ds.report, name) for name in _COUNT_FIELDS},
        "feature_names": names,
    }
    out = io.BytesIO()
    np.savez(
        out,
        header=_blob(header),
        ids=_blob([mention_ids, candidate_ids]),
        offsets=np.array(offsets, dtype=np.int64),
        labels=np.array(labels, dtype=np.int8),
        matrix=np.stack([np.fromiter(map(itemgetter(name), rows), np.float64, len(rows)) for name in names], axis=1),
    )
    atomic_write(sidecar_path(path), out.getbuffer())


def _load_block(path: str, data_sha256: str, features_sha256: str, needed: list[str]) -> ScoringBlock:
    npz = np.load(path, allow_pickle=False)
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise _Unusable("not an npz archive")
    with npz:
        missing = [key for key in _SIDECAR_KEYS if key not in npz.files]
        if missing:
            raise _Unusable(f"lacks {', '.join(missing)}")
        header = _unblob(npz["header"], "header")
        if not isinstance(header, dict) or header.get("format_version") != SIDECAR_VERSION:
            raise _Unusable(f"format version is not {SIDECAR_VERSION}")
        if (header.get("data_sha256"), header.get("features_sha256")) != (data_sha256, features_sha256):
            raise _Unusable("stale: the data file or the feature CSV changed since it was written")
        names, counts = header.get("feature_names"), header.get("load_report")
        if not _str_list(names) or len(set(names)) < len(names):
            raise _Unusable("bad feature names")
        missing = [name for name in needed if name not in names]
        if missing:
            raise _Unusable(f"lacks columns {', '.join(missing)}")
        if not isinstance(counts, dict) or sorted(counts) != sorted(_COUNT_FIELDS) or not all(
                type(v) is int and v >= 0 for v in counts.values()):
            raise _Unusable("bad load report")
        ids = _unblob(npz["ids"], "ids")
        if not (isinstance(ids, list) and len(ids) == 2 and all(map(_str_list, ids))):
            raise _Unusable("bad ids")
        offsets, labels, matrix = npz["offsets"], npz["labels"], npz["matrix"]
    mention_ids, candidate_ids = ids
    rows = len(candidate_ids)
    _expect(offsets, np.int64, (len(mention_ids) + 1,), "offsets")
    _expect(labels, np.int8, (rows,), "labels")
    _expect(matrix, np.float64, (rows, len(names)), "matrix")
    if offsets[0] != 0 or offsets[-1] != rows or np.any(np.diff(offsets) <= 0):
        raise _Unusable("offsets do not rise from 0 to the row count")
    if counts["kept"] != len(mention_ids):
        raise _Unusable("load report does not count the mentions")
    if not np.isin(labels, (0, 1)).all():
        raise _Unusable("labels outside {0, 1}")
    if not np.isfinite(matrix).all():
        raise _Unusable("non-finite feature value")
    return ScoringBlock(mention_ids, candidate_ids, offsets.tolist(), labels, matrix, names,
                        LoadReport(**counts, sha256=data_sha256))


def read_sidecar(features_path, data_path, names: list[str]) -> ScoringBlock | None:
    """The scoring block :func:`write_features` left beside
    ``features_path``, if it was made from exactly these data and CSV bytes,
    passes its structural checks and holds the columns ``names``. Otherwise
    None, logged at INFO when there is no sidecar and at WARNING when it is
    stale, damaged or short of a column, and the caller reads the two files
    themselves."""
    path = sidecar_path(features_path)
    if not os.path.exists(path):
        logger.info("no feature sidecar %s; reading %s and %s", path, data_path, features_path)
        return None
    digests = _file_sha256(data_path), _file_sha256(features_path)
    try:
        return _load_block(path, *digests, list(names))
    except (_Unusable, OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        reason = exc if isinstance(exc, _Unusable) else f"{type(exc).__name__}: {exc}"
        logger.warning("feature sidecar %s not used (%s); reading %s and %s",
                       path, reason, data_path, features_path)
        return None


def _instance_rows(
    inst: LabeledInstance,
    catalog: FeatureCatalog,
    mentions: dict[str, Mention],
    boxes: dict[str, np.ndarray],
) -> tuple[list[dict[str, float]], dict[str, int]]:
    """One instance's feature rows; ``boxes`` holds its column of each box feature."""
    n = len(inst.candidates)
    missing_external: dict[str, int] = {}
    values: dict[str, list[float] | np.ndarray] = {}
    for name, spec in catalog.entries.items():
        if spec.kind == "jacc":
            values[name] = [char_jaccard(inst.mention.surface, c.name) for c in inst.candidates]
        elif spec.kind == "lev":
            values[name] = [lev_sim(inst.mention.surface, c.name) for c in inst.candidates]
        elif spec.kind == "jw":
            values[name] = [jaro_winkler(inst.mention.surface, c.name) for c in inst.candidates]
        elif spec.kind == "pr":
            values[name] = _partial_ratios(inst.mention.surface, [c.name for c in inst.candidates])
        elif spec.kind == "ctx":
            values[name] = context_scores(inst, mentions)
        elif spec.kind == "type":
            values[name] = [type_score(inst.mention, c) for c in inst.candidates]
        elif spec.kind == "prom":
            values[name] = prominence_score(inst)
        elif spec.kind == "external":
            col = []
            for c in inst.candidates:
                if spec.source in c.external_scores:
                    col.append(c.external_scores[spec.source])
                else:
                    col.append(0.0)
                    missing_external[name] = missing_external.get(name, 0) + 1
            values[name] = col
        elif spec.kind == "box":
            values[name] = boxes[name]
        else:  # pragma: no cover - guarded by FeatureSpec
            raise FeatureError(f"unknown feature kind {spec.kind!r}")
    rows = [{name: float(values[name][j]) for name in catalog.entries} for j in range(n)]
    return rows, missing_external


def _box_column(ds: Dataset, spec: FeatureSpec) -> list[np.ndarray]:
    """Every instance's column of a box feature; without parameters, the
    default ones of the first embedding's dimension."""
    from .boxgeom import BoxParams, box_feature

    dims = (len(c.embedding) for inst in ds.instances for c in inst.candidates if c.embedding is not None)
    return box_feature(ds, spec.box_params or BoxParams.default(next(dims, 0)), spec.cos_column)


def build_feature_table(ds: Dataset, catalog: FeatureCatalog, jobs: int = 1) -> FeatureTable:
    """Evaluate every catalog feature for every (mention, candidate) pair.

    Pure given its inputs: repeated calls produce identical tables. Box
    columns are scored for the whole dataset first; the other rows may be
    computed in parallel per mention; assembly order is always dataset
    order, then candidate position.
    """
    boxes = {name: _box_column(ds, spec) for name, spec in catalog.entries.items() if spec.kind == "box"}
    mentions = ds.mentions_by_id()
    table = FeatureTable(catalog.names())

    def compute(i):
        return _instance_rows(ds.instances[i], catalog, mentions, {name: col[i] for name, col in boxes.items()})

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(compute, range(len(ds.instances))))
    else:
        results = [compute(i) for i in range(len(ds.instances))]

    missing_external: dict[str, int] = {}
    for inst, (rows, missing) in zip(ds.instances, results):
        for cand, row in zip(inst.candidates, rows):
            table.add_row(inst.mention.id, cand.id, row)
        for name, count in missing.items():
            missing_external[name] = missing_external.get(name, 0) + count
    for name, count in missing_external.items():
        logger.warning("feature %s: %d candidates lacked the source column, used 0.0", name, count)
    return table
