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
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import chain, repeat
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Dataset, LabeledInstance, LoadReport, Mention, atomic_write, not_utf8
from .errors import FeatureError

logger = logging.getLogger(__name__)

FEATURE_KINDS = ("jacc", "lev", "jw", "pr", "ctx", "type", "prom", "external", "box")


def _codes(s: str) -> np.ndarray:
    """Code points of ``s``; lone surrogates stay single code points."""
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<i4")


_BLOCK = 512  # pairs per step of the column kernels, so temporaries stay small


def _padded(strings, fill: int, width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Code points of ``strings`` as the rows of an int32 matrix of at least
    ``width`` columns, padded with ``fill``, and each string's length."""
    lens = np.fromiter(map(len, strings), np.int64, len(strings))
    out = np.full((len(strings), max(width, int(lens.max(initial=0)))), fill, dtype=np.int32)
    out[np.arange(out.shape[1]) < lens[:, None]] = _codes("".join(strings))
    return out, lens


def _blockwise(kernel, a: list[str], b: list[str]) -> np.ndarray:
    """``kernel`` over the pairs ``(a[k], b[k])``, ``_BLOCK`` pairs at a time."""
    if not a:
        return np.empty(0)
    return np.concatenate([kernel(a[s : s + _BLOCK], b[s : s + _BLOCK]) for s in range(0, len(a), _BLOCK)])


def _myers_block(a: list[str], b: list[str]) -> np.ndarray:
    """Edit distance per pair by the bit-parallel algorithm of Myers (1999)
    in Hyyrö's (2001) formulation, one lane per pair.

    Each pair's shorter string is the pattern: bit i of a lane holds the
    vertical delta at its character i, and one step per character of the
    longer string updates every lane. Lanes are uint64 when every pattern
    of the block fits in 64 bits, else Python ints in an object array; the
    recurrence is the same code for both. A lane's distance is read at the
    step of its text's last character. With one word per lane, every
    step's equality words are built up front, one pattern position at a
    time, as the rows of a ``[text_len, lanes]`` matrix; with more, each
    step packs its own from the pattern's matches.
    """
    pairs = [(x, y) if len(x) <= len(y) else (y, x) for x, y in zip(a, b)]
    short, long = [p[0] for p in pairs], [p[1] for p in pairs]
    words = max(1, -(-max(map(len, short)) // 64))
    pattern, m = _padded(short, -1, 64 * words)
    text, n = _padded(long, -2)
    top = np.maximum(m, 1) - 1  # an empty pattern runs as one char that never matches
    if words == 1:
        one = np.uint64(1)
        last = one << top.astype(np.uint64)
        mv = np.zeros(len(m), dtype=np.uint64)
        eqs = np.zeros(text.shape, dtype=np.uint64)
        for i in range(int(m.max())):
            eqs |= np.left_shift(pattern[:, i, None] == text, np.uint64(i), dtype=np.uint64)
        eqs = np.ascontiguousarray(eqs.T)
    else:
        one = 1
        last = np.array([1 << int(t) for t in top], dtype=object)
        mv = np.zeros(len(m), dtype=object)
    mask = (last - one) | last
    pv = mask
    dist = top + 1
    out = n.copy()  # the distance to an empty pattern
    order = np.argsort(n, kind="stable")
    ends = np.searchsorted(n[order], np.arange(text.shape[1] + 1), side="right")
    for j in range(text.shape[1]):
        if words == 1:
            eq = eqs[j]
        else:
            hits = np.packbits(pattern == text[:, j, None], axis=1, bitorder="little").view("<u8")
            eq = hits[:, 0]
            for w in range(1, words):
                eq = eq | (hits[:, w].astype(object) << 64 * w)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        dist += (ph & last) != 0
        dist -= (mh & last) != 0
        ph = (ph << one) | one
        pv = ((mh << one) | ~(xv | ph)) & mask
        mv = ph & xv
        done = order[ends[j] : ends[j + 1]]
        out[done] = dist[done]
    return np.where(m == 0, n, out)


def _edit_distances(a: list[str], b: list[str]) -> np.ndarray:
    """Levenshtein distance of every pair ``(a[k], b[k])``."""
    return _blockwise(_myers_block, a, b)


def _lev_column(a: list[str], b: list[str]) -> np.ndarray:
    """``lev_sim`` of every pair ``(a[k], b[k])``."""
    longest = np.fromiter(map(max, map(len, a), map(len, b)), np.int64, len(a))
    return 1.0 - _edit_distances(a, b) / np.maximum(longest, 1)


def lev_sim(a: str, b: str) -> float:
    """1 - editdistance(a, b) / max(|a|, |b|); 1.0 when both empty."""
    return float(_lev_column([a], [b])[0])


def _jw_block(a: list[str], b: list[str]) -> np.ndarray:
    """Jaro-Winkler similarity per pair: greedy window matching with one
    step per position of ``a``, where every pair takes the first free
    equal character of its window in ``b``."""
    sa, la = _padded(a, -1, 4)
    sb, lb = _padded(b, -2, 4)
    rows = np.arange(len(a))
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)[:, None]
    reach = np.abs(np.arange(sb.shape[1]) - np.arange(sa.shape[1])[:, None])
    a_hit = np.zeros(sa.shape, dtype=bool)
    b_hit = np.zeros(sb.shape, dtype=bool)
    for i in range(int(la.max(initial=0))):
        free = (sb == sa[:, i, None]) & ~b_hit & (reach[i] <= window)
        j = free.argmax(axis=1)
        a_hit[:, i] = free[rows, j]
        b_hit[rows[a_hit[:, i]], j[a_hit[:, i]]] = True
    m = a_hit.sum(axis=1)
    # the matched characters of each side in order, compared position by position
    seq_a = np.take_along_axis(sa, np.argsort(~a_hit, axis=1, kind="stable"), axis=1)
    seq_b = np.take_along_axis(sb, np.argsort(~b_hit, axis=1, kind="stable"), axis=1)
    w = min(sa.shape[1], sb.shape[1])
    t = ((seq_a[:, :w] != seq_b[:, :w]) & (np.arange(w) < m[:, None])).sum(axis=1) // 2
    prefix = np.cumprod(sa[:, :4] == sb[:, :4], axis=1).sum(axis=1)
    jaro = (m / np.maximum(la, 1) + m / np.maximum(lb, 1) + (m - t) / np.maximum(m, 1)) / 3.0
    out = jaro + prefix * 0.1 * (1.0 - jaro)
    out[m == 0] = 0.0
    out[np.fromiter(map(str.__eq__, a, b), bool, len(a))] = 1.0
    return out


def _jw_column(a: list[str], b: list[str]) -> np.ndarray:
    """``jaro_winkler`` of every pair ``(a[k], b[k])``."""
    return _blockwise(_jw_block, a, b)


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity with prefix scale 0.1 and max prefix 4."""
    return float(_jw_column([a], [b])[0])


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorts each row of a padded code matrix in place; marks the first of
    each run of equal code points (the negative fill is none)."""
    codes.sort(axis=1)
    first = codes >= 0
    first[:, 1:] &= codes[:, 1:] != codes[:, :-1]
    return first


def _jacc_block(a: list[str], b: list[str]) -> np.ndarray:
    sa, sb = _padded([s.casefold() for s in a], -1)[0], _padded([s.casefold() for s in b], -2)[0]
    first_a, first_b = _distinct(sa), _distinct(sb)
    # each code point both sets hold appears twice among the merged sets
    merged = np.concatenate((np.where(first_a, sa, -1), np.where(first_b, sb, -2)), axis=1)
    merged.sort(axis=1)
    common = ((merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] >= 0)).sum(axis=1)
    union = first_a.sum(axis=1) + first_b.sum(axis=1) - common
    return np.where(union == 0, 1.0, common / np.maximum(union, 1))


def _jacc_column(a: list[str], b: list[str]) -> np.ndarray:
    """``char_jaccard`` of every pair ``(a[k], b[k])``."""
    return _blockwise(_jacc_block, a, b)


def char_jaccard(a: str, b: str) -> float:
    """|chars(a) & chars(b)| / |chars(a) | chars(b)| over case-folded sets."""
    return float(_jacc_column([a], [b])[0])


_NAME_KERNELS = {"jacc": _jacc_column, "lev": _lev_column, "jw": _jw_column}


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


def _rescalable(values) -> np.ndarray:
    """``values`` as floats; FeatureError if they cannot be min-max rescaled."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise FeatureError("cannot rescale an empty vector")
    if not np.all(np.isfinite(arr)):
        raise FeatureError("cannot rescale non-finite values")
    return arr


def _rescale_lists(values: np.ndarray, offsets) -> np.ndarray:
    """``minmax_rescale`` of each list ``values[offsets[i]:offsets[i+1]]``
    (non-empty and finite), in one pass over all of them."""
    if not values.size:
        return values
    counts = np.diff(offsets)
    lo = np.repeat(np.minimum.reduceat(values, offsets[:-1]), counts)
    span = np.repeat(np.maximum.reduceat(values, offsets[:-1]), counts) - lo
    flat = span == 0.0  # all ones
    out = (values - lo) / np.where(flat, 1.0, span)
    out[flat] = 1.0
    return out


def minmax_rescale(values) -> np.ndarray:
    """(v - min) / (max - min); all ones when the range is degenerate."""
    arr = _rescalable(values)
    return _rescale_lists(arr, [0, arr.size])


def _context_raws(inst: LabeledInstance, all_mentions: dict[str, Mention]) -> np.ndarray:
    """Per candidate, the summed ``partial_ratio`` of the context mentions'
    surfaces against its description; 0 for a candidate without one."""
    surfaces = [all_mentions[ctx_id].surface for ctx_id in inst.mention.context_ids]
    raws = np.zeros(len(inst.candidates))
    described = [k for k, c in enumerate(inst.candidates) if c.description is not None]
    descriptions = [inst.candidates[k].description for k in described]
    for s in surfaces:
        raws[described] += _partial_ratios(s, descriptions)
    return raws


def _context_fault(inst: LabeledInstance, all_mentions: dict[str, Mention]) -> None:
    """Raise as ``ctx`` refuses one list: an unknown context id, else no candidates."""
    for ctx_id in inst.mention.context_ids:
        if ctx_id not in all_mentions:
            raise FeatureError(f"unknown context mention id {ctx_id!r}")
    if not inst.candidates:
        raise FeatureError("cannot rescale an empty vector")


def _indegrees(inst: LabeledInstance) -> np.ndarray:
    """One list's in-degrees, checked as ``minmax_rescale`` checks them."""
    if not inst.candidates:
        raise FeatureError("prominence needs a non-empty candidate list")
    return _rescalable([c.indegree for c in inst.candidates])


def _first_fault(instances, check) -> tuple[int, Exception] | None:
    """The first instance that ``check`` raises on, and the error."""
    for i, inst in enumerate(instances):
        try:
            check(inst)
        except (FeatureError, TypeError, ValueError, OverflowError) as exc:
            return i, exc
    return None


def type_score(m: Mention, e) -> float:
    """1 iff the mention has a type and it appears in the candidate domains."""
    if m.mention_type is None:
        return 0.0
    return 1.0 if m.mention_type in e.domains else 0.0


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


def _csv_cells(ids: list[str]) -> list[str]:
    """``ids`` as CSV cells; one search finds whether any needs quoting."""
    return list(map(_csv_cell, ids)) if _CSV_SPECIAL.search("".join(ids)) else ids


def _in_unit_range(values: np.ndarray) -> np.ndarray:
    """Where ``values`` lie in [0, 1]; NaN does not."""
    return (values >= 0.0) & (values <= 1.0)


class FeatureTable:
    """Per (mention, candidate) feature vectors: the row keys as two columns,
    ``mention_ids`` and ``candidate_ids``, in table order; ``index`` from each
    key to its row; one float64 ``[rows, features]`` ``matrix`` with columns
    ``feature_names``."""

    def __init__(self, feature_names: list[str], mention_ids=(), candidate_ids=(), matrix: np.ndarray | None = None):
        self.feature_names = list(feature_names)
        self.mention_ids: list[str] = list(mention_ids)
        self.candidate_ids: list[str] = list(candidate_ids)
        self.matrix = np.empty((0, len(self.feature_names))) if matrix is None else matrix

    @cached_property
    def index(self) -> dict[tuple[str, str], int]:
        """Each key ``(mention_id, candidate_id)``'s row, made on first use."""
        return dict(zip(zip(self.mention_ids, self.candidate_ids), range(len(self.candidate_ids))))

    @property
    def rows(self) -> MappingProxyType[tuple[str, str], dict[str, float]]:
        """Read-only: each key's row as ``{name: value}``, made from the matrix."""
        rows = zip(self.mention_ids, self.candidate_ids, self.matrix.tolist())
        return MappingProxyType({(mid, cid): dict(zip(self.feature_names, row)) for mid, cid, row in rows})

    def add_row(self, mention_id: str, candidate_id: str, values: dict[str, float]) -> None:
        """Set the row of a key: in place when the table holds it, else last."""
        missing = [n for n in self.feature_names if n not in values]
        if missing:
            raise FeatureError(f"row ({mention_id},{candidate_id}) missing {missing}")
        row = [float(values[n]) for n in self.feature_names]
        at = self.index.setdefault((mention_id, candidate_id), len(self.candidate_ids))
        if at < len(self.candidate_ids):
            self.matrix[at] = row
        else:
            self.matrix = np.concatenate((self.matrix, [row]))
            self.mention_ids.append(mention_id)
            self.candidate_ids.append(candidate_id)

    @cached_property
    def _column(self) -> dict[str, int]:
        """Each feature name's first column."""
        return {name: self.feature_names.index(name) for name in self.feature_names}

    def _positions(self, names) -> np.ndarray:
        """The columns of ``names`` (every column when None)."""
        names = list(names) if names is not None else self.feature_names
        column = self._column
        missing = [n for n in names if n not in column]
        if missing:
            raise FeatureError(f"feature table lacks columns: {', '.join(missing)}")
        return np.array([column[n] for n in names], dtype=np.intp)

    def select_matrix(self, names=None) -> np.ndarray:
        """The ``[features, rows]`` matrix of the named columns over every
        row, in table order."""
        return self.matrix.T[self._positions(names)]

    def _rows(self, instances) -> tuple[list[int], list[int]]:
        """The rows of many instances' candidates, concatenated in order,
        plus offsets: instance i owns ``rows[offsets[i]:offsets[i+1]]``."""
        index, rows, offsets = self.index, [], [0]
        for inst in instances:
            mid = inst.mention.id
            found = [index.get((mid, cand.id)) for cand in inst.candidates]
            if None in found:
                cid = inst.candidates[found.index(None)].id
                raise FeatureError(f"feature table lacks row ({mid!r}, {cid!r})")
            rows += found
            offsets.append(len(rows))
        return rows, offsets

    def gather_matrix(self, instances, names=None) -> tuple[np.ndarray, list[int]]:
        """The ``[features, rows]`` matrix of the named columns over many
        instances' candidates, concatenated in order, plus offsets: instance
        i owns columns ``offsets[i]:offsets[i+1]``."""
        positions = self._positions(names)
        rows, offsets = self._rows(instances)
        # the block np.ix_(positions, rows) picks, at half the cost for one short list
        return self.matrix.T[positions[:, None], np.array(rows, dtype=np.intp)], offsets

    def columns(self, inst: LabeledInstance, names=None) -> dict[str, np.ndarray]:
        """Feature columns over one instance's candidates, in list order, as
        ``{name: column}``."""
        names = self.feature_names if names is None else list(names)
        return dict(zip(names, self.gather_matrix([inst], names)[0]))

    def to_csv(self, path) -> str:
        """Write the table to ``path`` through a temp file and a rename:
        header ``mention_id,candidate_id,<features>``, then one row per key
        in table order with each value's ``repr``; ``from_csv`` reads it
        back. Returns the sha256 hex of the bytes written.

        The cells are made a column at a time: an id column is quoted id by
        id only when one search of it joined finds a character to quote, and
        a feature column formats each distinct bit pattern once (so ``-0.0``
        and ``0.0`` stay apart)."""
        cells = [_csv_cells(self.mention_ids), _csv_cells(self.candidate_ids)]
        for column in self.matrix.T:
            bits, at = np.unique(column.view(np.int64), return_inverse=True)
            cells.append(np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[at].tolist())
        header = ",".join(map(_csv_cell, ["mention_id", "candidate_id"] + self.feature_names))
        data = ("\n".join([header, *map(",".join, zip(*cells))]) + "\n").encode("utf-8")
        atomic_write(path, data)
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Read a feature CSV. A byte that is not UTF-8, a repeated
        (mention_id, candidate_id) row or a cell that is not a number in
        [0, 1], the range of every built-in feature kind, raises
        FeatureError naming the file and line(s)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                if header[:2] != ["mention_id", "candidate_id"] or len(set(header)) < len(header):
                    raise FeatureError(f"bad feature CSV header in {path}")
                names, values, lines = header[2:], [], {}  # lines: each key's line
                for cells in reader:
                    if not cells:
                        continue
                    if len(cells) != len(header):
                        raise FeatureError(
                            f"{path} line {reader.line_num}: expected {len(header)} cells"
                        )
                    try:
                        values.extend(map(float, cells[2:]))
                    except ValueError:  # find the cell float() refused
                        for name, cell in zip(names, cells[2:]):
                            try:
                                float(cell)
                            except ValueError:
                                raise FeatureError(f"{path} line {reader.line_num}: column {name!r} is "
                                                   f"{cell!r}, not a number") from None
                    key = (cells[0], cells[1])
                    if lines.setdefault(key, reader.line_num) != reader.line_num:
                        raise FeatureError(f"{path} line {reader.line_num}: row {key!r} repeats "
                                           f"line {lines[key]}")
            except csv.Error as exc:
                raise FeatureError(f"{path} line {reader.line_num}: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise FeatureError(not_utf8(path, exc)) from exc
        matrix = np.array(values, dtype=np.float64).reshape(len(lines), len(names))
        valid = _in_unit_range(matrix)
        if not valid.all():
            row, col = divmod(int(np.argmin(valid)), len(names))
            value, line = matrix[row, col].item(), list(lines.values())[row]
            fault = "outside [0, 1]" if np.isfinite(value) else "not finite"
            raise FeatureError(f"{path} line {line}: column {names[col]!r} is {value!r}, {fault}")
        return cls(names, [mid for mid, _ in lines], [cid for _, cid in lines], matrix)


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
    """A dataset's candidate lists over the rows of ``table``, which holds
    them in dataset order: list i of mention ``mention_ids[i]`` owns rows
    ``offsets[i]:offsets[i+1]``; ``labels`` holds each row's 0/1 gold label."""

    mention_ids: list[str]
    offsets: list[int]
    labels: np.ndarray
    table: FeatureTable
    instances = property(lambda self: self.mention_ids)  # counted as a Dataset's instances are

    def row_keys(self) -> tuple[list[str], list[int], list[str], np.ndarray]:
        """As :meth:`Dataset.row_keys` gives them for the block's dataset."""
        return self.mention_ids, self.offsets, self.table.candidate_ids, self.labels


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


def _row_mentions(mention_ids: list[str], offsets) -> list[str]:
    """Each row's mention id: mention i's id on rows ``offsets[i]:offsets[i+1]``."""
    return list(chain.from_iterable(map(repeat, mention_ids, np.diff(offsets).tolist())))


def write_features(path, ds: Dataset, table: FeatureTable) -> None:
    """Write ``table`` as the feature CSV at ``path`` and, at
    :func:`sidecar_path`, the scoring block of ``ds`` (as loaded by
    :func:`load_dataset`) with the table's matrix as it is; each through a
    temp file and a rename. The table's rows must be the pairs of ``ds`` in
    dataset order, as :func:`build_feature_table` makes them."""
    mention_ids, offsets, candidate_ids, labels = ds.row_keys()
    if (table.mention_ids, table.candidate_ids) != (_row_mentions(mention_ids, offsets), candidate_ids):
        raise FeatureError("feature table rows are not the dataset's pairs in dataset order")
    header = {
        "format_version": SIDECAR_VERSION,
        "data_sha256": ds.report.sha256,
        "features_sha256": table.to_csv(path),
        "load_report": {name: getattr(ds.report, name) for name in _COUNT_FIELDS},
        "feature_names": table.feature_names,
    }
    out = io.BytesIO()
    np.savez(
        out,
        header=_blob(header),
        ids=_blob([mention_ids, candidate_ids]),
        offsets=np.array(offsets, dtype=np.int64),
        labels=np.array(labels, dtype=np.int8),
        matrix=table.matrix,
    )
    atomic_write(sidecar_path(path), out.getbuffer())


def _load_block(path: str, data_path, data_sha256: str, features_sha256: str, needed: list[str]) -> ScoringBlock:
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
    if not _in_unit_range(matrix).all():
        raise _Unusable("feature value outside [0, 1]")
    table = FeatureTable(names, _row_mentions(mention_ids, offsets), candidate_ids, matrix)
    LoadReport(**counts, sha256=data_sha256).log(data_path)
    return ScoringBlock(mention_ids, offsets.tolist(), labels, table)


def read_sidecar(features_path, data_path, names: list[str]) -> ScoringBlock | None:
    """The scoring block, and in it the feature table, that
    :func:`write_features` left beside ``features_path``, if it was made
    from exactly these data and CSV bytes, passes its structural checks and
    holds the columns ``names``; it then logs the dataset's load line as
    :func:`load_dataset` does. Otherwise None, logged at INFO when there is
    no sidecar and at WARNING when it is stale, damaged or short of a
    column, and the caller reads the two files themselves."""
    path = sidecar_path(features_path)
    if not os.path.exists(path):
        logger.info("no feature sidecar %s; reading %s and %s", path, data_path, features_path)
        return None
    digests = _file_sha256(data_path), _file_sha256(features_path)
    try:
        return _load_block(path, data_path, *digests, list(names))
    except (_Unusable, OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        reason = exc if isinstance(exc, _Unusable) else f"{type(exc).__name__}: {exc}"
        logger.warning("feature sidecar %s not used (%s); reading %s and %s",
                       path, reason, data_path, features_path)
        return None


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0)


def _box_column(ds: Dataset, spec: FeatureSpec) -> list[np.ndarray]:
    """Every instance's column of a box feature; without parameters, the
    default ones of the first embedding's dimension."""
    from .boxgeom import BoxParams, box_feature

    dims = (len(c.embedding) for inst in ds.instances for c in inst.candidates if c.embedding is not None)
    return box_feature(ds, spec.box_params or BoxParams.default(next(dims, 0)), spec.cos_column)


def _check_keys(mention_ids: list[str], row_mentions: list[str], candidate_ids: list[str]) -> None:
    """FeatureError on a repeated mention id, or a candidate id repeated in
    one list: a table keyed on both would hold a row twice."""
    if len(set(mention_ids)) < len(mention_ids):
        mid = next(key for key, n in Counter(mention_ids).items() if n > 1)
        raise FeatureError(f"duplicate mention id {mid!r}")
    if len(set(candidate_ids)) < len(candidate_ids):
        repeated = [key for key, n in Counter(zip(row_mentions, candidate_ids)).items() if n > 1]
        if repeated:
            raise FeatureError(f"mention {repeated[0][0]!r}: duplicate candidate id {repeated[0][1]!r}")


def _checked_lists(instances, catalog: FeatureCatalog, mentions: dict[str, Mention], counts: list[int]):
    """Check the lists that ``ctx`` and ``prom`` rescale a column at a time,
    and return the in-degrees of every pair when ``catalog`` has ``prom``.
    When a check fails, the lists are walked to raise the first failing
    one's error, in dataset then catalog order, as each list was checked
    on its own."""
    kinds = {spec.kind for spec in catalog.entries.values()}
    faults, indegrees = {}, None
    if "ctx" in kinds:
        unknown = set(chain.from_iterable(inst.mention.context_ids for inst in instances)).difference(mentions)
        if unknown or 0 in counts:
            faults["ctx"] = _first_fault(instances, partial(_context_fault, all_mentions=mentions))
    if "prom" in kinds:
        try:
            indegrees = np.array([c.indegree for inst in instances for c in inst.candidates], dtype=float)
            clean = 0 not in counts and np.isfinite(indegrees).all()
        except (TypeError, ValueError, OverflowError):  # as one of the lists' own conversions fails
            clean = False
        if not clean:
            faults["prom"] = _first_fault(instances, _indegrees)
    first = [(*faults[spec.kind], pos) for pos, spec in enumerate(catalog.entries.values()) if faults.get(spec.kind)]
    if first:
        raise min(first, key=lambda fault: (fault[0], fault[2]))[1]
    return indegrees


def _partial_ratio_list(inst: LabeledInstance) -> np.ndarray:
    return _partial_ratios(inst.mention.surface, [c.name for c in inst.candidates])


def build_feature_table(ds: Dataset, catalog: FeatureCatalog, jobs: int = 1) -> FeatureTable:
    """Evaluate every catalog feature for every (mention, candidate) pair.

    Pure given its inputs: repeated calls produce identical tables. A
    repeated mention id, or a candidate id repeated in one list, raises
    FeatureError. Box columns are scored for the whole dataset first, then
    the lists of ``ctx`` and ``prom`` are checked (:func:`_checked_lists`).
    Only ``pr``, and the raw ``ctx`` scores of mentions with context and a
    described candidate, run mention by mention, in parallel when
    ``jobs > 1``; every other ``ctx`` list is zeros. Every feature is one
    column over all pairs in dataset order, then candidate position
    (``jacc``, ``lev`` and ``jw`` from the column kernels, ``ctx`` and
    ``prom`` rescaled list by list in one pass), written into the table's
    matrix.
    """
    instances = ds.instances
    mention_ids, offsets, candidate_ids, _ = ds.row_keys()
    counts = np.diff(offsets).tolist()
    row_mentions = _row_mentions(mention_ids, offsets)
    _check_keys(mention_ids, row_mentions, candidate_ids)
    boxes = {name: _box_column(ds, spec) for name, spec in catalog.entries.items() if spec.kind == "box"}
    mentions = ds.mentions_by_id()
    kinds = {spec.kind for spec in catalog.entries.values()}
    indegrees = _checked_lists(instances, catalog, mentions, counts)
    lists = {}
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        if "pr" in kinds:
            lists["pr"] = _joined(list(run(_partial_ratio_list, instances)))
        if "ctx" in kinds:
            raws = np.zeros(len(candidate_ids))
            scored = [i for i, inst in enumerate(instances) if inst.mention.context_ids
                      and any(c.description is not None for c in inst.candidates)]
            scores = run(partial(_context_raws, all_mentions=mentions), [instances[i] for i in scored])
            for i, values in zip(scored, scores):
                raws[offsets[i] : offsets[i + 1]] = values
            lists["ctx"] = _rescale_lists(raws, offsets)
    if indegrees is not None:
        lists["prom"] = _rescale_lists(indegrees, offsets)

    pairs = [(inst.mention, c) for inst in instances for c in inst.candidates]
    surfaces, names = [m.surface for m, _ in pairs], [c.name for _, c in pairs]
    matrix = np.empty((len(pairs), len(catalog.entries)))
    missing_external: dict[str, tuple[int, int]] = {}  # name -> (first instance lacking it, count)
    for column, (name, spec) in zip(matrix.T, catalog.entries.items()):
        if spec.kind in _NAME_KERNELS:
            column[:] = _NAME_KERNELS[spec.kind](surfaces, names)
        elif spec.kind in lists:
            column[:] = lists[spec.kind]
        elif spec.kind == "type":
            column[:] = np.fromiter((type_score(m, c) for m, c in pairs), float, len(pairs))
        elif spec.kind == "external":
            scores = [c.external_scores for _, c in pairs]
            column[:] = np.fromiter((s.get(spec.source, 0.0) for s in scores), float, len(pairs))
            lacking = [k for k, s in enumerate(scores) if spec.source not in s]
            if lacking:
                missing_external[name] = (bisect_right(offsets, lacking[0]) - 1, len(lacking))
        elif spec.kind == "box":
            column[:] = _joined(boxes[name])
        else:  # pragma: no cover - guarded by FeatureSpec
            raise FeatureError(f"unknown feature kind {spec.kind!r}")
    for name, (_, count) in sorted(missing_external.items(), key=lambda item: item[1][0]):
        logger.warning("feature %s: %d candidates lacked the source column, used 0.0", name, count)
    return FeatureTable(catalog.names(), row_mentions, candidate_ids, matrix)
