"""Reference oracle: the dict-of-row-dicts feature table that
``rulelink.simfeatures.FeatureTable``'s one matrix replaced.

``ReferenceTable`` keeps one ``{name: value}`` dict per (mention, candidate)
key and reads, writes and gathers them row by row: ``add_row``, ``to_csv``,
``from_csv`` and ``gather`` are the codec as it was, checks, check order and
messages included. ``sidecar_matrix`` is the matrix ``write_features`` built
from those rows. The codec tests compare the matrix table against them byte
for byte.
"""
from __future__ import annotations

import csv
import hashlib
import re
from itertools import chain
from operator import itemgetter

import numpy as np

from rulelink.corpus import atomic_write
from rulelink.errors import FeatureError

_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_cell(text: str) -> str:
    """``text`` as one RFC 4180 cell: quoted, quotes doubled, when it holds
    a comma, quote or line break."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _in_unit_range(values: np.ndarray) -> np.ndarray:
    return (values >= 0.0) & (values <= 1.0)


class ReferenceTable:
    """Per (mention, candidate) feature vectors, keyed by feature name."""

    def __init__(self, feature_names: list[str]):
        self.feature_names = list(feature_names)
        self.rows: dict[tuple[str, str], dict[str, float]] = {}

    def add_row(self, mention_id: str, candidate_id: str, values: dict[str, float]) -> None:
        missing = [n for n in self.feature_names if n not in values]
        if missing:
            raise FeatureError(f"row ({mention_id},{candidate_id}) missing {missing}")
        self.rows[(mention_id, candidate_id)] = {n: float(values[n]) for n in self.feature_names}

    def gather(self, instances, names=None) -> tuple[dict[str, np.ndarray], list[int]]:
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

    def to_csv(self, path) -> str:
        names = self.feature_names
        lines = [",".join(map(_csv_cell, ["mention_id", "candidate_id"] + names))]
        for (mid, cid), values in self.rows.items():
            lines.append(",".join([_csv_cell(mid), _csv_cell(cid)] + [repr(values[n]) for n in names]))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        atomic_write(path, data)
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def from_csv(cls, path) -> "ReferenceTable":
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
        valid = _in_unit_range(np.fromiter(cells, float, len(rows) * len(names)))
        if not valid.all():
            row, col = divmod(int(np.argmin(valid)), len(names))
            value = list(rows.values())[row][names[col]]
            fault = "outside [0, 1]" if np.isfinite(value) else "not finite"
            raise FeatureError(f"{path} line {lines[row]}: column {names[col]!r} is {value!r}, {fault}")
        return table


def sidecar_matrix(ds, table: ReferenceTable) -> np.ndarray:
    """The ``[rows, features]`` matrix ``write_features`` stored for ``ds``."""
    rows = [table.rows[(inst.mention.id, c.id)] for inst in ds.instances for c in inst.candidates]
    names = table.feature_names
    return np.stack([np.fromiter(map(itemgetter(name), rows), np.float64, len(rows)) for name in names], axis=1)
