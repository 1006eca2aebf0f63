"""Reference oracle: the per-mention features that ``build_feature_table``
now computes a column at a time.

``instance_columns`` gives one instance's ``pr`` scores, raw ``ctx`` scores
and ``prom`` in-degrees in catalog order, checked and raising as each list
was checked, and ``list_columns`` joins them over a dataset and rescales
``ctx`` and ``prom`` list by list, as the table builder did. The parity
tests compare the built columns against them by ``tobytes()``, and the first
error raised by type and message.
"""
from __future__ import annotations

import numpy as np

from rulelink.errors import FeatureError
from rulelink.simfeatures import _rescalable, _rescale_lists
from string_reference import partial_ratio


def context_raws(inst, all_mentions) -> np.ndarray:
    """Per candidate, the summed ``partial_ratio`` of the context mentions'
    surfaces against its description; 0 for a candidate without one."""
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
            raws[described] += [partial_ratio(s, d) for d in descriptions]
    return raws


def instance_columns(inst, catalog, mentions) -> dict[str, np.ndarray]:
    """The features of one instance that were computed list by list, in
    catalog order: ``pr``, and the raw ``ctx`` scores and ``prom``
    in-degrees, checked as ``minmax_rescale`` checks them."""
    out = {}
    for name, spec in catalog.entries.items():
        if spec.kind == "pr":
            out[name] = np.array([partial_ratio(inst.mention.surface, c.name) for c in inst.candidates])
        elif spec.kind == "ctx":
            out[name] = _rescalable(context_raws(inst, mentions))
        elif spec.kind == "prom":
            if not inst.candidates:
                raise FeatureError("prominence needs a non-empty candidate list")
            out[name] = _rescalable([c.indegree for c in inst.candidates])
    return out


def list_columns(ds, catalog) -> dict[str, np.ndarray]:
    """Every ``pr``, ``ctx`` and ``prom`` column of ``catalog`` over ``ds``'s
    pairs in dataset order, built instance by instance."""
    mentions = ds.mentions_by_id()
    lists = [instance_columns(inst, catalog, mentions) for inst in ds.instances]
    offsets = ds.row_keys()[1]
    out = {}
    for name, spec in catalog.entries.items():
        if spec.kind in ("pr", "ctx", "prom"):
            joined = np.concatenate([cols[name] for cols in lists]) if lists else np.empty(0)
            out[name] = joined if spec.kind == "pr" else _rescale_lists(joined, offsets)
    return out
