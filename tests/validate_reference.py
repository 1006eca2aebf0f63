"""Reference oracle: ``corpus.instance_faults`` and ``validate_dataset`` as
they were before every field's type was checked before its value.

They compare or convert ``indegree``, ``external_scores`` and ``embedding``
values as they find them, so some in-code datasets make them raise. The
property tests draw those fields from every JSON type: where the reference
returns a report, ``validate_dataset`` must return the same one.
"""
from __future__ import annotations

import math

from rulelink.corpus import _LONE_SURROGATE, ValidationReport, _type_names


def instance_faults(inst: LabeledInstance) -> list[str]:
    """Every fault of one built instance, in a fixed order."""
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
        if cand.domains and not set(map(type, cand.domains)) <= {str}:
            faults.append(f"candidate {cand.id!r} domains must be strings, not {_type_names(cand.domains, str)}")
        if cand.indegree < 0:
            faults.append(f"candidate {cand.id!r} has negative indegree")
        if cand.embedding is not None and not all(math.isfinite(v) for v in cand.embedding):
            faults.append(f"candidate {cand.id!r} has a non-finite embedding value")
        if isinstance(cand.id, str):  # a non-string id is reported above, and may not hash
            if cand.id in cand_ids:
                faults.append(f"duplicate candidate id {cand.id!r}")
            cand_ids.add(cand.id)
        for k, v in cand.external_scores.items():
            if not 0.0 <= v <= 1.0:
                faults.append(f"external score {k!r}={v} outside [0,1] on candidate {cand.id!r}")

    if inst.candidates and len(inst.labels) != len(inst.candidates):
        faults.append(f"{len(inst.labels)} labels for {len(inst.candidates)} candidates")
    return faults


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Invariant violations and per-field coverage: :func:`instance_faults`
    per instance, then empty lists, no positive label and unknown context ids."""
    violations: list[str] = []
    seen: set[str] = set()
    # a non-string id is reported by instance_faults, and may not hash
    known = {i.mention.id for i in ds.instances if isinstance(i.mention.id, str)}
    dim = ds.embedding_dim

    n_cands = 0
    with_desc = 0
    with_emb = 0
    with_type = 0
    external_counts: dict[str, int] = {}

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
        if inst.mention.mention_type is not None:
            with_type += 1
        for cand in inst.candidates:
            n_cands += 1
            if cand.description is not None:
                with_desc += 1
            if cand.embedding is not None:
                with_emb += 1
                if dim is not None and len(cand.embedding) != dim:
                    violations.append(
                        f"candidate {cand.id!r}: embedding dim {len(cand.embedding)} != {dim}"
                    )
            for k in cand.external_scores:
                external_counts[k] = external_counts.get(k, 0) + 1

    denom = max(n_cands, 1)
    coverage = {
        "description": with_desc / denom,
        "embedding": with_emb / denom,
        "mention_type": with_type / max(len(ds.instances), 1),
    }
    for k, count in sorted(external_counts.items()):
        coverage[f"external:{k}"] = count / denom
    return ValidationReport(violations=tuple(violations), coverage=coverage)
