"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain JSON
objects in the dataset's JSONL schema, so the program under test only ever
sees the written file. Nothing here calls the library: gold labels come from
a latent utility over properties the generator itself controls (edit count,
prominence, context and type evidence) plus Gumbel noise, which keeps the
labels learnable but not separable (top-1 F1 well below 1.0). There is no
rejection sampling, so generation time is linear in the output size.
"""
from __future__ import annotations

import numpy as np

CONSONANTS = "bcdfghklmnprstvz"
VOWELS = "aeiou"
TYPES = ("Person", "Place", "Organisation", "Work", "Event")
EMBED_DIM = 8


def _word(rng, syllables: int) -> str:
    cons = rng.integers(0, len(CONSONANTS), size=syllables)
    vows = rng.integers(0, len(VOWELS), size=syllables)
    return "".join(CONSONANTS[c] + VOWELS[v] for c, v in zip(cons, vows))


def _mutate(word: str, edits: int, rng) -> str:
    chars = list(word)
    letters = CONSONANTS + VOWELS
    for _ in range(edits):
        op = int(rng.integers(0, 3))
        pos = int(rng.integers(0, len(chars)))
        letter = letters[int(rng.integers(0, len(letters)))]
        if op == 0:
            chars[pos] = letter
        elif op == 1:
            chars.insert(pos, letter)
        elif len(chars) > 3:
            del chars[pos]
    return "".join(chars)


def _names(surface: str, n: int, rng) -> tuple[list[str], np.ndarray]:
    """``n`` candidate names in seeded order, with each one's edit distance
    from the surface (99 for an unrelated name). Half are mutations of the
    surface. Name lengths depend on the position before shuffling, never on
    the seed, so every seed gives the string kernels the same length mix."""
    near = max(1, n // 2)
    edits = np.full(n, 99)
    edits[:near] = rng.integers(0, 4, size=near)
    edits[0] = rng.integers(0, 2)
    names = []
    for k in range(n):
        if k < near:
            name = _mutate(surface.lower(), int(edits[k]), rng).capitalize()
            if k % 3 == 1:
                name += "_" + _word(rng, 1 + k % 2).capitalize()
        else:
            name = _word(rng, 2 + k % 3).capitalize()
        names.append(name)
    order = rng.permutation(n)
    return [names[o] for o in order], edits[order]


def _gold(utility: np.ndarray, rng) -> int:
    return int(np.argmax(utility + rng.gumbel(0.0, 0.25, size=utility.shape[0])))


def _closeness(edits: np.ndarray) -> np.ndarray:
    return 1.0 - np.minimum(edits, 5) / 5.0


def name_instances(rng, lengths, prefix: str) -> list[dict]:
    """Single-mention texts with short names and no descriptions, types or
    embeddings; ``lengths`` gives each mention's candidate count."""
    out = []
    for i, n in enumerate(lengths):
        n = int(n)
        mid = f"{prefix}{i:05d}"
        surface = _word(rng, 2 + i % 3).capitalize()
        names, edits = _names(surface, n, rng)
        indegree = np.floor(rng.lognormal(3.0, 1.2, size=n)).astype(int)
        prom = np.log1p(indegree) / np.log1p(indegree.max() + 1)
        gold = _gold(1.2 * _closeness(edits) + 0.8 * prom, rng)
        spacy = np.clip(_closeness(edits) + rng.normal(0.0, 0.2, size=n), 0.0, 1.0)
        cands = [
            {
                "id": f"{mid}_c{j}",
                "name": names[j],
                "description": None,
                "domains": [],
                "indegree": int(indegree[j]),
                "embedding": None,
                "external_scores": {"spacy": round(float(spacy[j]), 6)},
            }
            for j in range(n)
        ]
        out.append(
            {
                "mention": {"id": mid, "surface": surface, "text_id": f"t{mid}",
                            "context_ids": [], "type": None},
                "candidates": cands,
                "labels": [int(j == gold) for j in range(n)],
            }
        )
    return out


def ragged_lengths(n_mentions: int, rng, max_len: int = 64) -> np.ndarray:
    """A fixed multiset of list lengths from 1 to ``max_len`` (log-uniform
    quantiles, so the total pair count depends only on ``n_mentions``),
    in seeded order."""
    q = (np.arange(n_mentions) + 0.5) / n_mentions
    lengths = np.floor(np.exp(q * np.log(max_len + 1))).astype(int)
    return rng.permutation(np.clip(lengths, 1, max_len))


def _description(rng, words: list[str], target: int) -> str:
    parts: list[str] = []
    size = 0
    while size < target:
        w = words[int(rng.integers(0, len(words)))] if rng.random() < 0.5 else _word(rng, 1 + len(parts) % 3)
        parts.append(w)
        size += len(w) + 1
    return " ".join(parts)[:target]


def context_instances(
    rng, n_texts: int, per_text: int, n_cands: int, shared_share: float, desc_chars: int
) -> list[dict]:
    """Multi-mention texts whose candidates carry descriptions, type domains,
    embeddings and ``spacy``/``blink``/``cos`` score columns.

    In each text, ``round(shared_share * n_cands)`` of every mention's
    candidates come from one pool of entities shared by the text's mentions,
    so (co-mention surface, description) pairs partly repeat.
    """
    n_shared = int(round(shared_share * n_cands))
    filler = [_word(rng, 1 + f % 3) for f in range(200)]
    out = []
    for t in range(n_texts):
        tid = f"t{t:04d}"
        mids = [f"{tid}m{k}" for k in range(per_text)]
        surfaces = [_word(rng, 2 + k % 2).capitalize() for k in range(per_text)]
        types = [TYPES[int(rng.integers(0, len(TYPES)))] for _ in range(per_text)]
        center = rng.normal(0.0, 1.0, size=EMBED_DIM)
        pool = []
        for e in range(max(n_shared, 1) * 2):
            pool.append(
                {
                    "id": f"{tid}_shared{e}",
                    "name": _word(rng, 2 + e % 3).capitalize(),
                    "description": _description(rng, filler, desc_chars),
                    "domains": [TYPES[int(rng.integers(0, len(TYPES)))]],
                    "indegree": int(rng.lognormal(3.0, 1.2)),
                    "embedding": [round(float(v), 6) for v in rng.normal(0.0, 1.0, size=EMBED_DIM)],
                    "close": 0.0,
                    "ctx": 0.0,
                }
            )
        for k in range(per_text):
            others = [surfaces[o] for o in range(per_text) if o != k]
            own = n_cands - n_shared
            names, edits = _names(surfaces[k], own, rng)
            ctx_hit = rng.random(own) < 0.35
            type_hit = rng.random(own) < 0.3
            indegree = np.floor(rng.lognormal(3.0, 1.2, size=own)).astype(int)
            cands = []
            for j in range(own):
                ctx_words = []
                if ctx_hit[j]:
                    ctx_words = [_mutate(s.lower(), int(rng.integers(0, 2)), rng) for s in others]
                cands.append(
                    {
                        "id": f"{mids[k]}_c{j}",
                        "name": names[j],
                        "description": _description(rng, filler + ctx_words * 8, desc_chars),
                        "domains": [types[k] if type_hit[j] else TYPES[int(rng.integers(0, len(TYPES)))]],
                        "indegree": int(indegree[j]),
                        "close": float(_closeness(edits[j : j + 1])[0]),
                        "ctx": float(ctx_hit[j]),
                    }
                )
            picks = rng.choice(len(pool), size=n_shared, replace=False)
            cands += [dict(pool[p]) for p in picks]
            order = rng.permutation(len(cands))
            cands = [cands[o] for o in order]
            close = np.array([c["close"] for c in cands])
            ctx = np.array([c["ctx"] for c in cands])
            type_ok = np.array([float(types[k] in c["domains"]) for c in cands])
            prom = np.log1p([c["indegree"] for c in cands]) / np.log1p(max(c["indegree"] for c in cands) + 1)
            gold = _gold(1.0 * close + 0.6 * ctx + 0.4 * type_ok + 0.4 * prom, rng)
            n = len(cands)
            spacy = np.clip(close + rng.normal(0.0, 0.25, size=n), 0.0, 1.0)
            blink = np.clip(0.3 + 0.35 * (np.arange(n) == gold) + rng.normal(0.0, 0.2, size=n), 0.0, 1.0)
            cos = np.clip(0.4 + 0.3 * (np.arange(n) == gold) + rng.normal(0.0, 0.15, size=n), 0.0, 1.0)
            for j, c in enumerate(cands):
                c.pop("close")
                c.pop("ctx")
                if "embedding" not in c:
                    spread = 0.3 if j == gold else 1.0
                    base = center if j == gold else rng.normal(0.0, 1.0, size=EMBED_DIM)
                    c["embedding"] = [round(float(v), 6) for v in base + rng.normal(0.0, spread, size=EMBED_DIM)]
                c["external_scores"] = {
                    "spacy": round(float(spacy[j]), 6),
                    "blink": round(float(blink[j]), 6),
                    "cos": round(float(cos[j]), 6),
                }
            out.append(
                {
                    "mention": {"id": mids[k], "surface": surfaces[k], "text_id": tid,
                                "context_ids": [m for m in mids if m != mids[k]], "type": types[k]},
                    "candidates": cands,
                    "labels": [int(j == gold) for j in range(n)],
                }
            )
    return out


def input_properties(objs: list[dict]) -> dict:
    """Workload input properties recorded with every result."""
    lengths = [len(o["candidates"]) for o in objs]
    descs = [len(c["description"]) for o in objs for c in o["candidates"] if c.get("description")]
    by_text: dict[str, int] = {}
    for o in objs:
        by_text[o["mention"]["text_id"]] = by_text.get(o["mention"]["text_id"], 0) + 1
    surfaces = {o["mention"]["id"]: o["mention"]["surface"] for o in objs}
    keys = [
        (surfaces[ctx], c["description"])
        for o in objs
        for c in o["candidates"]
        if c.get("description")
        for ctx in o["mention"]["context_ids"]
    ]
    return {
        "mentions": len(objs),
        "pairs": sum(lengths),
        "cands_mean": sum(lengths) / len(lengths),
        "cands_max": max(lengths),
        "desc_chars_mean": sum(descs) / len(descs) if descs else 0.0,
        "co_mentions_per_text": sum(n - 1 for n in by_text.values()) / len(by_text),
        "repeat_share": 1.0 - len(set(keys)) / len(keys) if keys else 0.0,
    }
