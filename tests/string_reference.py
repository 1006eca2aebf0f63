"""Reference oracles: the per-pair string kernels that the column kernels of
``rulelink.simfeatures`` replaced.

Each scores one (a, b) pair with Python loops: Jaccard over case-folded
character sets, Levenshtein by Myers/Hyyrö bit-parallel matching on
Python-int bit vectors, partial ratio by one Levenshtein per window, and
Jaro-Winkler by greedy window matching. The exactness tests compare the
column kernels against them by ``tobytes()``.
"""
from __future__ import annotations


def char_jaccard(a: str, b: str) -> float:
    """|chars(a) & chars(b)| / |chars(a) | chars(b)| over case-folded sets."""
    sa, sb = set(a.casefold()), set(b.casefold())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def levenshtein(a: str, b: str) -> int:
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
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def partial_ratio(a: str, b: str) -> float:
    """Best ``lev_sim`` of the shorter string against each equal-length
    window of the other, one edit distance per window; 1.0 when the shorter
    string is empty."""
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    if not short:
        return 1.0
    n = len(short)
    return max(1.0 - levenshtein(short, long[i : i + n]) / n for i in range(len(long) - n + 1))


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
