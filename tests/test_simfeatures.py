import csv
import functools
import hashlib
import io
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import list_reference
import string_reference
import table_reference
from conftest import mutate_byte, mutate_line, outcome, toy_instances
from rulelink import simfeatures
from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, LoadReport, Mention
from rulelink.errors import FeatureError
from rulelink.simfeatures import (
    FeatureCatalog,
    FeatureSpec,
    FeatureTable,
    _BLOCK,
    _edit_distances,
    _jacc_column,
    _jw_column,
    _lev_column,
    _partial_ratio_column,
    _window_distances,
    build_feature_table,
    char_jaccard,
    default_catalog,
    jaro_winkler,
    lev_sim,
    minmax_rescale,
    partial_ratio,
    type_score,
)

words = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=24)
# Any code point, lone surrogates included, plus a small alphabet (with an
# astral char and both surrogate halves) so that strings share characters.
any_char = st.sampled_from("ab \u00e9\U0001F600\ud800\udc00") | st.characters(exclude_categories=())


def levenshtein_reference(a: str, b: str) -> int:
    """Row-by-row pure-Python edit distance DP: the slow reference."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        curr = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost))
        prev = curr
    return prev[-1]


def context_scores_reference(inst: LabeledInstance, mentions: dict) -> np.ndarray:
    """Per-candidate sum over co-mentions, accumulated left to right."""
    surfaces = [mentions[c].surface for c in inst.mention.context_ids]
    raws = []
    for cand in inst.candidates:
        if cand.description is None or not surfaces:
            raws.append(0.0)
        else:
            raws.append(sum(string_reference.partial_ratio(s, cand.description) for s in surfaces))
    return minmax_rescale(raws)


def context_column(inst: LabeledInstance, mentions: dict) -> np.ndarray:
    """The ``ctx`` column ``build_feature_table`` gives ``inst`` in a dataset
    of it and, with one candidate each, the other ``mentions``."""
    others = tuple(LabeledInstance(m, (CandidateEntity(id="x", name="x"),), (1,))
                   for mid, m in mentions.items() if mid != inst.mention.id)
    table = build_feature_table(Dataset(instances=(inst, *others)), default_catalog().restricted(["ctx"]))
    return table.columns(inst, ["ctx"])["ctx"]


def prominence_column(inst: LabeledInstance) -> np.ndarray:
    """The ``prom`` column ``build_feature_table`` gives ``inst`` alone."""
    table = build_feature_table(Dataset(instances=(inst,)), default_catalog().restricted(["prom"]))
    return table.columns(inst, ["prom"])["prom"]


def edit_distance_oracle(a: str, b: str) -> int:
    """Independent recursive-memoized edit distance."""

    @functools.lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


class TestCharJaccard:
    def test_toy_pairs_match_reported_values(self):
        assert char_jaccard("Cameron", "James_Cameron") == 0.7
        assert char_jaccard("Cameron", "Roderick_Cameron") == 7 / 11
        assert char_jaccard("Titanic", "Titanic") == 1.0
        assert char_jaccard("Titanic", "Titanic_(1997_film)") == 5 / 14

    def test_both_empty_is_one(self):
        assert char_jaccard("", "") == 1.0

    @given(words, words)
    def test_symmetric_and_bounded(self, a, b):
        v = char_jaccard(a, b)
        assert 0.0 <= v <= 1.0
        assert v == char_jaccard(b, a)


class TestLevSim:
    def test_identity_and_empty(self):
        assert lev_sim("Titanic", "Titanic") == 1.0
        assert lev_sim("abc", "") == 0.0
        assert lev_sim("", "") == 1.0

    def test_single_insertion(self):
        assert lev_sim("Cameron", "Camerons") == 1 - 1 / 8

    @given(words, words)
    @settings(max_examples=60)
    def test_matches_recursive_oracle(self, a, b):
        a, b = a[:12], b[:12]
        expected = 1.0 if not a and not b else 1 - edit_distance_oracle(a, b) / max(len(a), len(b), 1)
        assert lev_sim(a, b) == pytest.approx(expected)

    @given(words, words)
    def test_symmetric_and_bounded(self, a, b):
        v = lev_sim(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(lev_sim(b, a))


class TestJaroWinkler:
    def test_identity_and_empty(self):
        assert jaro_winkler("MARTHA", "MARTHA") == 1.0
        assert jaro_winkler("", "abc") == 0.0
        assert jaro_winkler("", "") == 1.0

    def test_classic_value(self):
        # jaro = (6/6 + 6/6 + 5/6)/3 = 0.944..., prefix 3 of weight 0.1
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-4)

    def test_another_hand_value(self):
        # DWAYNE/DUANE: m=4, t=0, jaro=(4/6+4/5+1)/3=0.8222; prefix 1
        assert jaro_winkler("DWAYNE", "DUANE") == pytest.approx(0.8400, abs=1e-4)

    @given(words, words)
    def test_bounded(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0


class TestPartialRatio:
    def test_exact_substring_window(self):
        assert partial_ratio("Titanic", "Titanic_(1997_film)") == 1.0
        assert partial_ratio("x", "x") == 1.0
        assert partial_ratio("", "anything") == 1.0

    def test_best_window(self):
        assert partial_ratio("abc", "zxbcz") == pytest.approx(1 - 1 / 3)

    @given(words, words)
    @settings(max_examples=60)
    def test_matches_window_sweep_oracle(self, a, b):
        a, b = a[:8], b[:14]
        short, long = (a, b) if len(a) <= len(b) else (b, a)
        if not short:
            expected = 1.0
        else:
            n = len(short)
            expected = max(
                1 - edit_distance_oracle(short, long[i : i + n]) / n
                for i in range(len(long) - n + 1)
            )
        assert partial_ratio(a, b) == pytest.approx(expected)

    @given(words, words)
    def test_argument_order_invariant(self, a, b):
        assert partial_ratio(a, b) == pytest.approx(partial_ratio(b, a))


class TestKernelsMatchReferences:
    """The vectorised and bit-parallel kernels equal the slow references
    exactly (``==``) over arbitrary unicode."""

    @given(st.text(any_char, max_size=20), st.text(any_char, max_size=20))
    @settings(max_examples=300)
    def test_levenshtein(self, a, b):
        assert _edit_distances([a], [b])[0] == levenshtein_reference(a, b)
        assert lev_sim(a, b) == (
            1.0 if not a and not b else 1.0 - levenshtein_reference(a, b) / max(len(a), len(b))
        )

    def test_levenshtein_beyond_one_machine_word(self):
        a = "ab" * 70 + "\U0001F600"
        b = "ba" * 65 + "\ud800"
        assert _edit_distances([a], [b])[0] == levenshtein_reference(a, b)

    @given(st.text(any_char, max_size=8), st.text(any_char, max_size=24))
    @settings(max_examples=300)
    def test_partial_ratio(self, a, b):
        expected = string_reference.partial_ratio(a, b)
        assert partial_ratio(a, b) == expected
        assert partial_ratio(b, a) == expected

    @given(st.data())
    @settings(max_examples=200)
    def test_window_distances_over_several_longs(self, data):
        short = data.draw(st.text(any_char, min_size=1, max_size=8))
        n = len(short)
        longs = data.draw(
            st.lists(st.text(any_char, min_size=n, max_size=n + 20), min_size=1, max_size=5)
        )
        expected = [
            min(levenshtein_reference(short, t[i : i + n]) for i in range(len(t) - n + 1))
            for t in longs
        ]
        assert _window_distances(short, longs).tolist() == expected

    @given(st.data(), st.sampled_from([1, 4, simfeatures._INT16_CELLS]))
    @settings(max_examples=150, deadline=None)
    def test_window_distances_in_int16_and_int32_cells(self, data, cap):
        # a cap of 1 runs every pattern on int32 cells, 4 patterns of 4 or
        # more chars, and the module's cap none of these
        short = data.draw(st.text(any_char, min_size=1, max_size=8))
        n = len(short)
        longs = data.draw(st.lists(st.text(any_char, min_size=n, max_size=n + 20), min_size=1, max_size=4))
        expected = [min(string_reference.levenshtein(short, t[i : i + n]) for i in range(len(t) - n + 1))
                    for t in longs]
        with mock.patch.object(simfeatures, "_INT16_CELLS", cap):
            got = _window_distances(short, longs)
        assert got.dtype == np.int64
        assert got.tolist() == expected

    @pytest.mark.parametrize("cap", [1, simfeatures._INT16_CELLS])
    def test_astral_and_lone_surrogate_cells(self, cap):
        short = "\U0001F600\ud800a\udc00"
        longs = ["xx\U0001F600\ud800ay\udc00", "\udc00\ud800\U0001F600a", "𐀀" * 5, short + "\U0001F601"]
        expected = [min(string_reference.levenshtein(short, t[i : i + 4]) for i in range(len(t) - 3))
                    for t in longs]
        with mock.patch.object(simfeatures, "_INT16_CELLS", cap):
            assert _window_distances(short, longs).tolist() == expected

    @given(
        st.lists(st.text(any_char, max_size=10), max_size=4),
        st.lists(st.none() | st.text(any_char, max_size=30), min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_context_scores_exact(self, surfaces, descriptions):
        ctx = {f"c{k}": Mention(id=f"c{k}", surface=s, text_id="t") for k, s in enumerate(surfaces)}
        target = Mention(id="m", surface="x", text_id="t", context_ids=tuple(ctx))
        mentions = {**ctx, "m": target}
        cands = tuple(
            CandidateEntity(id=f"e{k}", name="e", description=d) for k, d in enumerate(descriptions)
        )
        inst = LabeledInstance(target, cands, (1,) + (0,) * (len(cands) - 1))
        assert context_column(inst, mentions).tolist() == (
            context_scores_reference(inst, mentions).tolist()
        )

    @given(st.text(any_char, max_size=8), st.lists(st.text(any_char, max_size=16), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_pr_feature_column(self, surface, names):
        m = Mention(id="m", surface=surface, text_id="t")
        cands = tuple(CandidateEntity(id=f"e{k}", name=name) for k, name in enumerate(names))
        ds = Dataset(instances=(LabeledInstance(m, cands, (1,) + (0,) * (len(cands) - 1)),))
        table = build_feature_table(ds, default_catalog().restricted(["pr"]))
        assert [table.rows[("m", c.id)]["pr"] for c in cands] == [
            string_reference.partial_ratio(surface, name) for name in names
        ]


_KERNELS = [
    (_jacc_column, string_reference.char_jaccard),
    (_lev_column, string_reference.lev_sim),
    (_jw_column, string_reference.jaro_winkler),
    (_partial_ratio_column, string_reference.partial_ratio),
]
# Short strings, and strings past one 64-bit word built by repeating a short one.
_strings = st.text(any_char, max_size=10) | st.builds(
    lambda s, n: (s * n)[:n], st.text(any_char, min_size=1, max_size=10), st.integers(62, 90))
_pairs = st.lists(st.tuples(_strings, _strings) | _strings.map(lambda s: (s, s)), min_size=1, max_size=12)


@st.composite
def _ragged_dataset(draw):
    """1-4 mentions of one text with 1-64 candidates each; names are drawn,
    and types, descriptions, in-degrees and external scores vary by a drawn
    random source."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 4))
    mids = [f"m{i}" for i in range(n)]
    instances = []
    for i, mid in enumerate(mids):
        names = draw(st.lists(st.text(any_char, max_size=12), min_size=1, max_size=64))
        cands = tuple(
            CandidateEntity(
                id=f"{mid}_c{j}",
                name=name,
                description=rnd.choice([None, name, "ab " + name[:3], "c a b"]),
                domains=frozenset(rnd.sample(["P", "Q"], rnd.randint(0, 2))),
                indegree=rnd.randint(0, 5),
                external_scores={src: rnd.random() for src in ("spacy", "blink") if rnd.random() < 0.7},
            )
            for j, name in enumerate(names)
        )
        others = mids[:i] + mids[i + 1:]
        mention = Mention(id=mid, surface=draw(st.text(any_char, min_size=1, max_size=10)), text_id="t",
                          context_ids=tuple(rnd.sample(others, rnd.randint(0, len(others)))),
                          mention_type=rnd.choice([None, "P", "Q"]))
        instances.append(LabeledInstance(mention, cands, (1,) + (0,) * (len(cands) - 1)))
    return Dataset(instances=tuple(instances))


def reference_rows(ds: Dataset, catalog: FeatureCatalog) -> dict:
    """Every row built pair by pair from the per-pair references."""
    mentions = ds.mentions_by_id()
    rows = {}
    for inst in ds.instances:
        surface, cands = inst.mention.surface, inst.candidates
        cols = {}
        for name, spec in catalog.entries.items():
            if spec.kind == "jacc":
                cols[name] = [string_reference.char_jaccard(surface, c.name) for c in cands]
            elif spec.kind == "lev":
                cols[name] = [string_reference.lev_sim(surface, c.name) for c in cands]
            elif spec.kind == "jw":
                cols[name] = [string_reference.jaro_winkler(surface, c.name) for c in cands]
            elif spec.kind == "pr":
                cols[name] = [string_reference.partial_ratio(surface, c.name) for c in cands]
            elif spec.kind == "ctx":
                cols[name] = context_scores_reference(inst, mentions)
            elif spec.kind == "type":
                cols[name] = [type_score(inst.mention, c) for c in cands]
            elif spec.kind == "prom":
                cols[name] = minmax_rescale([c.indegree for c in cands])
            elif spec.kind == "external":
                cols[name] = [c.external_scores.get(spec.source, 0.0) for c in cands]
        for j, c in enumerate(cands):
            rows[(inst.mention.id, c.id)] = {name: float(col[j]) for name, col in cols.items()}
    return rows


class TestColumnKernels:
    """The column kernels equal the per-pair references of
    ``string_reference`` by ``tobytes()``, and a table built from columns
    equals one built pair by pair, cell by cell."""

    @given(_pairs, st.sampled_from([2, 512]))
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_references(self, pairs, block):
        a, b = [x for x, _ in pairs], [y for _, y in pairs]
        with mock.patch.object(simfeatures, "_BLOCK", block):
            for column, reference in _KERNELS:
                assert column(a, b).tobytes() == np.array([reference(x, y) for x, y in pairs]).tobytes()
            assert _edit_distances(a, b).tolist() == [string_reference.levenshtein(x, y) for x, y in pairs]

    def test_batches_across_block_boundaries(self):
        rng = random.Random(7)
        alphabet = "abAB \u00e9\u00df\U0001F600\ud800\udc00"
        words = ["".join(rng.choice(alphabet) for _ in range(rng.choice([0, 1, 3, 8, 16, 70])))
                 for _ in range(2 * 1100)]
        a, b = words[::2], words[1::2]
        b[::9] = a[::9]  # some equal pairs
        for column, reference in _KERNELS:
            assert column(a, b).tobytes() == np.array([reference(x, y) for x, y in zip(a, b)]).tobytes()

    @pytest.mark.parametrize("m", [63, 64, 65])
    def test_myers_word_boundary(self, m):
        rng = random.Random(m)
        alphabet = "ab\u00e9\U0001F600\ud800"
        pattern = "".join(rng.choice(alphabet) for _ in range(m))
        texts = ["".join(rng.choice(alphabet) for _ in range(n)) for n in range(m, 201, 7)]
        texts += [pattern, pattern[1:] + "b", "a" * 200, pattern + "a" * (200 - m)]
        a, b = [pattern] * len(texts), texts
        expected = np.array([string_reference.lev_sim(x, y) for x, y in zip(a, b)])
        assert _lev_column(a, b).tobytes() == expected.tobytes()
        assert _lev_column(b, a).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("long_first", [False, True])
    def test_one_word_and_multi_word_blocks(self, long_first):
        # 513 pairs make two blocks: one whose patterns fit one 64-bit word,
        # and one holding a 70-char pattern, which runs on Python-int lanes
        rng = random.Random(513)
        a = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 12))) for _ in range(513)]
        b = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 90))) for _ in range(513)]
        at = 0 if long_first else 512
        a[at], b[at] = "abc" * 23 + "a", "cab" * 30
        assert _BLOCK == 512
        expected = np.array([string_reference.lev_sim(x, y) for x, y in zip(a, b)])
        assert _lev_column(a, b).tobytes() == expected.tobytes()

    def test_one_row_calls(self):
        publics = (char_jaccard, lev_sim, jaro_winkler, partial_ratio)
        for (column, reference), public in zip(_KERNELS, publics, strict=True):
            for x, y in [("", ""), ("", "ab"), ("MARTHA", "MARHTA"), ("a" * 70, "a" * 69 + "b")]:
                assert type(public(x, y)) is float
                assert public(x, y) == reference(x, y)

    @given(_ragged_dataset(), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_table_matches_pair_by_pair_build(self, ds, jobs):
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "pr", "ctx", "type", "prom", "spacy", "blink"])
        table = build_feature_table(ds, catalog, jobs=jobs)
        expected = reference_rows(ds, catalog)
        assert list(table.rows) == list(expected)
        assert {k: {n: repr(v) for n, v in row.items()} for k, row in table.rows.items()} == (
            {k: {n: repr(v) for n, v in row.items()} for k, row in expected.items()}
        )


_INDEGREES = st.sampled_from([0, 1, 2, 7, 30, 2.5]) | st.sampled_from(
    [-3, float("nan"), float("inf"), -float("inf"), 10**400])


@st.composite
def _list_case(draw):
    """1-5 mentions whose lists may be empty, hold NaN, infinite, negative
    or (past any float) oversized in-degrees, name unknown context ids and
    mix described and undescribed candidates; a catalog of some of ``pr``,
    ``ctx``, ``prom`` and ``jacc`` in drawn order."""
    mids = [f"m{i}" for i in range(draw(st.integers(1, 5)))]
    instances = []
    for mid in mids:
        cands = tuple(
            CandidateEntity(id=f"{mid}_c{j}", name=draw(st.text("ab ", max_size=5)),
                            description=draw(st.none() | st.text("ab ", max_size=8)), indegree=draw(_INDEGREES))
            for j in range(draw(st.sampled_from([0, 1, 1, 2, 3, 4, 6]))))
        context = draw(st.lists(st.sampled_from([m for m in mids if m != mid] + ["ghost"]), max_size=3, unique=True))
        mention = Mention(id=mid, surface=draw(st.text("ab ", min_size=1, max_size=4)), text_id="t",
                          context_ids=tuple(context))
        instances.append(LabeledInstance(mention, cands, (1,) + (0,) * (len(cands) - 1) if cands else ()))
    kinds = draw(st.permutations(["pr", "ctx", "prom", "jacc"]))[: draw(st.integers(1, 4))]
    return Dataset(instances=tuple(instances)), default_catalog().restricted(kinds)


_SURFACES = ["ab", "b\U0001F600", "aba", "\ud800ab"]
_NAMES = ["", "e", "ab", "ba", "\ud800a\U0001F600", "aab ba"]
_DESCRIPTIONS = [None, "", "a", "ab ba", "b\U0001F600 aab", "aab bab \ud800ba"]


@st.composite
def _shared_context_dataset(draw):
    """1-3 texts of 3-5 mentions whose surfaces, names and descriptions come
    from small pools, so surfaces repeat among one list's co-mentions and
    across texts, and names and descriptions across a text's lists; a name
    or description may be shorter than a surface, as long, or empty, and a
    description None. Every draw holds each case: the first mention of a
    text sees all the others, two of which share a surface; every text's
    first surface is the first text's; and the first two mentions of a
    text share a described candidate."""
    instances, first_surface = [], None
    for t in range(draw(st.integers(1, 3))):
        mids = [f"t{t}m{i}" for i in range(draw(st.integers(3, 5)))]
        surfaces = draw(st.lists(st.sampled_from(_SURFACES), min_size=len(mids), max_size=len(mids)))
        surfaces[2] = surfaces[1]
        first_surface = surfaces[0] = first_surface or surfaces[0]
        pool = [CandidateEntity(id=f"t{t}_e{k}", name=draw(st.sampled_from(_NAMES)),
                                description=draw(st.sampled_from(_DESCRIPTIONS[1:] if k == 0 else _DESCRIPTIONS)))
                for k in range(3)]
        for i, (mid, surface) in enumerate(zip(mids, surfaces)):
            shared = [pool[0]] if i < 2 else []
            shared += draw(st.lists(st.sampled_from(pool[1:]), max_size=2, unique_by=lambda c: c.id))
            own = [CandidateEntity(id=f"{mid}_c{k}", name=draw(st.sampled_from(_NAMES)),
                                   description=draw(st.sampled_from(_DESCRIPTIONS)))
                   for k in range(draw(st.integers(0 if shared else 1, 3)))]
            cands = tuple(draw(st.permutations(shared + own)))
            others = draw(st.permutations(mids[:i] + mids[i + 1:]))
            context = others if i == 0 else others[: draw(st.integers(0, len(others)))]
            mention = Mention(id=mid, surface=surface, text_id=f"t{t}", context_ids=tuple(context))
            instances.append(LabeledInstance(mention, cands, (1,) + (0,) * (len(cands) - 1)))
    return Dataset(instances=tuple(instances))


class TestListColumns:
    """``pr``, ``ctx`` and ``prom`` built a column at a time equal the
    per-mention build of ``list_reference`` by ``tobytes()``, or raise the
    same first error: type and message."""

    @given(_list_case(), st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_columns_and_first_error_match_reference(self, case, jobs):
        ds, catalog = case
        want = outcome(list_reference.list_columns, ds, catalog)
        got = outcome(build_feature_table, ds, catalog, jobs)
        if isinstance(want, dict):
            assert isinstance(got, FeatureTable)
            assert {n: col.tobytes() for n, col in zip(want, got.select_matrix(list(want)))} == (
                {n: col.tobytes() for n, col in want.items()})
        else:
            assert got == want

    @given(_shared_context_dataset(), st.sampled_from([1, 2]))
    @settings(max_examples=150, deadline=None)
    def test_ctx_scored_once_per_distinct_pair(self, ds, jobs):
        # each kernel call's pairs, and the (pattern, longs) of every DP it ran
        calls = []
        kernel, window_distances = simfeatures._partial_ratio_column, simfeatures._window_distances

        def spy_kernel(a, b, run=map):
            calls.append((list(zip(a, b)), []))
            return kernel(a, b, run)

        def spy_dp(short, longs):
            calls[-1][1].append((short, list(longs)))
            return window_distances(short, longs)

        catalog = default_catalog().restricted(["pr", "ctx"])
        with mock.patch.object(simfeatures, "_partial_ratio_column", spy_kernel), \
                mock.patch.dict(simfeatures._NAME_KERNELS, {"pr": spy_kernel}), \
                mock.patch.object(simfeatures, "_window_distances", spy_dp):
            table = build_feature_table(ds, catalog, jobs=jobs)
        assert len(calls) == 2
        for pairs, dps in calls:
            patterns = [short for short, _ in dps]
            assert len(set(patterns)) == len(patterns)
            scored = sorted((short, long) for short, longs in dps for long in longs)
            want = {(x, y) if len(x) <= len(y) else (y, x) for x, y in pairs}
            assert scored == sorted((short, long) for short, long in want if short)
            # a name or description shorter than the surface is the pattern of its pair
            assert {(y, x) for x, y in pairs if 0 < len(y) < len(x)} <= set(scored)
        want = list_reference.list_columns(ds, catalog)
        got = dict(zip(["pr", "ctx"], table.select_matrix(["pr", "ctx"])))
        assert {n: col.tobytes() for n, col in got.items()} == {n: want[n].tobytes() for n in got}

    def test_first_error_in_dataset_then_catalog_order(self):
        def inst(mid, context=(), indegrees=(1, 2)):
            cands = tuple(CandidateEntity(id=f"{mid}{j}", name="n", indegree=d) for j, d in enumerate(indegrees))
            return LabeledInstance(Mention(id=mid, surface="s", text_id="t", context_ids=context), cands,
                                   (1,) + (0,) * (len(cands) - 1) if cands else ())

        ds = Dataset(instances=(inst("a"), inst("b", ("ghost",), (1, float("nan"))), inst("c", indegrees=())))
        with pytest.raises(FeatureError, match="^unknown context mention id 'ghost'$"):
            build_feature_table(ds, default_catalog().restricted(["ctx", "prom"]))
        with pytest.raises(FeatureError, match="^cannot rescale non-finite values$"):
            build_feature_table(ds, default_catalog().restricted(["prom", "ctx"]))
        with pytest.raises(FeatureError, match="^prominence needs a non-empty candidate list$"):
            build_feature_table(Dataset(instances=ds.instances[::2]), default_catalog().restricted(["prom", "ctx"]))
        with pytest.raises(OverflowError):
            build_feature_table(Dataset(instances=(inst("a", indegrees=(1, 10**400)),)),
                                default_catalog().restricted(["prom"]))


class TestMinmaxRescale:
    def test_examples(self):
        assert minmax_rescale([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]
        assert minmax_rescale([5, 5]).tolist() == [1.0, 1.0]
        assert minmax_rescale([0.3]).tolist() == [1.0]

    def test_rejects_non_finite(self):
        with pytest.raises(FeatureError):
            minmax_rescale([1.0, float("nan")])
        with pytest.raises(FeatureError):
            minmax_rescale([1.0, float("inf")])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_attains_bounds(self, values):
        out = minmax_rescale(values)
        assert out.max() == 1.0
        if max(values) > min(values):
            assert out.min() == 0.0
        assert np.all((0.0 <= out) & (out <= 1.0))


class TestContextScore:
    def test_no_context_degenerates_to_ones(self):
        inst, _ = toy_instances()
        lone = LabeledInstance(
            Mention(id="m9", surface="Cameron", text_id="t9"), inst.candidates, inst.labels
        )
        assert context_column(lone, {"m9": lone.mention}).tolist() == [1.0, 1.0]

    def test_descriptions_separate_candidates(self):
        mentions = {
            "m1": Mention(id="m1", surface="Titanic", text_id="t", context_ids=("m2",)),
            "m2": Mention(id="m2", surface="Cameron", text_id="t", context_ids=("m1",)),
        }
        cands = (
            CandidateEntity(id="ship", name="ship", description="a large ship"),
            CandidateEntity(id="film", name="film", description="film directed by James Cameron"),
        )
        inst = LabeledInstance(mentions["m1"], cands, (0, 1))
        scores = context_column(inst, mentions)
        # brute-force oracle over every equal-length window of each description
        def oracle(desc):
            n = len("Cameron")
            return max(
                1 - edit_distance_oracle("Cameron", desc[i : i + n]) / n
                for i in range(len(desc) - n + 1)
            )

        raw = [oracle("a large ship"), oracle("film directed by James Cameron")]
        assert raw[1] > raw[0]
        assert scores.tolist() == [0.0, 1.0]
        assert context_column(inst, mentions)[0] == 0.0

    def test_null_description_is_minimum(self):
        mentions = {
            "m1": Mention(id="m1", surface="Titanic", text_id="t", context_ids=("m2",)),
            "m2": Mention(id="m2", surface="Cameron", text_id="t"),
        }
        cands = (
            CandidateEntity(id="a", name="a", description=None),
            CandidateEntity(id="b", name="b", description="Cameron film"),
        )
        inst = LabeledInstance(mentions["m1"], cands, (0, 1))
        assert context_column(inst, mentions)[0] == 0.0

    def test_unknown_context_id_is_error(self):
        m = Mention(id="m1", surface="x", text_id="t", context_ids=("ghost",))
        inst = LabeledInstance(m, (CandidateEntity(id="a", name="a"),), (1,))
        with pytest.raises(FeatureError, match="ghost"):
            context_column(inst, {"m1": m})


class TestTypeAndProminence:
    def test_type_membership(self):
        m = Mention(id="m", surface="s", text_id="t", mention_type="Person")
        assert type_score(m, CandidateEntity(id="e", name="e", domains=frozenset({"Person", "Agent"}))) == 1.0
        assert type_score(m, CandidateEntity(id="e", name="e")) == 0.0
        untyped = Mention(id="m", surface="s", text_id="t")
        assert type_score(untyped, CandidateEntity(id="e", name="e", domains=frozenset({"Person"}))) == 0.0

    def test_prominence_toy_values(self):
        inst1, inst2 = toy_instances()
        assert prominence_column(inst1).tolist() == [1.0, 0.0]  # indegrees 30, 10
        assert prominence_column(inst2).tolist() == [0.0, 1.0]  # indegrees 44, 52

    def test_single_candidate_scores_one(self):
        m = Mention(id="m", surface="s", text_id="t")
        inst = LabeledInstance(m, (CandidateEntity(id="e", name="e", indegree=7),), (1,))
        assert prominence_column(inst).tolist() == [1.0]


class TestBuildFeatureTable:
    def test_toy_rows_match_individual_functions(self, toy_dataset):
        catalog = default_catalog().restricted(["jacc", "prom"])
        table = build_feature_table(toy_dataset, catalog)
        assert table.rows[("m1", "James_Cameron")]["jacc"] == 0.7
        assert table.rows[("m1", "James_Cameron")]["prom"] == 1.0
        assert table.rows[("m2", "Titanic_(1997_film)")]["jacc"] == 5 / 14
        assert table.rows[("m2", "Titanic_(1997_film)")]["prom"] == 1.0

    def test_empty_dataset_gives_empty_table(self):
        table = build_feature_table(Dataset(instances=(), name="e"), default_catalog().restricted(["jacc"]))
        assert table.rows == {}

    def test_external_column_copied(self):
        m = Mention(id="m", surface="s", text_id="t")
        cands = tuple(
            CandidateEntity(id=f"e{i}", name="x", external_scores={"blinkscore": v})
            for i, v in enumerate([0.9, 0.3, 0.0])
        )
        ds = Dataset(instances=(LabeledInstance(m, cands, (1, 0, 0)),), name="d")
        catalog = FeatureCatalog({"blinkscore": FeatureSpec("external", source="blinkscore")})
        table = build_feature_table(ds, catalog)
        assert [table.rows[("m", f"e{i}")]["blinkscore"] for i in range(3)] == [0.9, 0.3, 0.0]

    def test_missing_external_defaults_zero_with_warning(self, toy_dataset, caplog):
        catalog = FeatureCatalog({"blink": FeatureSpec("external", source="blink")})
        with caplog.at_level("WARNING"):
            table = build_feature_table(toy_dataset, catalog)
        assert table.rows[("m1", "James_Cameron")]["blink"] == 0.0
        assert any("blink" in rec.message for rec in caplog.records)

    def test_missing_external_warnings_in_first_seen_order(self, caplog):
        def inst(mid, scores):
            m = Mention(id=mid, surface="s", text_id=mid)
            cands = tuple(CandidateEntity(id=f"e{k}", name="x", external_scores=s) for k, s in enumerate(scores))
            return LabeledInstance(m, cands, (1,) + (0,) * (len(cands) - 1))

        ds = Dataset(instances=(inst("m1", [{"spacy": 0.5}, {"spacy": 0.1}]), inst("m2", [{}, {"blink": 0.2}])))
        catalog = FeatureCatalog({"spacy": FeatureSpec("external", source="spacy"),
                                  "blink": FeatureSpec("external", source="blink")})
        with caplog.at_level("WARNING"):
            build_feature_table(ds, catalog)
        assert [rec.getMessage() for rec in caplog.records] == [
            "feature blink: 3 candidates lacked the source column, used 0.0",
            "feature spacy: 2 candidates lacked the source column, used 0.0",
        ]

    def test_box_without_embeddings_is_error(self, toy_dataset):
        catalog = FeatureCatalog({"box": FeatureSpec("box")})
        with pytest.raises(FeatureError, match="embedding"):
            build_feature_table(toy_dataset, catalog)

    def test_box_spec_ignores_the_cos_column_key_of_older_model_files(self):
        # model files written before the cos column was fixed name it; the key is ignored
        spec = FeatureSpec.from_json({"kind": "box", "cos_column": "cos"})
        assert spec == FeatureSpec("box")
        assert spec.to_json() == {"kind": "box"}

    def test_box_embedding_of_another_dimension_is_error(self):
        # "lone" has no peer, so it scores from cos alone, but its 3-d
        # embedding is still an error
        def inst(mid, text, dims):
            cands = tuple(CandidateEntity(id=f"{mid}{j}", name="n", embedding=(0.5,) * d)
                          for j, d in enumerate(dims))
            return LabeledInstance(Mention(id=mid, surface="s", text_id=text), cands, (1,) + (0,) * (len(dims) - 1))

        ds = Dataset(instances=(inst("a", "t", (2, 2)), inst("b", "t", (2,)), inst("lone", "u", (2, 3))))
        with pytest.raises(FeatureError, match="candidate 'lone1' has a 3-d embedding, not 2-d like the box parameters"):
            build_feature_table(ds, FeatureCatalog({"box": FeatureSpec("box")}))

    def test_repeated_mention_id_is_error(self, toy_dataset):
        # a table keyed on (mention, candidate) would write a CSV that from_csv refuses
        first = toy_dataset.instances[0]
        again = LabeledInstance(first.mention, (CandidateEntity(id="Other", name="x"),), (1,))
        ds = Dataset(instances=(*toy_dataset.instances, again))
        with pytest.raises(FeatureError, match=f"^duplicate mention id {first.mention.id!r}$"):
            build_feature_table(ds, default_catalog().restricted(["jacc"]))

    def test_repeated_candidate_in_a_list_is_error(self):
        cands = tuple(CandidateEntity(id=cid, name="x") for cid in ("e1", "e2", "e1"))
        ds = Dataset(instances=(LabeledInstance(Mention(id="m", surface="s", text_id="t"), cands, (1, 0, 0)),))
        with pytest.raises(FeatureError, match="^mention 'm': duplicate candidate id 'e1'$"):
            build_feature_table(ds, default_catalog().restricted(["jacc"]))

    def test_deterministic_and_pure(self, toy_dataset):
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "ctx", "prom", "type"])
        t1 = build_feature_table(toy_dataset, catalog)
        t2 = build_feature_table(toy_dataset, catalog)
        assert t1.rows == t2.rows
        t3 = build_feature_table(toy_dataset, catalog, jobs=3)
        assert t1.rows == t3.rows

    def test_all_values_in_unit_interval(self, toy_dataset):
        catalog = default_catalog().restricted(["jacc", "lev", "jw", "pr", "ctx", "prom", "type"])
        table = build_feature_table(toy_dataset, catalog)
        for row in table.rows.values():
            for value in row.values():
                assert 0.0 <= value <= 1.0


class TestFeatureTableCsv:
    def test_round_trip_preserves_full_precision(self, toy_dataset, tmp_path):
        catalog = default_catalog().restricted(["jacc", "jw", "prom"])
        table = build_feature_table(toy_dataset, catalog)
        path = tmp_path / "features.csv"
        table.to_csv(path)
        loaded = FeatureTable.from_csv(path)
        assert loaded.feature_names == table.feature_names
        assert loaded.rows == table.rows

    def test_write_features_refuses_rows_out_of_dataset_order(self, toy_dataset, tmp_path):
        table = build_feature_table(toy_dataset, default_catalog().restricted(["jacc", "prom"]))
        swapped = FeatureTable(table.feature_names, table.mention_ids[::-1], table.candidate_ids[::-1],
                               table.matrix[::-1])
        with pytest.raises(FeatureError, match="^feature table rows are not the dataset's pairs in dataset order$"):
            simfeatures.write_features(tmp_path / "features.csv", toy_dataset, swapped)
        assert list(tmp_path.iterdir()) == []

    def test_plain_ids_write_plain_comma_joined_lines(self, toy_dataset, tmp_path):
        table = build_feature_table(toy_dataset, default_catalog().restricted(["jacc", "prom"]))
        path = tmp_path / "features.csv"
        digest = table.to_csv(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        expected = "mention_id,candidate_id,jacc,prom\n" + "".join(
            f"{mid},{cid},{vals['jacc']!r},{vals['prom']!r}\n" for (mid, cid), vals in table.rows.items()
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @given(
        st.lists(
            st.tuples(
                st.text(st.characters(exclude_categories=("Cs",)), max_size=12),
                st.text(st.characters(exclude_categories=("Cs",)), max_size=12),
            ),
            max_size=5,
            unique=True,
        ),
        st.floats(0, 1),
    )
    @settings(max_examples=100)
    def test_any_unicode_id_round_trips(self, tmp_path_factory, keys, value):
        table = FeatureTable(["f"])
        for mid, cid in keys:
            table.add_row(mid, cid, {"f": value})
        path = tmp_path_factory.mktemp("csv") / "features.csv"
        table.to_csv(path)
        assert FeatureTable.from_csv(path).rows == table.rows

    def test_wrong_cell_count_names_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text('mention_id,candidate_id,f\nm1,"a,b",0.5\nm2,c,0.1,0.2\n')
        with pytest.raises(FeatureError, match="line 3: expected 3 cells"):
            FeatureTable.from_csv(path)

    def test_repeated_column_is_a_bad_header(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("mention_id,candidate_id,f,f\nm1,a,1.0,0.5\n")
        with pytest.raises(FeatureError, match="bad feature CSV header"):
            FeatureTable.from_csv(path)

    def test_repeated_row_names_both_lines(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("mention_id,candidate_id,f\nm1,a,1.0\nm1,b,0.5\nm1,a,0.0\n")
        with pytest.raises(FeatureError, match=r"line 4: row \('m1', 'a'\) repeats line 2"):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        path.write_text(f"mention_id,candidate_id,f,g\nm1,a,1.0,0.5\nm1,b,0.5,{cell}\n")
        with pytest.raises(FeatureError, match=rf"features.csv line 3: column 'g' is {cell}, not finite"):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize("cell", ["7.5", "-0.25", "1.0000000000000002", "-1e-300"])
    def test_out_of_range_cell_names_file_line_and_column(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        path.write_text(f"mention_id,candidate_id,f,g\nm1,a,1.0,0.0\nm1,b,0.5,{cell}\n")
        with pytest.raises(FeatureError) as info:
            FeatureTable.from_csv(path)
        assert str(info.value) == f"{path} line 3: column 'g' is {float(cell)!r}, outside [0, 1]"

    @pytest.mark.parametrize("cell", ["abc", "", "1,5", "0x1"])
    def test_non_numeric_cell_names_file_line_and_column(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["mention_id", "candidate_id", "f", "g"], ["m1", "a", "1.0", "0.5"],
                                      ["m1", "b", "0.5", cell]])
        with pytest.raises(FeatureError) as info:
            FeatureTable.from_csv(path)
        assert str(info.value) == f"{path} line 3: column 'g' is {cell!r}, not a number"

    def test_csv_parser_error_is_feature_error(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("mention_id,candidate_id,f\nm1," + "x" * 200_000 + ",0.5\n")
        with pytest.raises(FeatureError, match="line 2: field larger than field limit"):
            FeatureTable.from_csv(path)


# Real knowledge-graph ids: commas, quotes, line breaks, NUL, astral
# characters and lone surrogates (which UTF-8 cannot hold).
_KG_PARTS = [",", '"', "\n", "\r", "\r\n", "a", "é", " ", "\x00", "\U0001F600"]
_KG_IDS = {surrogates: st.lists(st.sampled_from(_KG_PARTS + ["\ud800", "\udfff"] * surrogates), max_size=4).map("".join)
           for surrogates in (False, True)}
_UNIT = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, 1 / 3, 5e-324, 1 - 2**-53]) | st.floats(0, 1)
_CSV_FAULTS = {
    "repeat": None,
    "not-a-number": ["abc", "", "0x1", "1,5"],
    "non-finite": ["nan", "inf", "-inf"],
    "out-of-range": ["1.5", "-0.25", "1.0000000000000002", "-1e-300"],
    "short": None,
    "bad-header": None,
}
_JUNK_CELLS = ["mention_id", "candidate_id", "jacc", "a", "0.5", "", "nan", "2", '"', "x,y", "\n"]


@st.composite
def _codec_case(draw):
    """Feature names, ragged (mention, candidates) lists and each key's
    values, in add_row order; some keys are set twice. Half the cases may
    hold lone surrogates, which no feature CSV can."""
    kg_id = _KG_IDS[draw(st.booleans())]
    names = draw(st.lists(st.sampled_from(["jacc", "prom", "f,g", 'q"t', "é\n"]), min_size=1, max_size=4,
                          unique=True))
    lists = [(mid, draw(st.lists(kg_id, min_size=1, max_size=6, unique=True)))
             for mid in draw(st.lists(kg_id, min_size=1, max_size=5, unique=True))]
    keys = [(mid, cid) for mid, cids in lists for cid in cids]
    keys += draw(st.lists(st.sampled_from(keys), max_size=3))
    return names, lists, [(key, {n: draw(_UNIT) for n in names}) for key in keys]


def _keys(table):
    return list(zip(table.mention_ids, table.candidate_ids))


class TestTableCodec:
    """The matrix table's codec equals the dict-of-rows codec it replaced
    (``table_reference``) byte for byte: CSV bytes and sha256, the table
    ``from_csv`` reads, the sidecar matrix, ``gather_matrix`` rows (against
    the reference's ``gather`` columns) and offsets, and the FeatureError
    that a malformed CSV raises."""

    @staticmethod
    def _tables(names, rows):
        table, reference = FeatureTable(names), table_reference.ReferenceTable(names)
        for (mid, cid), values in rows:
            table.add_row(mid, cid, values)
            reference.add_row(mid, cid, values)
        return table, reference

    @staticmethod
    def _instances(lists):
        return tuple(LabeledInstance(Mention(mid, "s", "t"), tuple(CandidateEntity(cid, "n") for cid in cids),
                                     (1,) + (0,) * (len(cids) - 1)) for mid, cids in lists)

    @given(_codec_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matrix_codec_equals_reference(self, tmp_path_factory, case, data):
        names, lists, rows = case
        table, reference = self._tables(names, rows)
        assert _keys(table) == list(reference.rows)
        work = tmp_path_factory.mktemp("codec")
        written = outcome(table.to_csv, work / "t.csv")
        assert written == outcome(reference.to_csv, work / "r.csv")
        if isinstance(written, str):
            assert (work / "t.csv").read_bytes() == (work / "r.csv").read_bytes()
            assert written == hashlib.sha256((work / "t.csv").read_bytes()).hexdigest()
            loaded = FeatureTable.from_csv(work / "t.csv")
            expected = table_reference.ReferenceTable.from_csv(work / "r.csv")
            assert (loaded.feature_names, _keys(loaded)) == (expected.feature_names, list(expected.rows))
            assert loaded.matrix.tobytes() == np.array([list(r.values()) for r in expected.rows.values()]).tobytes()

            data_path = work / "data.jsonl"
            data_path.write_bytes(b"{}\n")
            report = LoadReport(len(lists), len(lists), sha256=hashlib.sha256(b"{}\n").hexdigest())
            ds = Dataset(self._instances(lists), report=report)
            simfeatures.write_features(work / "t.csv", ds, table)
            block = simfeatures.read_sidecar(work / "t.csv", data_path, names)
            assert block.table.matrix.tobytes() == table_reference.sidecar_matrix(ds, reference).tobytes()
            assert _keys(block.table) == _keys(table)

        order = data.draw(st.lists(st.sampled_from(self._instances(lists)), max_size=6))
        if data.draw(st.booleans()):
            order.append(LabeledInstance(Mention(lists[0][0], "s", "t"), (CandidateEntity("absent", "n"),), (1,)))
        wanted = data.draw(st.lists(st.sampled_from(names + ["absent"]), max_size=5))
        got, want = outcome(table.gather_matrix, order, wanted), outcome(reference.gather, order, wanted)
        if isinstance(want, tuple) and isinstance(want[0], dict):
            # one matrix row per requested name, in the order asked, repeats included
            assert got[1] == want[1]
            assert [row.tobytes() for row in got[0]] == [want[0][name].tobytes() for name in wanted]
        else:
            assert got == want

    @given(_codec_case(), st.lists(st.tuples(st.sampled_from(sorted(_CSV_FAULTS)), st.data()), min_size=1,
                                   max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_malformed_csv_raises_as_reference(self, tmp_path_factory, case, faults):
        names, _, rows = case
        _, reference = self._tables(names, rows)
        header = ["mention_id", "candidate_id"] + names
        lines = [[mid, cid] + [repr(v) for v in values.values()] for (mid, cid), values in reference.rows.items()]
        for fault, data in faults:
            at = data.draw(st.integers(0, len(lines) - 1))
            if fault == "repeat":
                lines.insert(data.draw(st.integers(at + 1, len(lines))), list(lines[at]))
            elif fault == "short":
                lines[at] = lines[at][:-1]
            elif fault == "bad-header":
                header = data.draw(st.sampled_from([header + [names[0]], ["mention"] + header[1:], []]))
            elif len(lines[at]) > 2:  # a value cell, unless a short row lost them all
                lines[at][data.draw(st.integers(2, len(lines[at]) - 1))] = data.draw(
                    st.sampled_from(_CSV_FAULTS[fault]))
        path = tmp_path_factory.mktemp("faults") / "f.csv"
        with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + lines if header else lines)
        self._assert_reads_as_reference(path)

    @given(_codec_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_line_or_byte_raises_as_reference(self, tmp_path_factory, case, data):
        """One line of the CSV dropped, repeated, blanked or replaced, or one
        byte replaced, inserted or deleted."""
        names, _, rows = case
        _, reference = self._tables(names, rows)
        lines = [["mention_id", "candidate_id"] + names]
        lines += [[mid, cid] + [repr(v) for v in values.values()] for (mid, cid), values in reference.rows.items()]
        by_line = data.draw(st.booleans())
        if by_line:
            lines = mutate_line(lines, data, st.lists(st.sampled_from(_JUNK_CELLS), max_size=len(names) + 3))
        text = io.StringIO(newline="")
        csv.writer(text, lineterminator="\n").writerows(lines)
        raw = text.getvalue().encode("utf-8", "surrogatepass")
        path = tmp_path_factory.mktemp("mutated") / "f.csv"
        path.write_bytes(raw if by_line else mutate_byte(raw, data))
        self._assert_reads_as_reference(path)

    def test_csv_left_valid_by_faults_reads_as_reference(self, tmp_path):
        # Two "short" faults on the row ("\r", "") leave the lone cell "\r", which
        # csv.writer does not quote: a valid CSV of a header and a blank line.
        path = tmp_path / "f.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["mention_id", "candidate_id", "jacc"], ["\r"]])
        assert path.read_bytes() == b"mention_id,candidate_id,jacc\n\r\n"
        self._assert_reads_as_reference(path)

    @staticmethod
    def _assert_reads_as_reference(path):
        """``from_csv`` reads the same table as the reference or raises its
        error, as a FeatureError."""
        got, want = outcome(FeatureTable.from_csv, path), outcome(table_reference.ReferenceTable.from_csv, path)
        if not isinstance(want, tuple):  # the faults left a valid CSV
            assert isinstance(got, FeatureTable)
            assert (got.feature_names, _keys(got)) == (want.feature_names, list(want.rows))
            assert got.matrix.tobytes() == np.array([list(r.values()) for r in want.rows.values()]).tobytes()
            return
        if want[0] is UnicodeDecodeError:  # the reference let it escape; it names the first bad byte's line
            raw = path.read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len(re.findall(rb"\r\n|\r|\n", raw[: exc.start])) + 1
                want = (FeatureError, f"{path} line {line}: not UTF-8 ({exc.reason})")
        assert got == want
        assert isinstance(got, tuple) and got[0] is FeatureError
