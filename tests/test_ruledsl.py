import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutate_byte, mutate_line, outcome

from rulelink.errors import CompileError, ParseError
from rulelink.cli import run
from rulelink.corpus import save_dataset
from rulelink.estimator import RuleLinker
from rulelink.logic import AndNode, OrNode, RawLeaf, ThresholdLeaf
from rulelink.ruledsl import (
    And,
    Not,
    Or,
    Pred,
    RuleAST,
    RuleRef,
    ast_leaves,
    builtin_templates,
    compile,
    compose_with_external,
    disjoin,
    find_root,
    format,
    format_expr,
    format_program,
    parse,
    rule_catalog,
)
from rulelink.logic import ScoringGraph
from rulelink.ruledsl import _BUILTIN_SOURCE
from rulelink.simfeatures import default_catalog
from synthgen import generate_dataset


class TestParse:
    def test_smallest_conjunction(self):
        rules = parse("rule R1 = jacc? & ctx?;")
        assert rules[0].body == And((Pred("jacc", True), Pred("ctx", True)))

    def test_name_template_shape(self):
        rules = parse("rule Name = (jacc? | lev? | jw? | spacy?) & prom;")
        body = rules[0].body
        assert isinstance(body, And)
        inner, prom = body.children
        assert isinstance(inner, Or) and len(inner.children) == 4
        assert all(p.thresholded for p in inner.children)
        assert prom == Pred("prom", False)

    def test_undefined_rule_reference(self):
        with pytest.raises(ParseError, match="undefined rule 'B'"):
            parse("rule A = B;")

    def test_fixed_threshold(self):
        rules = parse("rule R = jacc > 0.4;")
        assert rules[0].body == Pred("jacc", True, 0.4)

    def test_reports_line_and_column(self):
        with pytest.raises(ParseError, match="line 2, column 13"):
            parse("rule A = x;\nrule B = y &;")

    def test_comments_and_whitespace(self):
        rules = parse("# header\nrule A = x  # trailing\n  | y;\n")
        assert rules[0].body == Or((Pred("x"), Pred("y")))

    def test_duplicate_rule_name(self):
        with pytest.raises(ParseError, match="defined twice"):
            parse("rule A = x; rule A = y;")

    def test_lowercase_rule_name_rejected(self):
        with pytest.raises(ParseError, match="uppercase"):
            parse("rule links = x;")

    def test_negation_precedence(self):
        rules = parse("rule A = !x & y;")
        assert rules[0].body == And((Not(Pred("x")), Pred("y")))

    def test_empty_program(self):
        with pytest.raises(ParseError):
            parse("   # nothing\n")

    @pytest.mark.parametrize("body", ["(" * 5000 + "jacc" + ")" * 5000, "!" * 5000 + "jacc"])
    def test_nesting_too_deep_is_a_parse_error_at_the_token_reached(self, body):
        # a RecursionError escaped before; the column is the token the parser reached
        with pytest.raises(ParseError, match=r"^expression nested too deeply at line 2, column \d+$") as info:
            parse("rule A = jacc?;\nrule B = " + body + ";")
        assert 10 < info.value.column < 5000 and info.value.line == 2

    @pytest.mark.parametrize("body", ["(" * 200 + "jacc" + ")" * 200, "!" * 600 + "jacc"])
    def test_deep_rules_the_parser_reaches_still_parse_and_compile(self, body):
        rules = parse(f"rule A = {body};")
        assert ast_leaves(rules[0]) == ["jacc"]
        assert compile(rules, default_catalog()).feature_names == ["jacc"]


class TestFormat:
    def test_single_pred(self):
        assert format_expr(Pred("jacc", True)) == "jacc?"
        assert format_expr(Pred("prom")) == "prom"

    def test_nested_not(self):
        assert format_expr(Not(Pred("jacc", True))) == "!jacc?"
        assert format_expr(Not(And((Pred("a"), Pred("b"))))) == "!(a & b)"

    def test_round_trip_builtins(self):
        library = builtin_templates()
        for name in library.names():
            ast = library[name]
            text = format(ast)
            assert parse(text)[0].body == ast.body

    def test_round_trip_program(self):
        text = "rule A = x? & !y;\nrule B = A | z > 0.25;\n"
        rules = parse(text)
        assert format_program(rules) == text


def _random_expr(rng, depth):
    kind = rng.integers(0, 6)
    names = ["jacc", "lev", "jw", "ctx", "prom", "spacy"]
    if depth <= 0 or kind in (0, 1):
        name = names[rng.integers(0, len(names))]
        roll = rng.integers(0, 3)
        if roll == 0:
            return Pred(name)
        if roll == 1:
            return Pred(name, True)
        return Pred(name, True, float(np.round(rng.uniform(0.05, 0.95), 3)))
    if kind == 2:
        return Not(_random_expr(rng, depth - 1))
    cls = And if kind in (3, 4) else Or
    arity = int(rng.integers(2, 5))
    return cls(tuple(_random_expr(rng, depth - 1) for _ in range(arity)))


class TestFuzzedRoundTrip:
    def test_thousand_random_asts(self):
        rng = np.random.default_rng(42)
        for i in range(1000):
            ast = RuleAST(name="Fuzz", body=_random_expr(rng, 4))
            text = format(ast)
            reparsed = parse(text)
            assert reparsed[0].body == ast.body, text
            # idempotence: parse . format . parse == parse
            assert parse(format(reparsed[0]))[0].body == reparsed[0].body


def _count_ops(expr):
    if isinstance(expr, (And, Or)):
        return 1 + sum(_count_ops(c) for c in expr.children)
    if isinstance(expr, Not):
        return 1 + _count_ops(expr.child)
    return 0


def _leaf_multiset(expr):
    if isinstance(expr, Pred):
        return [(expr.name, expr.thresholded)]
    out = []
    if isinstance(expr, Not):
        return _leaf_multiset(expr.child)
    for c in expr.children:
        out.extend(_leaf_multiset(c))
    return out


def _graph_ops(node):
    if isinstance(node, (AndNode, OrNode)):
        return 1 + sum(_graph_ops(c) for c in node.children)
    if node.children:
        return 1 + sum(_graph_ops(c) for c in node.children)
    return 0


def _graph_leaves(node):
    if isinstance(node, ThresholdLeaf):
        return [(node.feature, True)]
    if isinstance(node, RawLeaf):
        return [(node.feature, False)]
    out = []
    for c in node.children:
        out.extend(_graph_leaves(c))
    return out


class TestCompile:
    def test_two_rule_graph_matches_displayed_composition(self):
        text = (
            "rule R1 = jacc? & ctx?;\n"
            "rule R2 = lev? & prom?;\n"
            "rule Links = R1 | R2;\n"
        )
        graph = compile(parse(text), default_catalog())
        root = graph.root
        assert isinstance(root, OrNode) and len(root.children) == 2
        for child in root.children:
            assert isinstance(child, AndNode)
            assert all(isinstance(leaf, ThresholdLeaf) for leaf in child.children)
        assert graph.feature_names == ["jacc", "ctx", "lev", "prom"]

    def test_lnn_el_is_or_over_three_rules(self):
        library = builtin_templates()
        graph = compile([library["LNN-EL"]], default_catalog())
        assert isinstance(graph.root, OrNode)
        assert len(graph.root.children) == 3
        assert all(isinstance(c, AndNode) for c in graph.root.children)

    def test_every_builtin_compiles(self):
        library = builtin_templates()
        catalog = default_catalog()
        for name in library.names():
            graph = compile([library[name]], catalog)
            assert graph.root is not None

    def test_ensemble_contains_blink_and_box(self):
        library = builtin_templates()
        ens = library["LNN-EL_ens"]
        assert isinstance(ens.body, Or) and len(ens.body.children) == 3
        leaves = ast_leaves(ens)
        assert "blink" in leaves and "box" in leaves

    def test_blink_rule_conjoins_raw_blink(self):
        blink = builtin_templates()["Blink"]
        assert isinstance(blink.body, And)
        assert blink.body.children[-1] == Pred("blink", False)

    def test_box_rule_disjoins_thresholded_box(self):
        box = builtin_templates()["Box"]
        assert isinstance(box.body, Or)
        assert box.body.children[-1] == Pred("box", True)

    def test_unresolved_feature_names_rule_and_predicate(self):
        with pytest.raises(CompileError, match="'mystery' in rule 'A'"):
            compile(parse("rule A = mystery?;"), default_catalog())

    def test_cyclic_reference_detected(self):
        a = RuleAST(name="A", body=RuleRef("B"))
        b = RuleAST(name="B", body=RuleRef("A"))
        root = RuleAST(name="Root", body=Or((RuleRef("A"), Pred("jacc"))))
        with pytest.raises(CompileError, match="cyclic"):
            compile([a, b, root], default_catalog())

    @staticmethod
    def _doubling(lines: int) -> str:
        """Rules A0..A<lines>, each the conjunction of the one before with
        itself: A<n> inlines to 2**(n+1) - 1 nodes."""
        return "rule A0 = jacc?;\n" + "".join(f"rule A{i} = A{i - 1} & A{i - 1};\n" for i in range(1, lines + 1))

    @pytest.mark.parametrize("lines", [16, 40])
    def test_rule_past_the_size_bound_is_a_compile_error_naming_it(self, toy_dataset, lines):
        # each line doubles the inlined size: this once took seconds at 16 lines, and never ended at 30
        rules = parse(self._doubling(lines))
        message = f"rule 'A{lines}' inlines to {2 ** (lines + 1) - 1} nodes, more than 10000"
        for fn in (lambda: rule_catalog(rules), lambda: compile(rules, default_catalog()),
                   lambda: ast_leaves(rules[-1], rules), lambda: RuleLinker(rules=self._doubling(lines)).fit(toy_dataset)):
            with pytest.raises(CompileError) as info:
                fn()
            assert str(info.value) == message

    def test_rule_within_the_size_bound_compiles(self):
        rules = parse(self._doubling(12))  # 8,191 nodes
        assert compile(rules, rule_catalog(rules)).feature_names == ["jacc"]

    def test_root_detection(self):
        text = "rule A = jacc?;\nrule B = A | lev?;\n"
        rules = parse(text)
        assert find_root(rules).name == "B"
        two_roots = parse("rule A = jacc?;\nrule B = lev?;")
        with pytest.raises(CompileError, match="exactly one root"):
            compile(two_roots, default_catalog())

    def test_structure_preserving(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ast = RuleAST(name="Fuzz", body=_random_expr(rng, 3))
            graph = compile([ast], default_catalog())
            assert _count_ops(ast.body) == _graph_ops(graph.root) or isinstance(
                graph.root, (ThresholdLeaf, RawLeaf)
            )
            assert sorted(_leaf_multiset(ast.body)) == sorted(_graph_leaves(graph.root))

    def test_fresh_parameters_never_alias(self):
        library = builtin_templates()
        g1 = compile([library["Name"]], default_catalog())
        g2 = compile([library["Name"]], default_catalog())
        p1, p2 = g1.parameters(), g2.parameters()
        assert p1.keys() == p2.keys()
        for key in p1:
            assert p1[key] is not p2[key]
        p1["n0.beta"][()] = 9.0
        assert float(p2["n0.beta"]) == 1.0

    def test_manual_mode_carries_fixed_weights(self):
        # Gates draw in preorder, | gates from the rule weights and & gates from
        # the feature weights; past the end of its list a gate gets 1/k or 1.0.
        from rulelink.ruledsl import ManualWeights

        text = "rule R1 = jacc & (ctx | type);\nrule R2 = lev & prom;\nrule Links = R1 | R2;\n"
        exact = [[0.4, 0.6], [0.9, 0.8], [0.3, 0.7], [0.7, 0.6]]
        cases = [
            ([0.4, 0.6, 0.3, 0.7], [0.9, 0.8, 0.7, 0.6], exact),
            ([0.4, 0.6, 0.3, 0.7, 0.2], [0.9, 0.8, 0.7, 0.6, 0.5], exact),
            ([0.4, 0.6, 0.3], [0.9], [[0.4, 0.6], [0.9, 1.0], [0.3, 0.5], [1.0, 1.0]]),
            ([], [], [[0.5, 0.5], [1.0, 1.0], [0.5, 0.5], [1.0, 1.0]]),
        ]
        for rule_weights, feature_weights, expected in cases:
            manual = ManualWeights(rule_weights=rule_weights, feature_weights=feature_weights)
            graph = compile(parse(text), default_catalog(), mode="manual", manual=manual)
            r1, r2 = graph.root.children
            assert [gate.manual_weights.tolist() for gate in (graph.root, r1, r1.children[1], r2)] == expected
            assert graph.parameters() == {}

    @pytest.mark.parametrize(
        "rules",
        [[builtin_templates()[name]] for name in builtin_templates().names()]
        + [parse("rule N = jw? | lev?;\nrule Top = N & prom & N;\n")],
        ids=builtin_templates().names() + ["references"],
    )
    def test_rule_catalog_is_default_catalog_restricted_to_root_leaves(self, rules):
        from rulelink.boxgeom import BoxParams

        for box_params in (None, BoxParams.default(3)):
            want = default_catalog(box_params).restricted(ast_leaves(find_root(rules), rules))
            got = rule_catalog(rules, box_params)
            assert (got.names(), got.to_json()) == (want.names(), want.to_json())

    def test_fixed_threshold_not_learnable(self):
        graph = compile(parse("rule R = jacc > 0.4;"), default_catalog())
        assert graph.parameters() == {}
        assert graph.root.theta == 0.4


class TestCompositionHelpers:
    def test_compose_with_external_matches_blink_pattern(self):
        library = builtin_templates()
        composed = compose_with_external(library["LNN-EL"], "blink")
        assert composed.body == library["LNN-EL+BLINK"].body

    def test_unknown_template_is_a_key_error_shown_as_its_message(self):
        library = builtin_templates()
        with pytest.raises(KeyError) as info:
            library["Nope"]
        assert isinstance(info.value, CompileError)
        assert str(info.value) == f"no template 'Nope'; known: {', '.join(library.names())}"

    def test_disjoin_singleton_is_identity(self):
        library = builtin_templates()
        alone = disjoin("Solo", [library["Name"]])
        assert alone.body == library["Name"].body

    def test_disjoin_pair(self):
        library = builtin_templates()
        pair = disjoin("Pair", [library["Name"], library["Context"]])
        assert isinstance(pair.body, Or)
        assert pair.body.children[0] == library["Name"].body


# The built-in rules with one root over every template, so the unmutated
# program compiles and featurizes.
_PROGRAM = _BUILTIN_SOURCE + "rule All = LnnElBlink | LnnElEns | Bert;\n"
_JUNK_RULES = st.sampled_from([
    "rule", "rule X = ;", "rule Name = Name;", "rule Y = Nope;", "rule Z = jacc > 2;", "rule Q = nope?;",
    "rule W = ((jacc?);", "rule V = !!!jacc;", "rule U = jacc? | ;", "rule T = 1e999;", "rule S = jacc > .5;",
]) | st.text(max_size=10)


@pytest.fixture(scope="module")
def rule_inputs(tmp_path_factory):
    """A dataset and 2-d embeddings for every candidate, for featurize."""
    work = tmp_path_factory.mktemp("rule_inputs")
    ds = generate_dataset(4, n_candidates=3, seed=5)
    save_dataset(ds, work / "data.jsonl")
    rng = np.random.default_rng(0)
    ids = sorted({c.id for inst in ds.instances for c in inst.candidates})
    (work / "emb.jsonl").write_text("".join(json.dumps({"id": c, "vec": rng.normal(size=2).tolist()}) + "\n"
                                            for c in ids))
    return work


class TestFuzzedRuleFile:
    """One line or byte of the built-in rule program mutated: the library
    compiles it or raises only ParseError or CompileError, and CLI
    featurize exits 0, or 1 with one ``rulelink:`` line (a byte that is not
    UTF-8 is a usage error)."""

    def test_unmutated_program_featurizes(self, rule_inputs, capsys):
        assert self._featurize(rule_inputs, _PROGRAM.encode(), capsys) == 0

    @staticmethod
    def _featurize(work, raw: bytes, capsys) -> int:
        (work / "rules.elr").write_bytes(raw)
        capsys.readouterr()
        code = run(["featurize", "--data", str(work / "data.jsonl"), "--rules", str(work / "rules.elr"),
                    "--embeddings", str(work / "emb.jsonl"), "--out", str(work / "f.csv")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("rulelink: ")
            assert [line for line in err.splitlines() if line.startswith("rulelink")] == [err.splitlines()[0]]
        return code

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_program_raises_only_dsl_errors(self, rule_inputs, capsys, data):
        if data.draw(st.booleans()):
            raw = "".join(line + "\n" for line in mutate_line(_PROGRAM.splitlines(), data, _JUNK_RULES)).encode()
        else:
            raw = mutate_byte(_PROGRAM.encode(), data)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None:
            got = outcome(lambda: compile(parse(text), rule_catalog(parse(text))))
            assert isinstance(got, ScoringGraph) or issubclass(got[0], (ParseError, CompileError)), got
        code = self._featurize(rule_inputs, raw, capsys)
        assert code in (0, 1)
        if text is None:
            assert code == 1
