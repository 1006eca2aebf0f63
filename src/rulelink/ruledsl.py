"""Rule DSL: parsing, pretty-printing, templates, and graph compilation.

Grammar (``.elr`` files, ``#`` comments)::

    program   := rule+
    rule      := "rule" IDENT "=" expr ";"
    expr      := term ("|" term)*
    term      := factor ("&" factor)*
    factor    := "!"? (IDENT threshold? | "(" expr ")")
    threshold := "?" | ">" NUMBER

Precedence: ``!`` binds tighter than ``&``, which binds tighter than ``|``.
Identifiers starting with an uppercase letter are rule references (defined
earlier in the program, inlined at compile time); lowercase identifiers are
catalog features. ``f?`` marks a learnable threshold, ``f > 0.4`` a fixed
one, and a bare ``f`` feeds the raw value through.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CompileError, ParseError
from .logic import (
    AndNode,
    GateParams,
    NotNode,
    OrNode,
    RawLeaf,
    ScoringGraph,
    ThresholdLeaf,
    ThresholdParams,
)
from .simfeatures import FeatureCatalog, default_catalog

# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Pred:
    name: str
    thresholded: bool = False
    fixed: float | None = None


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class RuleRef:
    name: str


@dataclass(frozen=True)
class RuleAST:
    name: str
    body: object
    line: int = field(default=0, compare=False)


# --- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<sym>[=;|&!()>?])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], known_rules: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.known_rules = known_rules

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, expected: str):
        tok = self.current
        found = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected {expected}, found {found!r}", tok.line, tok.column)

    def _accept(self, text: str) -> bool:
        if self.current.kind == "sym" and self.current.text == text:
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> _Token:
        if not (self.current.kind == "sym" and self.current.text == text):
            self._fail(f"{text!r}")
        tok = self.current
        self.pos += 1
        return tok

    def _expect_ident(self, what: str) -> _Token:
        if self.current.kind != "ident":
            self._fail(what)
        tok = self.current
        self.pos += 1
        return tok

    def parse_program(self) -> list[RuleAST]:
        rules: list[RuleAST] = []
        if self.current.kind == "eof":
            self._fail("'rule'")
        while self.current.kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> RuleAST:
        kw = self._expect_ident("'rule'")
        if kw.text != "rule":
            raise ParseError(f"expected 'rule', found {kw.text!r}", kw.line, kw.column)
        name_tok = self._expect_ident("rule name")
        if not name_tok.text[0].isupper():
            raise ParseError(
                f"rule names start with an uppercase letter, got {name_tok.text!r}",
                name_tok.line,
                name_tok.column,
            )
        if name_tok.text in self.known_rules:
            raise ParseError(f"rule {name_tok.text!r} defined twice", name_tok.line, name_tok.column)
        self._expect("=")
        body = self.parse_expr()
        self._expect(";")
        self.known_rules.add(name_tok.text)
        return RuleAST(name=name_tok.text, body=body, line=name_tok.line)

    def parse_expr(self):
        terms = [self.parse_term()]
        while self._accept("|"):
            terms.append(self.parse_term())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self._accept("&"):
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else And(tuple(factors))

    def parse_factor(self):
        if self._accept("!"):
            return Not(self.parse_factor())
        if self._accept("("):
            inner = self.parse_expr()
            self._expect(")")
            return inner
        tok = self._expect_ident("a feature, rule name, or '('")
        if tok.text == "rule":
            raise ParseError("'rule' keyword inside an expression", tok.line, tok.column)
        if tok.text[0].isupper():
            if self.current.kind == "sym" and self.current.text in ("?", ">"):
                raise ParseError(
                    f"rule reference {tok.text!r} cannot take a threshold", tok.line, tok.column
                )
            if tok.text not in self.known_rules:
                raise ParseError(f"undefined rule {tok.text!r}", tok.line, tok.column)
            return RuleRef(tok.text)
        if self._accept("?"):
            return Pred(tok.text, thresholded=True)
        if self.current.kind == "sym" and self.current.text == ">":
            self.pos += 1
            num = self.current
            if num.kind != "number":
                self._fail("a number after '>'")
            self.pos += 1
            return Pred(tok.text, thresholded=True, fixed=float(num.text))
        return Pred(tok.text)


def parse(text: str) -> list[RuleAST]:
    """Parse a DSL program into rule ASTs.

    Rule references must name an already-defined rule; feature predicates
    (lowercase) are checked later against the catalog at compile time.
    """
    return _Parser(_tokenize(text), set()).parse_program()


def _children(expr):
    if isinstance(expr, (And, Or)):
        return expr.children
    if isinstance(expr, Not):
        return (expr.child,)
    return ()


# --- formatting ----------------------------------------------------------

_PREC = {Or: 1, And: 2, Not: 3}


def _fmt(expr, required: int) -> str:
    if isinstance(expr, Pred):
        if expr.fixed is not None:
            return f"{expr.name} > {expr.fixed!r}"
        return f"{expr.name}?" if expr.thresholded else expr.name
    if isinstance(expr, RuleRef):
        return expr.name
    if isinstance(expr, Not):
        return "!" + _fmt(expr.child, _PREC[Not])
    sep = " | " if isinstance(expr, Or) else " & "
    prec = _PREC[type(expr)]
    # children of equal precedence are parenthesized so nested same-op
    # nodes (from inlined rule refs) survive the round trip un-flattened
    text = sep.join(_fmt(c, prec + 1) for c in expr.children)
    return f"({text})" if prec < required else text


def format_expr(expr) -> str:
    return _fmt(expr, 0)


def format(ast: RuleAST) -> str:
    """Canonical one-line form; ``parse(format(x))`` is structurally x."""
    return f"rule {ast.name} = {format_expr(ast.body)};"


def format_program(rules: list[RuleAST]) -> str:
    return "\n".join(format(r) for r in rules) + "\n"


# --- compilation ----------------------------------------------------------


def _inline(expr, defs: dict[str, RuleAST], stack: tuple[str, ...]):
    if isinstance(expr, RuleRef):
        if expr.name in stack:
            raise CompileError(f"cyclic rule reference through {expr.name!r}")
        if expr.name not in defs:
            raise CompileError(f"undefined rule {expr.name!r}")
        return _inline(defs[expr.name].body, defs, stack + (expr.name,))
    if isinstance(expr, Not):
        return Not(_inline(expr.child, defs, stack))
    if isinstance(expr, And):
        return And(tuple(_inline(c, defs, stack) for c in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(_inline(c, defs, stack) for c in expr.children))
    return expr


def inline_rule(name: str, rules: list[RuleAST]) -> RuleAST:
    """Resolve every reference inside ``name``, returning a self-contained AST."""
    defs = {r.name: r for r in rules}
    if name not in defs:
        raise CompileError(f"undefined rule {name!r}")
    return RuleAST(name=name, body=_inline(defs[name].body, defs, (name,)), line=defs[name].line)


def find_root(rules: list[RuleAST]) -> RuleAST:
    """The unique rule no other rule references."""
    referenced: set[str] = set()

    def walk(expr):
        if isinstance(expr, RuleRef):
            referenced.add(expr.name)
        for c in _children(expr):
            walk(c)

    for rule in rules:
        walk(rule.body)
    roots = [r for r in rules if r.name not in referenced]
    if len(roots) != 1:
        names = ", ".join(r.name for r in roots) or "none"
        raise CompileError(f"expected exactly one root rule, found: {names}")
    return roots[0]


@dataclass
class ManualWeights:
    """Hand-assigned rule and feature weights for the no-learning scorer."""

    rule_weights: list[float]
    feature_weights: list[float]


def _take(weights: list[float], k: int, default: float) -> np.ndarray:
    """The next ``k`` of ``weights``, consumed, then ``default`` past the end."""
    taken = weights[:k]
    del weights[:k]
    return np.asarray(taken + [default] * (k - len(taken)), dtype=float)


def compile(
    asts: list[RuleAST],
    catalog: FeatureCatalog,
    mode: str = "lnn",
    alpha: float = 0.7,
    manual: ManualWeights | None = None,
) -> ScoringGraph:
    """Compile rules into a scoring graph with fresh parameters.

    References are inlined, so two compilations of the same text never share
    parameter storage. The root is the single rule nothing else references.
    """
    root_rule = find_root(asts)
    inlined = inline_rule(root_rule.name, asts)
    # Fixed weights go to gates in preorder: rule weights to | gates, feature weights to & gates.
    rule_weights = list(manual.rule_weights) if manual else []
    feature_weights = list(manual.feature_weights) if manual else []

    def build(expr, rule_name: str):
        if isinstance(expr, Pred):
            if expr.name not in catalog:
                raise CompileError(
                    f"predicate {expr.name!r} in rule {rule_name!r} not in catalog"
                )
            if not expr.thresholded:
                return RawLeaf(expr.name)
            if expr.fixed is not None:
                return ThresholdLeaf(expr.name, fixed_theta=expr.fixed)
            return ThresholdLeaf(expr.name, params=ThresholdParams(0.0))
        if isinstance(expr, Not):
            return NotNode(build(expr.child, rule_name))
        if isinstance(expr, (And, Or)):
            k = len(expr.children)
            weights = None
            if mode == "manual":
                weights = (_take(rule_weights, k, 1.0 / k) if isinstance(expr, Or)
                           else _take(feature_weights, k, 1.0))
            # children build after weight draw keeps preorder assignment
            node_cls = OrNode if isinstance(expr, Or) else AndNode
            children = [build(c, rule_name) for c in expr.children]
            return node_cls(children, gate=GateParams(k), manual_weights=weights)
        raise CompileError(f"cannot compile node {expr!r}")  # pragma: no cover

    return ScoringGraph(build(inlined.body, inlined.name), alpha=alpha, mode=mode)


def rule_catalog(rules: list[RuleAST], box_params=None) -> FeatureCatalog:
    """The default catalog restricted to the features the root of ``rules``
    reads, in first-occurrence order."""
    return default_catalog(box_params).restricted(ast_leaves(find_root(rules), rules))


def ast_leaves(ast: RuleAST, rules: list[RuleAST] | None = None) -> list[str]:
    """Feature names used by a rule, first-occurrence order, refs inlined."""
    body = _inline(ast.body, {r.name: r for r in (rules or [])}, (ast.name,))
    seen: list[str] = []

    def walk(expr):
        if isinstance(expr, Pred):
            if expr.name not in seen:
                seen.append(expr.name)
        for c in _children(expr):
            walk(c)

    walk(body)
    return seen


# --- built-in templates ----------------------------------------------------

# The name-similarity disjunction shared by every template, conjoined or
# disjoined with one extra signal per rule. Note the asymmetry: the blink
# rule conjoins its raw signal while box/bert disjoin a thresholded one.
_BUILTIN_SOURCE = """
rule NameSim = jacc? | lev? | jw? | spacy?;
rule Name    = NameSim & prom;
rule Context = NameSim & ctx? & prom;
rule Type    = NameSim & type? & prom;
rule Blink   = NameSim & blink;
rule Box     = NameSim | box?;
rule Bert    = NameSim | bert?;
rule LnnEl      = Name | Context | Type;
rule LnnElBlink = LnnEl | Blink;
rule LnnElEns   = LnnEl | Blink | Box;
"""

_TEMPLATE_NAMES = {
    "Name": "Name",
    "Context": "Context",
    "Type": "Type",
    "Blink": "Blink",
    "Box": "Box",
    "Bert": "Bert",
    "LNN-EL": "LnnEl",
    "LNN-EL+BLINK": "LnnElBlink",
    "LNN-EL_ens": "LnnElEns",
}


@dataclass(frozen=True)
class TemplateLibrary:
    templates: dict[str, RuleAST]

    def __getitem__(self, name: str) -> RuleAST:
        if name not in self.templates:
            raise KeyError(f"no template {name!r}; known: {', '.join(self.templates)}")
        return self.templates[name]

    def names(self) -> list[str]:
        return list(self.templates)


def builtin_templates() -> TemplateLibrary:
    """The built-in rule library; every entry is self-contained (no refs)."""
    rules = parse(_BUILTIN_SOURCE)
    return TemplateLibrary(
        {display: inline_rule(internal, rules) for display, internal in _TEMPLATE_NAMES.items()}
    )


def compose_with_external(base: RuleAST, column: str, thresholded: bool = False) -> RuleAST:
    """Extend a template with an extra score column.

    Follows the blink-rule pattern: the new disjunct conjoins the shared
    name-similarity block with the raw (or thresholded) extra signal.
    """
    name_sim = next(r.body for r in parse(_BUILTIN_SOURCE) if r.name == "NameSim")
    extra = And((name_sim, Pred(column, thresholded=thresholded)))
    return RuleAST(name=f"{base.name}_plus_{column}", body=Or((base.body, extra)), line=base.line)


def disjoin(name: str, templates: list[RuleAST]) -> RuleAST:
    """Combine templates into one rule: their bodies disjoined in order."""
    if not templates:
        raise CompileError("cannot disjoin an empty template list")
    if len(templates) == 1:
        return RuleAST(name=name, body=templates[0].body, line=templates[0].line)
    return RuleAST(name=name, body=Or(tuple(t.body for t in templates)), line=templates[0].line)
