"""Concrete syntax for knowledge bases and queries (the ``.dkb`` format).

One axiom per line: ``concept [= concept`` for strict inclusions and
``concept ~[= concept`` for defeasible ones.  ``#`` starts a comment and
blank lines are ignored.  Concepts use an ASCII grammar mirroring the usual
DL precedence (``!`` > quantifier > ``&`` > ``|``):

    concept := disj
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '!' unary | 'exists' ROLE '.' unary | 'forall' ROLE '.' unary
             | 'top' | 'bot' | ATOM | '(' concept ')'

ATOM and ROLE are ``[A-Za-z][A-Za-z0-9_]*``; ``top``, ``bot``, ``exists``
and ``forall`` are reserved.  Quantifier fillers bind at unary precedence,
so ``exists r.A & B`` parses as ``(exists r.A) & B``.

The input is read a line at a time (lines end at ``\\n``; a column is an
offset in the line plus one), and every line is tokenised, into plain
``(kind, text, column)`` tuples, before any is parsed.  So of several errors
the one reported is the first ``@`` directive opening a line (documents
only), else the first stray character, else the first syntax error.
``parse_kb`` reads an axiom from each non-blank line; ``parse_query`` and
``parse_concept`` read one axiom or concept, and report anything after it,
on its line or a later one.  A ``SourceSpan`` is built only where an axiom
starts and for an error.
"""

from __future__ import annotations

import re

from .concepts import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Axiom,
    Bottom,
    Concept,
    DCI,
    Exists,
    Forall,
    GCI,
    KnowledgeBase,
    Not,
    Or,
    Top,
    _Value,
    conjoin,
)

RESERVED = {"top", "bot", "exists", "forall"}

# Blanks, then a name, an operator, a stray character, or the end of the line.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>~?\[=|[()&|!.])|(?P<bad>.)|$)"
)
_DIRECTIVE_RE = re.compile(r"^[ \t]*(@\S*)", re.MULTILINE)


class SourceSpan(_Value):
    """1-based position of an axiom or an error in its source file."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParsedDocument(_Value):
    kb: KnowledgeBase
    axiom_spans: tuple[SourceSpan, ...]  # aligned with tbox then dtbox


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class UnknownDirectiveError(ParseError):
    pass


class _Parser:
    """Recursive descent over the tokens of one line.  A token is a ``(kind,
    text, column)`` tuple; its kind is "name", a reserved word, an operator,
    or "eol" ("eof" on the last line), which ends every line's tokens."""

    def __init__(self, file: str, line: int, tokens: list[tuple[str, str, int]]):
        self.file, self.line, self.tokens, self.pos = file, line, tokens, 0

    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.tokens[0][2])

    def error(self, message: str, tok: tuple[str, str, int]) -> ParseError:
        """``message`` at ``tok``, with ``{}`` standing for what was found there."""
        found = {"eof": "end of input", "eol": "end of line"}.get(tok[0], repr(tok[1]))
        return ParseError(message.format(found), SourceSpan(self.file, self.line, tok[2]))

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> str:
        tok = self.advance()
        if tok[0] != kind:
            raise self.error("expected " + what + ", found {}", tok)
        return tok[1]

    def end(self, trailing: str) -> None:
        """Report the token at hand with ``trailing`` unless it ends the line."""
        tok = self.tokens[self.pos]
        if tok[0] != "eol" and tok[0] != "eof":
            raise self.error(trailing, tok)

    # concept := disj ; disj := conj ('|' conj)* ; conj := unary ('&' unary)*
    def concept(self) -> Concept:
        parts = [self.conj()]
        while self.tokens[self.pos][0] == "|":
            self.pos += 1
            parts.append(self.conj())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Or(p, out)
        return out

    def conj(self) -> Concept:
        parts = [self.unary()]
        while self.tokens[self.pos][0] == "&":
            self.pos += 1
            parts.append(self.unary())
        return conjoin(parts)

    def unary(self) -> Concept:
        tok = kind, text, _ = self.advance()
        if kind == "!":
            return Not(self.unary())
        if kind == "name":
            return Atom(text)
        if kind == "exists" or kind == "forall":
            role = self.expect("name", "a role name")
            self.expect(".", "'.'")
            return (Exists if kind == "exists" else Forall)(role, self.unary())
        if kind == "top" or kind == "bot":
            return TOP if kind == "top" else BOTTOM
        if kind == "(":
            c = self.concept()
            self.expect(")", "')'")
            return c
        raise self.error("expected a concept, found {}", tok)

    def axiom(self) -> Axiom:
        lhs = self.concept()
        tok = self.advance()
        if tok[0] != "[=" and tok[0] != "~[=":
            raise self.error("expected '[=' or '~[=', found {}", tok)
        return (GCI if tok[0] == "[=" else DCI)(lhs, self.concept())


def _lines(text: str, filename: str) -> tuple[list[_Parser], _Parser]:
    """A parser over each non-blank line, and one over the end of the input
    alone.  Raises at the first stray character."""
    rows = text.split("\n")
    lines = []
    for n, row in enumerate(rows, 1):
        tokens = []
        for m in _TOKEN_RE.finditer(row.partition("#")[0]):
            group = m.lastgroup
            if group is None:  # the end of the line
                break
            tok, column = m.group(group), m.start(group) + 1
            if group == "bad":
                raise ParseError(f"unexpected character {tok!r}", SourceSpan(filename, n, column))
            tokens.append((tok if group == "op" or tok in RESERVED else "name", tok, column))
        end = ("eof" if n == len(rows) else "eol", "", len(row) + 1)
        if tokens:
            tokens.append(end)
            lines.append(_Parser(filename, n, tokens))
    return lines, _Parser(filename, len(rows), [end])


def parse_kb(text: str, filename: str = "<string>") -> ParsedDocument:
    """Parse a knowledge-base document, preserving axiom order and duplicates."""
    m = _DIRECTIVE_RE.search(text)
    if m:
        line = text.count("\n", 0, m.start()) + 1
        raise UnknownDirectiveError(f"unknown directive {m.group(1)!r}", SourceSpan(filename, line, 1))
    parsed = {GCI: [], DCI: []}
    for parser in _lines(text, filename)[0]:
        axiom = parser.axiom()
        parser.end("expected end of line, found {}")
        parsed[type(axiom)].append((axiom, parser.span()))
    kb = KnowledgeBase(tuple(a for a, _ in parsed[GCI]), tuple(a for a, _ in parsed[DCI]))
    return ParsedDocument(kb, tuple(s for _, s in parsed[GCI] + parsed[DCI]))


def _read_one(text: str, filename: str, read, trailing: str):
    """``read`` one item from the first non-blank line (from the end of a
    blank input), and report anything after it, on its line or a later one,
    with ``trailing``."""
    lines, end = _lines(text, filename)
    item = read(lines[0] if lines else end)
    for parser in lines[:2]:  # a second line is left over from its first token
        parser.end(trailing)
    return item


def parse_query(text: str, filename: str = "<query>") -> Axiom:
    """Parse exactly one axiom (strict or defeasible)."""
    return _read_one(text, filename, _Parser.axiom, "expected a single axiom")


def parse_concept(text: str, filename: str = "<concept>") -> Concept:
    """Parse a bare concept expression."""
    return _read_one(text, filename, _Parser.concept, "expected end of input, found {}")


# Rendering: minimal parentheses under the grammar's precedence.
# Or has precedence 0, And 1, everything else binds tighter (2).

def _prec(c: Concept) -> int:
    if isinstance(c, Or):
        return 0
    if isinstance(c, And):
        return 1
    return 2


def _render(c: Concept, min_prec: int) -> str:
    if _prec(c) < min_prec:
        return "(" + _render(c, 0) + ")"
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bot"
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Not):
        return "!" + _render(c.operand, 2)
    if isinstance(c, Exists):
        return f"exists {c.role}." + _render(c.filler, 2)
    if isinstance(c, Forall):
        return f"forall {c.role}." + _render(c.filler, 2)
    # A right-nested chain of one connective renders flat, in one frame;
    # anything else re-parenthesizes.
    kind, prec, parts = c.__class__, _prec(c), []
    while c.__class__ is kind:
        parts.append(_render(c.left, prec + 1))
        c = c.right
    return (" & " if kind is And else " | ").join([*parts, _render(c, prec)])


def render_concept(c: Concept) -> str:
    return _render(c, 0)


def render_axiom(a: Axiom) -> str:
    op = "[=" if isinstance(a, GCI) else "~[="
    return f"{render_concept(a.lhs)} {op} {render_concept(a.rhs)}"


def axiom_to_json(a: Axiom) -> dict:
    return {
        "kind": "gci" if isinstance(a, GCI) else "dci",
        "lhs": render_concept(a.lhs),
        "rhs": render_concept(a.rhs),
    }


def axiom_from_json(d: dict) -> Axiom:
    ctor = {"gci": GCI, "dci": DCI}[d["kind"]]
    return ctor(parse_concept(d["lhs"]), parse_concept(d["rhs"]))
