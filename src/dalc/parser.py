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
offset in the line plus one), and every line is tokenised before any is
parsed.  So of several errors the one reported is the first ``@`` directive
opening a line (documents only), else the first stray character, else the
first syntax error.  ``parse_kb`` reads an axiom from each non-blank line;
``parse_query`` and ``parse_concept`` read one axiom or concept, and report
anything after it, on its line or a later one.
"""

from __future__ import annotations

import re
from typing import Iterator

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
)

RESERVED = {"top", "bot", "exists", "forall"}

# Blanks, then a name, an operator, a stray character, or the end of the line.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>~?\[=|[()&|!.])|(?P<bad>.)|$)"
)
_LINE_END = "expected end of line, found {}"


class SourceSpan(_Value):
    """1-based position of a token or axiom in its source file."""

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


class _Token(_Value):
    kind: str  # "name", "keyword", "[=", "~[=", "(", ")", "&", "|", "!", ".", "eol", "eof"
    text: str
    span: SourceSpan


def _lines(text: str, filename: str) -> tuple[list[list[_Token]], _Token]:
    """The tokens of each non-blank line, ending in ``eol`` (``eof`` on the
    last line), and the ``eof`` token.  Raises at the first stray character."""
    rows = text.split("\n")
    lines = []
    for n, row in enumerate(rows, 1):
        code = row.partition("#")[0]
        tokens = []
        m = _TOKEN_RE.match(code)
        while m.lastgroup:
            tok, span = m.group(m.lastgroup), SourceSpan(filename, n, m.start(m.lastgroup) + 1)
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {tok!r}", span)
            kind = tok if m.lastgroup == "op" else "keyword" if tok in RESERVED else "name"
            tokens.append(_Token(kind, tok, span))
            m = _TOKEN_RE.match(code, m.end())
        end = _Token("eof" if n == len(rows) else "eol", "", SourceSpan(filename, n, len(row) + 1))
        if tokens:
            lines.append(tokens + [end])
    return lines, end


def _describe(tok: _Token) -> str:
    return {"eof": "end of input", "eol": "end of line"}.get(tok.kind, repr(tok.text))


class _Parser(_Value, mutable=True):
    """Recursive descent over the tokens of one line."""

    tokens: list[_Token]
    pos: int = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {_describe(tok)}", tok.span)
        return self.advance()

    # concept := disj ; disj := conj ('|' conj)* ; conj := unary ('&' unary)*
    def concept(self) -> Concept:
        parts = [self.conj()]
        while self.peek().kind == "|":
            self.advance()
            parts.append(self.conj())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Or(p, out)
        return out

    def conj(self) -> Concept:
        parts = [self.unary()]
        while self.peek().kind == "&":
            self.advance()
            parts.append(self.unary())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = And(p, out)
        return out

    def unary(self) -> Concept:
        tok = self.advance()
        if tok.kind == "!":
            return Not(self.unary())
        if tok.kind == "keyword":
            if tok.text in ("top", "bot"):
                return TOP if tok.text == "top" else BOTTOM
            role = self.expect("name", "a role name")
            self.expect(".", "'.'")
            ctor = Exists if tok.text == "exists" else Forall
            return ctor(role.text, self.unary())
        if tok.kind == "name":
            return Atom(tok.text)
        if tok.kind == "(":
            c = self.concept()
            self.expect(")", "')'")
            return c
        raise ParseError(f"expected a concept, found {_describe(tok)}", tok.span)

    def axiom(self) -> Axiom:
        lhs = self.concept()
        tok = self.advance()
        if tok.kind not in ("[=", "~[="):
            raise ParseError(f"expected '[=' or '~[=', found {_describe(tok)}", tok.span)
        return (GCI if tok.kind == "[=" else DCI)(lhs, self.concept())


def _parse(text: str, filename: str, trailing: str) -> Iterator[_Parser]:
    """A parser per non-blank line, run by the caller before it asks for the
    next, so the grammar recurses from the caller's frame.  Input left on a
    line is reported with ``trailing``.  Only a document (``trailing`` is
    ``_LINE_END``) has many lines; elsewhere a second non-blank line is left
    over, and a blank input is parsed at its end."""
    lines, end = _lines(text, filename)
    document = trailing == _LINE_END
    for n, tokens in enumerate(lines if document else lines or [[end]]):
        if n and not document:
            raise ParseError(trailing.format(_describe(tokens[0])), tokens[0].span)
        parser = _Parser(tokens)
        yield parser
        tok = parser.peek()
        if tok.kind not in ("eol", "eof"):
            raise ParseError(trailing.format(_describe(tok)), tok.span)


def parse_kb(text: str, filename: str = "<string>") -> ParsedDocument:
    """Parse a knowledge-base document, preserving axiom order and duplicates."""
    for n, row in enumerate(text.split("\n"), 1):
        m = re.match(r"[ \t]*@\S*", row)
        if m:
            raise UnknownDirectiveError(
                f"unknown directive {m.group().strip()!r}", SourceSpan(filename, n, 1)
            )
    parsed = {GCI: [], DCI: []}
    for parser in _parse(text, filename, _LINE_END):
        span, axiom = parser.peek().span, parser.axiom()
        parsed[type(axiom)].append((axiom, span))
    kb = KnowledgeBase(tuple(a for a, _ in parsed[GCI]), tuple(a for a, _ in parsed[DCI]))
    return ParsedDocument(kb, tuple(s for _, s in parsed[GCI] + parsed[DCI]))


def parse_query(text: str, filename: str = "<query>") -> Axiom:
    """Parse exactly one axiom (strict or defeasible)."""
    for parser in _parse(text, filename, "expected a single axiom"):
        axiom = parser.axiom()
    return axiom


def parse_concept(text: str, filename: str = "<concept>") -> Concept:
    """Parse a bare concept expression."""
    for parser in _parse(text, filename, "expected end of input, found {}"):
        concept = parser.concept()
    return concept


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
    if isinstance(c, And):
        # Right-nested chains render flat; anything else re-parenthesizes.
        return _render(c.left, 2) + " & " + _render(c.right, 1)
    return _render(c.left, 1) + " | " + _render(c.right, 0)


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
