import pytest

from dalc.concepts import (
    And,
    Atom,
    BOTTOM,
    DCI,
    Exists,
    Forall,
    GCI,
    Not,
    Or,
    TOP,
)
from dalc.parser import (
    ParseError,
    UnknownDirectiveError,
    axiom_from_json,
    axiom_to_json,
    parse_concept,
    parse_kb,
    parse_query,
    render_axiom,
    render_concept,
)

from test_concepts import concepts_strategy
from hypothesis import given, strategies as st


def test_parse_single_gci():
    doc = parse_kb("EmpStud [= Student")
    assert doc.kb.tbox == (GCI(Atom("EmpStud"), Atom("Student")),)
    assert doc.kb.dtbox == ()
    assert len(doc.axiom_spans) == 1


def test_parse_single_dci():
    doc = parse_kb("Student ~[= !exists pays.Tax")
    assert doc.kb.dtbox == (
        DCI(Atom("Student"), Not(Exists("pays", Atom("Tax")))),
    )


def test_parse_empty_document():
    doc = parse_kb("")
    assert doc.kb.tbox == () and doc.kb.dtbox == ()
    assert doc.axiom_spans == ()


def test_parse_comments_and_blank_lines():
    text = "# header\n\nA [= B  # trailing\n\n# done\n"
    doc = parse_kb(text)
    assert doc.kb.tbox == (GCI(Atom("A"), Atom("B")),)
    assert doc.axiom_spans[0].line == 3
    assert doc.axiom_spans[0].column == 1


def test_spans_aligned_tbox_then_dtbox():
    text = "A ~[= B\nC [= D\n"
    doc = parse_kb(text, "f.dkb")
    # tbox axiom is on line 2, dtbox axiom on line 1
    assert [s.line for s in doc.axiom_spans] == [2, 1]
    assert len(doc.axiom_spans) == len(doc.kb.tbox) + len(doc.kb.dtbox)


def test_duplicate_axioms_kept():
    doc = parse_kb("A [= B\nA [= B\n")
    assert len(doc.kb.tbox) == 2


def test_precedence_and_grouping():
    assert parse_concept("A & B | C") == Or(And(Atom("A"), Atom("B")), Atom("C"))
    assert parse_concept("!A & B") == And(Not(Atom("A")), Atom("B"))
    # quantifier fillers bind at unary precedence
    assert parse_concept("exists r.A & B") == And(Exists("r", Atom("A")), Atom("B"))
    assert parse_concept("exists r.(A & B)") == Exists("r", And(Atom("A"), Atom("B")))
    assert parse_concept("!exists r.A") == Not(Exists("r", Atom("A")))


def test_parse_query_examples():
    assert parse_query("EmpStud ~[= exists pays.Tax") == DCI(
        Atom("EmpStud"), Exists("pays", Atom("Tax"))
    )
    assert parse_query("top ~[= bot") == DCI(TOP, BOTTOM)
    assert parse_query("A [= A") == GCI(Atom("A"), Atom("A"))


def test_parse_query_rejects_two_axioms():
    with pytest.raises(ParseError):
        parse_query("A [= B\nC [= D")


def test_syntax_error_has_span_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_kb("A [= \n", "kb.dkb")
    assert exc.value.span.file == "kb.dkb"
    assert exc.value.span.line == 1
    assert exc.value.span.column == 6
    assert "expected a concept" in exc.value.message


@pytest.mark.parametrize(
    "parse, args, error, shown",
    [
        (parse_kb, ("A [= \n", "kb.dkb"), ParseError,
         "kb.dkb:1:6: expected a concept, found end of line"),
        # A directive is reported before a stray character or a syntax error,
        # and a stray character before a syntax error, even on a later line.
        (parse_kb, ("A [= \nB [= C @x\n@inc f\n",), UnknownDirectiveError,
         "<string>:3:1: unknown directive '@inc'"),
        (parse_kb, ("A [= (\n$\n",), ParseError, "<string>:2:1: unexpected character '$'"),
        (parse_kb, ("A [= B C\n",), ParseError, "<string>:1:8: expected end of line, found 'C'"),
        (parse_kb, ("A [= B # c\nA\n",), ParseError,
         "<string>:2:2: expected '[=' or '~[=', found end of line"),
        # The end of a line is where its comment ends.
        (parse_kb, ("A [= # c\n",), ParseError,
         "<string>:1:9: expected a concept, found end of line"),
        (parse_kb, ("A [= B\r\n\tC [= \r\n",), ParseError,
         "<string>:2:8: expected a concept, found end of line"),
        (parse_kb, ("A [= (B",), ParseError, "<string>:1:8: expected ')', found end of input"),
        (parse_query, ("\n\nA [= B\n\nC",), ParseError, "<query>:5:1: expected a single axiom"),
        (parse_query, ("A [=\nB",), ParseError,
         "<query>:1:5: expected a concept, found end of line"),
        # Queries have no directives.
        (parse_query, ("@x",), ParseError, "<query>:1:1: unexpected character '@'"),
        (parse_query, ("",), ParseError, "<query>:1:1: expected a concept, found end of input"),
        (parse_concept, ("A\n\nB",), ParseError,
         "<concept>:3:1: expected end of input, found 'B'"),
        (parse_concept, ("  \n",), ParseError,
         "<concept>:2:1: expected a concept, found end of input"),
    ],
)
def test_parse_errors_are_pinned(parse, args, error, shown):
    with pytest.raises(ParseError) as exc:
        parse(*args)
    assert type(exc.value) is error
    assert str(exc.value) == shown == f"{exc.value.span}: {exc.value.message}"


def test_error_reports_missing_subsumption():
    with pytest.raises(ParseError) as exc:
        parse_kb("A B")
    assert "'[=' or '~[='" in exc.value.message


def test_unknown_directive():
    with pytest.raises(UnknownDirectiveError):
        parse_kb("@import foo\nA [= B\n")


def test_reserved_words_not_atoms():
    with pytest.raises(ParseError):
        parse_concept("exists")
    assert parse_concept("top") == TOP
    assert parse_concept("bot") == BOTTOM


def test_render_examples():
    assert render_concept(And(Atom("A"), Or(Atom("B"), Atom("C")))) == "A & (B | C)"
    assert render_concept(Exists("r", And(Atom("A"), Atom("B")))) == "exists r.(A & B)"
    assert render_concept(Not(Atom("A"))) == "!A"


def test_render_left_nesting_parenthesized():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert render_concept(And(And(a, b), c)) == "(A & B) & C"
    assert render_concept(And(a, And(b, c))) == "A & B & C"
    assert render_concept(Or(Or(a, b), c)) == "(A | B) | C"
    assert render_concept(Forall("r", Not(a))) == "forall r.!A"


@given(concepts_strategy())
def test_round_trip(c):
    assert parse_concept(render_concept(c)) == c


def test_axiom_json_round_trip():
    axioms = [
        GCI(And(Atom("A"), Atom("B")), Exists("r", Atom("C"))),
        DCI(Atom("A"), Not(Forall("s", BOTTOM))),
    ]
    for a in axioms:
        d = axiom_to_json(a)
        assert set(d) == {"kind", "lhs", "rhs"}
        assert d["kind"] in ("gci", "dci")
        assert axiom_from_json(d) == a


def test_render_axiom():
    assert render_axiom(GCI(Atom("A"), Atom("B"))) == "A [= B"
    assert render_axiom(DCI(Atom("A"), Atom("B"))) == "A ~[= B"


LAYOUT_FILLER = st.sampled_from(["", " ", "\t", "# note", "  # [= ( @x", "\t#"])


@st.composite
def documents(draw):
    """Rendered axioms one per line, among blank and comment lines: the text,
    the axioms, and the (line, column) where each was written."""
    lines, axioms, where = [], [], []
    drawn = st.tuples(st.booleans(), concepts_strategy(), concepts_strategy())
    for strict, lhs, rhs in draw(st.lists(drawn, max_size=5)):
        lines += draw(st.lists(LAYOUT_FILLER, max_size=2))
        axiom = (GCI if strict else DCI)(lhs, rhs)
        indent = draw(st.sampled_from(["", " ", "\t", " \t "]))
        written = render_axiom(axiom)
        if draw(st.booleans()):
            written = written.replace(" ", "\t")
        lines.append(indent + written + draw(st.sampled_from(["", " ", "\t# why", " #"])))
        axioms.append(axiom)
        where.append((len(lines), len(indent) + 1))
    lines += draw(st.lists(LAYOUT_FILLER, max_size=2))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), axioms, where


@given(documents())
def test_document_layout_round_trip(doc):
    text, axioms, where = doc
    parsed = parse_kb(text, "doc.dkb")
    strict = [isinstance(a, GCI) for a in axioms]
    assert parsed.kb.tbox == tuple(a for a, s in zip(axioms, strict) if s)
    assert parsed.kb.dtbox == tuple(a for a, s in zip(axioms, strict) if not s)
    spans = [w for w, s in zip(where, strict) if s] + [w for w, s in zip(where, strict) if not s]
    assert [(s.file, s.line, s.column) for s in parsed.axiom_spans] == [
        ("doc.dkb", line, column) for line, column in spans
    ]
    for a in axioms:
        assert parse_query("\n \t\n" + render_axiom(a) + "\r\n\n") == a
