"""The contract of dalc's value classes: construction, equality, hashing,
frozenness, ``repr`` and validation, pinned class by class; and a guard that
no class in ``dalc`` carries methods compiled from generated source."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from functools import cached_property

import pytest

import dalc
from corpus import KB_DIR
from dalc.closure import QueryResult, Ranking
from dalc.concepts import (
    BOTTOM, DCI, GCI, TOP, And, Atom, Bottom, Exists, Forall, KnowledgeBase, Not, Or, Top,
)
from dalc.parser import ParsedDocument, SourceSpan, parse_kb
from dalc.ranks import Rank
from dalc.search import SearchResult
from dalc.semantics import FiniteInterpretation, PreferentialInterpretation, RankedInterpretation, Violation
from dalc.tableau import EntailmentStats

A, B = Atom("A"), Atom("B")
BASE = FiniteInterpretation(2, {"A": frozenset({0})}, {})
KB = KnowledgeBase((GCI(A, B),), (DCI(A, B),))

# (class, its fields in order, values for them); the defaults are checked apart
VALUES = [
    (Atom, ("name",), ("A",)),
    (Not, ("operand",), (A,)),
    (And, ("left", "right"), (A, B)),
    (Or, ("left", "right"), (A, B)),
    (Exists, ("role", "filler"), ("r", A)),
    (Forall, ("role", "filler"), ("r", A)),
    (GCI, ("lhs", "rhs"), (A, B)),
    (DCI, ("lhs", "rhs"), (A, B)),
    (KnowledgeBase, ("tbox", "dtbox"), ((GCI(A, B),), (DCI(A, B),))),
    (SourceSpan, ("file", "line", "column"), ("kb.dkb", 3, 7)),
    (ParsedDocument, ("kb", "axiom_spans"), (KB, (SourceSpan("f", 1, 1), SourceSpan("f", 2, 1)))),
    (Ranking, ("tstar", "dstar", "e_seq", "partition", "moved_to_tbox", "materialisations"),
     ((), (DCI(A, B),), ((DCI(A, B),),), ((DCI(A, B),),), (), (Or(Not(A), B),))),
    (QueryResult, ("verdict", "decided_at", "checks_spent"), (True, Rank(0), 2)),
    (Rank, ("value",), (4,)),
    (EntailmentStats, ("checks", "nodes_expanded", "max_nodes"), (3, 40, 50)),
    (FiniteInterpretation, ("domain_size", "atom_ext", "role_ext"), (2, {"A": frozenset({0})}, {})),
    (PreferentialInterpretation, ("base", "order"), (BASE, frozenset({(0, 1)}))),
    (RankedInterpretation, ("base", "heights"), (BASE, (0, 1))),
    (Violation, ("rule", "instance"), ("Cut", (A, B))),
    (SearchResult, ("interpretation", "enumerated"), (None, 9)),
]
MUTABLE = {EntailmentStats}
UNHASHABLE = {EntailmentStats, FiniteInterpretation, PreferentialInterpretation, RankedInterpretation}


@pytest.mark.parametrize("cls, names, values", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_construction_equality_hash_and_frozenness(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    assert [getattr(by_position, n) for n in names] == list(values)
    assert by_position == by_keyword == mixed
    assert not by_position != by_keyword
    if cls not in UNHASHABLE:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword, mixed}) == 1
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if cls in MUTABLE:
        setattr(by_position, names[-1], values[-1])
    else:
        with pytest.raises(AttributeError):
            setattr(by_position, names[-1], values[-1])
        with pytest.raises(AttributeError):
            delattr(by_position, names[-1])


def test_values_differ_by_field_and_by_type():
    assert GCI(A, B) != DCI(A, B)
    assert GCI(A, B) != GCI(B, A)
    assert Rank(1) != Rank(2) and Rank(1) < Rank(2) < Rank.infinite() == Rank(None)
    assert EntailmentStats(1, 2) != EntailmentStats(1, 3)
    assert SourceSpan("f", 1, 2) != ("f", 1, 2)
    assert {GCI(A, B): 1}.get(GCI(A, B)) == 1 and DCI(A, B) not in {GCI(A, B)}


def test_defaults():
    assert KnowledgeBase() == KnowledgeBase((), ()) and KnowledgeBase(dtbox=(DCI(A, B),)).tbox == ()
    assert EntailmentStats() == EntailmentStats(0, 0, 100_000) and EntailmentStats(nodes_expanded=5).checks == 0
    with pytest.raises(TypeError):
        GCI(A)


def test_repr():
    assert repr(And(A, Not(B))) == "And(left=Atom(name='A'), right=Not(operand=Atom(name='B')))"
    assert repr(Exists("r", TOP)) == "Exists(role='r', filler=Top)" and repr(BOTTOM) == "Bottom"
    assert repr(GCI(A, B)) == "GCI(lhs=Atom(name='A'), rhs=Atom(name='B'))"
    assert repr(DCI(A, BOTTOM)) == "DCI(lhs=Atom(name='A'), rhs=Bottom)"
    assert repr(KnowledgeBase([GCI(A, B)])) == (
        "KnowledgeBase(tbox=(GCI(lhs=Atom(name='A'), rhs=Atom(name='B')),), dtbox=())"
    )
    assert repr(Rank.infinite()) == "Rank(value=None)"
    assert repr(QueryResult(True, Rank(0), 2)) == (
        "QueryResult(verdict=True, decided_at=Rank(value=0), checks_spent=2)"
    )
    assert repr(EntailmentStats()) == "EntailmentStats(checks=0, nodes_expanded=0, max_nodes=100000)"
    assert repr(SourceSpan("f", 1, 2)) == "SourceSpan(file='f', line=1, column=2)"
    assert str(SourceSpan("f", 1, 2)) == "f:1:2"
    assert repr(RankedInterpretation(BASE, (0, 1))) == (
        "RankedInterpretation(base=FiniteInterpretation(domain_size=2,"
        " atom_ext={'A': frozenset({0})}, role_ext={}), heights=(0, 1))"
    )


def test_post_init_validates_and_normalises():
    with pytest.raises(ValueError):
        EntailmentStats(max_nodes=0)
    with pytest.raises(ValueError):
        RankedInterpretation(BASE, (0, 2))
    with pytest.raises(ValueError):
        FiniteInterpretation(1, {"A": {1}}, {})
    kb = KnowledgeBase([GCI(A, B)], [DCI(A, B)])
    assert kb.tbox == (GCI(A, B),) and kb.dtbox == (DCI(A, B),) and kb == KB
    assert RankedInterpretation(BASE, [1, 0]).heights == (1, 0)
    assert FiniteInterpretation(2, {"A": [0]}, {}) == BASE
    assert PreferentialInterpretation(BASE, {(0, 1)}).below == (0, 1)


def test_concepts_pickle_and_copy_to_the_same_object():
    for c in (TOP, BOTTOM, A, And(A, Not(B)), Forall("r", Exists("s", B))):
        assert pickle.loads(pickle.dumps(c)) is c
        assert copy.copy(c) is c and copy.deepcopy(c) is c
        assert isinstance(c, (Top, Bottom)) or type(c)(*(getattr(c, n) for n in c.__match_args__)) is c


def test_the_parser_builds_one_span_per_axiom(monkeypatch):
    # a span marks where an axiom starts, or an error; tokens carry only columns
    built = []

    class Counted(SourceSpan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(dalc.parser, "SourceSpan", Counted)
    doc = parse_kb((KB_DIR / "boss.dkb").read_text(), "boss.dkb")
    assert len(doc.kb.axioms) > 1 and built == list(doc.axiom_spans)


def test_a_stats_subclass_calling_super_init_still_counts():
    # the benchmark records each EntailmentStats the CLI creates this way
    created = []

    class Recorded(EntailmentStats):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    from dalc.closure import compute_ranking, rationally_deducible

    stats = Recorded()
    rationally_deducible(compute_ranking(KB, stats=stats), DCI(A, B), stats=stats)
    assert created == [stats] and stats.checks > 0 and stats.nodes_expanded > 0
    assert Recorded(2).checks == 2 and Recorded(2) != EntailmentStats(2)
    assert Recorded(max_nodes=7).max_nodes == 7  # as the CLI builds its session


MODULES = [f"dalc.{m.name}" for m in pkgutil.iter_modules(dalc.__path__)]


def _functions(cls):
    for attr in vars(cls).values():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if isinstance(attr, property):
            yield from (f for f in (attr.fget, attr.fset, attr.fdel) if f is not None)
        elif isinstance(attr, cached_property):
            yield attr.func
        elif inspect.isfunction(attr):
            yield attr


@pytest.mark.parametrize("name", MODULES)
def test_no_class_carries_generated_code(name):
    """Methods that dataclasses or namedtuple generate are compiled from a
    string at import, which a one-shot ``dalc`` call pays for every class."""
    module = importlib.import_module(name)
    classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == name]
    generated = [
        f"{c.__qualname__}.{f.__name__}"
        for c in classes
        for f in _functions(c)
        if f.__code__.co_filename == "<string>"
    ]
    assert generated == []
