import copy
import pickle
import random
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dalc.concepts import (
    And,
    Atom,
    BOTTOM,
    DCI,
    Exists,
    Forall,
    Not,
    Or,
    TOP,
    conjoin,
    direct_subconcepts,
    materialise,
    nnf,
    subconcept_closure,
    subconcepts,
    vocabulary,
)
from dalc.parser import parse_concept
from dalc.semantics import extension
from dalc.tableau import entails, is_satisfiable
from dalc.concepts import GCI
import corpus
from generators import random_concept, random_ranked_interpretation, reference_nnf

A, B, C = Atom("A"), Atom("B"), Atom("C")


def concepts_strategy():
    leaves = st.one_of(
        st.just(TOP),
        st.just(BOTTOM),
        st.builds(Atom, st.sampled_from(["A", "B", "C"])),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Exists, st.sampled_from(["r", "s"]), inner),
            st.builds(Forall, st.sampled_from(["r", "s"]), inner),
        ),
        max_leaves=10,
    )


def test_nnf_de_morgan():
    assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))


def test_nnf_quantifier_duality():
    assert nnf(Not(Exists("r", A))) == Forall("r", Not(A))
    assert nnf(Not(Forall("r", A))) == Exists("r", Not(A))


def test_nnf_identity_on_atoms():
    assert nnf(A) == A
    assert nnf(Not(A)) == Not(A)
    assert nnf(TOP) == TOP


def test_nnf_constants():
    assert nnf(Not(TOP)) == BOTTOM
    assert nnf(Not(BOTTOM)) == TOP
    assert nnf(Not(Not(A))) == A


def test_nnf_simplifies_top_and_bottom():
    assert nnf(And(A, BOTTOM)) == BOTTOM and nnf(Or(TOP, A)) == TOP
    assert nnf(And(TOP, A)) == A and nnf(Or(A, BOTTOM)) == A
    assert nnf(Exists("r", BOTTOM)) == BOTTOM and nnf(Forall("r", TOP)) == TOP
    assert nnf(Exists("r", TOP)) == Exists("r", TOP)
    assert nnf(Forall("r", BOTTOM)) == Forall("r", BOTTOM)
    # pushed negations are simplified too: ¬(∀r.⊤ ⊓ A) is ∃r.⊥ ⊔ ¬A, that is ¬A
    assert nnf(Not(And(Forall("r", TOP), A))) == Not(A)
    assert nnf(Not(Or(Not(B), Exists("r", BOTTOM)))) == B


@given(concepts_strategy())
def test_nnf_keeps_top_and_bottom_only_whole_or_as_fillers(c):
    stack = [nnf(c)]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            assert not {node.left, node.right} & {TOP, BOTTOM}
        if isinstance(node, (Exists, Forall)):
            assert node.filler is not (BOTTOM if isinstance(node, Exists) else TOP)
        stack.extend(direct_subconcepts(node))


@given(concepts_strategy())
def test_nnf_idempotent(c):
    assert nnf(nnf(c)) == nnf(c)


@given(concepts_strategy())
def test_nnf_negation_only_on_atoms(c):
    stack = [nnf(c)]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            assert isinstance(node.operand, Atom)
        stack.extend(direct_subconcepts(node))


def test_nnf_preserves_extensions():
    rng = random.Random(0)
    for _ in range(200):
        i = random_ranked_interpretation(rng, rng.randrange(1, 4), ["A", "B", "C"], ["r", "s"])
        c = random_concept(rng, ["A", "B", "C"], ["r", "s"], 3)
        assert extension(i, c) == extension(i, nnf(c))


def test_nnf_matches_the_isinstance_reference():
    rng = random.Random(24)
    for roles in ([], ["r", "s"]):
        for depth in range(5):
            for _ in range(100):
                c = random_concept(rng, ["A", "B", "C"], roles, depth)
                assert nnf(c) is reference_nnf(c)
                assert nnf(Not(c)) is reference_nnf(Not(c))


class _SubAtom(Atom):
    """Not a concept: the concept classes are final."""


class _SubAnd(And):
    """Not a concept: the concept classes are final."""


@pytest.mark.parametrize(
    "c",
    [
        _SubAtom("A"),
        _SubAnd(A, B),
        Not(_SubAtom("A")),
        Not(_SubAnd(A, B)),
        Or(B, Exists("r", _SubAtom("A"))),
        Forall("r", Not(Not(_SubAnd(A, B)))),
    ],
    ids=["atom", "and", "negated-atom", "negated-and", "nested-atom", "nested-and"],
)
def test_only_the_eight_concept_classes_are_concepts(c):
    # the tableau dispatches on exact classes, and trusts nnf to refuse the rest
    with pytest.raises(TypeError, match="not a concept"):
        nnf(c)
    with pytest.raises(TypeError, match="not a concept"):
        is_satisfiable(c)
    with pytest.raises(TypeError, match="not a concept"):
        is_satisfiable(A, [GCI(c, B)])


def test_subconcept_closure_conjunction():
    got = subconcept_closure({And(A, B)})
    assert got == frozenset({And(A, B), A, B, Not(And(A, B)), Not(A), Not(B)})


def test_subconcept_closure_empty():
    assert subconcept_closure(set()) == frozenset()


def test_subconcept_closure_exists():
    got = subconcept_closure({Exists("r", A)})
    assert got == frozenset({Exists("r", A), A, Not(Exists("r", A)), Not(A)})


@given(st.sets(concepts_strategy(), max_size=4), st.sets(concepts_strategy(), max_size=4))
def test_subconcept_closure_is_a_closure_operator(xs, ys):
    cx = subconcept_closure(xs)
    assert xs <= cx  # extensive
    assert subconcept_closure(cx) == cx  # idempotent
    if xs <= ys:
        assert cx <= subconcept_closure(ys)  # monotone


def test_materialise_shape():
    d = [DCI(A, B), DCI(And(A, C), Not(B))]
    out = materialise(d)
    assert out == [Or(Not(A), B), Or(Not(And(A, C)), Not(B))]
    assert materialise([]) == []
    assert materialise([DCI(A, BOTTOM)]) == [Or(Not(A), BOTTOM)]


def test_materialise_running_example_semantics():
    # The pair from the worked tax example; the expected concepts are the
    # flattened disjunctions, checked up to logical equivalence.
    emp, par = Atom("EmpStud"), Atom("Parent")
    pays = Exists("pays", Atom("Tax"))
    d = [DCI(emp, pays), DCI(And(emp, par), Not(pays))]
    got = materialise(d)
    expected = [
        Or(Not(emp), pays),
        Or(Not(emp), Or(Not(par), Not(pays))),
    ]
    for g, e in zip(got, expected):
        assert entails((), GCI(g, e)) and entails((), GCI(e, g))


def test_conjoin():
    assert conjoin([]) == TOP
    assert conjoin([A]) == A
    assert conjoin([A, B, C]) == And(A, And(B, C))


def test_vocabulary_helpers():
    ax = GCI(And(A, Exists("r", B)), Forall("s", C))
    assert vocabulary([ax]) == (["A", "B", "C"], ["r", "s"], [Exists("r", B), Forall("s", C)])
    # every occurrence, in concepts and on both sides of an axiom
    assert set(subconcepts([ax])) == {ax.lhs, A, Exists("r", B), B, ax.rhs, C}
    assert list(subconcepts([Not(A)])) == [Not(A), A]
    assert list(subconcepts([GCI(A, A)])) == [A, A]
    # the oracle's quantified subconcepts fix its bit layout and so its
    # witness order: each listed once, sorted by repr
    kb = corpus.boss_kb()
    q = corpus.query("Worker ~[= exists hasSuperior.Responsible")
    superior = [Exists("hasSuperior", Atom(a)) for a in ("Boss", "Responsible", "Worker")]
    assert vocabulary([*kb.axioms, q])[2] == superior
    inner = Forall("s", B)
    nested = Exists("r", And(A, inner))
    assert vocabulary([GCI(nested, inner), DCI(A, Or(nested, C))])[2] == [nested, inner]


def _rebuild(c):
    """A structurally equal copy of ``c``, built bottom-up by the constructors."""
    args = [getattr(c, name) for name in c.__match_args__]
    return type(c)(*[a if isinstance(a, str) else _rebuild(a) for a in args])


@given(concepts_strategy())
def test_equal_trees_are_one_object(c):
    twin = _rebuild(c)
    assert twin is c
    assert hash(twin) == hash(c)


def test_parsed_concept_is_the_hand_built_one():
    built = And(Exists("r", Not(A)), Or(Forall("s", B), C))
    assert parse_concept("exists r.!A & (forall s.B | C)") is built


def test_keyword_construction_and_replace():
    assert Atom(name="A") is A
    assert And(A, right=B) is And(left=A, right=B) is And(A, B)
    assert Exists(role="r", filler=B) is Exists("r", B)
    bad_calls = (
        lambda: And(A),
        lambda: And(A, B, C),
        lambda: Atom(nom="A"),
        lambda: Atom("A", name="A"),
    )
    for bad in bad_calls:
        with pytest.raises(TypeError):
            bad()


def test_pickle_and_copy_return_the_canonical_instance():
    c = Forall("r", And(Not(A), Exists("s", TOP)))
    assert pickle.loads(pickle.dumps(c)) is c
    assert copy.copy(c) is c
    assert copy.deepcopy(c) is c
    g = copy.deepcopy(GCI(c, BOTTOM))
    assert g.lhs is c and g.rhs is BOTTOM


def test_threads_building_the_same_concept_get_one_object():
    def build():
        c = Atom("threaded")
        for i in range(300):
            c = And(Exists(f"r{i % 3}", c), Not(Atom(f"T{i}")))
        return c

    workers, results = 4, []
    barrier = threading.Barrier(workers)

    def work():
        barrier.wait(timeout=10)
        results.append(build())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == workers
    assert all(r is results[0] for r in results)


def test_a_reimported_dalc_frees_the_old_copy():
    """A harness that imports dalc afresh, deleting ``dalc.*`` from
    ``sys.modules`` first, leaves nothing holding the old copy: the
    ``Concept``, ``Axiom``, ``Interpretation`` and ``Output`` aliases are
    ``|`` unions, which, unlike ``typing.Union``, no cache keeps alive."""
    import gc
    import importlib
    import weakref

    def ours():
        return [name for name in sys.modules if name == "dalc" or name.startswith("dalc.")]

    saved = {name: sys.modules[name] for name in ours()}
    refs = []
    try:
        for _ in range(2):
            for name in ours():
                del sys.modules[name]
            for name in ("dalc", "dalc.cli", "dalc.concepts", "dalc.search", "dalc.semantics"):
                importlib.import_module(name)
            refs = refs or [
                weakref.ref(sys.modules["dalc.concepts"].Atom),
                weakref.ref(sys.modules["dalc.semantics"].FiniteInterpretation),
            ]
        gc.collect()
        assert [r() for r in refs] == [None, None]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
