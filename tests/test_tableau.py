import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dalc.tableau
from dalc.cli import main
from dalc.closure import compute_ranking
from dalc.concepts import (
    And,
    Atom,
    BOTTOM,
    GCI,
    KnowledgeBase,
    Not,
    Or,
    TOP,
    Exists,
    conjoin,
)
from dalc.parser import parse_kb, render_concept
from dalc.search import search_countermodel
from dalc.tableau import (
    CompiledTBox,
    EntailmentStats,
    ResourceLimitError,
    TableauConfig,
    entails,
    is_satisfiable,
)

import corpus
from generators import random_concept, te_satisfiable

EMP, STUD, PAR = Atom("EmpStud"), Atom("Student"), Atom("Parent")
PAYS_TAX = Exists("pays", Atom("Tax"))


def classical_tbox():
    return corpus.classical_kb().tbox


def test_empstud_unsatisfiable_wrt_classical_tbox():
    assert not is_satisfiable(EMP, classical_tbox())


def test_top_satisfiable_empty_tbox():
    assert is_satisfiable(TOP, ())


def test_student_paying_tax_satisfiable():
    # A two-element witness exists (student paying a tax object); the
    # bounded model search below re-derives it independently.
    tbox = (GCI(EMP, STUD),)
    c = And(STUD, PAYS_TAX)
    assert is_satisfiable(c, tbox)
    oracle = search_countermodel(KnowledgeBase(tbox=tbox), GCI(c, BOTTOM), 2)
    assert oracle.found


def test_entails_classical_example():
    assert entails(classical_tbox(), GCI(EMP, BOTTOM))


def test_entails_reflexivity():
    assert entails((), GCI(Atom("C"), Atom("C")))


def test_level_one_materialisation_compatible_with_empstud():
    # With the rank-0 default removed, EmpStud is compatible with the
    # remaining materialisations under the TBox.
    tbox = (GCI(EMP, STUD),)
    e1 = conjoin(
        [
            Or(Not(EMP), PAYS_TAX),
            Or(Not(And(EMP, PAR)), Not(PAYS_TAX)),
        ]
    )
    assert not entails(tbox, GCI(And(e1, EMP), BOTTOM))
    # and it classically forces tax-paying, deciding the query positively
    assert entails(tbox, GCI(And(e1, EMP), PAYS_TAX))


def test_soundness_cross_check_curated():
    # Curated instances chosen so that satisfiable concepts have models
    # within domain size 3.
    tbox = (GCI(EMP, STUD),)
    cases = [
        (STUD, ()),
        (And(STUD, Not(EMP)), tbox),
        (Exists("pays", TOP), ()),
        (And(EMP, PAR), tbox),
    ]
    for c, t in cases:
        assert is_satisfiable(c, t)
        assert search_countermodel(KnowledgeBase(tbox=t), GCI(c, BOTTOM), 3).found
    unsat_cases = [
        (And(Atom("A"), Not(Atom("A"))), ()),
        (EMP, classical_tbox()),
        (BOTTOM, ()),
    ]
    for c, t in unsat_cases:
        assert not is_satisfiable(c, t)
        assert not search_countermodel(KnowledgeBase(tbox=t), GCI(c, BOTTOM), 3).found


def test_agreement_with_bounded_search_on_random_inputs():
    rng = random.Random(3)
    atoms, roles = ["A", "B"], ["r"]
    for _ in range(40):
        tbox = tuple(
            GCI(random_concept(rng, atoms, roles, 2), random_concept(rng, atoms, roles, 2))
            for _ in range(rng.randrange(3))
        )
        c = random_concept(rng, atoms, roles, 2)
        sat = is_satisfiable(c, tbox)
        assert sat == te_satisfiable(c, tbox), (c, tbox)
        # a model the oracle exhibits within domain 3 is a model
        assert sat or not search_countermodel(KnowledgeBase(tbox=tbox), GCI(c, BOTTOM), 3).found


def test_monotonicity_of_entailment():
    rng = random.Random(11)
    atoms, roles = ["A", "B", "C"], ["r"]
    checked = 0
    while checked < 30:
        tbox = tuple(
            GCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(3))
        )
        g = GCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
        if not entails(tbox, g):
            continue
        extra = tuple(
            GCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(1, 3))
        )
        assert entails(tbox + extra, g)
        checked += 1


def test_blocking_invariant_under_node_budgets():
    small = TableauConfig(max_nodes=100_000)
    large = TableauConfig(max_nodes=1_000_000)
    cases = [
        (EMP, classical_tbox()),
        (STUD, classical_tbox()),
        (And(STUD, PAYS_TAX), (GCI(EMP, STUD),)),
        (Exists("r", Exists("r", Atom("A"))), (GCI(Atom("A"), Exists("r", Atom("A"))),)),
    ]
    for c, t in cases:
        assert is_satisfiable(c, t, small) == is_satisfiable(c, t, large)


def test_blocking_terminates_on_infinite_model_tbox():
    # A [= exists r.A admits only infinite tree unfoldings without blocking.
    tbox = (GCI(Atom("A"), Exists("r", Atom("A"))),)
    assert is_satisfiable(Atom("A"), tbox)


def exists_chain(depth):
    deep = Atom("A")
    for _ in range(depth):
        deep = Exists("r", deep)
    return deep


def test_resource_limit_is_an_error_not_a_verdict():
    with pytest.raises(ResourceLimitError):
        is_satisfiable(exists_chain(10), (), TableauConfig(max_nodes=2))
    deep = exists_chain(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        with pytest.raises(ResourceLimitError, match="nesting too deep"):
            is_satisfiable(deep, ())
    finally:
        sys.setrecursionlimit(limit)


def test_role_depth_is_bounded_by_nodes_alone():
    # No budget of its own bounds role depth: 600 levels are 601 nodes, and
    # the tableau spends one Python frame on each.
    stats = EntailmentStats()
    assert is_satisfiable(exists_chain(600), (), stats=stats)
    assert stats.nodes_expanded == 601


def test_a_successor_blocked_from_outside_is_not_cached_as_satisfiable():
    # Checking A, its r-successor {A} is blocked by the root, which then
    # closes on its s-successor; had {A} been stored as satisfiable, the
    # next check would find exists r.A satisfiable.
    a = Atom("A")
    tbox = CompiledTBox((GCI(a, Exists("r", a)), GCI(a, Exists("s", BOTTOM))))
    assert not is_satisfiable(a, tbox)
    assert not is_satisfiable(Exists("r", a), tbox)
    assert set(tbox.verdicts.values()) == {False}


def test_a_root_verdict_is_not_stored():
    tbox = CompiledTBox((GCI(Atom("A"), Exists("r", Atom("B"))),))
    assert is_satisfiable(Atom("B"), tbox) and tbox.verdicts == {}
    assert is_satisfiable(Atom("A"), tbox)
    assert list(tbox.verdicts.values()) == [True]  # its successor's


def test_stats_accumulate():
    stats = EntailmentStats()
    entails((), GCI(Atom("A"), Atom("A")), stats=stats)
    entails((), GCI(Atom("A"), Atom("B")), stats=stats)
    assert stats.checks == 2
    assert stats.nodes_expanded >= 2


def test_config_validation():
    with pytest.raises(ValueError):
        TableauConfig(max_nodes=0)


# The chain(6), flat(4) and roles(3) families of the benchmark, written out.
# Their check and node counts, and the corpus's, pin the tableau's search: an
# optimisation of the reasoner must not change which nodes it expands.  The
# ranking shares one label cache per compiled T*, so the roles(3) pin counts
# the successors that its earlier checks left undecided; chain(6) and flat(4)
# spawn none.
CHAIN6 = """
A1 [= A0
A2 [= A1
A3 [= A2
A4 [= A3
A5 [= A4
A0 ~[= B
A1 ~[= !B
A2 ~[= B
A3 ~[= !B
A4 ~[= B
A5 ~[= !B
"""
FLAT4 = """
C0 [= D
C1 [= D
C2 [= D
C3 [= D
D ~[= P0
D ~[= P1
D ~[= P2
D ~[= P3
C0 ~[= !P0
C1 ~[= !P1
C2 ~[= !P2
C3 ~[= !P3
"""
ROLES3 = """
A0 ~[= exists r.A1
A0 ~[= forall r.!B
A1 ~[= exists r.A2
A1 ~[= forall r.!B
A2 ~[= exists r.A3
A2 ~[= forall r.!B
A3 [= B
"""


ROLES6 = """
A0 ~[= exists r.A1
A0 ~[= forall r.!B
A1 ~[= exists r.A2
A1 ~[= forall r.!B
A2 ~[= exists r.A3
A2 ~[= forall r.!B
A3 ~[= exists r.A4
A3 ~[= forall r.!B
A4 ~[= exists r.A5
A4 ~[= forall r.!B
A5 ~[= exists r.A6
A5 ~[= forall r.!B
A6 [= B
"""


FAMILIES = {"chain6": CHAIN6, "flat4": FLAT4, "roles3": ROLES3}


def _ranked(name):
    """The KBs a pin ranks: the corpus's, or one family's."""
    if name == "corpus":
        return [load() for load in corpus.CORPUS.values()]
    return [parse_kb(FAMILIES[name]).kb]


@pytest.mark.parametrize(
    "name, checks, nodes",
    [("corpus", 15, 109), ("chain6", 21, 528), ("flat4", 12, 228), ("roles3", 16, 655)],
    ids=["corpus", "chain6", "flat4", "roles3"],
)
def test_ranking_search_is_pinned(name, checks, nodes):
    stats = EntailmentStats()
    for kb in _ranked(name):
        compute_ranking(kb, stats=stats)
    assert (stats.checks, stats.nodes_expanded) == (checks, nodes)


def test_roles6_ranks_within_the_default_budget():
    # Without the label cache one of its checks alone passes 100k nodes.
    kb = parse_kb(ROLES6).kb
    stats = EntailmentStats()
    ranking = compute_ranking(kb, stats=stats)
    assert stats.checks == 52
    assert ranking.partition == ()
    pairs = [kb.dtbox[i : i + 2] for i in range(0, 12, 2)]
    assert ranking.moved_to_tbox == tuple(d for pair in reversed(pairs) for d in pair)
    # T* is compiled, and still reads as the tuple of its GCIs
    assert isinstance(ranking.tstar, CompiledTBox)
    assert ranking.tstar == kb.tbox + tuple(GCI(d.lhs, d.rhs) for d in ranking.moved_to_tbox)


def test_max_nodes_bounds_each_check_and_stats_only_count(tmp_path, capsys):
    # CHAIN6's largest single check expands 35 nodes, of 528 in its ranking.
    # The budget bounds each check, so the library with and without a stats
    # object and the CLI all rank it at 35 and all stop at 34.
    kb = parse_kb(CHAIN6).kb
    partition = compute_ranking(kb).partition
    for stats in (None, EntailmentStats()):
        assert compute_ranking(kb, TableauConfig(max_nodes=35), stats).partition == partition
        with pytest.raises(ResourceLimitError, match="more than 34 tableau nodes"):
            compute_ranking(kb, TableauConfig(max_nodes=34), stats)
    path = tmp_path / "chain6.dkb"
    path.write_text(CHAIN6)
    assert main(["rank", str(path), "--json", "--max-nodes", "35"]) == 0
    shown = json.loads(capsys.readouterr().out)["partition"]
    assert [[(d["lhs"], d["rhs"]) for d in part] for part in shown] == [
        [(render_concept(d.lhs), render_concept(d.rhs)) for d in part] for part in partition
    ]
    assert main(["rank", str(path), "--max-nodes", "34"]) == 2
    assert capsys.readouterr().err == "resource limit: more than 34 tableau nodes\n"


def test_ranking_checks_match_type_elimination(checks):
    for name in ("corpus", *FAMILIES):
        for kb in _ranked(name):
            compute_ranking(kb)
    assert len(checks) == 64  # 15 on the corpus, then 21, 12 and 16 as pinned above
    assert [got for _, got, _ in checks] == [want for _, _, want in checks]


def test_random_checks_match_type_elimination():
    # 300 seeded checks, with the nodes they expand pinned; none reaches the budget
    atoms, roles = ["A", "B", "C"], ["r"]
    cfg, stats = TableauConfig(max_nodes=5000), EntailmentStats()
    for seed in range(300):
        rng = random.Random(seed)
        tbox = tuple(
            GCI(random_concept(rng, atoms, roles, 2), random_concept(rng, atoms, roles, 2))
            for _ in range(rng.randrange(4))
        )
        c = random_concept(rng, atoms, roles, 3)
        assert is_satisfiable(c, tbox, cfg, stats) == te_satisfiable(c, tbox), (seed, c, tbox)
    assert stats.nodes_expanded == 1325


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_checks_sharing_a_compiled_tbox_keep_their_verdicts(rng):
    # A label cache changes which nodes a check expands, never its verdict,
    # and it only ever skips nodes: a check on the shared compiled TBox agrees
    # with the same check on a fresh one, and expands no more nodes.
    atoms, roles = ["A", "B", "C"], ["r", "s"]
    tbox = CompiledTBox(
        GCI(random_concept(rng, atoms, roles, 2), random_concept(rng, atoms, roles, 2))
        for _ in range(rng.randrange(5))
    )
    cfg = TableauConfig(max_nodes=5000)
    for _ in range(6):
        c = random_concept(rng, atoms, roles, 3)
        fresh, shared = EntailmentStats(), EntailmentStats()
        try:
            verdict = is_satisfiable(c, tuple(tbox), cfg, fresh)
        except ResourceLimitError:
            continue
        assert is_satisfiable(c, tbox, cfg, shared) == verdict, (c, tbox)
        assert shared.nodes_expanded <= fresh.nodes_expanded


def test_the_label_cache_is_bounded(monkeypatch):
    # With room for 4 verdicts, the cache is emptied whenever it is full
    # before it stores another; a dropped verdict is only decided again.
    monkeypatch.setattr(dalc.tableau, "_MAX_VERDICTS", 4)
    sizes = []

    class Recorded(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    rng = random.Random(5)
    atoms, roles = ["A", "B", "C"], ["r", "s"]
    tbox = CompiledTBox(
        GCI(random_concept(rng, atoms, roles, 2), random_concept(rng, atoms, roles, 2)) for _ in range(3)
    )
    tbox.verdicts = Recorded()
    cfg = TableauConfig(max_nodes=5000)
    for _ in range(60):
        c = random_concept(rng, atoms, roles, 3)
        assert is_satisfiable(c, tbox, cfg) == te_satisfiable(c, tbox), c
    assert max(sizes) == 4 and len(sizes) > 4  # it filled up and was emptied
