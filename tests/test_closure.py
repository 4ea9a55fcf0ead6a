import json
import random

import pytest

from dalc.cli import main
from dalc.closure import (
    QueryResult,
    axiom_rank,
    compute_ranking,
    concept_rank,
    exceptional,
    rationally_deducible,
    tstar_inconsistent,
)
from dalc.concepts import (
    And,
    Atom,
    BOTTOM,
    DCI,
    Exists,
    GCI,
    KnowledgeBase,
    Not,
    Or,
    TOP,
    conjoin,
    materialise,
    vocabulary,
)
from dalc.parser import parse_kb, render_axiom
from dalc.ranks import Rank
from dalc.search import search_countermodel, search_model
from dalc.tableau import EntailmentStats, entails

import corpus
from generators import random_concept

EMP, STUD, PAR = Atom("EmpStud"), Atom("Student"), Atom("Parent")
PAYS_TAX = Exists("pays", Atom("Tax"))


def test_exceptional_running_example():
    kb = corpus.student_kb()
    got = exceptional(kb.tbox, kb.dtbox)
    assert got == (
        DCI(EMP, PAYS_TAX),
        DCI(And(EMP, PAR), Not(PAYS_TAX)),
    )


def test_exceptional_empty():
    assert exceptional((GCI(Atom("A"), Atom("B")),), ()) == ()


def test_exceptional_single_default_not_exceptional():
    kb = KnowledgeBase(dtbox=(DCI(Atom("A"), Atom("B")),))
    assert exceptional((), kb.dtbox) == ()
    # oracle: a ranked model with an A-instance at height 0 exists, so
    # "typical objects are never A" fails
    res = search_countermodel(kb, DCI(TOP, Not(Atom("A"))), 1)
    assert res.found
    assert res.interpretation.heights == (0,)


def test_exceptional_subset_and_fixpoint():
    rng = random.Random(21)
    atoms, roles = ["A", "B", "C"], ["r"]
    for _ in range(20):
        tbox = tuple(
            GCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(2))
        )
        d = tuple(
            DCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(1, 5))
        )
        chain = [d]
        while True:
            nxt = exceptional(tbox, chain[-1])
            assert set(nxt) <= set(chain[-1])  # always a subset
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        assert len(chain) <= len(d) + 1  # fixpoint within |E| steps


def test_compute_ranking_running_example():
    r = compute_ranking(corpus.student_kb())
    assert r.partition == (
        (DCI(STUD, Not(PAYS_TAX)),),
        (DCI(EMP, PAYS_TAX),),
        (DCI(And(EMP, PAR), Not(PAYS_TAX)),),
    )
    assert r.moved_to_tbox == ()
    assert r.e_seq[0] == r.dstar
    assert len(r.e_seq) == 3


def test_compute_ranking_empty_dtbox():
    kb = KnowledgeBase(tbox=(GCI(Atom("A"), Atom("B")),))
    r = compute_ranking(kb)
    assert r.e_seq == ()
    assert r.partition == ()
    assert r.tstar == kb.tbox
    assert r.dstar == ()


def test_compute_ranking_contradictory_defaults():
    kb = corpus.contradictory_kb()
    r = compute_ranking(kb)
    assert set(r.moved_to_tbox) == set(kb.dtbox)
    assert r.dstar == ()
    assert GCI(Atom("A"), Atom("B")) in r.tstar
    assert GCI(Atom("A"), Not(Atom("B"))) in r.tstar
    # oracle: no bounded model gives A a non-empty extension
    for bound in (1, 2, 3):
        assert not search_countermodel(kb, GCI(Atom("A"), BOTTOM), bound).found
    # while the KB itself stays satisfiable
    assert search_model(kb, 2).found


def test_compute_ranking_duplicates_kept_together():
    d = DCI(Atom("A"), Atom("B"))
    r = compute_ranking(KnowledgeBase(dtbox=(d, d)))
    assert r.partition == ((d, d),)


def test_compute_ranking_needs_two_promotion_passes():
    # C ~[= exists r.A only becomes always-exceptional after the conflicting
    # A-defaults are promoted to the TBox (emptying A), so a single
    # exceptionality fixpoint is not enough; the outer loop must run again.
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    kb = KnowledgeBase(
        dtbox=(DCI(a, b), DCI(a, Not(b)), DCI(c, Exists("r", a)))
    )
    r = compute_ranking(kb)
    # promotion order records the two passes: the A-pair first, then C
    assert r.moved_to_tbox == (DCI(a, b), DCI(a, Not(b)), DCI(c, Exists("r", a)))
    assert r.dstar == () and r.e_seq == ()
    assert GCI(c, Exists("r", a)) in r.tstar
    assert not tstar_inconsistent(r)
    # oracle: the KB has models, but none with an A- or C-instance
    assert search_model(kb, 2).found
    for bound in (1, 2, 3):
        assert not search_countermodel(kb, GCI(a, BOTTOM), bound).found
        assert not search_countermodel(kb, GCI(c, BOTTOM), bound).found


def test_top_and_bottom_disjuncts_stay_within_the_default_budget():
    # Before nnf simplified ⊤ and ⊥ away, this KB's ⊤ ⊑ ⊥ check passed the
    # default 100,000 tableau nodes.
    kb = parse_kb(corpus.SEED12).kb
    r = compute_ranking(kb)
    assert r.moved_to_tbox == kb.dtbox and r.partition == ()
    assert tstar_inconsistent(r)
    # oracle: not even a one-element model
    assert not search_model(kb, 1).found


def test_a_trivial_query_on_seed209_answers():
    # Seed 209's ⊤ ⊑ ⊥ check passes the default node budget (see ROADMAP 5b),
    # so a query that ran it first could not answer even ``C ⊑ C``.
    r = compute_ranking(parse_kb(corpus.SEED209).kb)
    stats = EntailmentStats()
    res = rationally_deducible(r, GCI(Atom("C"), Atom("C")), stats=stats)
    assert (res.verdict, res.decided_at, res.checks_spent) == (True, Rank.infinite(), 1)
    assert (stats.checks, stats.nodes_expanded) == (1, 1)


def test_tstar_inconsistent_checks_only_a_ranking_without_levels():
    # A level of the final round has a DCI compatible with it under T*, so
    # T* is consistent; the ⊤ ⊑ ⊥ check runs only when there is no level.
    stats = EntailmentStats()
    assert not tstar_inconsistent(compute_ranking(corpus.student_kb()), stats=stats)
    assert stats.checks == 0
    r = compute_ranking(parse_kb(corpus.SEED12).kb)
    assert r.e_seq == ()
    assert tstar_inconsistent(r, stats=stats)
    assert stats.checks == 1


def test_exceptionality_claims_confirmed_by_oracle():
    # Materialisation-based exceptionality is sound: whenever the engine
    # declares an antecedent exceptional, no bounded ranked model of the KB
    # may place an instance of it at height zero.
    rng = random.Random(31)
    atoms, roles = ["A", "B"], ["r"]
    confirmed = 0
    for _ in range(40):
        tbox = tuple(
            GCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(2))
        )
        dtbox = tuple(
            DCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(1, 4))
        )
        kb = KnowledgeBase(tbox, dtbox)
        exceptional_now = set(exceptional(tbox, dtbox))
        for d in dtbox:
            witness = search_countermodel(kb, DCI(TOP, Not(d.lhs)), 2)
            if d in exceptional_now:
                # a typicality witness would contradict exceptionality
                assert not witness.found, (kb, d)
                confirmed += 1
            # the converse is one-sided: a non-exceptional verdict at this
            # single level needs no bounded witness
    assert confirmed >= 10


def test_query_verdicts_consistent_with_bounded_oracle_on_random_kbs():
    # NOT IN: any bounded countermodel found must be genuine (checked inside
    # the search, re-checked here).  Axioms of the KB itself are satisfied in
    # every model, so their searches must come up empty.
    rng = random.Random(37)
    atoms, roles = ["A", "B"], ["r"]
    for _ in range(25):
        dtbox = tuple(
            DCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(1, 4))
        )
        kb = KnowledgeBase(dtbox=dtbox)
        r = compute_ranking(kb)
        for d in dtbox:
            assert not search_countermodel(kb, d, 2).found
        q = DCI(
            random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1)
        )
        res = rationally_deducible(r, q)
        witness = search_countermodel(kb, q, 2)
        if witness.found:
            from dalc.semantics import satisfies, satisfies_all

            assert satisfies_all(witness.interpretation, kb.axioms)
            assert not satisfies(witness.interpretation, q)


def test_partition_disjoint_union_is_dstar():
    from collections import Counter

    for make in corpus.CORPUS.values():
        r = compute_ranking(make())
        for i in range(len(r.partition)):
            for j in range(i + 1, len(r.partition)):
                assert not set(r.partition[i]) & set(r.partition[j])
        assert Counter(x for part in r.partition for x in part) == Counter(r.dstar)


def test_e_seq_decreasing_and_materialisation_monotone():
    for make in corpus.CORPUS.values():
        r = compute_ranking(make())
        for i in range(len(r.e_seq)):
            for j in range(i, len(r.e_seq)):
                # later exceptionality sets are subsets, so their
                # materialisations are too ...
                assert set(r.e_seq[j]) <= set(r.e_seq[i])
                assert set(materialise(list(r.e_seq[j]))) <= set(
                    materialise(list(r.e_seq[i]))
                )
                # ... and the level-i conjunction entails the level-j one
                mi = conjoin(materialise(list(r.e_seq[i])))
                mj = conjoin(materialise(list(r.e_seq[j])))
                assert entails((), GCI(mi, mj))


def test_materialisation_monotonicity_strict_direction_fails():
    # The converse subsumption direction does not hold: on the running
    # example an object satisfying the level-1 conjunction need not satisfy
    # the level-0 one (a tax-paying non-employed student refutes it), so the
    # valid direction asserted above is the only one.
    r = compute_ranking(corpus.student_kb())
    m0 = conjoin(materialise(list(r.e_seq[0])))
    m1 = conjoin(materialise(list(r.e_seq[1])))
    assert not entails((), GCI(m1, m0))
    assert not entails(r.tstar, GCI(m1, m0))


def test_concept_rank_running_example():
    r = compute_ranking(corpus.student_kb())
    assert concept_rank(r, STUD) == Rank.finite(0)
    assert concept_rank(r, EMP) == Rank.finite(1)
    assert concept_rank(r, And(EMP, PAR)) == Rank.finite(2)
    assert concept_rank(r, BOTTOM) == Rank.infinite()


def test_rank_values():
    with pytest.raises(ValueError, match="non-negative"):
        Rank.finite(-1)
    assert str(Rank.finite(2)) == "2" and str(Rank.infinite()) == "infinity"
    assert Rank.finite(2) < Rank.infinite() and not Rank.infinite() < Rank.finite(2)
    with pytest.raises(TypeError):
        Rank.finite(1) < 1


def test_concept_rank_beyond_last_level():
    # exceptional at every level yet TBox-satisfiable: ranked just past the
    # last exceptionality level, not infinite
    r = compute_ranking(corpus.student_kb())
    c = And(And(EMP, PAR), PAYS_TAX)
    assert concept_rank(r, c) == Rank.finite(3)
    assert len(r.e_seq) == 3


def test_axiom_rank():
    r = compute_ranking(corpus.student_kb())
    assert axiom_rank(r, DCI(EMP, PAYS_TAX)) == Rank.finite(1)
    # rank of a GCI C [= D is the rank of C & !D
    assert axiom_rank(r, GCI(STUD, Not(PAYS_TAX))) == concept_rank(
        r, And(STUD, PAYS_TAX)
    )


def test_rationally_deducible_worked_queries():
    rankings = {name: compute_ranking(make()) for name, make in corpus.CORPUS.items()}
    for name, qtext, expected in corpus.VERDICTS:
        res = rationally_deducible(rankings[name], corpus.query(qtext))
        assert res.verdict == expected, (name, qtext)


def test_rationally_deducible_decided_levels():
    r = compute_ranking(corpus.student_kb())
    res = rationally_deducible(r, DCI(STUD, Not(PAYS_TAX)))
    assert res.verdict and res.decided_at == Rank.finite(0)
    res = rationally_deducible(r, DCI(EMP, PAYS_TAX))
    assert res.verdict and res.decided_at == Rank.finite(1)
    res = rationally_deducible(r, DCI(And(EMP, PAR), Not(PAYS_TAX)))
    assert res.verdict and res.decided_at == Rank.finite(2)


def test_rationally_deducible_gci_query():
    r = compute_ranking(corpus.student_kb())
    res = rationally_deducible(r, GCI(EMP, STUD))
    assert res.verdict
    assert res.decided_at.is_infinite
    assert not rationally_deducible(r, GCI(STUD, EMP)).verdict


def test_rationally_deducible_on_unsatisfiable_antecedent():
    r = compute_ranking(corpus.student_kb())
    res = rationally_deducible(r, DCI(BOTTOM, Atom("Anything")))
    assert res.verdict
    assert res.decided_at.is_infinite


def test_top_top_query():
    for make in corpus.CORPUS.values():
        r = compute_ranking(make())
        if not tstar_inconsistent(r):
            assert rationally_deducible(r, DCI(TOP, TOP)).verdict


def _definition20_verdict(r, q) -> bool:
    lhs, rhs = q.lhs, q.rhs
    if isinstance(q, GCI):
        return concept_rank(r, And(lhs, Not(rhs))).is_infinite
    return (
        concept_rank(r, And(lhs, rhs)) < concept_rank(r, And(lhs, Not(rhs)))
        or concept_rank(r, lhs).is_infinite
    )


def test_rank_comparison_agrees_with_query_procedure():
    rng = random.Random(17)
    for name, make in corpus.CORPUS.items():
        kb = make()
        r = compute_ranking(kb)
        atoms, roles, _ = vocabulary(kb.axioms)
        atoms, roles = atoms or ["A", "B"], roles or ["r"]
        for _ in range(40):
            ctor = DCI if rng.random() < 0.8 else GCI
            q = ctor(
                random_concept(rng, atoms, roles, 2),
                random_concept(rng, atoms, roles, 2),
            )
            assert rationally_deducible(r, q).verdict == _definition20_verdict(r, q), (
                name,
                q,
            )


def test_supra_classicality():
    rng = random.Random(23)
    kb = corpus.student_kb()
    r = compute_ranking(kb)
    atoms, roles = ["EmpStud", "Student", "Parent", "Tax"], ["pays"]
    checked = 0
    for _ in range(300):
        c = random_concept(rng, atoms, roles, 2)
        d = random_concept(rng, atoms, roles, 2)
        if entails(r.tstar, GCI(c, d)):
            assert rationally_deducible(r, DCI(c, d)).verdict
            checked += 1
    assert checked >= 20


def test_query_relation_is_rational():
    # The induced relation on sampled concepts satisfies the closure rules
    # (LLE and RW premises are classical-validity side conditions).
    rng = random.Random(29)
    kb = corpus.student_kb()
    r = compute_ranking(kb)
    atoms, roles = ["EmpStud", "Student", "Parent", "Tax"], ["pays"]
    samples = [random_concept(rng, atoms, roles, 1) for _ in range(5)] + [TOP, BOTTOM]

    def rat(c, d):
        return rationally_deducible(r, DCI(c, d)).verdict

    for c in samples:
        assert rat(c, c)  # Ref
    assert not rat(TOP, BOTTOM)  # Cons (the KB is consistent)
    import itertools

    for c, d, e in itertools.product(samples, repeat=3):
        if entails((), GCI(c, d)) and entails((), GCI(d, c)) and rat(c, e):
            assert rat(d, e)  # LLE
        if rat(c, d) and rat(c, e):
            assert rat(c, And(d, e))  # And
            assert rat(And(c, d), e)  # CM
        if rat(c, e) and rat(d, e):
            assert rat(Or(c, d), e)  # Or
        if rat(c, d) and entails((), GCI(d, e)):
            assert rat(c, e)  # RW
        if rat(c, d) and not rat(c, Not(e)):
            assert rat(And(c, e), d)  # RM


def test_query_cost_bound():
    for name, make in corpus.CORPUS.items():
        kb = make()
        stats = EntailmentStats()
        r = compute_ranking(kb, stats=stats)
        n_plus_2 = len(r.e_seq) + 1  # e_seq holds n+1 levels, so this is n+2
        for _, qtext, _ in [v for v in corpus.VERDICTS if v[0] == name]:
            before = stats.checks
            res = rationally_deducible(r, corpus.query(qtext), stats=stats)
            assert res.checks_spent == stats.checks - before
            assert 1 <= res.checks_spent <= n_plus_2


def test_ranking_cost_bound():
    for make in corpus.CORPUS.values():
        kb = make()
        stats = EntailmentStats()
        compute_ranking(kb, stats=stats)
        d = len(kb.dtbox)
        assert stats.checks <= d**3 + 2 * d


def test_inconsistent_tbox_flagged_and_trivial(capsys, tmp_path):
    kb = KnowledgeBase(tbox=(GCI(TOP, BOTTOM),), dtbox=(DCI(Atom("A"), Atom("B")),))
    r = compute_ranking(kb)
    assert tstar_inconsistent(r)
    assert not search_model(kb, 2).found
    path = tmp_path / "inconsistent.dkb"
    path.write_text("".join(render_axiom(a) + "\n" for a in kb.axioms))
    for q in (DCI(Atom("A"), Not(Atom("A"))), GCI(TOP, BOTTOM), DCI(TOP, BOTTOM)):
        res = rationally_deducible(r, q)
        assert res.verdict
        assert main(["query", str(path), "-q", render_axiom(q), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kb_inconsistent"] is True


def test_consistent_corpus_not_flagged():
    for make in corpus.CORPUS.values():
        r = compute_ranking(make())
        assert not tstar_inconsistent(r)
        # consistency of T* matches bounded model existence on this corpus
        assert search_model(make(), 2).found


def test_query_result_shape():
    r = compute_ranking(corpus.student_kb())
    res = rationally_deducible(r, DCI(STUD, STUD))
    assert isinstance(res, QueryResult)
    assert QueryResult.__match_args__ == ("verdict", "decided_at", "checks_spent")
    assert res.checks_spent >= 1
    assert not tstar_inconsistent(r)


def test_a_query_makes_only_the_checks_it_reports():
    stats = EntailmentStats()
    r = compute_ranking(corpus.penguin_kb(), stats=stats)
    before = stats.checks
    res = rationally_deducible(r, corpus.query("Penguin ~[= Wings"), stats=stats)
    assert (res.verdict, res.decided_at, res.checks_spent) == (False, Rank.finite(1), 3)
    assert stats.checks - before == 3


def _exception_chain(n):
    """A{i+1} [= A{i}, with A{i} ~[= B for even i and A{i} ~[= !B for odd i."""
    b = Atom("B")
    return KnowledgeBase(
        tbox=tuple(GCI(Atom(f"A{i + 1}"), Atom(f"A{i}")) for i in range(n - 1)),
        dtbox=tuple(DCI(Atom(f"A{i}"), b if i % 2 == 0 else Not(b)) for i in range(n)),
    )


def test_exception_chain_exact_check_counts():
    n = 6
    stats = EntailmentStats()
    r = compute_ranking(_exception_chain(n), stats=stats)
    assert stats.checks == n * (n + 1) // 2
    assert r.partition == tuple((d,) for d in _exception_chain(n).dtbox)
    for i in range(n):
        a = Atom(f"A{i}")
        stats = EntailmentStats()
        assert concept_rank(r, a, stats=stats) == Rank.finite(i)
        assert stats.checks == i + 1
        stats = EntailmentStats()
        res = rationally_deducible(r, DCI(a, Atom("B")), stats=stats)
        assert res.verdict == (i % 2 == 0)
        assert res.decided_at == Rank.finite(i)
        assert res.checks_spent == stats.checks == i + 2
    stats = EntailmentStats()
    res = rationally_deducible(r, GCI(Atom("A3"), Atom("A1")), stats=stats)
    assert (res.verdict, res.decided_at) == (True, Rank.infinite())
    assert res.checks_spent == stats.checks == 1
