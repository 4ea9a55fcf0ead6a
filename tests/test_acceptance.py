"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).

Logical verdicts are exact; every criterion also carries a wall-clock
budget, asserted after the work completes.
"""

import random
import time

from dalc.closure import (
    compute_ranking,
    concept_rank,
    rationally_deducible,
)
from dalc.concepts import (
    And,
    Atom,
    BOTTOM,
    DCI,
    GCI,
    Not,
    conjoin,
    materialise,
    vocabulary,
)
from dalc.ranks import Rank
from dalc.search import enumerate_models, search_countermodel
from dalc.semantics import (
    check_postulates,
    disjoint_union,
    ranked_union,
    satisfies,
    satisfies_all,
)
from dalc.tableau import EntailmentStats, entails

import corpus
from generators import random_concept, random_ranked_interpretation

EMP, STUD, PAR = Atom("EmpStud"), Atom("Student"), Atom("Parent")
PAYS_TAX = Atom("Tax")
from dalc.concepts import Exists

PAYS = Exists("pays", Atom("Tax"))


def _run(num: int, desc: str, budget_s: float, fn) -> None:
    t0 = time.monotonic()
    err = None
    try:
        fn()
    except BaseException as e:  # report, then re-raise
        err = e
    dt = time.monotonic() - t0
    ok = err is None and dt < budget_s
    print(
        f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} "
        f"({dt:.2f}s / budget {budget_s:g}s): {desc}",
        flush=True,
    )
    if err is not None:
        raise err
    assert dt < budget_s, f"runtime {dt:.2f}s exceeds {budget_s}s budget"


def test_criterion_01_running_example_ranks():
    def check():
        r = compute_ranking(corpus.student_kb())
        assert r.partition == (
            (DCI(STUD, Not(PAYS)),),
            (DCI(EMP, PAYS),),
            (DCI(And(EMP, PAR), Not(PAYS)),),
        )
        assert r.moved_to_tbox == ()
        assert concept_rank(r, STUD) == Rank.finite(0)
        assert concept_rank(r, EMP) == Rank.finite(1)
        assert concept_rank(r, And(EMP, PAR)) == Rank.finite(2)

    _run(1, "running example: partition D0/D1/D2 and concept ranks 0/1/2", 1.0, check)


def test_criterion_02_running_example_queries():
    def check():
        r = compute_ranking(corpus.student_kb())
        for d in corpus.student_kb().dtbox:
            assert rationally_deducible(r, d).verdict

    _run(2, "running example: all three defaults are IN the closure", 1.0, check)


def test_criterion_03_classical_sanity():
    def check():
        assert entails(corpus.classical_kb().tbox, GCI(EMP, BOTTOM))

    _run(3, "classical five-axiom TBox entails EmpStud [= bot", 1.0, check)


def test_criterion_04_penguin_queries():
    def check():
        r = compute_ranking(corpus.penguin_kb())
        assert rationally_deducible(r, corpus.query("Robin ~[= Wings")).verdict
        assert not rationally_deducible(r, corpus.query("Penguin ~[= Wings")).verdict
        assert rationally_deducible(r, corpus.query("Penguin ~[= !Flies")).verdict

    _run(4, "penguin KB: Robin wings IN, Penguin wings NOT IN, Penguin !Flies IN", 1.0, check)


def test_criterion_05_boss_query():
    def check():
        r = compute_ranking(corpus.boss_kb())
        q = corpus.query("Worker ~[= exists hasSuperior.Responsible")
        assert not rationally_deducible(r, q).verdict

    _run(5, "boss KB: responsible superiors NOT IN (known closure weakness)", 1.0, check)


def test_criterion_06_postulate_suite():
    def check():
        rng = random.Random(0)
        atoms, roles = ["A", "B", "C"], ["r", "s"]
        violations = 0
        for _ in range(1000):
            i = random_ranked_interpretation(rng, rng.randrange(1, 5), atoms, roles)
            samples = [random_concept(rng, atoms, roles, 2) for _ in range(4)]
            violations += len(check_postulates(i, samples))
        assert violations == 0

    _run(
        6,
        "1000 seeded ranked interpretations: zero KLM-postulate violations "
        "(incl. quantified rules, Norm, Cons, strict/defeasible equivalence)",
        60.0,
        check,
    )


def test_criterion_07_ranking_structure():
    def check():
        rng = random.Random(1)
        for name, make in corpus.CORPUS.items():
            kb = make()
            r = compute_ranking(kb)
            # partitions pairwise disjoint, union = D*
            from collections import Counter

            for i in range(len(r.partition)):
                for j in range(i + 1, len(r.partition)):
                    assert not set(r.partition[i]) & set(r.partition[j])
            assert Counter(x for p in r.partition for x in p) == Counter(r.dstar)
            # materialisation monotonicity: later levels are sub-conjunctions,
            # so each level's conjunction entails every later one
            for i in range(len(r.e_seq)):
                for j in range(i, len(r.e_seq)):
                    assert set(materialise(list(r.e_seq[j]))) <= set(
                        materialise(list(r.e_seq[i]))
                    )
                    assert entails(
                        (),
                        GCI(
                            conjoin(materialise(list(r.e_seq[i]))),
                            conjoin(materialise(list(r.e_seq[j]))),
                        ),
                    )
            # rank-comparison formulation agrees with the query procedure
            atoms, roles, _ = vocabulary(kb.axioms)
            atoms, roles = atoms or ["A", "B"], roles or ["r"]
            for _ in range(200):
                ctor = DCI if rng.random() < 0.8 else GCI
                q = ctor(
                    random_concept(rng, atoms, roles, 2),
                    random_concept(rng, atoms, roles, 2),
                )
                got = rationally_deducible(r, q).verdict
                if isinstance(q, GCI):
                    want = concept_rank(r, And(q.lhs, Not(q.rhs))).is_infinite
                else:
                    want = (
                        concept_rank(r, And(q.lhs, q.rhs))
                        < concept_rank(r, And(q.lhs, Not(q.rhs)))
                        or concept_rank(r, q.lhs).is_infinite
                    )
                assert got == want, (name, q)

    _run(
        7,
        "every corpus KB: partition structure, materialisation monotonicity, "
        "and rank-comparison vs query-procedure agreement on 200 queries each",
        120.0,
        check,
    )


def test_criterion_08_oracle_agreement():
    def check():
        for name, qtext, expected in corpus.VERDICTS:
            kb = corpus.CORPUS[name]()
            q = corpus.query(qtext)
            r = compute_ranking(kb)
            assert rationally_deducible(r, q).verdict == expected
            res = search_countermodel(kb, q, 4)
            if res.found:
                # any find must be a genuine KB-model refuting the query
                assert satisfies_all(res.interpretation, kb.axioms)
                assert not satisfies(res.interpretation, q)
            if not expected:
                # NOT IN: a ranked countermodel exists (these KBs are small
                # enough for the bound to witness it)
                assert res.found, (name, qtext)
            elif q in kb.dtbox:
                # IN and part of the KB: every model satisfies it, so the
                # exhaustive bounded search must come up empty
                assert not res.found, (name, qtext)
            else:
                # IN beyond modular entailment (presumption of typicality):
                # bounded countermodels are expected and do not contradict
                # the verdict; Robin ~[= Wings is the corpus instance
                assert res.found and (name, qtext) == ("penguin", "Robin ~[= Wings")

    _run(
        8,
        "bounded oracle (domain <= 4) agrees one-sidedly with every corpus verdict",
        600.0,
        check,
    )


def test_criterion_09_union_closure():
    def check():
        rng = random.Random(2)
        pools = []
        for make in corpus.CORPUS.values():
            kb = make()
            models = enumerate_models(kb, 2, 12)
            assert models
            pools.append((kb, models))
        done = 0
        while done < 100:
            kb, models = pools[done % len(pools)]
            k = rng.choice((2, 3))
            chosen = [rng.choice(models) for _ in range(k)]
            u = ranked_union(chosen)
            assert satisfies_all(u, kb.axioms)
            du = disjoint_union([m.as_preferential() for m in chosen])
            assert satisfies_all(du, kb.axioms)
            done += 1

    _run(9, "100 seeded unions of corpus-KB models are again models", 60.0, check)


def test_criterion_10_cost_bounds():
    def check():
        for name, make in corpus.CORPUS.items():
            kb = make()
            stats = EntailmentStats()
            r = compute_ranking(kb, stats=stats)
            d = len(kb.dtbox)
            assert stats.checks <= d**3 + 2 * d, (name, stats.checks)
            n_plus_2 = len(r.e_seq) + 1  # n + 2 with e_seq = (E0..En)
            queries = [q for nm, q, _ in corpus.VERDICTS if nm == name] or [
                "top ~[= top"
            ]
            for qtext in queries:
                before = stats.checks
                res = rationally_deducible(r, corpus.query(qtext), stats=stats)
                spent = stats.checks - before
                assert res.checks_spent == spent
                assert spent <= n_plus_2, (name, qtext, spent)

    _run(
        10,
        "per-query checks <= n+2 post-ranking; ranking checks <= |D|^3 + 2|D|",
        60.0,
        check,
    )
