"""The tableau against type elimination (``generators.te_satisfiable``), a
second classical decision procedure that shares no code with it: every
classical check that a ranking, its queries and the ⊤ ⊑ ⊥ check of its T*
make, on the corpus and on seeded random one-role KBs.  The 1,000-seed run
is marked ``slow`` and deselected by default; run it with ``-m slow``."""

import random

import pytest

from dalc.closure import compute_ranking, concept_rank, rationally_deducible, tstar_inconsistent
from dalc.concepts import DCI, GCI, And, KnowledgeBase, Not
from dalc.parser import render_axiom
from dalc.tableau import EntailmentStats

import corpus
from generators import random_concept


def draw(seed):
    """A random one-role KB and 5 DCI queries: from ``random.Random(seed)``,
    over atoms A-D and role r, 2 GCIs with both sides of depth 1, then 6
    DCIs and the 5 queries with both sides of depth 2.  Seeds 12 and 209
    draw ``corpus.SEED12`` and ``corpus.SEED209``."""
    rng = random.Random(seed)

    def axioms(ctor, depth, count):
        return [ctor(*(random_concept(rng, "ABCD", "r", depth) for _ in "lr")) for _ in range(count)]

    return KnowledgeBase(axioms(GCI, 1, 2), axioms(DCI, 2, 6)), axioms(DCI, 2, 5)


def _replay(kb, queries):
    """Rank ``kb``, answer each query and ask whether T* is inconsistent.
    If it is, every concept's rank is infinite and every query is in the
    rational closure.  If not, check each verdict against the rank
    comparison: C ⊑~ D is in iff rank(C ⊓ D) < rank(C ⊓ ¬D) or C's rank is
    infinite.  Every check runs in one session; returns its node count."""
    stats = EntailmentStats()
    r = compute_ranking(kb, stats)
    verdicts = [rationally_deducible(r, q, stats).verdict for q in queries]
    if tstar_inconsistent(r, stats):
        assert all(verdicts)
        return stats.nodes_expanded
    for q, verdict in zip(queries, verdicts):
        ranks = [concept_rank(r, c, stats) for c in (And(q.lhs, q.rhs), And(q.lhs, Not(q.rhs)), q.lhs)]
        assert verdict == (ranks[0] < ranks[1] or ranks[2].is_infinite), q
    return stats.nodes_expanded


def _inputs(name):
    if name in corpus.CORPUS:
        return corpus.CORPUS[name](), [corpus.query(q) for kb, q, _ in corpus.VERDICTS if kb == name]
    return draw(int(name.removeprefix("seed")))


@pytest.mark.parametrize("name", [*corpus.CORPUS, "seed12", "seed209"])
def test_the_tableau_agrees_with_type_elimination(name, checks):
    _replay(*_inputs(name))
    assert checks
    # seed 209's T* is inconsistent, and its tableau closes by backjumping
    # over the disjunctions that its clashes do not rest on
    assert [(g, want) for g, got, want in checks if got is None] == []


@pytest.mark.slow
def test_the_tableau_agrees_with_type_elimination_on_1000_random_kbs(checks):
    gave_up, compared, nodes = [], 0, 0
    for seed in range(1000):
        nodes += _replay(*draw(seed))
        gave_up += [(seed, g, want) for g, got, want in checks if got is None]
        compared += len(checks)
        checks.clear()
    for seed, g, want in gave_up:
        print(f"seed {seed}: the tableau gave up on {render_axiom(g)}; type elimination: entailed={want}")
    # every check's nodes, not only the 300 random ones tier-1 pins
    assert (compared, nodes) == (34_433, 308_018)
    assert gave_up == []
