"""Rational closure: exceptionality, DCI ranking, rank normal form, and
query answering, built entirely on classical entailment.

The ranking procedure iterates the exceptionality operator to a fixpoint,
promotes the fixpoint (the infinite-rank axioms) into the TBox, and repeats
until the fixpoint is empty.  The resulting knowledge base is in rank normal
form and, together with the exceptionality sequence, answers any query with
at most ``n + 2`` further classical checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .concepts import (
    And,
    Axiom,
    BOTTOM,
    Concept,
    DCI,
    GCI,
    KnowledgeBase,
    Not,
    TOP,
    _Value,
    conjoin,
    materialise,
)
from .ranks import Rank
from .tableau import CompiledTBox, EntailmentStats, entails


class Ranking(_Value):
    """Output of ``compute_ranking``.

    ``e_seq`` is the exceptionality sequence E0 ⊇ E1 ⊇ ... ⊇ En of the final
    normalisation pass (the empty fixpoint beyond it is left implicit), and
    ``partition`` its consecutive differences D0, .., Dn.  ``moved_to_tbox``
    collects the infinite-rank DCIs whose strict versions were promoted into
    ``tstar``.  ``materialisations`` holds the conjoined materialisation of
    each level of ``e_seq``, in the same order.  ``tstar`` is the last
    promotion round's ``CompiledTBox``, so the checks of the ranking and of
    its queries share one cache of successor verdicts.
    """

    tstar: tuple[GCI, ...]
    dstar: tuple[DCI, ...]
    e_seq: tuple[tuple[DCI, ...], ...]
    partition: tuple[tuple[DCI, ...], ...]
    moved_to_tbox: tuple[DCI, ...]
    materialisations: tuple[Concept, ...]


class QueryResult(_Value):
    """Verdict plus provenance: the level that decided the query (infinite
    when the TBox-only fallback fired) and the classical checks it spent,
    which are all the checks the query made."""

    verdict: bool
    decided_at: Rank
    checks_spent: int


def exceptional(
    tstar: Sequence[GCI], dprime: Sequence[DCI], stats: Optional[EntailmentStats] = None
) -> tuple[DCI, ...]:
    """The DCIs of ``dprime`` whose antecedent is incompatible with the
    materialisation of ``dprime`` under ``tstar``; order preserved."""
    mat = conjoin(materialise(list(dprime)))
    return tuple(d for d in dprime if entails(tstar, GCI(mat, Not(d.lhs)), stats))


def compute_ranking(kb: KnowledgeBase, stats: Optional[EntailmentStats] = None) -> Ranking:
    """Iterate exceptionality to a fixpoint, promote the fixpoint into the
    TBox, and repeat until the fixpoint is empty.  T* is compiled once per
    round; the promoted GCIs follow ``kb.tbox`` in it."""
    tstar = CompiledTBox(kb.tbox)
    moved: list[DCI] = []
    seq: list[tuple[DCI, ...]] = [kb.dtbox]  # this round's E0 ⊇ E1 ⊇ ...
    while True:
        nxt = exceptional(tstar, seq[-1], stats)
        if nxt != seq[-1]:
            seq.append(nxt)
        elif not nxt:
            break
        else:  # a non-empty fixpoint: promote it, restart from the DCIs left
            tstar = CompiledTBox(tstar + tuple(GCI(d.lhs, d.rhs) for d in nxt))
            moved.extend(nxt)
            seq = [tuple(d for d in seq[0] if d not in nxt)]
    e_seq = tuple(seq[:-1])
    partition = tuple(
        tuple(d for d in e if d not in nxt)
        for e, nxt in zip(e_seq, e_seq[1:] + ((),))
    )
    return Ranking(
        tstar=tstar,
        dstar=seq[0],
        e_seq=e_seq,
        partition=partition,
        moved_to_tbox=tuple(moved),
        materialisations=tuple(conjoin(materialise(list(e))) for e in e_seq),
    )


def _compatible_level(
    r: Ranking, levels: Sequence[Concept], c: Concept, stats: Optional[EntailmentStats]
) -> Optional[int]:
    """The index of the first materialisation in ``levels`` compatible with
    ``c`` under the normalized TBox, or None when every one is incompatible;
    one classical check per level scanned."""
    for i, mat in enumerate(levels):
        if not entails(r.tstar, GCI(mat, Not(c)), stats):
            return i
    return None


def concept_rank(r: Ranking, c: Concept, stats: Optional[EntailmentStats] = None) -> Rank:
    """The least level whose materialisation is compatible with ``c`` under
    the normalized TBox.

    Levels run through E0..En and then the implicit empty fixpoint, whose
    materialisation is ⊤, so a concept exceptional at every listed level but
    satisfiable w.r.t. the TBox alone gets the finite rank n+1 rather than
    infinity; only TBox-unsatisfiable concepts are infinite.  This is what
    makes the rank-comparison form of rational closure agree with the query
    procedure on every input.
    """
    i = _compatible_level(r, r.materialisations + (TOP,), c, stats)
    return Rank.infinite() if i is None else Rank.finite(i)


def axiom_rank(r: Ranking, a: Axiom, stats: Optional[EntailmentStats] = None) -> Rank:
    """Rank of a DCI is the rank of its antecedent; rank of a GCI ``C ⊑ D``
    is the rank of ``C ⊓ ¬D``."""
    if isinstance(a, DCI):
        return concept_rank(r, a.lhs, stats)
    return concept_rank(r, And(a.lhs, Not(a.rhs)), stats)


def tstar_inconsistent(r: Ranking, stats: Optional[EntailmentStats] = None) -> bool:
    """Whether the normalized TBox entails ⊤ ⊑ ⊥ (no modular model exists).

    A ranking with a level has already shown T* consistent: the last pass of
    the final round found a DCI whose antecedent is compatible with that
    level under T*.  So this makes one classical check, and only when
    ``e_seq`` is empty.
    """
    return not r.e_seq and entails(r.tstar, GCI(TOP, BOTTOM), stats)


def rationally_deducible(r: Ranking, q: Axiom, stats: Optional[EntailmentStats] = None) -> QueryResult:
    """Decide membership of ``q`` in the rational closure, in n + 2 checks at most.

    For a DCI ``C ⊑~ D``: find the first level whose materialisation is
    compatible with ``C`` and test the strengthened subsumption there; if
    every level is incompatible, test it at the implicit level ⊤, which is
    the plain TBox subsumption.  A GCI query is decided at that level alone.
    """
    if stats is None:
        stats = EntailmentStats()
    start = stats.checks
    i = None if isinstance(q, GCI) else _compatible_level(r, r.materialisations, q.lhs, stats)
    mat = TOP if i is None else r.materialisations[i]
    verdict = entails(r.tstar, GCI(And(mat, q.lhs), q.rhs), stats)
    decided = Rank.infinite() if i is None else Rank.finite(i)
    return QueryResult(verdict, decided, stats.checks - start)
