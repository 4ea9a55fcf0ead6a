"""Seeded random interpretations and concepts for the tests, the naive
enumeration that the oracle's configuration-space search is checked against,
the filter that its height vectors are checked against, the ``isinstance``
negation normal form that ``dalc.concepts.nnf`` is checked against, and
``te_satisfiable``, the type elimination that the tableau's verdicts are
checked against.  Type elimination reads the oracle's element types and
shares no code with the tableau."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from dalc.concepts import (
    BOTTOM, GCI, TOP, And, Atom, Axiom, Bottom, Concept, Exists, Forall, KnowledgeBase, Not, Or, Top,
)
from dalc.search import _ConfigSpace, _valid_types, _vocabulary
from dalc.semantics import (
    FiniteInterpretation, RankedInterpretation, _ext_mask, convex_height_vectors, satisfies, satisfies_all,
)


def _iter_ranked_interpretations(
    atoms: Sequence[str], roles: Sequence[str], max_domain: int
):
    """Naive reference enumeration (every atom extension, role extension and
    convex height map).  Exponential in everything; used to cross-validate
    the configuration-space search on tiny vocabularies."""
    for n in range(1, max_domain + 1):
        elems = range(n)
        atom_choices = [frozenset(s) for k in range(n + 1) for s in itertools.combinations(elems, k)]
        pair_list = [(x, y) for x in elems for y in elems]
        role_choices = [
            frozenset(s)
            for k in range(len(pair_list) + 1)
            for s in itertools.combinations(pair_list, k)
        ]
        for atom_ext in itertools.product(atom_choices, repeat=len(atoms)):
            for role_ext in itertools.product(role_choices, repeat=len(roles)):
                base = FiniteInterpretation(
                    n,
                    dict(zip(atoms, atom_ext)),
                    dict(zip(roles, role_ext)),
                )
                for hv in convex_height_vectors(n):
                    yield RankedInterpretation(base, hv)


def convex_height_vectors_by_filter(n: int) -> tuple[tuple[int, ...], ...]:
    """``convex_height_vectors`` as it was: every one of the n^n tuples,
    kept when its heights are exactly 0..max."""
    return tuple(
        hv for hv in itertools.product(range(n), repeat=n) if set(hv) == set(range(max(hv) + 1))
    )


def _search_naive(
    kb: KnowledgeBase, query: Optional[Axiom], max_domain: int
) -> Optional[RankedInterpretation]:
    atoms, roles, _ = _vocabulary(kb, (query,) if query is not None else ())
    for r in _iter_ranked_interpretations(atoms, roles, max_domain):
        if satisfies_all(r, kb.axioms) and (query is None or not satisfies(r, query)):
            return r
    return None


def random_ranked_interpretation(rng, domain_size: int, atoms: Sequence[str], roles: Sequence[str]) -> RankedInterpretation:
    atom_ext = {
        a: frozenset(x for x in range(domain_size) if rng.random() < 0.5)
        for a in atoms
    }
    role_ext = {
        r: frozenset(
            (x, y)
            for x in range(domain_size)
            for y in range(domain_size)
            if rng.random() < 0.3
        )
        for r in roles
    }
    raw = [rng.randrange(domain_size) for _ in range(domain_size)]
    levels = {h: i for i, h in enumerate(sorted(set(raw)))}
    heights = tuple(levels[h] for h in raw)
    return RankedInterpretation(
        FiniteInterpretation(domain_size, atom_ext, role_ext), heights
    )


def random_concept(rng, atoms: Sequence[str], roles: Sequence[str], depth: int) -> Concept:
    if depth <= 0:
        leaf = rng.randrange(len(atoms) + 2)
        if leaf == len(atoms):
            return TOP
        if leaf == len(atoms) + 1:
            return BOTTOM
        return Atom(atoms[leaf])
    kind = rng.randrange(6 if roles else 4)
    if kind == 0:
        return random_concept(rng, atoms, roles, 0)
    if kind == 1:
        return Not(random_concept(rng, atoms, roles, depth - 1))
    if kind == 2:
        return And(
            random_concept(rng, atoms, roles, depth - 1),
            random_concept(rng, atoms, roles, depth - 1),
        )
    if kind == 3:
        return Or(
            random_concept(rng, atoms, roles, depth - 1),
            random_concept(rng, atoms, roles, depth - 1),
        )
    ctor = Exists if kind == 4 else Forall
    return ctor(
        roles[rng.randrange(len(roles))],
        random_concept(rng, atoms, roles, depth - 1),
    )


def reference_nnf(c: Concept) -> Concept:
    """``dalc.concepts.nnf`` as it was when it dispatched with ``isinstance``,
    which also let instances of subclasses of the concept classes through."""
    while isinstance(c, Not):  # push the negation inward by one constructor
        inner = c.operand
        if isinstance(inner, Atom):
            return c
        if isinstance(inner, (Top, Bottom)):
            return BOTTOM if isinstance(inner, Top) else TOP
        if isinstance(inner, Not):
            c = inner.operand
        elif isinstance(inner, (And, Or)):
            dual = Or if isinstance(inner, And) else And
            c = dual(Not(inner.left), Not(inner.right))
        elif isinstance(inner, (Exists, Forall)):
            dual = Forall if isinstance(inner, Exists) else Exists
            c = dual(inner.role, Not(inner.filler))
        else:
            raise TypeError("not a concept: %r" % (inner,))
    if isinstance(c, (And, Or)):
        zero, unit = (BOTTOM, TOP) if isinstance(c, And) else (TOP, BOTTOM)
        left, right = reference_nnf(c.left), reference_nnf(c.right)
        if left is zero or right is zero:
            return zero
        if left is unit:
            return right
        return left if right is unit else type(c)(left, right)
    if isinstance(c, (Exists, Forall)):
        filler = reference_nnf(c.filler)
        zero = BOTTOM if isinstance(c, Exists) else TOP
        return zero if filler is zero else type(c)(c.role, filler)
    if isinstance(c, (Top, Bottom, Atom)):
        return c
    raise TypeError("not a concept: %r" % (c,))


def te_satisfiable(c: Concept, tbox: Sequence[GCI] = ()) -> bool:
    """Whether some classical interpretation satisfies every GCI of ``tbox``
    and gives ``c`` a non-empty extension, decided by type elimination
    (Pratt 1979; Baader et al., *An Introduction to Description Logic*,
    2017).  A type is one of the oracle's element types: a bit per
    atom and quantified subconcept of ``c`` and ``tbox``, kept when a single
    element of it satisfies every GCI.  Each round drops the types with a
    demand (an existential that holds, a universal that fails) that no type
    still alive meets within what the type's quantifiers on that role allow.  At the fixpoint the alive types, each joined to every successor
    it may have, form a model, so ``c`` is satisfiable iff an alive type is
    in it.  A round works per role: the types are grouped by the bits of
    their quantifiers on it (the signature) and the successors by which of
    those quantifiers' fillers they are in (the profile)."""
    atoms, _, quantified = _vocabulary(KnowledgeBase(tbox=tuple(tbox)), [c])
    fields = quantified + [Atom(a) for a in atoms]
    one = _ConfigSpace(1, fields, _valid_types(fields, tuple(tbox)))
    block = one.build_sorted(0, one.rows)  # one row per type, one bit per row
    by_role: dict[str, list[Concept]] = {}
    for q in quantified:
        by_role.setdefault(q.role, []).append(q)
    roles = []
    for qs in by_role.values():
        signature, profile = (
            sum(_ext_mask(block, d).astype(np.int64) << j for j, d in enumerate(ds))
            for ds in (qs, [q.filler for q in qs])
        )
        every = sum(1 << j for j, q in enumerate(qs) if isinstance(q, Forall))
        some = sum(1 << j for j, q in enumerate(qs) if isinstance(q, Exists))
        roles.append((signature, profile, every, some))
    alive = np.ones(one.rows, dtype=bool)
    while True:
        before = int(alive.sum())
        for signature, profile, every, some in roles:
            sigs = np.unique(signature[alive])
            profs = np.unique(profile[alive])[None, :]
            s = sigs[:, None]
            # a successor must be in each filler of a universal that holds,
            # and outside each filler of an existential that fails
            allowed = ((s & every & ~profs) | (~s & some & profs)) == 0
            inside = np.bitwise_or.reduce(np.where(allowed, profs, 0), axis=1)
            outside = np.bitwise_or.reduce(np.where(allowed, ~profs, 0), axis=1)
            met = ((sigs & some & ~inside) | (~sigs & every & ~outside)) == 0
            alive[alive] = met[np.searchsorted(sigs, signature[alive])]
        if int(alive.sum()) == before:
            return bool(_ext_mask(block, c)[alive].any())
