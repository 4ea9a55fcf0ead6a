"""Seeded random interpretations and concepts for the tests, and the naive
enumeration that the oracle's configuration-space search is checked against."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from dalc.concepts import BOTTOM, TOP, And, Atom, Axiom, Concept, Exists, Forall, KnowledgeBase, Not, Or
from dalc.semantics import (
    FiniteInterpretation, RankedInterpretation, _vocabulary, convex_height_vectors, satisfies, satisfies_all,
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


def _search_naive(
    kb: KnowledgeBase, query: Optional[Axiom], max_domain: int
) -> Optional[RankedInterpretation]:
    atoms, roles = _vocabulary(kb, (query,) if query is not None else ())
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
