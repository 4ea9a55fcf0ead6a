"""Seeded random interpretations and concepts for the tests, the naive
enumeration that the oracle's configuration-space search is checked against,
the filter that its height vectors are checked against, and the recursive
tableau and ``isinstance`` negation normal form that the stack-based tableau
and ``dalc.concepts.nnf`` are checked against."""

from __future__ import annotations

import itertools
import sys
from typing import Optional, Sequence

from dalc.concepts import (
    BOTTOM, GCI, TOP, And, Atom, Axiom, Bottom, Concept, Exists, Forall, KnowledgeBase, Not, Or,
    ResourceLimitError, Top,
)
from dalc.search import _vocabulary
from dalc.semantics import (
    FiniteInterpretation, RankedInterpretation, convex_height_vectors, satisfies, satisfies_all,
)
from dalc.tableau import DEFAULT_CONFIG, EntailmentStats, TableauConfig


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


class _Tableau:
    """Reference tableau: one Python frame per Or-branch as well as per role
    successor.  With a label cache, ``dalc.tableau.is_satisfiable`` on a
    freshly compiled TBox must reach the same verdict after expanding the
    same number of nodes; without one it is the plain tableau, whose
    verdicts a shared cache must not change."""

    def __init__(self, universal: tuple[Concept, ...], cfg: TableauConfig, stats: EntailmentStats, cached: bool):
        self.universal = universal
        self.cfg = cfg
        self.stats = stats
        self.nodes = 0
        self.verdicts: Optional[dict] = {} if cached else None

    def satisfiable(self, label: tuple[Concept, ...]) -> bool:
        return self._node(label, ()) is not None

    def _node(self, label: tuple[Concept, ...], ancestors: tuple[frozenset, ...]) -> Optional[int]:
        """A completion-tree node: its label's cached verdict, or expanded.
        None if unsatisfiable; otherwise the depth of the shallowest
        ancestor a blocked node below relied on (``sys.maxsize`` if none)."""
        key = frozenset(label)
        if self.verdicts is not None and key in self.verdicts:
            return sys.maxsize if self.verdicts[key] else None
        found = self._expand(label, ancestors)
        # store what rests on no node outside this subtree, never the root's
        if self.verdicts is not None and ancestors and (found is None or found >= len(ancestors)):
            self.verdicts[key] = found is not None
        return found

    def _expand(self, label: tuple[Concept, ...], ancestors: tuple[frozenset, ...]) -> Optional[int]:
        self.nodes += 1
        self.stats.nodes_expanded += 1
        if self.nodes > self.cfg.max_nodes:
            raise ResourceLimitError(f"more than {self.cfg.max_nodes} tableau nodes")

        items: list[Concept] = []
        seen: set[Concept] = set()
        neg: set[Concept] = set()

        def add(c: Concept) -> bool:
            if c in seen:
                return True
            if isinstance(c, Bottom):
                return False
            if isinstance(c, Atom) and c in neg:
                return False
            if isinstance(c, Not):
                if c.operand in seen:
                    return False
                neg.add(c.operand)
            seen.add(c)
            items.append(c)
            return True

        for c in label:
            if not add(c):
                return None
        idx = 0
        while idx < len(items):
            c = items[idx]
            idx += 1
            if isinstance(c, And):
                if not add(c.left) or not add(c.right):
                    return None

        for c in items:
            if isinstance(c, Or) and c.left not in seen and c.right not in seen:
                extended = tuple(items)
                left = self._expand(extended + (c.left,), ancestors)
                return left if left is not None else self._expand(extended + (c.right,), ancestors)

        label_set = frozenset(seen)
        for i in reversed(range(len(ancestors))):
            if label_set <= ancestors[i]:
                return i  # blocked by the deepest ancestor that holds the label

        found = sys.maxsize
        for c in items:
            if isinstance(c, Exists):
                successor = (c.filler,) + tuple(
                    f.filler
                    for f in items
                    if isinstance(f, Forall) and f.role == c.role
                ) + self.universal
                low = self._node(successor, ancestors + (label_set,))
                if low is None:
                    return None
                found = min(found, low)
        return found


def reference_is_satisfiable(
    c: Concept,
    tbox: Sequence[GCI] = (),
    cfg: TableauConfig = DEFAULT_CONFIG,
    stats: Optional[EntailmentStats] = None,
    cached: bool = True,
) -> bool:
    """``dalc.tableau.is_satisfiable`` before Or-branches moved onto an
    explicit stack (without the role-depth budget it then had), with a label
    cache of its own for this one call, or, with ``cached=False``, none.
    Labels are built by ``reference_nnf``."""
    if stats is None:
        stats = EntailmentStats()
    universal = tuple(u for g in tbox if (u := reference_nnf(Or(Not(g.lhs), g.rhs))) is not TOP)
    return _Tableau(universal, cfg, stats, cached).satisfiable((reference_nnf(c),) + universal)
