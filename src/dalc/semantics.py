"""Finite-model semantics: preferential and ranked interpretations over small
domains, satisfaction, height maps, unions, and the KLM-postulate checker.
Test generators and the naive reference search live in ``tests/generators.py``.

This module is the brute-force oracle the reasoner is validated against, so
it deliberately evaluates everything from first principles (set-theoretic
extensions, minima under the preference order) rather than reusing any part
of the tableau machinery.  It is pure Python, and it does not import the
bounded model search, ``dalc.search``, which needs NumPy.

Extensions are bit masks over the domain ``{0, .., n-1}``; element ``i`` is
bit ``1 << i``.  Ranked and preferential interpretations share one
preference relation, ``below``: ``below[x]`` masks the elements more typical
than ``x``, read off the order or off the heights, and every minimum is
taken from it.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .concepts import (
    And,
    Atom,
    Axiom,
    BOTTOM,
    Concept,
    DCI,
    Exists,
    Forall,
    GCI,
    Not,
    Or,
    TOP,
    Top,
    Bottom,
    _Value,
)
from .ranks import Rank
from . import __getattr__  # dalc's hook: the benchmark's tests import search_countermodel here


# ---------------------------------------------------------------------------
# Interpretation structures


class FiniteInterpretation(_Value):
    """A classical interpretation over domain ``{0, .., domain_size-1}``."""

    domain_size: int
    atom_ext: Mapping[str, frozenset[int]]
    role_ext: Mapping[str, frozenset[tuple[int, int]]]

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("domain must be non-empty")
        object.__setattr__(self, "_cache", {})  # extension masks, keyed by concept
        object.__setattr__(self, "atom_ext", {a: frozenset(e) for a, e in self.atom_ext.items()})
        role_ext = {r: frozenset((x, y) for x, y in e) for r, e in self.role_ext.items()}
        object.__setattr__(self, "role_ext", role_ext)
        for a, e in self.atom_ext.items():
            if any(x < 0 or x >= self.domain_size for x in e):
                raise ValueError(f"atom {a} extension outside domain")
        for r, e in self.role_ext.items():
            if any(
                x < 0 or x >= self.domain_size or y < 0 or y >= self.domain_size
                for x, y in e
            ):
                raise ValueError(f"role {r} extension outside domain")

    @property
    def full_mask(self) -> int:
        return (1 << self.domain_size) - 1


class PreferentialInterpretation(_Value):
    """A finite interpretation plus a smooth strict partial order on elements
    (``(x, y)`` in ``order`` reads ``x`` is more typical than ``y``)."""

    base: FiniteInterpretation
    order: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _strict_order(self.base.domain_size, self.order))

    @cached_property
    def below(self) -> tuple[int, ...]:
        """``below[x]``: the mask of the elements more typical than ``x``."""
        masks = [0] * self.base.domain_size
        for x, y in self.order:
            masks[y] |= 1 << x
        return tuple(masks)


class RankedInterpretation(_Value):
    """A finite interpretation plus a convex height map (layer per element)."""

    base: FiniteInterpretation
    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "heights", tuple(self.heights))
        if len(self.heights) != self.base.domain_size:
            raise ValueError("one height per domain element required")
        top = max(self.heights)
        present = set(self.heights)
        if min(self.heights) < 0 or present != set(range(top + 1)):
            raise ValueError(f"height map {self.heights} is not convex")

    @cached_property
    def below(self) -> tuple[int, ...]:
        """``below[x]``: the mask of the elements at a lower height than ``x``."""
        return tuple(sum(1 << y for y, g in enumerate(self.heights) if g < h) for h in self.heights)

    def as_preferential(self) -> PreferentialInterpretation:
        return PreferentialInterpretation(self.base, order_from_heights(self.heights))

    def to_json_dict(self) -> dict:
        return {
            "domain": self.base.domain_size,
            "atoms": {a: sorted(e) for a, e in sorted(self.base.atom_ext.items())},
            "roles": {
                r: sorted([x, y] for x, y in e)
                for r, e in sorted(self.base.role_ext.items())
            },
            "heights": list(self.heights),
        }


Interpretation = FiniteInterpretation | PreferentialInterpretation | RankedInterpretation


def _bits(mask: int) -> frozenset[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _base_of(i: Interpretation) -> FiniteInterpretation:
    return i if isinstance(i, FiniteInterpretation) else i.base


def _ext_mask(base: FiniteInterpretation, c: Concept) -> int:
    """``c``'s extension mask: an int, or a NumPy column over a block of ``dalc.search``."""
    cached = base._cache.get(c)
    if cached is not None:
        return cached
    full = base.full_mask
    if isinstance(c, Top):
        m = full
    elif isinstance(c, Bottom):
        m = full & 0
    elif isinstance(c, Atom):
        m = full & 0
        for x in base.atom_ext.get(c.name, ()):
            m |= 1 << x
    elif isinstance(c, Not):
        m = full & ~_ext_mask(base, c.operand)
    elif isinstance(c, And):
        m = _ext_mask(base, c.left) & _ext_mask(base, c.right)
    elif isinstance(c, Or):
        m = _ext_mask(base, c.left) | _ext_mask(base, c.right)
    elif isinstance(c, (Exists, Forall)):
        # x is in ∃r.F iff some r-successor of x is in F, and in ∀r.F iff none
        # is outside F
        exists = isinstance(c, Exists)
        fm = _ext_mask(base, c.filler)
        target = fm if exists else full & ~fm
        succ = [0] * base.domain_size
        for x, y in base.role_ext.get(c.role, ()):
            succ[x] |= 1 << y
        m = 0
        for x, s in enumerate(succ):
            if bool(s & target) == exists:
                m |= 1 << x
    else:
        raise TypeError(f"not a concept: {c!r}")
    base._cache[c] = m
    return m


def extension(i: Interpretation, c: Concept) -> frozenset[int]:
    """The set-theoretic extension of ``c``; absent atoms/roles read as empty."""
    return _bits(_ext_mask(_base_of(i), c))


def _min_mask(i: PreferentialInterpretation | RankedInterpretation, c: Concept) -> int:
    """The instances of ``c`` that no instance of ``c`` is more typical than."""
    if isinstance(i, FiniteInterpretation):
        raise TypeError("typicality needs a preferential or ranked interpretation")
    ext = _ext_mask(i.base, c)
    below = i.below
    m, rest = 0, ext
    while rest:
        low = rest & -rest
        if below[low.bit_length() - 1] & ext == 0:
            m |= low
        rest ^= low
    return m


def min_elements(i: PreferentialInterpretation | RankedInterpretation, c: Concept) -> frozenset[int]:
    """Elements of ``extension(i, c)`` minimal under the preference order.

    Non-empty whenever the extension is non-empty (smoothness is automatic
    on finite domains).
    """
    return _bits(_min_mask(i, c))


def height_of_concept(i: RankedInterpretation, c: Concept) -> Rank:
    """The layer index of the minimal instances of ``c``; infinite iff empty."""
    m = _min_mask(i, c)
    if m == 0:
        return Rank.infinite()
    return Rank.finite(i.heights[(m & -m).bit_length() - 1])


def satisfies(i: PreferentialInterpretation | RankedInterpretation, a: Axiom) -> bool:
    """GCI: extension inclusion.  DCI: minimal lhs-instances lie in the rhs."""
    base = _base_of(i)
    lhs = _ext_mask(base, a.lhs) if isinstance(a, GCI) else _min_mask(i, a.lhs)
    return lhs & ~_ext_mask(base, a.rhs) == 0


def satisfies_all(i, axioms: Iterable[Axiom]) -> bool:
    return all(satisfies(i, a) for a in axioms)


# ---------------------------------------------------------------------------
# Height maps from modular orders (and back)


class NotModularError(ValueError):
    """An order that is not strict and modular; ``triple`` holds the offending pair or triple."""

    def __init__(self, message: str, triple: tuple):
        super().__init__(message)
        self.triple = triple


def _strict_order(n: int, order: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """``order`` as a frozenset of pairs, checked to be a strict partial order on 0..n-1."""
    pairs = frozenset((x, y) for x, y in order)
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair ({x}, {y}) outside domain of size {n}")
        if x == y or (y, x) in pairs:
            raise NotModularError(f"order is not a strict partial order at ({x}, {y})", (x, y))
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y and (x, z) not in pairs:
                raise NotModularError(
                    f"order is not transitive: ({x}, {y}) and ({y}, {z}) without ({x}, {z})",
                    (x, y, z),
                )
    return pairs


def heights_from_order(domain_size: int, order: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The unique convex height map inducing the given modular order.

    Input must be a strict partial order whose incomparability relation is
    transitive; violations are rejected with the offending pair or triple
    named.  In a modular order each layer has strictly more predecessors
    than the one below it, so an element's height is the dense rank of its
    number of predecessors.
    """
    pairs = _strict_order(domain_size, order)

    def incomparable(x: int, y: int) -> bool:
        return (x, y) not in pairs and (y, x) not in pairs

    for x, y, z in itertools.permutations(range(domain_size), 3):
        if incomparable(x, y) and incomparable(y, z) and not incomparable(x, z):
            raise NotModularError(
                f"incomparability is not transitive on ({x}, {y}, {z}): {x} and {z} are comparable",
                (x, y, z),
            )

    preds = [0] * domain_size
    for _, y in pairs:
        preds[y] += 1
    rank = {p: k for k, p in enumerate(sorted(set(preds)))}
    return tuple(rank[p] for p in preds)


def order_from_heights(heights: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset(
        (x, y)
        for x in range(len(heights))
        for y in range(len(heights))
        if heights[x] < heights[y]
    )


# ---------------------------------------------------------------------------
# Unions


def _union_base(
    bases: Sequence[FiniteInterpretation],
) -> tuple[FiniteInterpretation, list[int]]:
    """Disjoint union of classical interpretations: component ``s`` element
    ``x`` becomes ``offset_s + x``; atoms and roles stay within components.
    Returns the union and the offsets."""
    offsets: list[int] = []
    total = 0
    atoms: dict[str, set[int]] = {}
    roles: dict[str, set[tuple[int, int]]] = {}
    for b in bases:
        offsets.append(total)
        for a, e in b.atom_ext.items():
            atoms.setdefault(a, set()).update(total + x for x in e)
        for r, e in b.role_ext.items():
            roles.setdefault(r, set()).update((total + x, total + y) for x, y in e)
        total += b.domain_size
    return FiniteInterpretation(total, atoms, roles), offsets


def disjoint_union(interps: Sequence[PreferentialInterpretation]) -> PreferentialInterpretation:
    """Tagged union of preferential interpretations: component ``s`` element
    ``x`` becomes ``offset_s + x``; atoms, roles and the order stay within
    components."""
    if not interps:
        raise ValueError("disjoint union of an empty collection")
    base, offsets = _union_base([p.base for p in interps])
    order = {(off + x, off + y) for off, p in zip(offsets, interps) for x, y in p.order}
    return PreferentialInterpretation(base, frozenset(order))


def ranked_union(interps: Sequence[RankedInterpretation]) -> RankedInterpretation:
    """Disjoint union of domains with every element keeping its height, so
    layers of equal index are merged."""
    if not interps:
        raise ValueError("ranked union of an empty collection")
    base, _ = _union_base([r.base for r in interps])
    return RankedInterpretation(base, tuple(h for r in interps for h in r.heights))


# ---------------------------------------------------------------------------
# Height vectors


@lru_cache(maxsize=None)
def convex_height_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """The height vectors of n elements whose heights are exactly 0..max, in
    lexicographic order: depth first, never extending a prefix whose skipped
    heights the positions left cannot fill."""
    out = []

    def extend(prefix: tuple[int, ...], top: int, missing: int) -> None:
        # ``missing``: the heights below ``top`` that ``prefix`` skips, as bits
        left = n - len(prefix) - 1  # positions after the next one
        if left < 0:
            out.append(prefix)
            return
        for v in range(n):
            gaps = missing & ~(1 << v) if v <= top else missing | (1 << v) - (1 << top + 1)
            if gaps.bit_count() <= left:
                extend(prefix + (v,), max(top, v), gaps)
            elif v > top:
                break  # a higher height only skips more

    extend((), -1, 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# KLM postulate checking


class Violation(_Value):
    rule: str
    instance: tuple


def check_postulates(
    i: PreferentialInterpretation | RankedInterpretation, samples: Sequence[Concept]
) -> list[Violation]:
    """Instantiate every closure rule over every tuple of sampled concepts
    (and every role of ``i``) and report all violations.  Ranked
    interpretations induce rational subsumption relations, so the report is
    expected to be empty for them; a non-empty one flags a defect in the
    semantics implementation."""
    roles = sorted(i.base.role_ext)
    out: list[Violation] = []

    def dci(lhs: Concept, rhs: Concept) -> bool:
        return satisfies(i, DCI(lhs, rhs))

    def gci(lhs: Concept, rhs: Concept) -> bool:
        return satisfies(i, GCI(lhs, rhs))

    if dci(TOP, BOTTOM):
        out.append(Violation("cons", ()))
    for c in samples:
        if not dci(c, c):
            out.append(Violation("ref", (c,)))
        if dci(c, BOTTOM):
            for r in roles:
                if not dci(Exists(r, c), BOTTOM):
                    out.append(Violation("norm", (c, r)))
    for c, d in itertools.product(samples, repeat=2):
        if gci(c, d) != dci(And(c, Not(d)), BOTTOM):
            out.append(Violation("strict_as_defeasible", (c, d)))
    for c, d, e in itertools.product(samples, repeat=3):
        if extension(i, c) == extension(i, d) and dci(c, e) and not dci(d, e):
            out.append(Violation("lle", (c, d, e)))
        if dci(c, d) and dci(c, e) and not dci(c, And(d, e)):
            out.append(Violation("and", (c, d, e)))
        if dci(c, e) and dci(d, e) and not dci(Or(c, d), e):
            out.append(Violation("or", (c, d, e)))
        if dci(c, d) and gci(d, e) and not dci(c, e):
            out.append(Violation("rw", (c, d, e)))
        if dci(c, d) and dci(c, e) and not dci(And(c, d), e):
            out.append(Violation("cm", (c, d, e)))
        if dci(c, d) and not dci(c, Not(e)) and not dci(And(c, e), d):
            out.append(Violation("rm", (c, d, e)))
    for r in roles:
        for c, d, e in itertools.product(samples, repeat=3):
            ex, fa, both = Exists(r, c), Forall(r, c), And(c, d)
            if dci(ex, e) and dci(ex, Forall(r, d)) and not dci(Exists(r, both), e):
                out.append(Violation("cm_exists", (c, d, e, r)))
            if dci(fa, e) and dci(fa, Forall(r, d)) and not dci(Forall(r, both), e):
                out.append(Violation("cm_forall", (c, d, e, r)))
            # The negated premises below are the complements of the
            # conclusions' antecedents (¬∃r.(C⊓D) and ¬∀r.(C⊓D)); that is
            # what makes these rules rational-monotonicity instances.
            # Weakening the filler to ¬D admits counterexamples (see
            # test_quantified_rm_premise_needs_the_conjunction).
            if dci(ex, e) and not dci(ex, Forall(r, Not(both))) and not dci(Exists(r, both), e):
                out.append(Violation("rm_exists", (c, d, e, r)))
            if dci(fa, e) and not dci(fa, Exists(r, Not(both))) and not dci(Forall(r, both), e):
                out.append(Violation("rm_forall", (c, d, e, r)))
    return out
