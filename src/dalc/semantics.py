"""Finite-model semantics: preferential and ranked interpretations over small
domains, satisfaction, height maps, unions, bounded model search, and the
KLM-postulate checker.  Test generators and the naive reference search live
in ``tests/generators.py``.

This module is the brute-force oracle the reasoner is validated against, so
it deliberately evaluates everything from first principles (set-theoretic
extensions, minima under the preference order) rather than reusing any part
of the tableau machinery.

Extensions are represented internally as bit masks over the domain
``{0, .., n-1}``; element ``i`` corresponds to bit ``1 << i``.

Bounded search
--------------

``search_model`` and ``search_countermodel`` decide, exhaustively, whether a
ranked interpretation with at most ``max_domain`` elements satisfies (or
refutes) a knowledge base.  Enumerating raw role graphs is hopeless even at
domain size 4, so the search enumerates *abstract configurations* instead:
an atom extension per concept name, a convex height map, and one bit per
element for every quantified subconcept occurring in the axioms.  A
configuration is kept only when some role graph realises exactly those bits
(a per-element check), which makes the abstraction exact: every concrete
ranked interpretation projects onto a realisable configuration with the same
axiom values, and every realisable configuration is materialised back into a
concrete witness.  Results are therefore identical to naive enumeration —
``tests/test_semantics.py`` cross-checks this against the naive search in
``tests/generators.py`` on small vocabularies — but reachable within the
acceptance-time budget.

The enumeration order is deterministic: domain size ascending, bit patterns
(atom extensions then quantifier bits, as one ascending integer) in blocks,
and height vectors in lexicographic order within each block.  The first
witness found is reproducible across runs.

Each block is filtered, gathered once, then tested.  ``build`` lays out the
atom and quantifier-bit columns from the block's bits, in the narrowest
unsigned dtype that holds a mask (``uint8`` up to eight elements).  The GCIs
(and a GCI query's violation) filter the rows, and only those columns are
gathered at the survivors; a block with no realisable survivor is skipped.
The DCI pass tests the survivors against 64 height vectors at a time: a DCI
reduces, per row, to one small index ``good | bad << n`` (its lhs-instances
inside and outside its rhs), and a table built per word of 64 height vectors
maps that index to the bitset of vectors under which the DCI holds; a row
survives under the vectors in the AND of its axioms' bitsets, which start
empty on the rows no role graph realises.  Gathered rows keep their position
in the block, so witnesses are still taken in the order above, and the first
witness, ``enumerate_models`` and the count of examined configurations
(``SearchResult.enumerated``) are those of a scan one height vector at a
time, which the tests keep as the reference.

Before any work the search charges a full scan
Σ_{d ≤ max_domain} F(d) · max(2^(d·(atoms + quantified subconcepts)), 32·4^d)
with F the ordered Bell numbers (the number of convex height maps): its
configurations, or, when they are few, the tables it builds for them.  It
raises ``ResourceLimitError`` if that exceeds ``max_rows``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

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
    KnowledgeBase,
    Not,
    Or,
    MAX_ROWS,
    ResourceLimitError,
    TOP,
    Top,
    Bottom,
    atom_names,
    role_names,
    subconcepts,
)
from .ranks import Rank

_CHUNK_BITS = 20  # rows are enumerated in blocks of at most 2**_CHUNK_BITS
_WORD = 64  # height vectors tested per pass over a block, one per uint64 bit


# ---------------------------------------------------------------------------
# Interpretation structures


@dataclass(frozen=True)
class FiniteInterpretation:
    """A classical interpretation over domain ``{0, .., domain_size-1}``."""

    domain_size: int
    atom_ext: Mapping[str, frozenset[int]]
    role_ext: Mapping[str, frozenset[tuple[int, int]]]
    # extension masks, keyed by concept
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("domain must be non-empty")
        object.__setattr__(
            self, "atom_ext", {a: frozenset(e) for a, e in self.atom_ext.items()}
        )
        object.__setattr__(
            self,
            "role_ext",
            {r: frozenset((x, y) for x, y in e) for r, e in self.role_ext.items()},
        )
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


@dataclass(frozen=True)
class PreferentialInterpretation:
    """A finite interpretation plus a smooth strict partial order on elements
    (``(x, y)`` in ``order`` reads ``x`` is more typical than ``y``)."""

    base: FiniteInterpretation
    order: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", frozenset(self.order))
        pairs = self.order
        n = self.base.domain_size
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) outside domain of size {n}")
            if (y, x) in pairs or x == y:
                raise ValueError(f"order is not a strict partial order at ({x}, {y})")
        for x, y in pairs:
            for y2, z in pairs:
                if y2 == y and (x, z) not in pairs:
                    raise ValueError(f"order is not transitive at ({x}, {y}, {z})")


@dataclass(frozen=True)
class RankedInterpretation:
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
    def layer_masks(self) -> tuple[int, ...]:
        masks = [0] * (max(self.heights) + 1)
        for x, h in enumerate(self.heights):
            masks[h] |= 1 << x
        return tuple(masks)

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


Interpretation = Union[FiniteInterpretation, PreferentialInterpretation, RankedInterpretation]


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
    cached = base._cache.get(c)
    if cached is not None:
        return cached
    full = base.full_mask
    if isinstance(c, Top):
        m = full
    elif isinstance(c, Bottom):
        m = 0
    elif isinstance(c, Atom):
        m = 0
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


def _min_mask_ranked(i: RankedInterpretation, c: Concept) -> int:
    ext = _ext_mask(i.base, c)
    if ext == 0:
        return 0
    for layer in i.layer_masks:
        m = ext & layer
        if m:
            return m
    raise AssertionError("non-empty extension must meet some layer")


def min_elements(i: Union[PreferentialInterpretation, RankedInterpretation], c: Concept) -> frozenset[int]:
    """Elements of ``extension(i, c)`` minimal under the preference order.

    Non-empty whenever the extension is non-empty (smoothness is automatic
    on finite domains).
    """
    if isinstance(i, RankedInterpretation):
        return _bits(_min_mask_ranked(i, c))
    ext = extension(i, c)
    return frozenset(
        x for x in ext if not any(y != x and (y, x) in i.order for y in ext)
    )


def height_of_concept(i: RankedInterpretation, c: Concept) -> Rank:
    """The layer index of the minimal instances of ``c``; infinite iff empty."""
    m = _min_mask_ranked(i, c)
    if m == 0:
        return Rank.infinite()
    return Rank.finite(i.heights[(m & -m).bit_length() - 1])


def satisfies(i: Union[PreferentialInterpretation, RankedInterpretation], a: Axiom) -> bool:
    """GCI: extension inclusion.  DCI: minimal lhs-instances lie in the rhs."""
    base = _base_of(i)
    if isinstance(a, GCI):
        return _ext_mask(base, a.lhs) & ~_ext_mask(base, a.rhs) & base.full_mask == 0
    if isinstance(i, RankedInterpretation):
        return _min_mask_ranked(i, a.lhs) & ~_ext_mask(base, a.rhs) & base.full_mask == 0
    ext_rhs = extension(i, a.rhs)
    return min_elements(i, a.lhs) <= ext_rhs


def satisfies_all(i, axioms: Iterable[Axiom]) -> bool:
    return all(satisfies(i, a) for a in axioms)


# ---------------------------------------------------------------------------
# Height maps from modular orders (and back)


class NotModularError(ValueError):
    def __init__(self, message: str, triple: tuple):
        super().__init__(message)
        self.triple = triple


def heights_from_order(domain_size: int, order: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The unique convex height map inducing the given modular order.

    The construction strips successive layers of minimal elements.  Input
    must be an irreflexive, transitive relation whose incomparability
    relation is transitive; violations are rejected with the offending
    pair or triple named.
    """
    pairs = frozenset((x, y) for x, y in order)
    for x, y in pairs:
        if x == y:
            raise NotModularError(f"order is irreflexive everywhere except ({x}, {x})", (x, x))
        if not (0 <= x < domain_size and 0 <= y < domain_size):
            raise ValueError(f"pair ({x}, {y}) outside domain of size {domain_size}")
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y and (x, z) not in pairs:
                raise NotModularError(
                    f"order is not transitive: ({x}, {y}) and ({y}, {z}) without ({x}, {z})",
                    (x, y, z),
                )

    def incomparable(x: int, y: int) -> bool:
        return (x, y) not in pairs and (y, x) not in pairs

    for x in range(domain_size):
        for y in range(domain_size):
            for z in range(domain_size):
                if x != y and y != z and x != z:
                    if incomparable(x, y) and incomparable(y, z) and not incomparable(x, z):
                        raise NotModularError(
                            "incomparability is not transitive on "
                            f"({x}, {y}, {z}): {x} and {z} are comparable",
                            (x, y, z),
                        )

    heights = [0] * domain_size
    remaining = set(range(domain_size))
    level = 0
    while remaining:
        minima = {
            x for x in remaining if not any((y, x) in pairs for y in remaining)
        }
        for x in minima:
            heights[x] = level
        remaining -= minima
        level += 1
    return tuple(heights)


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
# Bounded exhaustive search


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded search.  ``interpretation`` is None when nothing
    was found within the bound, which proves nothing beyond the bound (the
    search is one-sided)."""

    interpretation: Optional[RankedInterpretation]
    enumerated: int

    @property
    def found(self) -> bool:
        return self.interpretation is not None


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


def _scan_sizes(width: int):
    """Yield, for domain sizes d = 1, 2, .., what a full scan of size d is
    charged: F(d) convex height vectors, from the ordered Bell recurrence
    F(d) = Σ_{k=1..d} C(d, k)·F(d−k), times the larger of its 2^(d·width)
    bit patterns and 32·4^d.  The second term is the set-up: each word of 64
    height vectors is tested through a 4^d-entry table rebuilt for every
    block, which costs about as much as 32·4^d configurations per height
    vector, so a scan with few bit patterns is charged for its tables."""
    bell = [1]
    for d in itertools.count(1):
        bell.append(sum(math.comb(d, k) * bell[d - k] for k in range(1, d + 1)))
        yield bell[d] << max(d * width, 2 * d + 5)


@lru_cache(maxsize=None)
def _min_height_tables(n: int) -> np.ndarray:
    """tables[k][mask] = least height under height vector k among the
    elements in ``mask``, or ``n`` (above every height) for the empty mask."""
    hvs = np.array(convex_height_vectors(n), dtype=np.uint8)
    tables = np.full((len(hvs), 1 << n), n, dtype=np.uint8)
    for mask in range(1, 1 << n):
        low = mask & -mask  # the mask's least element, against the rest
        tables[:, mask] = np.minimum(tables[:, mask ^ low], hvs[:, low.bit_length() - 1])
    return tables


def _dci_hold_words(minima: np.ndarray, n: int) -> np.ndarray:
    """words[good | bad << n] has bit j set iff a DCI holds under the height
    vector of ``minima[j]`` (at most 64 rows of ``_min_height_tables(n)``)
    when its lhs-instances split into ``good`` (in the rhs) and ``bad`` (not
    in the rhs): there is no bad instance, or the least good height lies
    strictly below the least bad one."""
    index = np.arange(1 << (2 * n))
    good, bad = index & ((1 << n) - 1), index >> n
    holds = (bad == 0) | (minima[:, good] < minima[:, bad])
    shifts = np.arange(len(minima), dtype=np.uint64)[:, None]
    return np.bitwise_or.reduce(holds.astype(np.uint64) << shifts, axis=0)


def _quantified_subconcepts(axioms: Sequence[Axiom]) -> list[Concept]:
    # repr is structural, so this order, which fixes the bit layout and hence
    # the witness order, is stable across runs
    return sorted({c for c in subconcepts(axioms) if isinstance(c, (Exists, Forall))}, key=repr)


class _ConfigSpace:
    """Vectorised evaluation of all abstract configurations for one domain
    size: per-row atom masks, quantifier bits, realisability, and axiom
    constraints."""

    def __init__(self, n: int, atoms: Sequence[str], quantified: Sequence[Concept]):
        self.n = n
        self.full = (1 << n) - 1
        self.atoms = list(atoms)
        self.quantified = list(quantified)
        self.qbits = len(quantified) * n
        self.abits = len(atoms) * n
        self.total_rows = 1 << (self.qbits + self.abits)
        self.dtype = np.min_scalar_type(self.full)
        self.index_dtype = np.min_scalar_type((1 << (2 * n)) - 1)

    def chunk_ranges(self):
        step = 1 << min(_CHUNK_BITS, self.qbits + self.abits)
        for lo in range(0, self.total_rows, step):
            yield lo, min(lo + step, self.total_rows)

    def build(self, lo: int, hi: int) -> dict:
        """Per-row masks of the rows ``lo .. hi-1``, in the narrowest unsigned
        dtype that holds ``full``.  Atom ``k`` is bits ``qbits + k*n ..`` of
        the row index and quantified concept ``m`` bits ``m*n ..``.  A block's
        size is a power of two and ``lo`` a multiple of it, so each column is
        the field's bits of ``lo`` ORed with an ``arange`` over its bits that
        vary inside the block, each value repeated and the run tiled."""
        size = hi - lo
        width = size.bit_length() - 1
        assert size == 1 << width and lo % size == 0, "blocks are aligned powers of two"
        fields = [(Atom(a), self.qbits + k * self.n) for k, a in enumerate(self.atoms)]
        fields += [(q, m * self.n) for m, q in enumerate(self.quantified)]
        masks: dict[Concept, np.ndarray] = {}
        for c, shift in fields:
            rep = min(shift, width)
            low = min(self.n, width - rep)
            run = np.arange(1 << low, dtype=self.dtype) | ((lo >> shift) & self.full)
            shape = (size >> (rep + low), 1 << low, 1 << rep)
            masks[c] = np.broadcast_to(run[None, :, None], shape).reshape(size)
        return masks

    def rows(self, masks: dict) -> int:
        # with no atom and no quantified concept a domain size has one row
        return len(next(iter(masks.values()))) if masks else 1

    def eval(self, masks: dict, c: Concept) -> np.ndarray:
        cached = masks.get(c)
        if cached is not None:
            return cached
        if isinstance(c, Top):
            v = np.full(self.rows(masks), self.full, dtype=self.dtype)
        elif isinstance(c, (Bottom, Atom)):
            # an atom outside the enumerated vocabulary has an empty extension
            v = np.zeros(self.rows(masks), dtype=self.dtype)
        elif isinstance(c, Not):
            v = self.full & ~self.eval(masks, c.operand)
        elif isinstance(c, And):
            v = self.eval(masks, c.left) & self.eval(masks, c.right)
        elif isinstance(c, Or):
            v = self.eval(masks, c.left) | self.eval(masks, c.right)
        else:
            raise AssertionError(
                f"quantified subconcept {c!r} missing from configuration space"
            )
        masks[c] = v
        return v

    def violated(self, masks: dict, g: Axiom) -> np.ndarray:
        """Per row, whether some element is in ``g``'s lhs and not its rhs."""
        return (self.eval(masks, g.lhs) & ~self.eval(masks, g.rhs) & self.full) != 0

    def dci_index(self, masks: dict, d: Axiom) -> np.ndarray:
        """Per row, ``good | bad << n``: the lhs-instances of ``d`` in its rhs
        (``good``) and outside it (``bad``), the index ``_dci_hold_words``
        reads, in the narrowest dtype that holds ``4**n - 1``."""
        lhs = self.eval(masks, d.lhs)
        rhs = self.eval(masks, d.rhs)
        index = (lhs & ~rhs & self.full).astype(self.index_dtype) << self.n
        index |= lhs & rhs
        return index

    def _demands(self, masks: dict):
        """Yield ``(role, i, demanded, target)`` for every role, element ``i``
        and quantified concept of that role.  ``demanded`` marks the rows
        where the concept's bit at ``i`` needs a ``role``-successor (an
        existential that holds, a universal that fails); ``target`` masks the
        successors that meet that need and that every quantifier bit of ``i``
        allows.  This is the one place allowed successor sets are computed."""
        by_role: dict[str, list[Concept]] = {}
        for q in self.quantified:
            by_role.setdefault(q.role, []).append(q)
        for role, qs in sorted(by_role.items()):
            fillers = [(q, self.eval(masks, q.filler)) for q in qs]
            for i in range(self.n):
                # s: per row, all bits where q's bit at i is set, none where not
                bits = [(q, fm, (masks[q] >> i & 1) * self.full) for q, fm in fillers]
                allowed = self.full
                for q, fm, s in bits:
                    # a universal that holds, or an existential that fails,
                    # allows only the successors in its filler, or outside it
                    allowed = allowed & (fm | ~s if isinstance(q, Forall) else ~fm | s)
                for q, fm, s in bits:
                    has = s != 0
                    if isinstance(q, Exists):
                        yield role, i, has, allowed & fm
                    else:
                        yield role, i, ~has, allowed & (self.full & ~fm)

    def realizable(self, masks: dict) -> np.ndarray:
        """Rows for which some role graph yields exactly the quantifier bits."""
        ok = np.ones(self.rows(masks), dtype=bool)
        for _, _, demanded, target in self._demands(masks):
            ok &= ~demanded | (target != 0)
        return ok

    def materialize(
        self, row: int, heights: tuple[int, ...], roles: Sequence[str]
    ) -> RankedInterpretation:
        """Reconstruct a concrete witness from one abstract configuration:
        each demanded successor is the lowest element of its target."""
        masks = self.build(row, row + 1)
        atom_ext = {a: _bits(int(masks[Atom(a)][0])) for a in self.atoms}
        role_ext: dict[str, set[tuple[int, int]]] = {r: set() for r in roles}
        for role, i, demanded, target in self._demands(masks):
            if demanded[0]:
                t = int(target[0])
                if t == 0:
                    raise AssertionError("materializing an unrealizable row")
                role_ext[role].add((i, (t & -t).bit_length() - 1))
        base = FiniteInterpretation(self.n, atom_ext, role_ext)
        return RankedInterpretation(base, heights)


def _search(
    must_hold: Sequence[Axiom],
    must_fail: Optional[Axiom],
    atoms: Sequence[str],
    roles: Sequence[str],
    max_domain: int,
    limit: int = 1,
    max_rows: int = MAX_ROWS,
) -> tuple[list[RankedInterpretation], int]:
    """Scan all ranked interpretations up to ``max_domain`` (via the abstract
    configuration space) for models of ``must_hold`` that, when requested,
    falsify ``must_fail``.  Returns up to ``limit`` witnesses plus the number
    of candidate configurations examined.  Raises ``ResourceLimitError``
    before any work when a full scan would examine more than ``max_rows``."""
    relevant = list(must_hold) + ([must_fail] if must_fail is not None else [])
    quantified = _quantified_subconcepts(relevant)
    scan = 0
    for size in itertools.islice(_scan_sizes(len(atoms) + len(quantified)), max_domain):
        scan += size
        if scan > max_rows:
            raise ResourceLimitError(
                f"the oracle's scan up to domain size {max_domain} exceeds "
                f"{max_rows} configurations"
            )
    gcis = [a for a in must_hold if isinstance(a, GCI)]
    dcis = [a for a in must_hold if isinstance(a, DCI)]
    found: list[RankedInterpretation] = []
    examined = 0

    for n in range(1, max_domain + 1):
        space = _ConfigSpace(n, atoms, quantified)
        hvs = convex_height_vectors(n)
        tables = _min_height_tables(n)
        for lo, hi in space.chunk_ranges():
            # the GCIs filter the block; its survivors' atom and quantifier
            # columns are gathered once, and ``keep`` maps them to the block
            masks = space.build(lo, hi)
            columns = list(masks)
            alive = np.ones(hi - lo, dtype=bool)
            for g in gcis:
                alive &= ~space.violated(masks, g)
            if isinstance(must_fail, GCI):
                alive &= space.violated(masks, must_fail)
            keep = np.flatnonzero(alive)
            masks = {c: masks[c][keep] for c in columns}
            if not len(keep) or not (ok := space.realizable(masks)).any():
                examined += (hi - lo) * len(hvs)
                continue
            # the DCI pass, 64 height vectors at a time; unrealisable rows
            # start with no height vector
            holds = [space.dci_index(masks, d) for d in dcis]
            fails = space.dci_index(masks, must_fail) if isinstance(must_fail, DCI) else None
            for start in range(0, len(hvs), _WORD):
                word = hvs[start : start + _WORD]
                every = np.uint64((1 << len(word)) - 1)
                table = _dci_hold_words(tables[start : start + _WORD], n)
                sat = np.where(ok, every, np.uint64(0))
                # indexing, not ``take``, which first copies ``index`` to intp
                for index in holds:
                    sat &= table[index]
                if fails is not None:
                    sat &= (table ^ every)[fails]
                bits = int(np.bitwise_or.reduce(sat))
                for j, hv in enumerate(word):
                    if not bits >> j & 1:
                        continue
                    for idx in np.flatnonzero(sat >> np.uint64(j) & np.uint64(1)):
                        row = int(keep[idx])
                        witness = space.materialize(lo + row, hv, roles)
                        if not satisfies_all(witness, must_hold):
                            raise AssertionError("materialized witness fails the axioms")
                        if must_fail is not None and satisfies(witness, must_fail):
                            raise AssertionError("materialized witness satisfies the query")
                        found.append(witness)
                        if len(found) >= limit:
                            examined += (hi - lo) * j + row + 1
                            return found, examined
                examined += (hi - lo) * len(word)
    return found, examined


def _vocabulary(kb: KnowledgeBase, extra: Sequence[Axiom] = ()) -> tuple[list[str], list[str]]:
    items = list(kb.axioms) + list(extra)
    return sorted(atom_names(items)), sorted(role_names(items))


def search_model(
    kb: KnowledgeBase, max_domain: int, max_rows: int = MAX_ROWS
) -> SearchResult:
    """First ranked model of ``kb`` with at most ``max_domain`` elements, or
    absent.  Absence does not prove unsatisfiability (one-sided).  Raises
    ``ResourceLimitError`` if a full scan exceeds ``max_rows`` configurations."""
    atoms, roles = _vocabulary(kb)
    found, examined = _search(kb.axioms, None, atoms, roles, max_domain, 1, max_rows)
    return SearchResult(found[0] if found else None, examined)


def search_countermodel(
    kb: KnowledgeBase, query: Axiom, max_domain: int, max_rows: int = MAX_ROWS
) -> SearchResult:
    """First ranked model of ``kb`` violating ``query`` within the bound, or
    absent (one-sided in the same way), under the same row budget."""
    atoms, roles = _vocabulary(kb, (query,))
    found, examined = _search(kb.axioms, query, atoms, roles, max_domain, 1, max_rows)
    return SearchResult(found[0] if found else None, examined)


def enumerate_models(kb: KnowledgeBase, max_domain: int, limit: int) -> list[RankedInterpretation]:
    """Up to ``limit`` ranked models of ``kb`` in enumeration order."""
    atoms, roles = _vocabulary(kb)
    found, _ = _search(kb.axioms, None, atoms, roles, max_domain, limit=limit)
    return found


# ---------------------------------------------------------------------------
# KLM postulate checking


@dataclass(frozen=True)
class Violation:
    rule: str
    instance: tuple


def check_postulates(
    i: Union[PreferentialInterpretation, RankedInterpretation], samples: Sequence[Concept]
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
