"""Bounded model search: the oracle's exhaustive scan of ranked
interpretations up to a domain bound, vectorised with NumPy.  This is the
only module of the package that imports NumPy; ``dalc.semantics`` holds the
model theory the search evaluates against (satisfaction, height maps).

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
concrete witness.  Verdicts are therefore identical to naive enumeration —
``tests/test_semantics.py`` cross-checks this against the naive search in
``tests/generators.py`` on small vocabularies — but reachable within the
acceptance-time budget.

Each domain size n is scanned once, over the rows whose element types (an
element's w quantifier and atom bits) are non-decreasing: C(2^w+n−1, n) of
them, in blocks of 2^(2n+10) rows, at most 2^20, each under every convex
height vector.  The scan is exact: the GCIs, the DCIs and realisability do
not depend on the order of the elements, so sorting any witness's elements
by type, with its height vector, gives one of these rows.  A size scanned
to its end adds its 2^(n·w)·F(n) configurations to ``enumerated``: it
counts configurations decided, as a scan one by one would.  The size where
the search stops, at its ``limit``-th witness, adds the (row, height vector)
pairs scanned up to and including that witness.
Witnesses come in the order domain size, block, height vector (lexicographic)
and multiset rank of the types, so each has non-decreasing element types.

``_witness_words`` tests the blocks, ``_Columns`` that the model theory's one
concept evaluator, ``_ext_mask``, reads as an interpretation: the GCIs filter
a block's rows, and a table per word of 64 height vectors maps each row's DCI
index ``good | bad << n`` to the bitset of vectors under which it holds.

Before any work the search charges a full scan
Σ_{d ≤ max_domain} F(d) · max(2^(d·(atoms + quantified subconcepts)), 32·4^d)
with F the ordered Bell numbers (the number of convex height maps): its
configurations, or, when they are few, the tables it builds for them.  It
raises ``ResourceLimitError`` if that exceeds ``max_rows``, which bounds the
scan's work, or if the sorted rows, ranked in int64, reach 2^62.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .concepts import (
    Atom, Axiom, Concept, DCI, Exists, Forall, GCI, KnowledgeBase, MAX_ROWS, ResourceLimitError,
    atom_names, role_names, subconcepts,
)
from .semantics import (
    FiniteInterpretation, RankedInterpretation, _bits, _ext_mask, convex_height_vectors, satisfies,
    satisfies_all,
)

# Rows are enumerated in blocks of 2**(2n + 10) rows at domain size n, at most
# 2**_CHUNK_BITS.  Each word of 64 height vectors builds a 4**n-entry table
# once per block, so 1024·4**n rows keep those rebuilds to a few percent of a
# block's work.  At n <= 4 each temporary is then at most 2 MB, which glibc
# reuses from the heap instead of mapping it and faulting it in anew.
_CHUNK_BITS = 20
_WORD = 64  # height vectors tested per pass over a block, one per uint64 bit


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded search.  ``interpretation`` is the first witness,
    with non-decreasing element types, or None when nothing was found within
    the bound, which proves nothing beyond it (the search is one-sided).
    ``enumerated`` counts configurations as the module docstring says."""

    interpretation: Optional[RankedInterpretation]
    enumerated: int

    @property
    def found(self) -> bool:
        return self.interpretation is not None


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
    # repr is structural, so this order, which fixes the type bits and hence
    # the witness order, is stable across runs
    return sorted({c for c in subconcepts(axioms) if isinstance(c, (Exists, Forall))}, key=repr)


class _Columns(dict):
    """A block of rows as ``semantics._ext_mask`` reads an interpretation:
    the fields' columns of per-row masks, each concept's once evaluated, and
    ``full_mask``, a column of ``full``.  ``_cache`` is a property, so a block
    is no reference cycle.  A quantified concept outside the fields raises."""

    atom_ext = role_ext = {}

    def __init__(self, full_mask: np.ndarray, columns=()):
        super().__init__(columns)
        self.full_mask = full_mask

    @property
    def _cache(self) -> _Columns:
        return self


class _ConfigSpace:
    """The sorted abstract configurations of one domain size, in ``_Columns``
    blocks: per-row atom masks, quantifier bits, realisability and axioms."""

    def __init__(self, n: int, atoms: Sequence[str], quantified: Sequence[Concept]):
        self.n = n
        self.full = (1 << n) - 1
        self.atoms = list(atoms)
        self.quantified = list(quantified)
        # bit f of an element's type says whether it is in fields[f]
        self.fields: list[Concept] = self.quantified + [Atom(a) for a in atoms]
        self.total_rows = 1 << (len(self.fields) * n)
        self.sorted_rows = math.comb((1 << len(self.fields)) + n - 1, n)
        self.dtype = np.min_scalar_type(self.full)
        self.index_dtype = np.min_scalar_type((1 << (2 * n)) - 1)

    def chunk_ranges(self):
        step = 1 << min(2 * self.n + 10, _CHUNK_BITS)
        for lo in range(0, self.sorted_rows, step):
            yield lo, min(lo + step, self.sorted_rows)

    @cached_property
    def binomials(self) -> list[np.ndarray]:
        """binomials[i][c] = C(c, i + 1) = Σ_{j<c} C(j, i) for c < 2**len(fields) + i."""
        out = [np.arange(1 << len(self.fields), dtype=np.int64)]
        for _ in range(1, self.n):
            out.append(np.concatenate(([0], np.cumsum(out[-1]))))
        return out

    def build_sorted(self, lo: int, hi: int) -> _Columns:
        """Per-row masks of the rows whose element types are non-decreasing,
        by multiset rank ``lo .. hi-1``, in the narrowest unsigned dtype that
        holds ``full``.  Types t_0 ≤ .. ≤ t_{n-1} are the set
        c_i = t_i + i of colex rank Σ C(c_i, i + 1), so each c_i, top down, is
        the largest c whose C(c, i + 1) fits in what is left of the rank."""
        # one narrow dtype for the types and the masks; bit f of t_i goes to bit i
        narrow = np.min_scalar_type(max((1 << len(self.fields)) - 1, self.full))
        rest, types = np.arange(lo, hi, dtype=np.int64), []
        for i in range(self.n - 1, 0, -1):
            c = np.searchsorted(self.binomials[i], rest, side="right") - 1
            rest -= self.binomials[i][c]
            types.append((i, (c - i).astype(narrow)))
        types.append((0, rest.astype(narrow)))
        masks = _Columns(np.full(hi - lo, self.full, dtype=self.dtype))
        for f, c in enumerate(self.fields):
            column = np.zeros(hi - lo, dtype=narrow)
            for i, t in types:
                column |= (t >> (f - i) if f >= i else t << (i - f)) & (1 << i)
            masks[c] = column.astype(self.dtype, copy=False)
        return masks

    def violated(self, masks: _Columns, g: Axiom) -> np.ndarray:
        """Per row, whether some element is in ``g``'s lhs and not its rhs."""
        return (_ext_mask(masks, g.lhs) & ~_ext_mask(masks, g.rhs) & self.full) != 0

    def dci_index(self, masks: _Columns, d: Axiom) -> np.ndarray:
        """Per row, ``good | bad << n``: the lhs-instances of ``d`` in its rhs
        (``good``) and outside it (``bad``), the index ``_dci_hold_words``
        reads, in the narrowest dtype that holds ``4**n - 1``."""
        lhs, rhs = _ext_mask(masks, d.lhs), _ext_mask(masks, d.rhs)
        index = (lhs & ~rhs & self.full).astype(self.index_dtype) << self.n
        index |= lhs & rhs
        return index

    def _demands(self, masks: _Columns):
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
            fillers = [(q, _ext_mask(masks, q.filler)) for q in qs]
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

    def realizable(self, masks: _Columns) -> np.ndarray:
        """Rows for which some role graph yields exactly the quantifier bits."""
        ok = np.ones(len(masks.full_mask), dtype=bool)
        for _, _, demanded, target in self._demands(masks):
            ok &= ~demanded | (target != 0)
        return ok

    def materialize(
        self, row: int, heights: tuple[int, ...], roles: Sequence[str]
    ) -> RankedInterpretation:
        """Reconstruct a concrete witness from the sorted row of rank ``row``:
        each demanded successor is the lowest element of its target."""
        masks = self.build_sorted(row, row + 1)
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


def _witness_words(space: _ConfigSpace, gcis, dcis, must_fail: Optional[Axiom]):
    """Test the sorted rows of ``space`` block by block, in rank order: yield
    ``(lo, hi, start, bits, keep, sat)`` for each block and word of 64 height
    vectors, from vector ``start`` on, under which some row is a witness.
    Survivor k of the block's GCI filter, whose columns are gathered once, is
    the row of rank ``lo + keep[k]``, and bit j of ``sat[k]`` says whether it
    is a witness under vector ``start + j``; ``bits`` ORs them."""
    tables = _min_height_tables(space.n)
    for lo, hi in space.chunk_ranges():
        masks = space.build_sorted(lo, hi)
        alive = np.ones(hi - lo, dtype=bool)
        for g in gcis:
            alive &= ~space.violated(masks, g)
        if isinstance(must_fail, GCI):
            alive &= space.violated(masks, must_fail)
        keep = np.flatnonzero(alive)
        masks = _Columns(masks.full_mask[keep], {c: masks[c][keep] for c in space.fields})
        if not len(keep) or not (ok := space.realizable(masks)).any():
            continue
        holds = [space.dci_index(masks, d) for d in dcis]
        fails = space.dci_index(masks, must_fail) if isinstance(must_fail, DCI) else None
        for start in range(0, len(tables), _WORD):
            minima = tables[start : start + _WORD]
            every = np.uint64((1 << len(minima)) - 1)
            table = _dci_hold_words(minima, space.n)
            sat = np.where(ok, every, np.uint64(0))
            # indexing, not ``take``, which first copies ``index`` to intp
            for index in holds:
                sat &= table[index]
            if fails is not None:
                sat &= (table ^ every)[fails]
            if bits := int(np.bitwise_or.reduce(sat)):
                yield lo, hi, start, bits, keep, sat


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
    for name, value in (("max_domain", max_domain), ("limit", limit), ("max_rows", max_rows)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
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
    if _ConfigSpace(max_domain, atoms, quantified).sorted_rows >= 1 << 62:
        raise ResourceLimitError(f"the oracle cannot rank the sorted rows of domain size {max_domain}")
    gcis = [a for a in must_hold if isinstance(a, GCI)]
    dcis = [a for a in must_hold if isinstance(a, DCI)]
    found: list[RankedInterpretation] = []
    examined = 0

    for n in range(1, max_domain + 1):
        space = _ConfigSpace(n, atoms, quantified)
        hvs = convex_height_vectors(n)
        for lo, hi, start, bits, keep, sat in _witness_words(space, gcis, dcis, must_fail):
            for j, hv in enumerate(hvs[start : start + _WORD]):
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
                        return found, examined + lo * len(hvs) + (hi - lo) * (start + j) + row + 1
        examined += space.total_rows * len(hvs)
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
    """Up to ``limit`` ranked models of ``kb`` in the search's witness order,
    each with non-decreasing element types.  Up to a permutation of its
    elements, every model within the bound has the atoms, quantifier bits and
    heights of one that the search can yield."""
    atoms, roles = _vocabulary(kb)
    found, _ = _search(kb.axioms, None, atoms, roles, max_domain, limit=limit)
    return found
