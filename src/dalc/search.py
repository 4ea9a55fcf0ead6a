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
element's w quantifier and atom bits) are non-decreasing, each under every
convex height vector.  The scan is exact: the GCIs, the DCIs and
realisability do not depend on the order of the elements, so sorting any
witness's elements by type, with its height vector, gives one of these rows
(a lex-leader symmetry break, Crawford et al., KR 1996).  A GCI holds in a
row iff it holds at each element, as each quantified subconcept is a field
of the type.  So the search first keeps the V types under which a single
element satisfies every GCI, and reads only the C(V+n−1, n) rows over them,
numbered in colex order, in batches of at most 2^min(2n+10, 20) rows; no row
is tested against a GCI.  A size scanned to its end adds its 2^(n·w)·F(n)
configurations to ``enumerated``: it counts configurations decided, as a
scan one by one would.  The size where the search stops, at its
``limit``-th witness, adds the (row, height vector) pairs scanned up to and
including that witness: F(n) per row of the batches before its own, then
its batch's rows under each vector before the witness's, then the rows of
the batch up to the witness, so at least 1.  Witnesses come in the order
domain size, batch, height vector (lexicographic) and row, so each has
non-decreasing element types.

``unrank`` builds the rows: size 1 reads each type as a row, and a row of
size n > 1 is one of size n − 1 with a top element, whose type changes in
runs over consecutive rows.  ``_witness_words`` tests each batch as a
``_Columns`` block, which the model theory's one concept evaluator,
``_ext_mask``, reads as an interpretation: realisability, where there are
quantified subconcepts, and a query that is a GCI filter a batch's rows, and
a table per word of 64 height vectors, built once per process, maps each
row's DCI index ``good | bad << n`` to the bitset of vectors where it holds.

Before any work the search charges a full scan
Σ_{d ≤ max_domain} F(d) · max(2^(d·(atoms + quantified subconcepts)), 32·4^d)
with F the ordered Bell numbers (the number of convex height maps): its
configurations, or, when they are few, the tables it builds for them.  It
raises ``ResourceLimitError`` if that exceeds ``max_rows``, which bounds the
scan's work, or if the sorted rows over all 2^w types, numbered in int64,
reach 2^62.  Neither bounds the type filter, which reads all 2^w element
types first (at domain size 1 the default budget admits w = 39, the int64
guard w = 61), so the search also refuses w > 24 (``_MAX_WIDTH``).
``_search`` works out the atoms, roles and quantified subconcepts of the
knowledge base and the query in one walk.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .concepts import (
    Atom, Axiom, Concept, DCI, Exists, Forall, GCI, KnowledgeBase, MAX_ROWS, ResourceLimitError,
    _Value, vocabulary,
)
from .semantics import (
    FiniteInterpretation, RankedInterpretation, _bits, _ext_mask, convex_height_vectors, satisfies,
    satisfies_all,
)

# The rows of domain size n are read in batches of at most 2**(2n + 10), and
# at most 2**_CHUNK_BITS.  A batch's DCI indices (intp) and its two uint64
# buffers then take at most 8 MB each, and at n <= 4 at most 2 MB, which glibc
# reuses from the heap instead of mapping it and faulting it in anew.
_CHUNK_BITS = 20
_WORD = 64  # height vectors tested per pass over a block, one per uint64 bit
# The most atoms plus quantified subconcepts w the search reads the 2^w
# element types of: at w = 24 a search at domain size 1 takes about 2 s and
# 110 MB on a 2-core VM, and each further two symbols 3 to 4 times that.
_MAX_WIDTH = 24


class SearchResult(_Value):
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
    height vectors is tested through a 4^d-entry table, which costs about as
    much as 32·4^d configurations per height vector, so a scan with few bit
    patterns is charged for its tables."""
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


# 128 words of 4**7 uint64 entries are 16 MB, at the largest domain size the
# default budget admits; every word of the sizes up to 6, 88 of them, fits.
@lru_cache(maxsize=128)
def _dci_hold_words(n: int, start: int) -> np.ndarray:
    """words[good | bad << n] has bit j set iff a DCI holds under height
    vector ``start + j`` (one of the 64 from ``start`` on) when its
    lhs-instances split into ``good`` (in the rhs) and ``bad`` (not in the
    rhs): there is no bad instance, or the least good height lies strictly
    below the least bad one.  Read-only, as it is shared."""
    minima = _min_height_tables(n)[start : start + _WORD]
    index = np.arange(1 << (2 * n))
    good, bad = index & ((1 << n) - 1), index >> n
    holds = np.zeros((_WORD, len(index)), dtype=bool)
    holds[: len(minima)] = (bad == 0) | (minima[:, good] < minima[:, bad])
    # eight bytes of bits per index, the first vector's the lowest
    packed = np.packbits(holds, axis=0, bitorder="little")
    words = np.ascontiguousarray(packed.T).view("<u8").ravel().astype(np.uint64)
    words.flags.writeable = False
    return words


class _Columns(dict):
    """A block of rows as ``semantics._ext_mask`` reads an interpretation:
    the fields' columns of per-row masks, each concept's once evaluated, and
    ``full_mask``, a column of ``full``.  ``_cache`` is a property, so a
    block is no reference cycle.  A quantified concept outside the fields
    raises."""

    atom_ext = role_ext = {}

    def __init__(self, full_mask: np.ndarray, columns=()):
        super().__init__(columns)
        self.full_mask = full_mask

    @property
    def _cache(self) -> _Columns:
        return self

    def get(self, c, default=None):
        # a quantified concept is read from its field, never evaluated
        if isinstance(c, (Exists, Forall)) and c not in self:
            raise LookupError(f"{c!r} is not a field of the block")
        return super().get(c, default)

    def take(self, rows, fields: Sequence[Concept]) -> _Columns:
        """The block of ``rows`` (an index array or a slice), with ``fields``'s columns."""
        return _Columns(self.full_mask[rows], {c: self[c][rows] for c in fields})


class _ConfigSpace:
    """The sorted abstract configurations of one domain size over ``types``,
    an ascending array of element types (all 2^w by default), in ``_Columns``
    blocks: per-row atom masks, quantifier bits, realisability and axioms.
    Bit f of a type says whether an element is in ``fields[f]``.  ``prefix``,
    if given, is the space of size n − 1 over the same fields and types."""

    def __init__(self, n: int, fields: list[Concept], types=None, prefix=None):
        self.n = n
        self.full = (1 << n) - 1
        self.fields = fields
        self.quantified = [c for c in fields if isinstance(c, (Exists, Forall))]
        self.total_rows = 1 << (len(fields) * n)
        self.types = _valid_types(fields, ()) if types is None else types
        self.rows = len(self.types)
        if n > 1:
            # row r has the top type u with starts[u] <= r < starts[u + 1], where
            # starts[u] = C(u + n − 1, n) counts the rows whose top type is below u
            self.starts = np.array([math.comb(u + n - 1, n) for u in range(self.rows + 1)], dtype=np.int64)
            self.rows = int(self.starts[-1])
        self.dtype = np.min_scalar_type(self.full)
        self._prefix = prefix

    @cached_property
    def _lower(self) -> np.ndarray:
        """The masks, one line per field, of every row of size n − 1 over
        ``types``, which the rows of size n > 1 extend."""
        return (self._prefix or _ConfigSpace(self.n - 1, self.fields, self.types)).table

    @cached_property
    def table(self) -> np.ndarray:
        """``unrank`` of every row, which the space of size n + 1 extends."""
        return self.unrank(0, self.rows)

    def unrank(self, lo: int, hi: int) -> np.ndarray:
        """The masks, one line per field, of the rows ``lo .. hi-1`` over
        ``types``, whose element types are non-decreasing, in colex order.
        Row r of size 1 is ``types[r]``'s bits.  Row r of size n > 1 with top
        type u is row r − starts[u] of size n − 1 with an element of type
        ``types[u]`` on top, and over consecutive rows u changes in runs."""
        if self.n == 1:
            return self._bits(self.types[lo:hi])
        u0, u1 = np.searchsorted(self.starts, (lo, hi - 1), side="right") - 1
        starts = self.starts[u0 : u1 + 2]
        runs = np.minimum(starts[1:], hi) - np.maximum(starts[:-1], lo)
        index = np.arange(lo, hi) - np.repeat(starts[:-1], runs)
        top = self._bits(self.types[u0 : u1 + 1]) << self.dtype.type(self.n - 1)
        return self._lower.take(index, axis=1) | np.repeat(top, runs, axis=1)

    def _bits(self, types: np.ndarray) -> np.ndarray:
        """Bit f of each of ``types``, one line per field f, in ``dtype``."""
        shifts = np.arange(len(self.fields), dtype=types.dtype)[:, None]
        return (types >> shifts & types.dtype.type(1)).astype(self.dtype)

    def build_sorted(self, lo: int, hi: int) -> _Columns:
        """The rows ``lo .. hi-1`` over ``types`` as a block, in the narrowest
        unsigned dtype that holds ``full``."""
        masks = self.table if (lo, hi) == (0, self.rows) else self.unrank(lo, hi)
        return _Columns(np.full(hi - lo, self.full, dtype=self.dtype), zip(self.fields, masks))

    def batches(self):
        """Yield ``(rows, block)`` for each batch, a range of at most
        2^min(2n + 10, _CHUNK_BITS) rows, and its block, in order."""
        step = 1 << min(2 * self.n + 10, _CHUNK_BITS)
        for first in range(0, self.rows, step):
            rows = range(first, min(first + step, self.rows))
            yield rows, self.build_sorted(rows.start, rows.stop)

    def violated(self, masks: _Columns, g: Axiom) -> np.ndarray:
        """Per row, whether some element is in ``g``'s lhs and not its rhs."""
        return (_ext_mask(masks, g.lhs) & ~_ext_mask(masks, g.rhs) & self.full) != 0

    def dci_index(self, masks: _Columns, d: Axiom) -> np.ndarray:
        """Per row, ``good | bad << n``: the lhs-instances of ``d`` in its rhs
        (``good``) and outside it (``bad``), the index ``_dci_hold_words``
        reads, as intp, which ``np.take`` reads without a copy."""
        lhs, rhs = _ext_mask(masks, d.lhs), _ext_mask(masks, d.rhs)
        index = (lhs & ~rhs & self.full).astype(np.intp) << self.n
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
        """Reconstruct a concrete witness from row ``row`` over ``types``:
        each demanded successor is the lowest element of its target."""
        masks = self.build_sorted(row, row + 1)
        atom_ext = {c.name: _bits(int(masks[c][0])) for c in self.fields if isinstance(c, Atom)}
        role_ext: dict[str, set[tuple[int, int]]] = {r: set() for r in roles}
        for role, i, demanded, target in self._demands(masks):
            if demanded[0]:
                t = int(target[0])
                if t == 0:
                    raise AssertionError("materializing an unrealizable row")
                role_ext[role].add((i, (t & -t).bit_length() - 1))
        base = FiniteInterpretation(self.n, atom_ext, role_ext)
        return RankedInterpretation(base, heights)


def _valid_types(fields: list[Concept], gcis: Sequence[Axiom]) -> np.ndarray:
    """The element types over ``fields``, ascending, of the single elements
    that satisfy every GCI, in the narrowest unsigned dtype that holds them
    all.  A GCI holds in a row iff it holds at each element, as each
    quantified subconcept is a field of the type, so only rows over these
    types can be witnesses."""
    width, kept = len(fields), 0
    types = np.arange(1 << width, dtype=np.min_scalar_type((1 << width) - 1))
    if not gcis:
        return types
    for lo in range(0, 1 << width, 1 << 16):  # a few MB at a time, kept in place
        one = _ConfigSpace(1, fields, types[lo : lo + (1 << 16)])
        masks = one.build_sorted(0, one.rows)
        alive = np.ones(one.rows, dtype=bool)
        for g in gcis:
            alive &= ~one.violated(masks, g)
        passed = one.types[alive]
        types[kept : kept + len(passed)] = passed
        kept += len(passed)
    return types[:kept]


def _witness_words(space: _ConfigSpace, dcis, must_fail: Optional[Axiom]):
    """Test the rows of ``space`` batch by batch, in order: yield ``(batch,
    start, bits, rows, sat)`` for each batch, a range of rows, and word of 64
    height vectors, from vector ``start`` on, under which some row of the
    batch is a witness.  Row k of the batch's realisable rows (that also
    fail ``must_fail``, if it is a GCI) is row ``rows[k]`` of ``space``, and
    bit j of ``sat[k]`` says whether it is a witness under vector
    ``start + j``; ``bits`` ORs them.  ``sat`` is the batch's buffer: the
    next word overwrites it."""
    vectors = len(_min_height_tables(space.n))
    for batch, masks in space.batches():
        rows = np.arange(len(batch))  # with no quantifier every row is realisable
        if space.quantified or isinstance(must_fail, GCI):
            keep = space.realizable(masks)
            if isinstance(must_fail, GCI):
                keep &= space.violated(masks, must_fail)
            if not len(rows := np.flatnonzero(keep)):
                continue
            masks = masks.take(rows, space.fields)
        rows += batch.start
        holds = [space.dci_index(masks, d) for d in dcis]
        fails = space.dci_index(masks, must_fail) if isinstance(must_fail, DCI) else None
        # one buffer each for the witnesses and the table words gathered; the
        # indices are in range, and "clip" fills ``out`` directly, unbuffered
        sat, gathered = np.empty(len(rows), np.uint64), np.empty(len(rows), np.uint64)
        for start in range(0, vectors, _WORD):
            table = _dci_hold_words(space.n, start)
            sat.fill((1 << min(_WORD, vectors - start)) - 1)
            for index in holds:
                table.take(index, out=gathered, mode="clip")
                sat &= gathered
            if fails is not None:
                table.take(fails, out=gathered, mode="clip")
                sat &= np.invert(gathered, out=gathered)
            if hit := int(np.bitwise_or.reduce(sat)):
                yield batch, start, hit, rows, sat


def _search(
    kb: KnowledgeBase, must_fail: Optional[Axiom], max_domain: int, limit: int = 1, max_rows: int = MAX_ROWS
) -> tuple[list[RankedInterpretation], int]:
    """Scan all ranked interpretations up to ``max_domain`` (via the abstract
    configuration space) for models of ``kb`` that, when requested, falsify
    ``must_fail``, over the atoms and roles of both.  Returns up to ``limit``
    witnesses plus the number of candidate configurations examined.  Raises
    ``ResourceLimitError`` before any work when a full scan would examine
    more than ``max_rows``, or the vocabulary is too wide to filter."""
    for name, value in (("max_domain", max_domain), ("limit", limit), ("max_rows", max_rows)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    atoms, roles, quantified = vocabulary(kb.axioms if must_fail is None else kb.axioms + (must_fail,))
    fields = quantified + [Atom(a) for a in atoms]
    width = len(fields)
    scan = 0
    for size in itertools.islice(_scan_sizes(width), max_domain):
        scan += size
        if scan > max_rows:
            raise ResourceLimitError(
                f"the oracle's scan up to domain size {max_domain} exceeds "
                f"{max_rows} configurations"
            )
    if math.comb((1 << width) + max_domain - 1, max_domain) >= 1 << 62:
        raise ResourceLimitError(f"the oracle cannot rank the sorted rows of domain size {max_domain}")
    if width > _MAX_WIDTH:
        raise ResourceLimitError(
            f"the oracle cannot filter the element types of {width} atoms and quantified "
            f"subconcepts (at most {_MAX_WIDTH})"
        )
    types = _valid_types(fields, [a for a in kb.axioms if isinstance(a, GCI)])
    dcis = [a for a in kb.axioms if isinstance(a, DCI)]
    found: list[RankedInterpretation] = []
    examined, space = 0, None

    for n in range(1, max_domain + 1):
        space = _ConfigSpace(n, fields, types, space)
        hvs = convex_height_vectors(n)
        for batch, start, bits, rows, sat in _witness_words(space, dcis, must_fail):
            for j, hv in enumerate(hvs[start : start + _WORD]):
                if not bits >> j & 1:
                    continue
                for row in rows[np.flatnonzero(sat >> np.uint64(j) & np.uint64(1))].tolist():
                    witness = space.materialize(row, hv, roles)
                    if not satisfies_all(witness, kb.axioms):
                        raise AssertionError("materialized witness fails the axioms")
                    if must_fail is not None and satisfies(witness, must_fail):
                        raise AssertionError("materialized witness satisfies the query")
                    found.append(witness)
                    if len(found) >= limit:
                        scanned = batch.start * len(hvs) + len(batch) * (start + j)
                        return found, examined + scanned + row - batch.start + 1
        examined += space.total_rows * len(hvs)
    return found, examined


def search_model(kb: KnowledgeBase, max_domain: int, max_rows: int = MAX_ROWS) -> SearchResult:
    """First ranked model of ``kb`` with at most ``max_domain`` elements, or
    absent.  Absence does not prove unsatisfiability (one-sided).  Raises
    ``ResourceLimitError`` if a full scan exceeds ``max_rows`` configurations."""
    found, examined = _search(kb, None, max_domain, 1, max_rows)
    return SearchResult(found[0] if found else None, examined)


def search_countermodel(
    kb: KnowledgeBase, query: Axiom, max_domain: int, max_rows: int = MAX_ROWS
) -> SearchResult:
    """First ranked model of ``kb`` violating ``query`` within the bound, or
    absent (one-sided in the same way), under the same row budget."""
    found, examined = _search(kb, query, max_domain, 1, max_rows)
    return SearchResult(found[0] if found else None, examined)


def enumerate_models(kb: KnowledgeBase, max_domain: int, limit: int) -> list[RankedInterpretation]:
    """Up to ``limit`` ranked models of ``kb`` in the search's witness order,
    each with non-decreasing element types.  Up to a permutation of its
    elements, every model within the bound has the atoms, quantifier bits and
    heights of one that the search can yield."""
    found, _ = _search(kb, None, max_domain, limit=limit)
    return found
