import gc
import itertools
import math
import random
import re
import weakref

import numpy as np
import pytest

from dalc.concepts import (
    And,
    Atom,
    BOTTOM,
    DCI,
    Exists,
    Forall,
    GCI,
    KnowledgeBase,
    MAX_ROWS,
    Not,
    ResourceLimitError,
    TOP,
    conjoin,
    vocabulary,
)
import dalc.search as search
import dalc.semantics as sem
from dalc.ranks import Rank
from dalc.search import enumerate_models, search_countermodel, search_model
from dalc.semantics import (
    FiniteInterpretation,
    NotModularError,
    PreferentialInterpretation,
    RankedInterpretation,
    check_postulates,
    convex_height_vectors,
    disjoint_union,
    extension,
    height_of_concept,
    heights_from_order,
    min_elements,
    order_from_heights,
    ranked_union,
    satisfies,
    satisfies_all,
)

import corpus
from generators import _search_naive, convex_height_vectors_by_filter, random_concept, random_ranked_interpretation


def scenario_interpretation() -> FiniteInterpretation:
    """The eleven-element tax-scenario interpretation (x0..x10)."""
    return FiniteInterpretation(
        11,
        {
            "Employee": frozenset({1, 2, 5, 9}),
            "Company": frozenset({6, 10}),
            "Student": frozenset({1, 5, 7, 8}),
            "EmpStud": frozenset({1, 5}),
            "Parent": frozenset({1, 2, 3}),
            "Tax": frozenset({4}),
        },
        {
            "pays": frozenset({(1, 0), (5, 4)}),
            "empBy": frozenset({(9, 10)}),
            "worksFor": frozenset({(5, 6), (9, 10)}),
        },
    )


# preference arrows drawn in the scenario's preferential variant
SCENARIO_ORDER = frozenset(
    {(7, 5), (8, 5), (9, 5), (5, 1), (7, 1), (8, 1), (9, 1), (9, 2), (10, 6)}
)


def flat(base: FiniteInterpretation) -> RankedInterpretation:
    return RankedInterpretation(base, (0,) * base.domain_size)


def strip_heights(n: int, order) -> tuple[int, ...]:
    """Layer-stripping construction: repeatedly remove minimal elements.

    Used here as the test's own derivation of heights from a drawn order
    (works for any finite strict partial order, modular or not).
    """
    pairs = set(order)
    heights = [0] * n
    remaining = set(range(n))
    level = 0
    while remaining:
        minima = {x for x in remaining if not any((y, x) in pairs for y in remaining)}
        for x in minima:
            heights[x] = level
        remaining -= minima
        level += 1
    return tuple(heights)


def test_scenario_extensions():
    i = flat(scenario_interpretation())
    assert extension(i, And(Atom("Parent"), Atom("Employee"))) == {1, 2}
    assert extension(i, Exists("pays", Atom("Tax"))) == {5}
    assert extension(i, TOP) == set(range(11))
    assert extension(i, BOTTOM) == set()
    assert extension(i, Atom("Missing")) == set()


def test_scenario_satisfaction():
    i = flat(scenario_interpretation())
    assert satisfies(i, GCI(Atom("EmpStud"), And(Atom("Student"), Atom("Employee"))))
    assert not satisfies(i, GCI(Atom("Student"), Not(Exists("pays", Atom("Tax")))))


def test_min_elements_simple():
    i = RankedInterpretation(FiniteInterpretation(3, {"A": frozenset({0, 2})}, {}), (2, 1, 0))
    # extension {0 (height 2), 2 (height 0)}: unique minimum
    assert min_elements(i, Atom("A")) == {2}
    assert min_elements(i, Atom("B")) == set()


def test_min_elements_scenario_preferential_order():
    # heights derived by the stripping construction from the drawn arrows
    heights = strip_heights(11, SCENARIO_ORDER)
    assert heights[7] == heights[8] == 0 and heights[5] == 1 and heights[1] == 2
    i = RankedInterpretation(scenario_interpretation(), heights)
    assert min_elements(i, Atom("Student")) == {7, 8}
    # the preferential reading of the same arrows agrees
    p = PreferentialInterpretation(scenario_interpretation(), SCENARIO_ORDER)
    assert min_elements(p, Atom("Student")) == {7, 8}


def test_ranked_minima_match_least_height_and_preferential_reading():
    """Minima of a ranked interpretation are its extension's elements at the
    least height, and the same as those of its preferential reading."""
    rng = random.Random(13)
    atoms, roles = ["A", "B", "C"], ["r"]
    for _ in range(200):
        i = random_ranked_interpretation(rng, rng.randrange(1, 6), atoms, roles)
        p = i.as_preferential()
        c = random_concept(rng, atoms, roles, 2)
        d = random_concept(rng, atoms, roles, 2)
        ext = extension(i, c)
        least = min((i.heights[x] for x in ext), default=None)
        mins = {x for x in ext if i.heights[x] == least}
        assert min_elements(i, c) == min_elements(p, c) == mins
        assert height_of_concept(i, c) == (Rank.infinite() if least is None else Rank.finite(least))
        holds = mins <= extension(i, d)
        assert satisfies(i, DCI(c, d)) == satisfies(p, DCI(c, d)) == holds


def test_satisfies_dci():
    base = FiniteInterpretation(1, {"A": frozenset({0}), "B": frozenset({0})}, {})
    i = RankedInterpretation(base, (0,))
    assert satisfies(i, DCI(Atom("A"), Atom("A")))
    assert not satisfies(i, DCI(Atom("A"), Not(Atom("B"))))


def test_dci_on_a_classical_interpretation_is_a_type_error():
    # a GCI and an extension need no order; a DCI's minima do
    base = FiniteInterpretation(2, {"A": {0}}, {})
    assert satisfies(base, GCI(Atom("A"), Atom("A")))
    assert not satisfies(base, GCI(TOP, Atom("A")))
    assert extension(base, Not(Atom("A"))) == {1}
    with pytest.raises(TypeError, match="preferential or ranked interpretation"):
        satisfies(base, DCI(Atom("A"), Atom("A")))
    with pytest.raises(TypeError, match="preferential or ranked interpretation"):
        min_elements(base, Atom("A"))


def test_reflexivity_holds_everywhere():
    rng = random.Random(1)
    for _ in range(50):
        i = random_ranked_interpretation(rng, rng.randrange(1, 5), ["A", "B"], ["r"])
        c = random_concept(rng, ["A", "B"], ["r"], 2)
        assert satisfies(i, DCI(c, c))


def test_height_of_concept():
    base = FiniteInterpretation(2, {"A": frozenset({1})}, {})
    i = RankedInterpretation(base, (0, 1))
    assert height_of_concept(i, TOP) == Rank.finite(0)
    assert height_of_concept(i, BOTTOM) == Rank.infinite()
    assert height_of_concept(i, Atom("A")) == Rank.finite(1)


def test_smoothness_on_finite_domains():
    rng = random.Random(5)
    for _ in range(100):
        i = random_ranked_interpretation(rng, rng.randrange(1, 5), ["A", "B", "C"], ["r"])
        c = random_concept(rng, ["A", "B", "C"], ["r"], 2)
        ext = extension(i, c)
        mins = min_elements(i, c)
        assert (ext == set()) == (mins == set())
        assert mins <= ext


def test_ranked_interpretation_validation():
    base = FiniteInterpretation(2, {}, {})
    with pytest.raises(ValueError):
        RankedInterpretation(base, (0, 2))  # gap at 1
    with pytest.raises(ValueError):
        RankedInterpretation(base, (1, 1))  # no layer 0
    with pytest.raises(ValueError):
        FiniteInterpretation(0, {}, {})
    with pytest.raises(ValueError, match="one height per domain element"):
        RankedInterpretation(base, (0,))
    with pytest.raises(ValueError, match="atom A extension outside domain"):
        FiniteInterpretation(2, {"A": {2}}, {})
    with pytest.raises(ValueError, match="role r extension outside domain"):
        FiniteInterpretation(2, {}, {"r": {(0, 2)}})


def test_preferential_interpretation_rejects_pairs_outside_domain():
    base = FiniteInterpretation(3, {"A": {0, 1}}, {})
    for order in ({(0, 5)}, {(-1, 1)}):
        with pytest.raises(ValueError, match="outside domain"):
            PreferentialInterpretation(base, order)
    with pytest.raises(ValueError, match="not a strict partial order"):
        PreferentialInterpretation(base, {(0, 1), (1, 0)})
    with pytest.raises(ValueError, match="not transitive"):
        PreferentialInterpretation(base, {(0, 1), (1, 2)})


@pytest.mark.parametrize(
    "order, error, message, offenders",
    [
        ({(0, 3)}, ValueError, r"pair \(0, 3\) outside domain of size 3", None),
        ({(-1, 1)}, ValueError, r"pair \(-1, 1\) outside domain of size 3", None),
        ({(1, 1)}, NotModularError, r"order is not a strict partial order at \(1, 1\)", [(1, 1)]),
        # a symmetric pair is named in whichever direction the set yields first
        ({(0, 1), (1, 0)}, NotModularError, r"order is not a strict partial order at \((0, 1|1, 0)\)",
         [(0, 1), (1, 0)]),
        ({(0, 1), (1, 2)}, NotModularError, r"order is not transitive: \(0, 1\) and \(1, 2\) without \(0, 2\)",
         [(0, 1, 2)]),
    ],
)
def test_preferential_and_heights_reject_the_same_orders(order, error, message, offenders):
    base = FiniteInterpretation(3, {}, {})
    raised = []
    for build in (lambda: PreferentialInterpretation(base, order), lambda: heights_from_order(3, order)):
        with pytest.raises(error, match=f"^{message}$") as exc:
            build()
        assert type(exc.value) is error
        if offenders is not None:
            assert exc.value.triple in offenders
        raised.append((str(exc.value), getattr(exc.value, "triple", None)))
    assert raised[0] == raised[1]


def test_heights_from_order_total_incomparability():
    assert heights_from_order(3, []) == (0, 0, 0)


def test_heights_from_order_chain():
    assert heights_from_order(3, [(0, 1), (1, 2), (0, 2)]) == (0, 1, 2)


def test_heights_from_order_fork():
    # two incomparable minima below a single top element
    assert heights_from_order(3, [(0, 2), (1, 2)]) == (0, 0, 1)


def test_heights_from_order_rejects_non_modular():
    with pytest.raises(NotModularError) as exc:
        heights_from_order(3, [(0, 1)])
    assert len(exc.value.triple) == 3


def test_heights_from_order_rejects_non_transitive():
    with pytest.raises(NotModularError):
        heights_from_order(3, [(0, 1), (1, 2)])


def test_heights_from_order_rejects_reflexive_pair():
    with pytest.raises(NotModularError):
        heights_from_order(2, [(0, 0)])
    with pytest.raises(ValueError, match="outside domain of size 2"):
        heights_from_order(2, [(0, 2)])


def test_heights_order_round_trip():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(1, 6)
        raw = [rng.randrange(n) for _ in range(n)]
        levels = {h: k for k, h in enumerate(sorted(set(raw)))}
        heights = tuple(levels[h] for h in raw)
        assert heights_from_order(n, order_from_heights(heights)) == heights


def test_disjoint_union_lifts_extensions_componentwise():
    rng = random.Random(2)
    for _ in range(30):
        parts = [
            random_ranked_interpretation(rng, rng.randrange(1, 4), ["A", "B"], ["r"]).as_preferential()
            for _ in range(rng.randrange(1, 4))
        ]
        u = disjoint_union(parts)
        c = random_concept(rng, ["A", "B"], ["r"], 2)
        offset = 0
        for p in parts:
            lifted = {offset + x for x in extension(p, c)}
            assert lifted == {e for e in extension(u, c) if offset <= e < offset + p.base.domain_size}
            offset += p.base.domain_size


def test_disjoint_union_of_one_is_itself():
    rng = random.Random(3)
    p = random_ranked_interpretation(rng, 3, ["A"], ["r"]).as_preferential()
    u = disjoint_union([p])
    assert u.base == p.base and u.order == p.order
    with pytest.raises(ValueError, match="empty collection"):
        disjoint_union([])


def test_disjoint_union_preserves_models():
    kb = corpus.student_kb()
    models = enumerate_models(kb, 2, 6)
    assert models
    u = disjoint_union([m.as_preferential() for m in models])
    assert satisfies_all(u, kb.axioms)


def test_ranked_union_preserves_models():
    kb = corpus.penguin_kb()
    models = enumerate_models(kb, 2, 6)
    assert models
    u = ranked_union(models)
    assert satisfies_all(u, kb.axioms)


def test_ranked_union_of_one_is_itself():
    rng = random.Random(4)
    r = random_ranked_interpretation(rng, 3, ["A"], ["r"])
    u = ranked_union([r])
    assert u.base == r.base and u.heights == r.heights
    with pytest.raises(ValueError, match="empty collection"):
        ranked_union([])


def test_ranked_union_concept_height_is_min_over_components():
    rng = random.Random(6)
    for _ in range(30):
        parts = [
            random_ranked_interpretation(rng, rng.randrange(1, 4), ["A", "B"], ["r"])
            for _ in range(rng.randrange(1, 4))
        ]
        u = ranked_union(parts)
        c = random_concept(rng, ["A", "B"], ["r"], 2)
        assert height_of_concept(u, c) == min(height_of_concept(p, c) for p in parts)


def test_convex_height_vectors_count():
    # ordered Bell numbers: 1, 3, 13, 75
    assert [len(convex_height_vectors(n)) for n in (1, 2, 3, 4)] == [1, 3, 13, 75]


@pytest.mark.parametrize("n", range(1, 7))
def test_convex_height_vectors_match_the_filter(n):
    assert convex_height_vectors(n) == convex_height_vectors_by_filter(n)


def test_min_height_tables_are_the_least_height_in_each_mask():
    for n in range(1, 6):
        tables = search._min_height_tables(n)
        for hv, table in zip(convex_height_vectors(n), tables):
            assert table[0] == n
            for mask in range(1, 1 << n):
                assert table[mask] == min(hv[i] for i in range(n) if mask >> i & 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_memoised_hold_words_match_the_min_height_tables(n):
    """Each word of 64 height vectors' table, memoised, has bit j of entry
    ``good | bad << n`` set iff no lhs-instance is bad or the least good
    height under vector ``start + j`` lies below the least bad one."""
    tables = search._min_height_tables(n)
    index = np.arange(4**n)
    good, bad = index & (2**n - 1), index >> n
    for start in range(0, len(tables), 64):
        words = search._dci_hold_words(n, start)
        assert words is search._dci_hold_words(n, start)
        assert words.dtype == np.uint64 and words.shape == (4**n,) and not words.flags.writeable
        for j in range(64):
            bit = (words >> np.uint64(j) & np.uint64(1)).astype(bool)
            if start + j < len(tables):
                table = tables[start + j]
                assert np.array_equal(bit, (bad == 0) | (table[good] < table[bad])), (start, j)
            else:
                assert not bit.any(), (start, j)


def test_the_hold_word_memo_is_bounded():
    """The default budget admits domain size 7 at most, even with one bit
    pattern; there the memo holds at most 32 MB of 4**7-entry tables, and it
    holds every word of the sizes up to 6."""
    charges = list(itertools.accumulate(itertools.islice(search._scan_sizes(0), 8)))
    assert charges[6] <= MAX_ROWS < charges[7]
    maxsize = search._dci_hold_words.cache_info().maxsize
    assert maxsize * 4**7 * 8 <= 32 << 20
    assert sum(-(-len(convex_height_vectors(n)) // 64) for n in range(1, 7)) <= maxsize


def test_search_model_running_example():
    res = search_model(corpus.student_kb(), 3)
    assert res.found
    assert satisfies_all(res.interpretation, corpus.student_kb().axioms)


def test_search_model_unsatisfiable_kb():
    kb = KnowledgeBase(tbox=(GCI(TOP, BOTTOM),))
    for bound in (1, 2, 3):
        assert not search_model(kb, bound).found


def test_search_model_empty_kb():
    res = search_model(KnowledgeBase(), 3)
    assert res.found
    assert res.interpretation.base.domain_size == 1
    assert res.interpretation.heights == (0,)


def test_search_countermodel_examples():
    kb = corpus.student_kb()
    # the minimal employed students pay tax, so this query has countermodels
    q = DCI(Atom("EmpStud"), Not(Exists("pays", Atom("Tax"))))
    res = search_countermodel(kb, q, 3)
    assert res.found
    assert satisfies_all(res.interpretation, kb.axioms)
    assert not satisfies(res.interpretation, q)


def test_search_countermodel_reflexivity_absent():
    q = DCI(Atom("C"), Atom("C"))
    for bound in (1, 2, 3):
        assert not search_countermodel(KnowledgeBase(), q, bound).found


def test_search_countermodel_entailed_gci_absent():
    kb = KnowledgeBase(tbox=(GCI(Atom("A"), Atom("B")),))
    assert not search_countermodel(kb, GCI(Atom("A"), Atom("B")), 3).found


def test_search_matches_naive_enumeration():
    rng = random.Random(0)
    atoms, roles = ["A", "B"], ["r"]
    for _ in range(25):
        tbox = tuple(
            GCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(2))
        )
        dtbox = tuple(
            DCI(random_concept(rng, atoms, roles, 1), random_concept(rng, atoms, roles, 1))
            for _ in range(rng.randrange(3))
        )
        kb = KnowledgeBase(tbox, dtbox)
        if rng.random() < 0.4:
            q = None
        else:
            ctor = DCI if rng.random() < 0.7 else GCI
            q = ctor(
                random_concept(rng, atoms, roles, 1),
                random_concept(rng, atoms, roles, 1),
            )
        naive = _search_naive(kb, q, 2)
        fast = search_model(kb, 2) if q is None else search_countermodel(kb, q, 2)
        assert (naive is not None) == fast.found
        if fast.found:
            assert satisfies_all(fast.interpretation, kb.axioms)
            if q is not None:
                assert not satisfies(fast.interpretation, q)


def test_search_matches_naive_with_nested_quantifiers():
    rng = random.Random(42)
    atoms, roles = ["A", "B"], ["r"]
    for _ in range(10):
        dtbox = tuple(
            DCI(random_concept(rng, atoms, roles, 2), random_concept(rng, atoms, roles, 2))
            for _ in range(rng.randrange(3))
        )
        kb = KnowledgeBase(dtbox=dtbox)
        q = DCI(
            random_concept(rng, atoms, roles, 2), random_concept(rng, atoms, roles, 2)
        )
        naive = _search_naive(kb, q, 2)
        fast = search_countermodel(kb, q, 2)
        assert (naive is not None) == fast.found


def test_chunked_scan_matches_single_chunk(monkeypatch):
    # force tiny row blocks so the search crosses chunk boundaries, and
    # compare against the one-chunk run on KBs where that changes nothing
    kb = corpus.student_kb()
    q = DCI(Atom("EmpStud"), Not(Exists("pays", Atom("Tax"))))
    base_model = search_model(kb, 2)
    base_counter = search_countermodel(kb, q, 2)
    monkeypatch.setattr(search, "_CHUNK_BITS", 6)
    chunked_model = search_model(kb, 2)
    chunked_counter = search_countermodel(kb, q, 2)
    assert chunked_model.found == base_model.found
    assert chunked_counter.found == base_counter.found
    assert satisfies_all(chunked_counter.interpretation, kb.axioms)
    assert not satisfies(chunked_counter.interpretation, q)
    # exhaustive absence is chunk-invariant too
    bad = KnowledgeBase(tbox=(GCI(TOP, BOTTOM),))
    assert not search_model(bad, 3).found


def reference_witnesses(space, masks, must_hold, must_fail):
    """Yield ``(hv, sat)`` for each convex height vector of ``space``'s
    domain size, in order: per row of ``masks``, whether it is a witness
    under ``hv``, decided one vector at a time and from the masks alone."""

    def violated(a):
        return sem._ext_mask(masks, a.lhs) & ~sem._ext_mask(masks, a.rhs) & space.full != 0

    def dci_holds(a, tbl):
        lhs, rhs = sem._ext_mask(masks, a.lhs), sem._ext_mask(masks, a.rhs)
        good, bad = lhs & rhs, lhs & ~rhs & space.full
        return (bad == 0) | (tbl[good] < tbl[bad])

    alive = space.realizable(masks)
    for a in must_hold:
        if isinstance(a, GCI):
            alive &= ~violated(a)
    if isinstance(must_fail, GCI):
        alive &= violated(must_fail)
    for hv, tbl in zip(convex_height_vectors(space.n), search._min_height_tables(space.n)):
        sat = alive.copy()
        for a in must_hold:
            if isinstance(a, DCI):
                sat &= dci_holds(a, tbl)
        if isinstance(must_fail, DCI):
            sat &= ~dci_holds(must_fail, tbl)
        yield hv, sat


def reference_search(must_hold, must_fail, atoms, roles, max_domain, limit=1):
    """The sorted scan one height vector at a time, in the oracle's order
    (domain size, batch, height vector, row), counting configurations the
    same way: all ``total_rows·F(n)`` of each size scanned to its end, and
    the (row, height vector) pairs up to the ``limit``-th witness; the
    reference for the bitset search in ``_search``.  Its rows are the sorted
    rows over all types in which every GCI holds, in colex order, cut into
    batches of 2**min(2n + 10, _CHUNK_BITS)."""
    _, _, quantified = vocabulary(list(must_hold) + ([must_fail] if must_fail is not None else []))
    found, examined = [], 0
    for n in range(1, max_domain + 1):
        space = search._ConfigSpace(n, fields_of(atoms, quantified))
        every = space.build_sorted(0, space.rows)
        valid = np.ones(space.rows, dtype=bool)
        for a in must_hold:
            if isinstance(a, GCI):
                valid &= sem._ext_mask(every, a.lhs) & ~sem._ext_mask(every, a.rhs) & space.full == 0
        valid = np.flatnonzero(valid)
        vectors = convex_height_vectors(n)
        size = 1 << min(2 * n + 10, search._CHUNK_BITS)
        for lo in range(0, len(valid), size):
            batch = valid[lo : lo + size]
            masks = every.take(batch, space.fields)
            for k, (hv, sat) in enumerate(reference_witnesses(space, masks, must_hold, must_fail)):
                for idx in np.flatnonzero(sat):
                    found.append(space.materialize(int(batch[idx]), hv, roles))
                    if len(found) >= limit:
                        return found, examined + lo * len(vectors) + len(batch) * k + int(idx) + 1
        examined += space.total_rows * len(vectors)
    return found, examined


def assert_matches_reference(kb, query, max_domain, limit=1):
    atoms, roles, _ = vocabulary(kb.axioms + ((query,) if query is not None else ()))
    found, examined = search._search(kb, query, max_domain, limit)
    ref_found, ref_examined = reference_search(
        kb.axioms, query, atoms, roles, max_domain, limit
    )
    assert examined == ref_examined
    assert [w.to_json_dict() for w in found] == [w.to_json_dict() for w in ref_found]
    return found


@pytest.mark.parametrize("chunk_bits", [None, 9])
def test_bitset_search_matches_reference_on_corpus(monkeypatch, chunk_bits):
    if chunk_bits is not None:
        monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    for name, text, _ in corpus.VERDICTS:
        kb = corpus.CORPUS[name]()
        assert_matches_reference(kb, corpus.query(text), 3)
        models = enumerate_models(kb, 3, 12)
        assert [m.to_json_dict() for m in models] == [
            m.to_json_dict() for m in assert_matches_reference(kb, None, 3, limit=12)
        ]
    # the oracle's default bound: boss's countermodel has three elements, and
    # domain 3 reads 11,480 rows over its 40 valid types: one batch at the
    # default settings, 23 of 2**9 rows
    (witness,) = assert_matches_reference(
        corpus.boss_kb(), corpus.query("Worker ~[= exists hasSuperior.Responsible"), 4
    )
    assert witness.base.domain_size == 3


def random_one_role_kbs():
    """30 seeded KBs over atoms A, B and role r, each with no query, a GCI
    query or a DCI query."""
    rng = random.Random(2024)
    atoms, roles = ["A", "B"], ["r"]

    def concept():
        return random_concept(rng, atoms, roles, 1)

    cases = []
    for _ in range(30):
        kb = KnowledgeBase(
            tuple(GCI(concept(), concept()) for _ in range(rng.randrange(2))),
            tuple(DCI(concept(), concept()) for _ in range(rng.randrange(1, 4))),
        )
        kind = rng.choice([None, GCI, DCI])
        cases.append((kb, None if kind is None else kind(concept(), concept())))
    assert {type(q) for _, q in cases} == {type(None), GCI, DCI}
    return cases


@pytest.mark.parametrize("chunk_bits", [None, 9])
def test_bitset_search_matches_reference_on_random_kbs(monkeypatch, chunk_bits):
    if chunk_bits is not None:
        monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    for kb, query in random_one_role_kbs():
        assert_matches_reference(kb, query, 3)


def sorted_scan_finds(space, kb, query):
    """Whether ``_search``'s scan, over the types that pass every GCI, holds a
    witness at ``space``'s domain size."""
    gcis = [a for a in kb.axioms if isinstance(a, GCI)]
    dcis = [a for a in kb.axioms if isinstance(a, DCI)]
    types = search._valid_types(space.fields, gcis)
    valid = search._ConfigSpace(space.n, space.fields, types)
    return next(search._witness_words(valid, dcis, query), None) is not None


def all_rows_find(space, kb, query):
    """Whether some row of all ``total_rows``, in every element order and laid
    out by the int64 row formula, is a witness under some height vector."""
    for lo in range(0, space.total_rows, 1 << 16):
        masks = formula_masks(space, lo, min(lo + (1 << 16), space.total_rows))
        if any(sat.any() for _, sat in reference_witnesses(space, masks, kb.axioms, query)):
            return True
    return False


@pytest.mark.parametrize("chunk_bits", [4, 20])
def test_existence_pass_matches_reference_at_each_domain_size(monkeypatch, chunk_bits):
    """Sorting a witness's elements by type keeps it a witness, so the sorted
    rows hold one exactly at the domain sizes where all rows do."""
    verdicts = set()
    for kb, query in random_one_role_kbs():
        if query is None:
            continue
        fields = type_fields(kb, query)
        for n in (1, 2, 3):
            space = search._ConfigSpace(n, fields)
            found = all_rows_find(space, kb, query)
            with monkeypatch.context() as m:
                m.setattr(search, "_CHUNK_BITS", chunk_bits)
                assert sorted_scan_finds(space, kb, query) == found, (kb, query, n)
            verdicts.add(found)
    assert verdicts == {False, True}


@pytest.mark.parametrize("chunk_bits", [None, 4])
def test_first_witness_in_second_height_word(monkeypatch, chunk_bits):
    """Four strictly ordered layers are forced: T's minima are not ¬A, ¬A's
    not ¬B, ¬A&¬B's not ¬C, and the query asks for a ¬A&¬B&¬C element.
    Element types are non-decreasing, so the element in none of A, B, C,
    type 0, comes first and sits on top: the first witness has heights
    (3, 2, 1, 0), height vector 74, in the second word of the bitset."""
    if chunk_bits is not None:
        monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    kb = KnowledgeBase(
        tbox=(GCI(Not(b), Not(a)), GCI(Not(c), Not(b))),
        dtbox=(DCI(TOP, a), DCI(Not(a), b), DCI(And(Not(a), Not(b)), c)),
    )
    query = GCI(And(And(Not(a), Not(b)), Not(c)), BOTTOM)
    (witness,) = assert_matches_reference(kb, query, 4)
    index = convex_height_vectors(4).index(witness.heights)
    assert index >= 64
    assert index == 74 and witness.heights == (3, 2, 1, 0)


def test_domain_five_spans_several_words():
    sizes = [len(convex_height_vectors(d)) for d in range(1, 6)]
    assert sizes[-1] == 541  # 9 words of 64 height vectors
    a = Atom("A")
    entailed = [
        (KnowledgeBase(), DCI(a, a)),
        (KnowledgeBase(dtbox=(DCI(TOP, Not(a)),)), DCI(TOP, Not(a))),
    ]
    for kb, q in entailed:
        res = search_countermodel(kb, q, 5)
        assert not res.found
        assert res.enumerated == sum(2**d * f for d, f in enumerate(sizes, 1))
        assert not assert_matches_reference(kb, q, 5)
    q = DCI(a, Not(a))
    assert search_countermodel(KnowledgeBase(), q, 5).found
    assert _search_naive(KnowledgeBase(), q, 5) is not None


def test_scan_size_is_the_rows_of_a_search_without_witness():
    # F(d) from the recurrence is the number of convex height vectors; with a
    # single bit pattern each of them is charged its table, 32·4^d
    assert list(itertools.islice(search._scan_sizes(0), 6)) == [
        len(convex_height_vectors(d)) << (2 * d + 5) for d in range(1, 7)
    ]
    cases = [
        (corpus.boss_kb(), "Worker ~[= exists hasSuperior.Responsible", 2),
        (corpus.student_kb(), "Student ~[= !exists pays.Tax", 3),
        (corpus.student_kb(), "Student ~[= !exists pays.Tax", 4),
        (KnowledgeBase(), "A ~[= A", 5),
    ]
    for kb, text, bound in cases:
        q = corpus.query(text)
        res = search_countermodel(kb, q, bound)
        assert not res.found
        width = len(type_fields(kb, q))
        assert res.enumerated == sum(
            2 ** (d * width) * len(convex_height_vectors(d)) for d in range(1, bound + 1)
        )
        # the refusal threshold is exactly the charge
        charge = sum(itertools.islice(search._scan_sizes(width), bound))
        assert search_countermodel(kb, q, bound, charge).enumerated == res.enumerated
        with pytest.raises(ResourceLimitError):
            search_countermodel(kb, q, bound, charge - 1)


def fields_of(atoms, quantified):
    """The fields of a ``_ConfigSpace``: the quantified concepts, then the atoms."""
    return list(quantified) + [Atom(a) for a in atoms]


def type_fields(kb, query):
    """The concepts of the search's type bits for ``kb`` and ``query``."""
    atoms, _, quantified = vocabulary(kb.axioms + ((query,) if query is not None else ()))
    return fields_of(atoms, quantified)


def assert_types_non_decreasing(witness, fields):
    """Element i's type has bit f set iff i is in the extension of field f."""
    extensions = [extension(witness, c) for c in fields]
    types = [sum(1 << f for f, e in enumerate(extensions) if i in e) for i in range(witness.base.domain_size)]
    assert types == sorted(types), (witness.to_json_dict(), types)


def test_witnesses_have_non_decreasing_element_types():
    """Every witness the search returns has its elements sorted by type, and
    at domain 2 the search finds one exactly when the naive search does."""
    cases = [(corpus.CORPUS[name](), corpus.query(text)) for name, text, _ in corpus.VERDICTS]
    cases += [(corpus.CORPUS[name](), None) for name in corpus.CORPUS]
    cases += random_one_role_kbs()
    witnesses = 0
    for kb, query in cases:
        fields = type_fields(kb, query)
        for bound in (2, 3):
            res = search_model(kb, bound) if query is None else search_countermodel(kb, query, bound)
            if bound == 2:
                assert res.found == (_search_naive(kb, query, 2) is not None), (kb, query)
            if res.found:
                assert_types_non_decreasing(res.interpretation, fields)
                witnesses += 1
        fields = type_fields(kb, None)
        for model in enumerate_models(kb, 3, 12):
            assert_types_non_decreasing(model, fields)
            witnesses += 1
    assert witnesses > len(cases)


def test_sorted_rows_past_int64_ranks_are_a_resource_limit(monkeypatch):
    # 32 atoms: domain size 2 has C(2**32 + 1, 2) >= 2**62 sorted rows, and
    # the search refuses before it scans domain size 1
    def scan(*args):
        raise AssertionError("the search started scanning")

    monkeypatch.setattr(search, "_witness_words", scan)
    query = GCI(conjoin([Atom(f"A{k}") for k in range(31)]), Atom("A31"))
    with pytest.raises(ResourceLimitError, match="cannot rank the sorted rows of domain size 2"):
        search._search(KnowledgeBase(), query, 2, max_rows=1 << 66)


def test_a_vocabulary_of_24_symbols_reaches_the_type_filter(monkeypatch):
    # 24 atoms is the widest vocabulary the search filters; at domain size 1
    # the default budget admits it, and so does the width cap
    class Reached(Exception):
        pass

    def valid_types(*args):
        raise Reached

    monkeypatch.setattr(search, "_valid_types", valid_types)
    kb = KnowledgeBase(dtbox=[DCI(Atom(f"A{k}"), Atom(f"A{k + 1}")) for k in range(23)])
    with pytest.raises(Reached):
        search._search(kb, None, 1)


def element_types(space, masks):
    """Each row's element types, decoded from its masks: bit i of field f's
    mask is bit f of element i's type."""
    types = np.zeros((len(masks.full_mask), space.n), dtype=np.int64)
    for f, c in enumerate(space.fields):
        assert masks[c].dtype == np.min_scalar_type(space.full)
        for i in range(space.n):
            types[:, i] |= (masks[c].astype(np.int64) >> i & 1) << f
    return [tuple(t) for t in types.tolist()]


@pytest.mark.parametrize(
    "vocabulary",
    [([], []), (["A"], []), ([], [Exists("r", Atom("A"))]), (["A", "B", "C"], [Exists("r", Atom("A"))])],
)
def test_build_sorted_yields_each_sorted_type_tuple_once(monkeypatch, vocabulary):
    for n in range(1, 6):
        space = search._ConfigSpace(n, fields_of(*vocabulary))
        types = 2 ** len(space.fields)
        assert space.rows == math.comb(types + n - 1, n)
        masks = space.build_sorted(0, space.rows)
        rows = element_types(space, masks)
        assert len(rows) == space.rows
        assert sorted(rows) == list(itertools.combinations_with_replacement(range(types), n))
        # batches of 16 rows, the last one short, lay out the same rows
        with monkeypatch.context() as m:
            m.setattr(search, "_CHUNK_BITS", 4)
            blocks = [block for _, block in space.batches()]
        assert len(blocks) == -(-space.rows // 16)
        for c in masks:
            assert np.array_equal(np.concatenate([b[c] for b in blocks]), masks[c])


def test_block_columns_match_each_rows_interpretation():
    """``_ext_mask`` over a block gives, in each row, the mask it gives over
    that row's own interpretation: Boolean concepts over the vocabulary's
    atoms, ⊤, ⊥ and an atom Z outside the vocabulary."""
    rng = random.Random(19)
    atoms = ["A", "B", "C"]
    concepts = [TOP, BOTTOM, Atom("Z"), Not(Atom("Z"))]
    concepts += [random_concept(rng, atoms + ["Z"], [], 3) for _ in range(60)]
    checked = 0
    for n in (1, 2, 3):
        space = search._ConfigSpace(n, fields_of(atoms, []))
        block = space.build_sorted(0, space.rows)
        rows = [
            FiniteInterpretation(n, {a: sem._bits(int(block[Atom(a)][r])) for a in atoms}, {})
            for r in range(space.rows)
        ]
        for c in concepts:
            column = sem._ext_mask(block, c)
            assert isinstance(column, np.ndarray) and column.dtype == space.dtype
            assert column.tolist() == [sem._ext_mask(row, c) for row in rows], (n, c)
            checked += len(rows)
        # a quantified concept is read from its field, never evaluated, and
        # one outside the fields is named
        missing = re.escape("Exists(role='r', filler=Atom(name='A')) is not a field of the block")
        with pytest.raises(LookupError, match=missing):
            sem._ext_mask(block, Exists("r", Atom("A")))
    assert checked == len(concepts) * (8 + 36 + 120)


def test_a_dropped_block_is_freed_without_the_cycle_collector():
    """A block is its own ``_cache`` through a property; held in a field, it
    would make every block a reference cycle that only the collector frees."""
    space = search._ConfigSpace(2, fields_of(["A"], [Exists("r", Atom("A"))]))
    block = space.build_sorted(0, space.rows)
    sem._ext_mask(block, Not(Atom("A")))
    assert block._cache is block
    full_mask = weakref.ref(block.full_mask)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del block
        assert full_mask() is None
    finally:
        if enabled:
            gc.enable()


def test_search_budgets_must_be_positive():
    # as in the CLI, a budget below 1 is bad input, not an empty scan
    kb, q = corpus.student_kb(), corpus.query("Student ~[= Tax")
    for call, message in (
        (lambda: search_countermodel(kb, q, 0), "max_domain must be positive, got 0"),
        (lambda: search_model(kb, -3), "max_domain must be positive, got -3"),
        (lambda: enumerate_models(kb, 2, 0), "limit must be positive, got 0"),
        (lambda: search_model(kb, 2, 0), "max_rows must be positive, got 0"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def build_layout(space):
    """(column, shift) of each field in the int64 row formula over all
    ``total_rows`` rows: field f is bits f·n .. f·n + n − 1 of the row."""
    return [(c, f * space.n) for f, c in enumerate(space.fields)]


def formula_masks(space, lo, hi):
    """The block of rows ``lo .. hi-1`` of all ``total_rows``, every element
    order included, from the int64 row formula."""
    rows = np.arange(lo, hi, dtype=np.int64)
    full_mask = np.full(hi - lo, space.full, dtype=space.dtype)
    return search._Columns(
        full_mask, {c: ((rows >> shift) & space.full).astype(space.dtype) for c, shift in build_layout(space)}
    )


def sorted_type_rows(space):
    """Every non-decreasing type tuple, in colex order: by the top element's
    type first, then the next one down, as the multiset ranks order them."""
    types = np.array(
        list(itertools.combinations_with_replacement(range(1 << len(space.fields)), space.n)),
        dtype=np.int64,
    )
    return types[np.lexsort(types.T)]


def assert_build_sorted_matches_formula(space, types, lo, hi):
    """``build_sorted``'s columns of ranks ``lo .. hi-1``, each against bit f
    of every element's type in ``types`` (from ``sorted_type_rows``), and a
    DCI index over two of them, as intp, against its formula."""
    masks = space.build_sorted(lo, hi)
    assert list(masks) == space.fields
    columns = []
    for f, c in enumerate(space.fields):
        want = sum(((types[lo:hi, i] >> f) & 1) << i for i in range(space.n))
        assert masks[c].dtype == np.min_scalar_type(space.full)
        assert np.array_equal(masks[c], want), (lo, hi, c)
        columns.append((c, want))
    (a, lhs), (b, rhs) = columns[:2]
    index = space.dci_index(masks, DCI(a, b))
    assert index.dtype == np.intp
    assert np.array_equal(index, (lhs & rhs) | ((lhs & ~rhs & space.full) << space.n))


VOCABULARY = (["A", "B"], [Exists("r", Atom("A"))])


def wide_vocabulary(n):
    """The fewest atoms, beside one quantified concept, whose sorted rows fill
    more than one block of 2**(2n + 10) rows at domain size n."""
    atoms = []
    while math.comb(2 ** (len(atoms) + 1) + n - 1, n) <= 1 << (2 * n + 10):
        atoms.append(f"A{len(atoms)}")
    return atoms, [Exists("r", Atom("A0"))]


@pytest.mark.parametrize("chunk_bits", [None, 4])
def test_build_sorted_matches_the_rank_formula(monkeypatch, chunk_bits):
    """``build_sorted`` unranks the multisets of element types; here each
    block's columns, and a DCI index over two of them, are checked against
    the colex order of ``combinations_with_replacement``.  The blocks are in
    order, of 2**min(2n + 10, _CHUNK_BITS) rows each but the last, and cover
    every rank once, up to n = 6; at the default settings on a
    vocabulary wide enough for two or more blocks too, for n <= 3 (13, 8 and
    7 fields, so n = 1 needs 16-bit types)."""
    if chunk_bits is not None:
        monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    for n in range(1, 7):
        spaces = [search._ConfigSpace(n, fields_of(*VOCABULARY))]
        if chunk_bits is None and n <= 3:
            spaces.append(search._ConfigSpace(n, fields_of(*wide_vocabulary(n))))
        for space in spaces:
            size = 1 << min(2 * n + 10, search._CHUNK_BITS)
            batches = [rows for rows, _ in space.batches()]
            assert batches == [range(lo, min(lo + size, space.rows)) for lo in range(0, space.rows, size)]
            assert len(batches) > 1 or space is spaces[0]
            types = sorted_type_rows(space)
            assert len(types) == space.rows
            for rows in batches:
                assert_build_sorted_matches_formula(space, types, rows.start, rows.stop)


def run_length_rows(space, lo, hi):
    """Rows ``lo .. hi-1`` of size 1 over ``space.types`` by the unranking of
    the larger sizes: runs of length 1 (starts[u] = u) over the one all-zero
    row of size 0, each bit of a type read through a Python int."""
    starts = np.arange(len(space.types) + 1)
    u0, u1 = np.searchsorted(starts, (lo, hi - 1), side="right") - 1
    runs = np.minimum(starts[u0 + 1 : u1 + 2], hi) - np.maximum(starts[u0 : u1 + 1], lo)
    index = np.arange(lo, hi) - np.repeat(starts[u0 : u1 + 1], runs)
    top = np.array(
        [[int(t) >> f & 1 for t in space.types[u0 : u1 + 1]] for f in range(len(space.fields))],
        dtype=space.dtype,
    ).reshape(len(space.fields), -1)
    lower = np.zeros((len(space.fields), 1), space.dtype)
    return lower.take(index, axis=1) | np.repeat(top, runs, axis=1)


@pytest.mark.parametrize("chunk_bits", [None, 4])
def test_size_one_reads_filtered_types_as_the_run_length_unranking(monkeypatch, chunk_bits):
    """Size 1 reads each type as a row.  Over the types that pass student's
    and boss's GCIs, ascending with gaps, and in the narrowest unsigned
    dtype, that gives the blocks, dtypes and batch bounds of the unranking
    that sizes n > 1 use, and the same one-row blocks."""
    if chunk_bits is not None:
        monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    cases = [
        (corpus.student_kb(), "Student ~[= !exists pays.Tax", 24),
        (corpus.boss_kb(), "Worker ~[= exists hasSuperior.Responsible", 40),
    ]
    for kb, text, valid in cases:
        fields = type_fields(kb, corpus.query(text))
        types = search._valid_types(fields, kb.tbox)
        gaps = np.diff(types.astype(np.int64))
        assert len(types) == valid and types.dtype == np.uint8 and gaps.min() > 0 and gaps.max() > 1
        space = search._ConfigSpace(1, fields, types)
        size = 1 << min(12, search._CHUNK_BITS)
        batches = list(space.batches())
        assert [rows for rows, _ in batches] == [range(lo, min(lo + size, valid)) for lo in range(0, valid, size)]
        blocks = [(rows.start, rows.stop, block) for rows, block in batches]
        blocks += [(r, r + 1, space.build_sorted(r, r + 1)) for r in range(valid)]
        for lo, hi, block in blocks:
            want = run_length_rows(space, lo, hi)
            assert list(block) == fields
            assert block.full_mask.dtype == np.uint8 and block.full_mask.tolist() == [1] * (hi - lo)
            for f, c in enumerate(fields):
                assert block[c].dtype == want.dtype == np.uint8
                assert np.array_equal(block[c], want[f]), (text, lo, hi, c)


def test_wide_types_are_held_in_the_narrowest_unsigned_dtype():
    # 2**w - 1 fits uint8 up to w = 8, uint16 up to 16 and uint32 up to 24
    for width, dtype in ((0, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32)):
        fields = [Atom(f"A{k}") for k in range(width)]
        assert search._valid_types(fields, ()).dtype == dtype
        gci = [GCI(Atom("A0"), Atom("A1"))] if width > 1 else [GCI(TOP, TOP)]
        types = search._valid_types(fields, gci)
        assert types.dtype == dtype and len(types) == (3 << width - 2 if width > 1 else 1 << width)
        block = search._ConfigSpace(1, fields, types).build_sorted(len(types) - 1, len(types))
        assert [int(block[c][0]) for c in fields] == [1] * width


def test_build_sorted_on_one_row_blocks():
    # the blocks ``materialize`` builds are the rows of the full block
    for n in (1, 2, 3):
        space = search._ConfigSpace(n, fields_of(*VOCABULARY))
        full = space.build_sorted(0, space.rows)
        for row in range(space.rows):
            one = space.build_sorted(row, row + 1)
            assert list(one) == list(full)
            for c in full:
                assert one[c].dtype == full[c].dtype
                assert one[c].tolist() == full[c][row : row + 1].tolist(), (n, row, c)


def test_compaction_matches_reference_where_blocks_empty(monkeypatch):
    """With 16-row batches, realisability leaves no row in 23 of the 52
    domain-2 batches over the 40 types that pass boss.dkb's GCIs, so the
    filtered scan skips whole batches before its witnesses and through a
    full scan."""
    monkeypatch.setattr(search, "_CHUNK_BITS", 4)
    kb = corpus.boss_kb()
    q = corpus.query("Worker ~[= exists hasSuperior.Responsible")
    fields = type_fields(kb, q)
    types = search._valid_types(fields, kb.tbox)
    assert len(types) == 40
    space = search._ConfigSpace(2, fields, types)
    batches = list(space.batches())
    assert [len(rows) for rows, _ in batches] == [16] * 51 + [4]
    assert sum(not space.realizable(block).any() for _, block in batches) == 23
    assert not assert_matches_reference(kb, q, 2)
    for text in ("Boss [= bot", "Boss ~[= !Responsible"):
        (witness,) = assert_matches_reference(kb, corpus.query(text), 2)
        assert witness.base.domain_size == 2
    models = enumerate_models(kb, 3, 12)
    assert [m.to_json_dict() for m in models] == [
        m.to_json_dict() for m in assert_matches_reference(kb, None, 3, limit=12)
    ]


def count_built_rows(monkeypatch):
    """Count, per domain size, the rows ``build_sorted`` unranks."""
    built, build = {}, search._ConfigSpace.build_sorted

    def counted(space, lo, hi):
        built[space.n] = built.get(space.n, 0) + hi - lo
        return build(space, lo, hi)

    monkeypatch.setattr(search._ConfigSpace, "build_sorted", counted)
    return built


def test_the_scan_builds_only_rows_over_the_types_that_pass_every_gci(monkeypatch):
    """student's GCIs hold for a single element of 24 of its 32 types, so
    ruling out a countermodel at domain 4 unranks the C(27, 4) rows over
    them, not all C(35, 4) sorted rows."""
    kb, q = corpus.student_kb(), corpus.query("Student ~[= !exists pays.Tax")
    fields = type_fields(kb, q)
    assert len(search._valid_types(fields, kb.tbox)) == 24
    assert search._ConfigSpace(4, fields).rows == 52_360
    built = count_built_rows(monkeypatch)
    assert not search_countermodel(kb, q, 4).found
    assert built[4] == math.comb(24 + 4 - 1, 4) == 17_550


@pytest.mark.parametrize("query", [None, DCI(Atom("A"), Atom("B")), GCI(Atom("A"), Atom("B"))])
def test_a_kb_with_no_valid_type_builds_no_row(monkeypatch, query):
    """Under ⊤ ⊑ ⊥ no type passes, so no domain size unranks a row: only
    the filter reads the four single-element types of atoms A and B.  Every
    size still counts all its configurations, as the reference does."""
    kb = KnowledgeBase(tbox=(GCI(TOP, BOTTOM),), dtbox=(DCI(Atom("A"), Atom("B")),))
    built = count_built_rows(monkeypatch)
    found, examined = search._search(kb, query, 4)
    assert not found and built == {1: 4}
    assert examined == sum(4**d * len(convex_height_vectors(d)) for d in range(1, 5))
    monkeypatch.undo()
    assert not assert_matches_reference(kb, query, 4)


def full_count(kb, query, max_domain):
    """``enumerated`` of a search up to ``max_domain`` that finds nothing:
    every configuration of each size."""
    width = len(type_fields(kb, query))
    return sum(2 ** (d * width) * len(convex_height_vectors(d)) for d in range(1, max_domain + 1))


def test_found_searches_count_from_one_up_to_the_sizes_they_reached():
    """The size that holds the witness adds at least 1, and at most its full
    count, to the full counts of the sizes below it.  Every corpus KB has a
    model at its first row and height vector, and the countermodels the
    oracle finds for the corpus questions are pinned."""
    for name in corpus.CORPUS:
        res = search_model(corpus.CORPUS[name](), 4)
        assert res.found and res.enumerated == 1, name
    cases = [(corpus.CORPUS[name](), corpus.query(text)) for name, text, _ in corpus.VERDICTS]
    cases += random_one_role_kbs()
    counts = []
    for kb, query in cases:
        res = search_model(kb, 3) if query is None else search_countermodel(kb, query, 3)
        if res.found:
            n = res.interpretation.base.domain_size
            assert full_count(kb, query, n - 1) < res.enumerated <= full_count(kb, query, n), (kb, query)
        counts.append(res.enumerated if res.found else None)
    assert counts[: len(corpus.VERDICTS)] == [None, None, None, 550, 548, None, 78_510]
    assert sum(c is not None for c in counts) > len(corpus.VERDICTS)


def test_interpretation_json_dump():
    base = FiniteInterpretation(
        3, {"A": frozenset({0, 2})}, {"r": frozenset({(0, 1)})}
    )
    i = RankedInterpretation(base, (0, 1, 0))
    assert i.to_json_dict() == {
        "domain": 3,
        "atoms": {"A": [0, 2]},
        "roles": {"r": [[0, 1]]},
        "heights": [0, 1, 0],
    }


def test_postulates_hold_on_random_interpretations():
    rng = random.Random(0)
    for _ in range(150):
        i = random_ranked_interpretation(rng, rng.randrange(1, 5), ["A", "B", "C"], ["r", "s"])
        samples = [random_concept(rng, ["A", "B", "C"], ["r", "s"], 2) for _ in range(4)]
        assert check_postulates(i, samples) == []


def test_postulate_checker_reports_rational_monotonicity_failure():
    """A preferential interpretation that is not modular: 1 is incomparable
    to both 0 and 2, yet 0 lies below 2.  The typical Cs ({0, 1}) are Ds and
    not all of them avoid E, but the typical C&Es ({1, 2}) are not all Ds."""
    c, d, e = Atom("C"), Atom("D"), Atom("E")
    base = FiniteInterpretation(3, {"C": {0, 1, 2}, "D": {0, 1}, "E": {1, 2}}, {})
    p = PreferentialInterpretation(base, frozenset({(0, 2)}))
    assert check_postulates(p, [c, d, e]) == [sem.Violation("rm", (c, d, e))]


def test_cons_never_satisfied():
    rng = random.Random(8)
    for _ in range(30):
        i = random_ranked_interpretation(rng, rng.randrange(1, 5), ["A"], ["r"])
        assert not satisfies(i, DCI(TOP, BOTTOM))


def test_classical_gci_equals_bottom_dci():
    # per-interpretation equivalence of C [= D and C & !D ~[= bot
    rng = random.Random(12)
    for _ in range(100):
        i = random_ranked_interpretation(rng, rng.randrange(1, 5), ["A", "B"], ["r"])
        c = random_concept(rng, ["A", "B"], ["r"], 2)
        d = random_concept(rng, ["A", "B"], ["r"], 2)
        assert satisfies(i, GCI(c, d)) == satisfies(i, DCI(And(c, Not(d)), BOTTOM))


def test_quantified_rm_premise_needs_the_conjunction():
    """Weakening the quantified rational-monotonicity premise from
    ¬(conclusion antecedent) to a bare ¬D filler admits countermodels; this
    two-element ranked interpretation is one, pinning why check_postulates
    uses the conjunction in the negated premise."""
    base = FiniteInterpretation(2, {"P": frozenset({0})}, {"r": frozenset({(0, 0), (0, 1)})})
    i = RankedInterpretation(base, (0, 1))
    p = Atom("P")
    fa = Forall("r", TOP)
    # weak-premise variant fires: premise 1 holds, weak negated premise holds
    assert satisfies(i, DCI(fa, p))
    assert not satisfies(i, DCI(fa, Forall("r", Not(p))))
    # ... but the conclusion fails
    assert not satisfies(i, DCI(Forall("r", And(TOP, p)), p))
    # with the conjunction, the negated premise no longer holds, so the rule
    # does not apply here (and check_postulates reports no violation)
    assert satisfies(i, DCI(fa, Exists("r", Not(And(TOP, p)))))
    assert check_postulates(i, [TOP, p]) == []
