"""Seeded benchmark inputs, each with the answers its construction implies.

Nothing here imports dalc.  Expected partitions, verdicts, deciding levels,
check counts and oracle outcomes are derived from how each knowledge base is
built, so they stay a fixed reference however the reasoner changes.  Axiom
texts are written in the form ``dalc rank --json`` renders them (minimal
parentheses), so outputs compare as strings.

Families, with n the size parameter:

``chain(n)``
    ``A{i+1} [= A{i}`` and ``A{i} ~[= B`` (i even) / ``A{i} ~[= !B`` (i odd).
    Each default is exceptional to every default above it, so level i holds
    exactly default i and ranking spends n + (n-1) + .. + 1 = n(n+1)/2
    checks.  A query with antecedent ``A{i}`` is decided at level i after
    i+1 compatibility checks and one subsumption: i+2 checks.
``flat(n)``
    ``C{i} [= D``, ``D ~[= P{i}`` and ``C{i} ~[= !P{i}``.  The n ``D``
    defaults sit at level 0 and the n ``C`` defaults at level 1: 2n checks
    in the first pass and n in the second, 3n in all.
``roles(n)``
    ``A{i} ~[= exists r.A{i+1}`` and ``A{i} ~[= forall r.!B`` for i < n, with
    ``A{n} [= B``.  The materialisation holds at the root only, so each
    outer pass finds just the deepest remaining pair exceptional at every
    level and promotes it into the TBox.  Pass m (2m defaults left, m > 1)
    spends 2m + 2 checks and the last pass 2, so n^2 + 3n - 2 in all; the
    partition ends empty and all 2n defaults are promoted, deepest first.
``role_chain(m)``
    ``A{i} [= exists r.A{i+1}`` for i < m: classical, consistent, and every
    one of the m+1 atoms satisfiable, with deep successor chains.
``random_kb``
    small random propositional defaults over four atoms.  Nothing about
    their ranking is known from the construction except the paper's bound
    and that the partition and the promoted defaults together hold every
    default once.  They carry no roles: with one role, about one seed in a
    hundred exhausts the tableau's node budget, the defect that the
    ``roles(6)`` probe already tracks, and a workload must not fail on
    some seeds and pass on others.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# Ordered Bell (Fubini) numbers: convex height maps on 1..4 elements.
_HEIGHT_MAPS = {1: 1, 2: 3, 3: 13, 4: 75}

ORACLE_DOMAIN = 4


@dataclass(frozen=True)
class RankCase:
    """A knowledge base to rank, with what its construction fixes.

    ``partition``, ``promoted`` and ``checks`` are None when only the
    invariants are known (random KBs)."""

    name: str
    text: str
    dcis: int
    partition: Optional[tuple[tuple[str, ...], ...]]
    promoted: Optional[tuple[str, ...]]
    checks: Optional[int]

    @property
    def check_bound(self) -> int:
        """The paper's ranking bound |D|^3 + 2|D|."""
        return self.dcis**3 + 2 * self.dcis


@dataclass(frozen=True)
class CheckCase:
    """A classical KB for ``dalc check``: consistent, no infinite-rank
    defaults, every atom satisfiable."""

    name: str
    text: str
    atoms: int


@dataclass(frozen=True)
class QueryCase:
    """A rational-closure query.  ``level`` None means the TBox fallback
    (decided at infinity)."""

    text: str
    verdict: bool
    level: Optional[int]
    checks: int


@dataclass(frozen=True)
class OracleCase:
    """A bounded model search.  ``kb`` names a file of the corpus or a
    generated KB; ``query`` None searches for a model.  ``rows`` is the
    exact number of configurations a search that finds nothing examines."""

    name: str
    kb: str
    query: Optional[str]
    found: bool
    rows: Optional[int]


def _doc(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _dci(lhs: str, rhs: str) -> str:
    return f"{lhs} ~[= {rhs}"


# ---------------------------------------------------------------------------
# Knowledge-base families


def chain_default(i: int) -> str:
    return "B" if i % 2 == 0 else "!B"


def chain(n: int) -> RankCase:
    tbox = [f"A{i + 1} [= A{i}" for i in range(n - 1)]
    dcis = [_dci(f"A{i}", chain_default(i)) for i in range(n)]
    return RankCase(
        name=f"chain{n}",
        text=_doc(tbox + dcis),
        dcis=n,
        partition=tuple((d,) for d in dcis),
        promoted=(),
        checks=n * (n + 1) // 2,
    )


def flat(n: int) -> RankCase:
    tbox = [f"C{i} [= D" for i in range(n)]
    top = [_dci("D", f"P{i}") for i in range(n)]
    low = [_dci(f"C{i}", f"!P{i}") for i in range(n)]
    return RankCase(
        name=f"flat{n}",
        text=_doc(tbox + top + low),
        dcis=2 * n,
        partition=(tuple(top), tuple(low)),
        promoted=(),
        checks=3 * n,
    )


def roles(n: int) -> RankCase:
    pairs = [
        (_dci(f"A{i}", f"exists r.A{i + 1}"), _dci(f"A{i}", "forall r.!B"))
        for i in range(n)
    ]
    dcis = [d for pair in pairs for d in pair]
    return RankCase(
        name=f"roles{n}",
        text=_doc(dcis + [f"A{n} [= B"]),
        dcis=2 * n,
        partition=(),
        promoted=tuple(d for pair in reversed(pairs) for d in pair),
        checks=n * n + 3 * n - 2,
    )


def role_chain(m: int) -> CheckCase:
    return CheckCase(
        name=f"role_chain{m}",
        text=_doc([f"A{i} [= exists r.A{i + 1}" for i in range(m)]),
        atoms=m + 1,
    )


_RANDOM_ATOMS = ("P0", "P1", "P2", "P3")


def _random_concept(rng: random.Random, depth: int) -> str:
    """``semantics.random_concept`` without roles, written as text: the
    same draws, so the same distribution of shapes.  Leaves are atoms, top
    or bot; inner nodes negate, conjoin or disjoin."""
    if depth <= 0:
        leaf = rng.randrange(len(_RANDOM_ATOMS) + 2)
        if leaf == len(_RANDOM_ATOMS):
            return "top"
        if leaf == len(_RANDOM_ATOMS) + 1:
            return "bot"
        return _RANDOM_ATOMS[leaf]
    kind = rng.randrange(4)
    if kind == 0:
        return _random_concept(rng, 0)
    if kind == 1:
        return f"!({_random_concept(rng, depth - 1)})"
    left = _random_concept(rng, depth - 1)
    right = _random_concept(rng, depth - 1)
    return f"({left} & {right})" if kind == 2 else f"({left} | {right})"


def random_kb(seed: int, index: int, gcis: int = 2, dcis: int = 5) -> RankCase:
    """Atomic GCIs and defaults of depth 1 => depth 2 over four atoms."""
    rng = random.Random(f"dalcbench:random:{seed}:{index}")
    lines = [f"{_random_concept(rng, 0)} [= {_random_concept(rng, 0)}" for _ in range(gcis)]
    lines += [_dci(_random_concept(rng, 1), _random_concept(rng, 2)) for _ in range(dcis)]
    return RankCase(
        name=f"random{index}",
        text=_doc(lines),
        dcis=dcis,
        partition=None,
        promoted=None,
        checks=None,
    )


# The six hand-written KBs under kbs/, ranked by hand from the same reading
# of the construction: each pass re-checks every default still in play.
CORPUS_RANKINGS = {
    "student": (
        (
            ("Student ~[= !exists pays.Tax",),
            ("EmpStud ~[= exists pays.Tax",),
            ("EmpStud & Parent ~[= !exists pays.Tax",),
        ),
        (),
        3 + 2 + 1,
    ),
    "penguin": (
        (("Bird ~[= Flies", "Bird ~[= Wings"), ("Penguin ~[= !Flies",)),
        (),
        3 + 1,
    ),
    "boss": (
        (("Worker ~[= exists hasSuperior.Boss",), ("Boss ~[= Responsible",)),
        (),
        2 + 1,
    ),
    "classical": ((), (), 0),
    "contradictory": ((), ("A ~[= B", "A ~[= !B"), 2),
    "empty": ((), (), 0),
}


def corpus_case(name: str, text: str) -> RankCase:
    partition, promoted, checks = CORPUS_RANKINGS[name]
    return RankCase(
        name=name,
        text=text,
        dcis=sum(len(p) for p in partition) + len(promoted),
        partition=partition,
        promoted=promoted,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Queries


def chain_query(n: int, lhs_level: int, lhs: str, rhs: str, strict: bool) -> QueryCase:
    """Expected answer for ``lhs ~[= rhs`` (or ``[=``) over chain(n), where
    ``lhs`` is ``A{lhs_level}`` optionally conjoined with fresh atoms.

    ``A{i}`` entails ``A{j}`` exactly for j <= i; a default consequent
    (``B`` / ``!B``) holds at level i when it is default i's consequent; a
    fresh atom holds exactly when the antecedent names it."""
    i = lhs_level
    lhs_atoms = {part.strip() for part in lhs.split("&")}
    if rhs.startswith("A"):
        holds_strictly = int(rhs[1:]) <= i
        holds_at_level = holds_strictly
    elif rhs in ("B", "!B"):
        holds_strictly = False
        holds_at_level = rhs == chain_default(i)
    else:
        holds_strictly = holds_at_level = rhs in lhs_atoms
    op = "[=" if strict else "~[="
    if strict:
        return QueryCase(f"{lhs} {op} {rhs}", holds_strictly, None, 1)
    return QueryCase(f"{lhs} {op} {rhs}", holds_at_level, i, i + 2)


# Per level, the slots of one query block: (antecedent has a fresh atom,
# consequent kind, strict).  Every slot draws fresh atom names, so no whole
# query repeats within a run; the level scans repeat, so a sub-query cache
# can help.
_BLOCK_SLOTS = (
    (False, "Zother", False),
    (True, "B", False),
    (True, "!B", False),
    (True, "Aj", False),
    (True, "Aj", False),
    (True, "Zself", False),
    (True, "Zother", False),
    (True, "Aj", True),
    (True, "B", True),
    (True, "Zself", True),
)


def chain_query_block(n: int, seed: int, block: int) -> list[QueryCase]:
    """Block ``block`` of the query stream over chain(n): every slot at
    every level once, in seeded order, with fresh atoms unique to the
    block.  Each block has the same composition, so the same checks."""
    rng = random.Random(f"dalcbench:queries:{seed}:{block}")
    out = []
    fresh = block * n * len(_BLOCK_SLOTS) * 2
    for i in range(n):
        for with_z, kind, strict in _BLOCK_SLOTS:
            z, other = f"Z{fresh}", f"Z{fresh + 1}"
            fresh += 2
            lhs = f"A{i} & {z}" if with_z else f"A{i}"
            rhs = {
                "B": "B",
                "!B": "!B",
                "Aj": f"A{rng.randrange(n)}",
                "Zself": z,
                "Zother": other,
            }[kind]
            out.append(chain_query(n, i, lhs, rhs, strict))
    rng.shuffle(out)
    return out


def flat_queries(n: int) -> list[QueryCase]:
    """Queries over flat(n) whose verdicts follow from the construction.

    ``D`` is decided at level 0 (2 checks) and has every ``P{i}``; a ``C{i}``
    is exceptional, so it is decided at level 1 (3 checks), has ``!P{i}``
    and the strict ``D``, and inherits none of ``D``'s other defaults."""
    out = []
    for i in range(n):
        out.append(QueryCase(_dci("D", f"P{i}"), True, 0, 2))
        out.append(QueryCase(_dci(f"C{i}", f"!P{i}"), True, 1, 3))
        out.append(QueryCase(_dci(f"C{i}", "D"), True, 1, 3))
        for j in range(n):
            if j != i:
                out.append(QueryCase(_dci(f"C{i}", f"P{j}"), False, 1, 3))
    return out


# ---------------------------------------------------------------------------
# Oracle questions


def full_scan_rows(bits_per_element: int, max_domain: int = ORACLE_DOMAIN) -> int:
    """Configurations a search that finds nothing examines: for each domain
    size d, every assignment of the atoms and quantified subconcepts to the
    d elements, times the convex height maps on d elements."""
    return sum(
        (1 << (d * bits_per_element)) * _HEIGHT_MAPS[d]
        for d in range(1, max_domain + 1)
    )


# (kb, query, found, bits per element).  NOT-IN verdicts have a small
# ranked countermodel; defaults of the KB hold in every ranked model, so
# their searches scan everything.  Robin ~[= Wings is in the rational
# closure but not modularly entailed, so a countermodel exists.
CORPUS_QUESTIONS = (
    ("student", "Student ~[= !exists pays.Tax", False, 5),
    ("student", "EmpStud ~[= exists pays.Tax", False, 5),
    ("student", "EmpStud & Parent ~[= !exists pays.Tax", False, 5),
    ("penguin", "Robin ~[= Wings", True, 5),
    ("penguin", "Penguin ~[= Wings", True, 5),
    ("penguin", "Penguin ~[= !Flies", False, 5),
    ("boss", "Worker ~[= exists hasSuperior.Responsible", True, 6),
)

CORPUS_NAMES = ("student", "penguin", "boss", "classical", "contradictory", "empty")


def chain_oracle_questions(n: int, seed: int) -> list[OracleCase]:
    """Countermodel searches over chain(n), n <= 3.

    Default i holds in every ranked model (nothing found, full scan); its
    negation fails in the chain's canonical model of n elements, one per
    level (found); ``A{i} ~[= A{j}`` for j < i is strict (nothing found)."""
    rng = random.Random(f"dalcbench:oracle:{seed}:{n}")
    kb = f"chain{n}"
    full = full_scan_rows(n + 1)
    out = []
    for i in range(n):
        own = chain_default(i)
        other = chain_default(i + 1)
        out.append(OracleCase(f"{kb}:{i}:own", kb, _dci(f"A{i}", own), False, full))
        out.append(OracleCase(f"{kb}:{i}:other", kb, _dci(f"A{i}", other), True, None))
        if i > 0:
            j = rng.randrange(i)
            out.append(OracleCase(f"{kb}:{i}:A{j}", kb, _dci(f"A{i}", f"A{j}"), False, full))
    return out


def corpus_oracle_questions() -> list[OracleCase]:
    out = [
        OracleCase(f"{kb}:q{k}", kb, q, found, None if found else full_scan_rows(bits))
        for k, (kb, q, found, bits) in enumerate(CORPUS_QUESTIONS)
    ]
    # Every corpus KB has the one-element model with all atoms empty.
    out += [OracleCase(f"{kb}:model", kb, None, True, None) for kb in CORPUS_NAMES]
    return out
