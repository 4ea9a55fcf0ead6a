"""Classical ALC satisfiability and entailment over a general TBox.

Standard NNF tableau: every node carries the internalised TBox constraints
``nnf(¬lhs ⊔ rhs)`` (``nnf`` simplifies ⊤ and ⊥ away, and a constraint that
is ⊤ is dropped), conjunctions are expanded in place, existential
restrictions spawn role successors, and ancestor subset-blocking guarantees
termination.  A node's Or-branches are tried depth first and left branch
first, the right ones kept on an explicit stack; only role successors
recurse, so a check takes one Python frame per role level.  This is the only
decision procedure the defeasible engine relies on.  A node classifies a
concept by its exact class, which ``nnf`` guarantees.  A node still re-adds
the label that its branch inherited, but its closure starts at its new
disjunct, and its split scan at its parent's split.

A closed node backjumps (conflict-directed backjumping: Horrocks &
Patel-Schneider 1999; Baader et al., *The Description Logic Handbook*,
ch. 9).  Each Or-choice is a bit, and each item of a node carries the
choices it rests on, as a bitmask: a disjunct rests on its choice and on
what the split disjunction rests on, a conjunct on its conjunction, and an
item of a check's or a successor's first label on none.  A node's first
label is its parent's items plus one disjunct; a pending right branch keeps
its split node's items and masks uncopied, as that node is never read again.
A clash rests on what its two items rest on (⊥ on its own); a closed role
successor on its ∃r.C and on every ∀r.D that built its label.  The right
branch of an open choice that the conflict does not rest on would close the
same way, so it is dropped unexplored; a right branch that is explored rests
on the split and on what closed its left branch, minus that choice.

A choice whose bit never enters a conflict is no choice.  The left disjunct
of the first undecided disjunction is added in place, on the disjunction's
choices, when it is pure: a literal whose complement is not reachable
through ⊓ and ⊔ from the node's first label.  It cannot clash and nothing
is built from it, so backjumping would drop its right branch unexplored, and
the search is the same less one node each.  A rule that adds other concepts
to a label (an unfolding rule, say) must walk them into ``clashable`` too.

Every check runs in a session, an ``EntailmentStats``: it counts the checks
and nodes, and its ``max_nodes`` bounds each check on its own.  A call
without one runs in a fresh default session.

A TBox is compiled once into a ``CompiledTBox``: its constraints, and a cache
of the successor labels its checks have decided (Horrocks & Patel-Schneider,
*Optimizing Description Logic Subsumption*, 1999).  A successor whose label
is cached is not expanded again, in this check or a later one on the same
compiled TBox.  The cache holds at most ``_MAX_VERDICTS`` labels: when it is
full it is emptied, and a dropped verdict is only decided again.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import islice
from typing import Iterable

from .concepts import (
    And,
    Atom,
    Bottom,
    Concept,
    Exists,
    Forall,
    GCI,
    Not,
    Or,
    ResourceLimitError,
    TOP,
    _Value,
    nnf,
)


class EntailmentStats(_Value, mutable=True):
    """One session of classical checks: its counters, and the budget of each
    check.  Pass one object through a batch of calls to observe how many
    checks and tableau nodes a procedure spends.  ``max_nodes`` (the CLI's
    ``--max-nodes``) bounds each check on its own, not the session.  Every
    role successor is a node, so this also bounds how deep successors nest;
    a successor answered from a ``CompiledTBox``'s cache is not a node, so a
    check's nodes can depend on the checks run before it on the same
    ``CompiledTBox``.  An exhausted budget raises ``ResourceLimitError``."""

    checks: int = 0
    nodes_expanded: int = 0
    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


class CompiledTBox(tuple):
    """A TBox compiled for the tableau: still the tuple of its GCIs, plus
    ``verdicts``, the satisfiability of each role-successor label that a
    check on this TBox has decided, keyed by the set of its initial label.
    ``compute_ranking`` compiles T* once per promotion round, so the ranking
    and every query on a ``Ranking`` share one cache."""

    verdicts: dict[frozenset, bool]

    def __new__(cls, gcis: Iterable[GCI] = ()) -> "CompiledTBox":
        self = super().__new__(cls, gcis)
        self.verdicts = {}
        return self

    @cached_property
    def universal(self) -> tuple[Concept, ...]:
        """The internalised constraints ``nnf(¬lhs ⊔ rhs)`` that are not ⊤,
        built by the first check."""
        return tuple(u for g in self if (u := nnf(Or(Not(g.lhs), g.rhs))) is not TOP)

    @cached_property
    def clashable(self) -> frozenset:
        """What a left disjunct may clash with or build on at any node: see ``_clashable``."""
        return frozenset(_clashable(self.universal, set()))


def _clashable(cs: Iterable[Concept], found: set) -> set:
    """``found`` plus what a left disjunct may clash with or build on at a node
    whose first label holds ``cs``: each concept reachable through ⊓ and ⊔
    that is not a literal, and each reachable literal's complement."""
    stack = list(cs)
    while stack:
        if (kind := (c := stack.pop()).__class__) is Atom or kind is Not:
            found.add(c.operand if kind is Not else Not(c))
        elif c not in found:
            found.add(c)
            stack += (c.left, c.right) if kind is And or kind is Or else ()
    return found


# The most successor verdicts a ``CompiledTBox`` keeps: a stream of distinct
# role queries on one T* would otherwise grow its cache without end.
_MAX_VERDICTS = 4096


def is_satisfiable(
    c: Concept, tbox: tuple[GCI, ...] | list[GCI] = (), stats: EntailmentStats | None = None
) -> bool:
    """True iff some classical interpretation satisfies every GCI in ``tbox``
    and gives ``c`` a non-empty extension.  Raises ``ResourceLimitError``
    past ``stats.max_nodes`` nodes, or when the concepts or the role
    successors nest past Python's recursion limit.

    A ``CompiledTBox`` lends the check its cached successor verdicts and
    keeps the ones the check decides; a plain tuple or list is compiled
    afresh for this one call.  A cache hit is not expanded and is not a node,
    so a check's nodes can depend on the checks run before it on the same
    compiled TBox."""
    if stats is None:
        stats = EntailmentStats()
    if not isinstance(tbox, CompiledTBox):
        tbox = CompiledTBox(tbox)
    verdicts = tbox.verdicts
    limit = stats.nodes_expanded + stats.max_nodes  # this check's own budget

    def expand(head: tuple[Concept, ...], ancestors: tuple[frozenset, ...]) -> int | None:
        """None if ``head`` and the constraints are unsatisfiable; otherwise the depth of
        the shallowest ancestor outside the open subtree that a blocked node of it
        relied on, or its own depth ``len(ancestors)`` if none.  A successor's verdict
        is stored when it does not rest on a node outside its subtree: an
        unsatisfiable label always, a satisfiable one when every blocker lies inside."""
        key = frozenset(label := head + universal)
        known = verdicts.get(key)
        if known is not None:
            return len(ancestors) if known else None
        clashable = _clashable(head, set(tbox.clashable))

        def add(c: Concept, d: int) -> bool:
            """Add ``c`` to the node, resting on the choices ``d``.  False on
            a clash, with ``conflict`` set to the choices that ``c`` and the
            item it clashes with rest on; ⊥ clashes alone."""
            nonlocal conflict
            if c in seen:
                return True
            kind = c.__class__
            if kind is Not:
                if c.operand in seen:
                    conflict = d | seen[c.operand]
                    return False
                neg[c.operand] = c
            elif kind is Bottom or kind is Atom and c in neg:
                conflict = d | seen.get(neg.get(c), 0)
                return False
            seen[c] = d
            items.append(c)
            return True

        conflict: int  # the choices that the last closed node rests on
        branches = []  # each open choice, deepest last: its split node's ``seen``, the split, its bit
        depth = 0  # the choices above this node; the next one is bit ``depth``
        first = dict.fromkeys(label, 0)  # the node's first label: each item, the choices it rests on
        split = None  # the split this node descends from; None at the root
        while True:
            stats.nodes_expanded += 1
            if stats.nodes_expanded > limit:
                raise ResourceLimitError(f"more than {stats.max_nodes} tableau nodes")
            items: list[Concept] = []
            seen: dict[Concept, int] = {}  # each item of ``items``: the choices it rests on
            neg: dict[Concept, Concept] = {}  # the operand of each negation in ``seen``
            # The label closed under conjunction (``items`` grows as it is read;
            # a conjunct rests on its conjunction), then the pure left disjuncts
            # up to the split added in place; a clash closes the node.  A child
            # resumes both: its parent closed all but its new last item and decided each Or before its split.
            if all(map(add, first, first.values())) and all(
                add(c.left, seen[c]) and add(c.right, seen[c])
                for c in islice(items, 0 if split is None else len(first) - 1, None) if c.__class__ is And
            ) and ((split := next((
                c for c in islice(items, 0 if split is None else items.index(split), None)
                if c.__class__ is Or and c.left not in seen and c.right not in seen
                and (c.left in clashable or not add(c.left, seen[c]))
            ), None)) is None or split.left in clashable):
                if split is not None:  # the left branch first, the right one kept
                    branches.append((seen, split, depth))
                    first = {**seen, split.left: seen[split] | 1 << depth}
                    depth += 1
                    continue
                label_set = frozenset(seen)
                # blocked by the deepest ancestor that holds the label
                low = next((i for i in reversed(range(len(ancestors))) if label_set <= ancestors[i]), None)
                if low is not None:
                    break
                low = len(ancestors)
                for e in items:
                    if e.__class__ is Exists:
                        foralls = [f for f in items if f.__class__ is Forall and f.role == e.role]
                        sub = expand((e.filler, *[f.filler for f in foralls]), ancestors + (label_set,))
                        if sub is None:
                            conflict = seen[e]
                            for f in foralls:
                                conflict |= seen[f]
                            break
                        low = min(low, sub)
                else:
                    break
            # Backjump: a choice the conflict does not rest on would close its
            # right branch the same way, so that branch is dropped.
            while branches and not conflict >> branches[-1][2] & 1:
                branches.pop()
            if not branches:
                low = None
                break
            first, split, depth = branches.pop()
            # the right branch rests on the split and on what closed the left
            first[split.right] = first[split] | conflict & ~(1 << depth)
            depth += 1
        # the root's verdict is never stored, so query labels do not pile up
        if ancestors and (low is None or low >= len(ancestors)):
            if len(verdicts) >= _MAX_VERDICTS:
                verdicts.clear()
            verdicts[key] = low is not None
        return low

    try:
        universal = tbox.universal
        return expand((nnf(c),), ()) is not None
    except RecursionError:
        recursion_limit = sys.getrecursionlimit()
        raise ResourceLimitError(f"nesting too deep (recursion limit {recursion_limit})") from None


def entails(tbox: tuple[GCI, ...] | list[GCI], g: GCI, stats: EntailmentStats | None = None) -> bool:
    """Classical entailment: ``tbox ⊨ lhs ⊑ rhs``, decided by refutation."""
    if stats is None:
        stats = EntailmentStats()
    stats.checks += 1
    return not is_satisfiable(And(g.lhs, Not(g.rhs)), tbox, stats)
