"""Classical ALC satisfiability and entailment over a general TBox.

Standard NNF tableau: every node carries the internalised TBox constraints
``nnf(¬lhs ⊔ rhs)`` (``nnf`` simplifies ⊤ and ⊥ away, and a constraint that
is ⊤ is dropped), conjunctions are expanded in place, existential
restrictions spawn role successors, and ancestor subset-blocking guarantees
termination.  A node's Or-branches are tried depth first and left branch
first, the right ones kept on an explicit stack; only role successors
recurse, so a check takes one Python frame per role level.  This is the only
decision procedure the defeasible engine relies on.  A node classifies a
concept by its exact class, which ``nnf`` guarantees.

A check decides ``context ⊓ c`` (⊤ by default).  Its root starts from the
context's state, built once per ``CompiledTBox``: the constraints and
``nnf(context)`` closed under ⊓ on no choice, and walked into ``clashable``.
⊤'s state, the constraints alone, also starts each role successor.  So a
level's materialisation is normalised, closed and walked once per T*, not
once per check (Horrocks & Patel-Schneider 1999).  A state decides no Or, as
purity depends on the check's concept, and a root reads no successor verdict.
A node below a split re-adds its branch's label, but closes from its new
disjunct on and scans for its split from its parent's split.

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

A TBox is compiled once into a ``CompiledTBox``: its constraints, its
contexts' states, and a cache of the successor labels its checks decided
(Horrocks & Patel-Schneider, *Optimizing Description Logic Subsumption*,
1999).  A cached successor label is not expanded again, in this check or a
later one on the same compiled TBox.  The cache holds at most
``_MAX_VERDICTS`` labels and the states at most ``_MAX_STATES``: a full
store is emptied, and what it dropped is only built again.
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
    check on this TBox has decided, keyed by the set of its initial label,
    and ``states``, the root state of each context a check has run in.
    ``compute_ranking`` compiles T* once per promotion round, so the ranking
    and every query on a ``Ranking`` share its states and cache."""

    verdicts: dict[frozenset, bool]
    states: dict[Concept, tuple | None]

    def __new__(cls, gcis: Iterable[GCI] = ()) -> "CompiledTBox":
        self = super().__new__(cls, gcis)
        self.verdicts = {}
        self.states = {}
        return self

    @cached_property
    def universal(self) -> tuple[Concept, ...]:
        """The internalised constraints ``nnf(¬lhs ⊔ rhs)`` that are not ⊤,
        built by the first check."""
        return tuple(u for g in self if (u := nnf(Or(Not(g.lhs), g.rhs))) is not TOP)

    def state(self, context: Concept) -> tuple | None:
        """``context``'s state, built by its first check on top of ⊤'s, which
        holds the constraints alone: the ``items``, ``seen`` and ``neg`` of a
        ``_node`` with no split, plus their ``clashable``; None on a clash."""
        if context not in self.states:
            base = _EMPTY if context is TOP else self.state(TOP)
            first = dict.fromkeys(self.universal if context is TOP else (nnf(context),), 0)
            clash = base is None or (node := _node(base, first, None, None)).__class__ is int
            if len(self.states) >= _MAX_STATES:
                self.states.clear()
            self.states[context] = None if clash else (*node[:3], frozenset(_clashable(first, set(base[3]))))
        return self.states[context]


def _node(base: tuple, first: dict, after: Concept | None, clashable: set | None) -> tuple | int:
    """``(items, seen, neg, split)``: ``base``'s items, masks and negations plus
    ``first``'s, closed under ⊓ (a conjunct rests on its conjunction) from the
    first one added, or below the split ``after`` from ``first``'s last, as the
    parent closed the rest.  Unless ``clashable`` is None, ``split`` is the
    first Or from ``after`` on with neither disjunct in the node, each pure
    left disjunct before it, a literal not in ``clashable``, added in place on
    its Or's choices.  On a clash: the choices its two items rest on."""
    items, seen, neg = [*base[0]], {**base[1]}, {**base[2]}
    conflict = 0

    def add(c: Concept, d: int) -> bool:
        """Add ``c`` to the node, resting on the choices ``d``; False on a clash."""
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

    if all(map(add, first, first.values())) and all(
        add(c.left, seen[c]) and add(c.right, seen[c])
        for c in islice(items, len(base[0]) if after is None else len(first) - 1, None) if c.__class__ is And
    ):
        if clashable is None:
            return items, seen, neg, None
        split = next((
            c for c in islice(items, 0 if after is None else items.index(after), None)
            if c.__class__ is Or and c.left not in seen and c.right not in seen
            and (c.left in clashable or not add(c.left, seen[c]))
        ), None)
        if split is None or split.left in clashable:
            return items, seen, neg, split
    return conflict


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
_MAX_STATES = 64  # and the most states: a ranking and its queries ask for one per level and ⊤
_EMPTY = ((), {}, {}, frozenset())  # what a node below a split starts from, as its first label holds all


def is_satisfiable(
    c: Concept, tbox: tuple[GCI, ...] | list[GCI] = (), stats: EntailmentStats | None = None, context: Concept = TOP
) -> bool:
    """True iff some classical interpretation satisfies every GCI in ``tbox``
    and gives ``context ⊓ c`` a non-empty extension.  Raises
    ``ResourceLimitError`` past ``stats.max_nodes`` nodes, or when the
    concepts or the role successors nest past Python's recursion limit.

    A ``CompiledTBox`` lends the check its root state for ``context`` and its
    cached successor verdicts, and keeps what the check builds or decides; a
    plain tuple or list is compiled afresh for this one call.  A cache hit is
    not expanded and is not a node, so a check's nodes can depend on the
    checks run before it on the same compiled TBox."""
    if stats is None:
        stats = EntailmentStats()
    if not isinstance(tbox, CompiledTBox):
        tbox = CompiledTBox(tbox)
    verdicts = tbox.verdicts
    limit = stats.nodes_expanded + stats.max_nodes  # this check's own budget

    def expand(head: tuple[Concept, ...], ancestors: tuple[frozenset, ...]) -> int | None:
        """None if ``head`` and the constraints (at the root, the context too) are unsatisfiable;
        otherwise the depth of the shallowest ancestor outside the open subtree that a blocked node
        of it relied on, or its own depth ``len(ancestors)`` if none.  A successor's verdict is
        stored when it does not rest on a node outside its subtree: an unsatisfiable label always,
        a satisfiable one when every blocker lies inside; a root's is neither read nor stored."""
        if ancestors:
            key = frozenset(head + universal)
            known = verdicts.get(key)
            if known is not None:
                return len(ancestors) if known else None
        base = top if ancestors else root  # the state the first node starts from
        clashable = _clashable(head, set(base[3]))
        conflict: int  # the choices that the last closed node rests on
        branches = []  # each open choice, deepest last: its split node's ``seen``, the split, its bit
        depth = 0  # the choices above this node; the next one is bit ``depth``
        first = dict.fromkeys(head, 0)  # what the node adds to ``base``: each item, the choices it rests on
        split = None  # the split this node descends from; None at the first node
        while True:
            stats.nodes_expanded += 1
            if stats.nodes_expanded > limit:
                raise ResourceLimitError(f"more than {stats.max_nodes} tableau nodes")
            if (node := _node(base, first, split, clashable)).__class__ is not int:
                items, seen, _, split = node
                if split is not None:  # the left branch first, the right one kept
                    branches.append((seen, split, depth))
                    base, first = _EMPTY, {**seen, split.left: seen[split] | 1 << depth}
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
            else:
                conflict = node
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
        if ancestors and (low is None or low >= len(ancestors)):
            if len(verdicts) >= _MAX_VERDICTS:
                verdicts.clear()
            verdicts[key] = low is not None
        return low

    try:
        top, root = tbox.state(TOP), tbox.state(context)
        stats.nodes_expanded += root is None  # a context that clashes refutes the check in one node
        universal = tbox.universal
        return root is not None and expand((nnf(c),), ()) is not None
    except RecursionError:
        recursion_limit = sys.getrecursionlimit()
        raise ResourceLimitError(f"nesting too deep (recursion limit {recursion_limit})") from None


def entails(
    tbox: tuple[GCI, ...] | list[GCI], g: GCI, stats: EntailmentStats | None = None, context: Concept = TOP
) -> bool:
    """Classical entailment: ``tbox ⊨ context ⊓ lhs ⊑ rhs``, decided by refutation."""
    if stats is None:
        stats = EntailmentStats()
    stats.checks += 1
    return not is_satisfiable(And(g.lhs, Not(g.rhs)), tbox, stats, context)
