"""Classical ALC satisfiability and entailment over a general TBox.

Standard NNF tableau: every node carries the internalised TBox constraints
``nnf(¬lhs ⊔ rhs)``, conjunctions are expanded in place, existential
restrictions spawn role successors, and ancestor subset-blocking guarantees
termination.  A node's Or-branches are popped off an explicit stack, depth
first and left branch first; only role successors recurse, so a check takes
one Python frame per role level.  This is the only decision procedure the
defeasible engine relies on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

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
    nnf,
)


@dataclass(frozen=True)
class TableauConfig:
    """The budget of each classical check: at most ``max_nodes`` tableau
    nodes (the CLI's ``--max-nodes``), whether or not an ``EntailmentStats``
    observes it.  Every role successor is a node, so this also bounds how
    deep successors nest.  An exhausted budget raises ``ResourceLimitError``."""

    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


DEFAULT_CONFIG = TableauConfig()


@dataclass
class EntailmentStats:
    """Per-session counters; pass one object through a batch of calls to
    observe how many classical checks and tableau nodes a procedure spends.
    They only count: ``TableauConfig`` bounds each check on its own."""

    checks: int = 0
    nodes_expanded: int = 0


def is_satisfiable(
    c: Concept,
    tbox: tuple[GCI, ...] | list[GCI] = (),
    cfg: TableauConfig = DEFAULT_CONFIG,
    stats: EntailmentStats | None = None,
) -> bool:
    """True iff some classical interpretation satisfies every GCI in ``tbox``
    and gives ``c`` a non-empty extension.  Raises ``ResourceLimitError``
    past ``cfg.max_nodes`` nodes, or when the concepts or the role successors
    nest past Python's recursion limit."""
    if stats is None:
        stats = EntailmentStats()
    nodes = 0  # this check's own count, which max_nodes bounds

    def expand(label: tuple[Concept, ...], ancestors: tuple[frozenset, ...]) -> bool:
        nonlocal nodes

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

        branches = [label]
        while branches:
            nodes += 1
            stats.nodes_expanded += 1
            if nodes > cfg.max_nodes:
                raise ResourceLimitError(f"more than {cfg.max_nodes} tableau nodes")
            items: list[Concept] = []
            seen: set[Concept] = set()
            neg: set[Concept] = set()  # operands of the negations in ``seen``
            # The label closed under conjunction (``items`` grows as it is
            # read); a clash closes the branch.
            if not all(map(add, branches.pop())) or not all(
                add(c.left) and add(c.right) for c in items if isinstance(c, And)
            ):
                continue
            split = next(
                (c for c in items if isinstance(c, Or) and c.left not in seen and c.right not in seen), None
            )
            if split is not None:
                extended = tuple(items)  # the left branch is popped first
                branches += (extended + (split.right,), extended + (split.left,))
                continue
            label_set = frozenset(seen)
            if any(label_set <= ancestor for ancestor in ancestors):
                return True
            for e in items:
                if isinstance(e, Exists):
                    successor = (e.filler,) + tuple(
                        f.filler for f in items if isinstance(f, Forall) and f.role == e.role
                    ) + universal
                    if not expand(successor, ancestors + (label_set,)):
                        break
            else:
                return True
        return False

    try:
        universal = tuple(nnf(Or(Not(g.lhs), g.rhs)) for g in tbox)
        return expand((nnf(c),) + universal, ())
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise ResourceLimitError(f"nesting too deep (recursion limit {limit})") from None


def entails(
    tbox: tuple[GCI, ...] | list[GCI],
    g: GCI,
    cfg: TableauConfig = DEFAULT_CONFIG,
    stats: EntailmentStats | None = None,
) -> bool:
    """Classical entailment: ``tbox ⊨ lhs ⊑ rhs``, decided by refutation."""
    if stats is None:
        stats = EntailmentStats()
    stats.checks += 1
    return not is_satisfiable(And(g.lhs, Not(g.rhs)), tbox, cfg, stats)
