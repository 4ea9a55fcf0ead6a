"""Classical ALC satisfiability and entailment over a general TBox.

Standard NNF tableau: every node carries the internalised TBox constraints
``nnf(¬lhs ⊔ rhs)``, conjunctions and disjunctions are expanded in place
(left branch first), existential restrictions spawn role successors, and
ancestor subset-blocking guarantees termination.  This is the only decision
procedure the defeasible engine relies on.
"""

from __future__ import annotations

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
    nodes and role depth ``max_depth`` (the CLI's ``--max-nodes`` and
    ``--max-depth``), whether or not an ``EntailmentStats`` observes it.  An
    exhausted budget raises ``ResourceLimitError``."""

    max_nodes: int = 100_000
    max_depth: int = 512

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.max_depth < 1:
            raise ValueError("limits must be positive")


DEFAULT_CONFIG = TableauConfig()


@dataclass
class EntailmentStats:
    """Per-session counters; pass one object through a batch of calls to
    observe how many classical checks and tableau nodes a procedure spends.
    They only count: ``TableauConfig`` bounds each check on its own."""

    checks: int = 0
    nodes_expanded: int = 0


class _Tableau:
    def __init__(self, universal: tuple[Concept, ...], cfg: TableauConfig, stats: EntailmentStats):
        self.universal = universal
        self.cfg = cfg
        self.stats = stats
        self.nodes = 0  # this check's own count, which max_nodes bounds

    def satisfiable(self, label: tuple[Concept, ...]) -> bool:
        return self._expand(label, (), 0)

    def _expand(self, label: tuple[Concept, ...], ancestors: tuple[frozenset, ...], depth: int) -> bool:
        self.nodes += 1
        self.stats.nodes_expanded += 1
        if self.nodes > self.cfg.max_nodes:
            raise ResourceLimitError(f"more than {self.cfg.max_nodes} tableau nodes")

        items: list[Concept] = []
        seen: set[Concept] = set()
        neg: set[Concept] = set()  # operands of the negations in ``seen``

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
                return False
        idx = 0
        while idx < len(items):
            c = items[idx]
            idx += 1
            if isinstance(c, And):
                if not add(c.left) or not add(c.right):
                    return False

        for c in items:
            if isinstance(c, Or) and c.left not in seen and c.right not in seen:
                extended = tuple(items)
                return self._expand(extended + (c.left,), ancestors, depth) or self._expand(
                    extended + (c.right,), ancestors, depth
                )

        label_set = frozenset(seen)
        if any(label_set <= ancestor for ancestor in ancestors):
            return True

        for c in items:
            if isinstance(c, Exists):
                if depth + 1 > self.cfg.max_depth:
                    raise ResourceLimitError(
                        f"role depth exceeds {self.cfg.max_depth}"
                    )
                successor = (c.filler,) + tuple(
                    f.filler
                    for f in items
                    if isinstance(f, Forall) and f.role == c.role
                ) + self.universal
                if not self._expand(successor, ancestors + (label_set,), depth + 1):
                    return False
        return True


def is_satisfiable(
    c: Concept,
    tbox: tuple[GCI, ...] | list[GCI] = (),
    cfg: TableauConfig = DEFAULT_CONFIG,
    stats: EntailmentStats | None = None,
) -> bool:
    """True iff some classical interpretation satisfies every GCI in ``tbox``
    and gives ``c`` a non-empty extension."""
    if stats is None:
        stats = EntailmentStats()
    universal = tuple(nnf(Or(Not(g.lhs), g.rhs)) for g in tbox)
    return _Tableau(universal, cfg, stats).satisfiable((nnf(c),) + universal)


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
