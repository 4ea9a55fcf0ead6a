"""ALC concept language: expression trees, axioms, knowledge bases, and the
purely syntactic transformations (negation normal form, subconcept closure,
materialisation) everything else is built on.

Concepts are immutable, hash-consed trees: every constructor call returns the
one live instance with those fields, so structurally equal concepts are the
same object, and equality and hashing are identity, O(1) with no recursion.
They are safe to use as dict keys and set members, to pickle and copy (the
result is the canonical instance), and to share and build across threads.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# (class, *fields) -> the live concept with those fields.  Children in a key
# are themselves interned, so hashing and comparing a key never recurses.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class _Interned:
    """Shared constructor of the concept classes.  It runs instead of a
    dataclass ``__init__`` (the classes set ``init=False``), so building an
    existing concept only looks it up."""

    def __new__(cls, *args, **kwargs):
        fields = cls.__match_args__
        if kwargs:  # keyword construction, as in dataclasses.replace
            args += tuple(kwargs.pop(n) for n in fields[len(args):] if n in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{cls.__name__} takes fields {fields}")
        key = (cls, *args)
        self = _INTERNED.get(key)
        if self is not None:
            return self
        with _INTERN_LOCK:  # two equal concepts must never both exist
            self = _INTERNED.get(key)
            if self is None:
                self = object.__new__(cls)
                for name, value in zip(fields, args):
                    object.__setattr__(self, name, value)
                _INTERNED[key] = self
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


# Identity equality and hashing (eq=False); fields set by _Interned.__new__.
_concept = dataclass(frozen=True, eq=False, init=False)


@_concept
class Top(_Interned):
    def __repr__(self) -> str:
        return "Top"


@_concept
class Bottom(_Interned):
    def __repr__(self) -> str:
        return "Bottom"


@_concept
class Atom(_Interned):
    name: str


@_concept
class Not(_Interned):
    operand: "Concept"


@_concept
class And(_Interned):
    left: "Concept"
    right: "Concept"


@_concept
class Or(_Interned):
    left: "Concept"
    right: "Concept"


@_concept
class Exists(_Interned):
    role: str
    filler: "Concept"


@_concept
class Forall(_Interned):
    role: str
    filler: "Concept"


Concept = Top | Bottom | Atom | Not | And | Or | Exists | Forall

TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True)
class GCI:
    """Strict subsumption axiom: every instance of ``lhs`` is one of ``rhs``."""

    lhs: Concept
    rhs: Concept


@dataclass(frozen=True)
class DCI:
    """Defeasible subsumption axiom: typical instances of ``lhs`` are ``rhs``."""

    lhs: Concept
    rhs: Concept


Axiom = GCI | DCI


@dataclass(frozen=True)
class KnowledgeBase:
    """A finite TBox of GCIs plus a finite DTBox of DCIs, in source order."""

    tbox: tuple[GCI, ...] = ()
    dtbox: tuple[DCI, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tbox", tuple(self.tbox))
        object.__setattr__(self, "dtbox", tuple(self.dtbox))

    @property
    def axioms(self) -> tuple[Axiom, ...]:
        return self.tbox + self.dtbox


class ResourceLimitError(Exception):
    """A budget is exhausted: a check's tableau nodes, nesting past Python's
    recursion limit, or the oracle's scan; re-run with larger limits."""


# Default budget on the configurations a full scan examines: a model search
# of classical.dkb at domain 4 (3.2e11) is admitted, six defaults over twelve
# atoms at domain 3 (8.9e11) are not.
MAX_ROWS = 1 << 39


def nnf(c: Concept) -> Concept:
    """Rewrite to negation normal form: Not applies to atoms only.  Top and
    Bottom are simplified away on the way: Bottom absorbs a conjunction and
    Top a disjunction, the units drop out, ∃r.⊥ is ⊥ and ∀r.⊤ is ⊤, so Top
    and Bottom occur only as the whole result or as a quantifier's filler.

    Equivalence-preserving under the set-theoretic semantics (De Morgan, the
    quantifier dualities and the ⊤/⊥ laws), and idempotent.
    """
    while isinstance(c, Not):  # push the negation inward by one constructor
        inner = c.operand
        if isinstance(inner, Atom):
            return c
        if isinstance(inner, (Top, Bottom)):
            return BOTTOM if isinstance(inner, Top) else TOP
        if isinstance(inner, Not):
            c = inner.operand
        elif isinstance(inner, (And, Or)):
            dual = Or if isinstance(inner, And) else And
            c = dual(Not(inner.left), Not(inner.right))
        elif isinstance(inner, (Exists, Forall)):
            dual = Forall if isinstance(inner, Exists) else Exists
            c = dual(inner.role, Not(inner.filler))
        else:
            raise TypeError("not a concept: %r" % (inner,))
    if isinstance(c, (And, Or)):
        zero, unit = (BOTTOM, TOP) if isinstance(c, And) else (TOP, BOTTOM)
        left, right = nnf(c.left), nnf(c.right)
        if left is zero or right is zero:
            return zero
        if left is unit:
            return right
        return left if right is unit else type(c)(left, right)
    if isinstance(c, (Exists, Forall)):
        filler = nnf(c.filler)
        zero = BOTTOM if isinstance(c, Exists) else TOP
        return zero if filler is zero else type(c)(c.role, filler)
    if isinstance(c, (Top, Bottom, Atom)):
        return c
    raise TypeError("not a concept: %r" % (c,))


def direct_subconcepts(c: Concept) -> tuple[Concept, ...]:
    if isinstance(c, (Top, Bottom, Atom)):
        return ()
    if isinstance(c, Not):
        return (c.operand,)
    if isinstance(c, (And, Or)):
        return (c.left, c.right)
    return (c.filler,)


def subconcept_closure(cs: Iterable[Concept]) -> frozenset[Concept]:
    """Smallest superset of ``cs`` closed under direct subconcepts and a
    single negation of each member."""
    closed = set(subconcepts(cs))
    # One negation layer; negations of negations collapse to the operand,
    # which subconcept closure already put in the set.
    negations = {Not(c) for c in closed if not isinstance(c, Not)}
    return frozenset(closed | negations)


def materialise(dcis: Sequence[DCI]) -> list[Concept]:
    """The classical stand-ins for defeasible axioms: one ``¬lhs ⊔ rhs`` per
    DCI, in input order."""
    return [Or(Not(d.lhs), d.rhs) for d in dcis]


def conjoin(cs: Sequence[Concept]) -> Concept:
    """Right-nested conjunction of ``cs``; the empty conjunction is Top."""
    if not cs:
        return TOP
    out = cs[-1]
    for c in reversed(cs[:-1]):
        out = And(c, out)
    return out


def subconcepts(items: Iterable[Concept | Axiom]) -> Iterator[Concept]:
    """Every subconcept occurrence of the concepts, and of both sides of the
    axioms, in ``items``."""
    for item in items:
        stack = [item.lhs, item.rhs] if isinstance(item, (GCI, DCI)) else [item]
        while stack:
            c = stack.pop()
            yield c
            stack.extend(direct_subconcepts(c))


def atom_names(items: Iterable[Concept | Axiom]) -> frozenset[str]:
    return frozenset(c.name for c in subconcepts(items) if isinstance(c, Atom))


def role_names(items: Iterable[Concept | Axiom]) -> frozenset[str]:
    return frozenset(c.role for c in subconcepts(items) if isinstance(c, (Exists, Forall)))
