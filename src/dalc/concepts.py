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
from typing import Iterable, Iterator, Sequence

# (class, *fields) -> the live concept with those fields.  Children in a key
# are themselves interned, so hashing and comparing a key never recurses.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class _Value:
    """Shared base of the value classes, in place of the methods ``dataclass``
    would compile at import.  Fields are the annotated names, after the bases';
    a class attribute of that name is a default.  Instances compare and hash by
    type and fields, and are frozen unless the class or a base is ``mutable``."""

    __match_args__ = ()  # the field names, set by __init_subclass__

    def __init_subclass__(cls, mutable: bool = False):
        cls.__match_args__ += tuple(cls.__dict__.get("__annotations__", ()))
        if mutable:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        names = cls.__match_args__
        values = dict(zip(names, args))
        for n in names[len(args):]:
            if n in kwargs or hasattr(cls, n):  # by keyword, else the class's default
                values[n] = kwargs.pop(n, getattr(cls, n, None))
        if kwargs or len(args) > len(names) or len(values) < len(names):
            raise TypeError(f"{cls.__name__} takes fields {names}")
        return tuple(values.values())

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):  # not via __dict__: that slows every read
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Where a class overrides it, validates or normalises the fields."""

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.__class__, *self._values()))

    def __repr__(self) -> str:  # a class with no fields, as Top, reads as its name
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return type(self).__qualname__ + (f"({fields})" if self.__match_args__ else "")

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _Interned(_Value):
    """Shared constructor of the concept classes: one live instance per field values."""

    __init__, __eq__, __hash__ = object.__init__, object.__eq__, object.__hash__

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):  # by keyword, or a default
            args = cls._bind(args, kwargs)
        key = (cls, *args)
        self = _INTERNED.get(key)
        if self is not None:
            return self
        with _INTERN_LOCK:  # two equal concepts must never both exist
            self = _INTERNED.get(key)
            if self is None:
                self = object.__new__(cls)
                _Value.__init__(self, *args)
                _INTERNED[key] = self
        return self

    def __reduce__(self):
        return type(self), self._values()


class Top(_Interned):
    """The top concept ⊤."""


class Bottom(_Interned):
    """The bottom concept ⊥."""


class Atom(_Interned):
    """A concept name."""
    name: str


class Not(_Interned):
    """Negation ¬C."""
    operand: "Concept"


class And(_Interned):
    """Conjunction C ⊓ D."""
    left: "Concept"
    right: "Concept"


class Or(_Interned):
    """Disjunction C ⊔ D."""
    left: "Concept"
    right: "Concept"


class Exists(_Interned):
    """Existential restriction ∃r.C."""
    role: str
    filler: "Concept"


class Forall(_Interned):
    """Universal restriction ∀r.C."""
    role: str
    filler: "Concept"


Concept = Top | Bottom | Atom | Not | And | Or | Exists | Forall

TOP = Top()
BOTTOM = Bottom()


class GCI(_Value):
    """Strict subsumption axiom: every instance of ``lhs`` is one of ``rhs``."""

    lhs: Concept
    rhs: Concept


class DCI(_Value):
    """Defeasible subsumption axiom: typical instances of ``lhs`` are ``rhs``."""

    lhs: Concept
    rhs: Concept


Axiom = GCI | DCI


class KnowledgeBase(_Value):
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
    while (kind := c.__class__) is Not:  # push the negation inward by one constructor
        inner = c.operand
        kind = inner.__class__
        if kind is Atom:
            return c
        if kind is Not:
            c = inner.operand
        elif kind is Top or kind is Bottom:
            return BOTTOM if kind is Top else TOP
        elif kind is And or kind is Or:
            c = (Or if kind is And else And)(Not(inner.left), Not(inner.right))
        elif kind is Exists or kind is Forall:
            c = (Forall if kind is Exists else Exists)(inner.role, Not(inner.filler))
        else:
            raise TypeError("not a concept: %r" % (inner,))
    if kind is And or kind is Or:
        zero, unit = (BOTTOM, TOP) if kind is And else (TOP, BOTTOM)
        left, right = nnf(c.left), nnf(c.right)
        if left is zero or right is zero:
            return zero
        if left is unit:
            return right
        return left if right is unit else kind(left, right)
    if kind is Exists or kind is Forall:
        filler = nnf(c.filler)
        zero = BOTTOM if kind is Exists else TOP
        return zero if filler is zero else kind(c.role, filler)
    if kind is Atom or kind is Top or kind is Bottom:
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


def vocabulary(items: Iterable[Concept | Axiom]) -> tuple[list[str], list[str], list[Concept]]:
    """The sorted atom and role names of ``items``, and their quantified
    subconcepts, from one walk.  The last are sorted by repr, which is
    structural: the oracle's type bits, and so its witness order, are stable."""
    atoms, roles, quantified = set(), set(), set()
    for c in subconcepts(items):
        if isinstance(c, Atom):
            atoms.add(c.name)
        elif isinstance(c, (Exists, Forall)):
            roles.add(c.role)
            quantified.add(c)
    return sorted(atoms), sorted(roles), sorted(quantified, key=repr)
