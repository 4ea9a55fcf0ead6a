"""Rank values: non-negative integers extended with an infinite top element."""

from __future__ import annotations

from functools import total_ordering

from .concepts import _Value


@total_ordering
class Rank(_Value):
    """Either a finite rank ``finite(i)`` or the infinite rank.

    ``value`` is ``None`` for the infinite rank.  Infinite compares greater
    than every finite rank and equal to itself.
    """

    value: int | None

    @classmethod
    def finite(cls, i: int) -> "Rank":
        if i < 0:
            raise ValueError("finite rank must be non-negative, got %d" % i)
        return cls(i)

    @classmethod
    def infinite(cls) -> "Rank":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __lt__(self, other: "Rank") -> bool:
        if not isinstance(other, Rank):
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return "infinity" if self.value is None else str(self.value)
