"""Tiny exact linear algebra over the naturals.

A linear map between free commutative monoids carries its source and target
dimensions explicitly (either may be zero) plus one row per source
generator: rows[i][j] is the coefficient of target generator j in the image
of source generator i.  Everything is integer-exact.
"""
from __future__ import annotations

from typing import Sequence

from .record import FrozenRecord


class LinMap(FrozenRecord):
    __slots__ = ("src", "tgt", "rows")

    def __init__(self, src: int, tgt: int, rows: tuple[tuple[int, ...], ...]):
        if len(rows) != src or any(len(r) != tgt for r in rows):
            raise ValueError("linear map rows do not match the declared shape")
        self._init(src, tgt, rows)

    def __call__(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.src:
            raise ValueError(f"vector length {len(v)} != source dimension {self.src}")
        out = [0] * self.tgt
        for coeff, row in zip(v, self.rows):
            if coeff:
                for j in range(self.tgt):
                    out[j] += coeff * row[j]
        return tuple(out)


def lin_map(rows: Sequence[Sequence[int]], src: int, tgt: int) -> LinMap:
    return LinMap(src, tgt, tuple(tuple(r) for r in rows))


def mat_identity(n: int) -> LinMap:
    return LinMap(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                              for i in range(n)))


def mat_compose(second: LinMap, first: LinMap) -> LinMap:
    """The map 'first then second'."""
    if first.tgt != second.src:
        raise ValueError("composition shape mismatch")
    return LinMap(first.src, second.tgt, tuple(second(row) for row in first.rows))


def mat_add(a: LinMap, b: LinMap) -> LinMap:
    if (a.src, a.tgt) != (b.src, b.tgt):
        raise ValueError("sum shape mismatch")
    return LinMap(a.src, a.tgt,
                  tuple(tuple(x + y for x, y in zip(ra, rb))
                        for ra, rb in zip(a.rows, b.rows)))
