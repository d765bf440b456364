"""Commutative semirings used by the evaluation oracles."""
from __future__ import annotations

from typing import Callable

from .errors import InvalidStructure
from .record import FrozenRecord
from .report import Check, Report


class CommSemiring(FrozenRecord, uncompared=("add", "mul")):
    __slots__ = ("name", "add", "mul", "zero", "one", "sample_elements")

    def __init__(self, name: str, add: Callable, mul: Callable, zero: object = 0,
                 one: object = 1, sample_elements: tuple = (0, 1)):
        self._init(name, add, mul, zero, one, sample_elements)

    def sum(self, xs) -> object:
        out = self.zero
        for x in xs:
            out = self.add(out, x)
        return out

    def prod(self, xs) -> object:
        out = self.one
        for x in xs:
            out = self.mul(out, x)
        return out


NATURALS = CommSemiring("naturals", lambda a, b: a + b, lambda a, b: a * b,
                        0, 1, (0, 1, 2, 3))
BOOLEANS = CommSemiring("booleans", lambda a, b: a or b, lambda a, b: a and b,
                        False, True, (False, True))

BUILTIN_SEMIRINGS = {"naturals": NATURALS, "booleans": BOOLEANS}


def builtin_semiring(name: str) -> CommSemiring:
    try:
        return BUILTIN_SEMIRINGS[name]
    except KeyError:
        raise InvalidStructure(f"unknown semiring {name!r}") from None


def check_semiring_laws(sr: CommSemiring) -> Report:
    """Commutative-semiring laws on the declared sample elements."""
    xs = sr.sample_elements
    checks = []
    ok = all(sr.add(a, b) == sr.add(b, a) and sr.mul(a, b) == sr.mul(b, a)
             for a in xs for b in xs)
    checks.append(Check("commutativity", ok))
    ok = all(sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
             and sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
             for a in xs for b in xs for c in xs)
    checks.append(Check("associativity", ok))
    ok = all(sr.add(a, sr.zero) == a and sr.mul(a, sr.one) == a
             and sr.mul(a, sr.zero) == sr.zero for a in xs)
    checks.append(Check("units-and-absorption", ok))
    ok = all(sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
             for a in xs for b in xs for c in xs)
    checks.append(Check("distributivity", ok))
    return Report(f"semiring:{sr.name}", tuple(checks))
