"""Plain pass/fail reports produced by the law-checking harnesses.

Reports never claim universal validity: each one carries the inventory of
samples it actually examined, and failing checks carry a concrete witness
string.  Rendering is deterministic so that fixed seeds give byte-identical
output.
"""
from __future__ import annotations

from .record import FrozenRecord


class Check(FrozenRecord):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        set_name, set_passed, set_detail = self._setters
        set_name(self, name)
        set_passed(self, passed)
        set_detail(self, detail)


class Report(FrozenRecord):
    __slots__ = ("title", "checks", "notes")

    def __init__(self, title: str, checks: tuple[Check, ...], notes: tuple[str, ...] = ()):
        self._init(title, checks, notes)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "notes": list(self.notes),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'} "
                 f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)"]
        for note in self.notes:
            lines.append(f"   note: {note}")
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            detail = f" -- {c.detail}" if c.detail else ""
            lines.append(f" [{mark}] {c.name}{detail}")
        return "\n".join(lines)


def merge_reports(title: str, reports: list[Report]) -> Report:
    checks = []
    notes = []
    for r in reports:
        notes.extend(f"{r.title}: {n}" for n in r.notes)
        for c in r.checks:
            checks.append(Check(f"{r.title}/{c.name}", c.passed, c.detail))
    return Report(title, tuple(checks), tuple(notes))
