"""Uniform pass/fail reporting for the verifiers."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    title: str
    checks: tuple = ()
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def result(self, name: str) -> CheckResult:
        """The check called ``name``; KeyError if there is none."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.title}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            detail = f" — {c.detail}" if c.detail else ""
            lines.append(f"  {mark} {c.name}{detail}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


class ReportBuilder:
    def __init__(self, title: str):
        self.title = title
        self._checks: list[CheckResult] = []
        self._notes: list[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self._checks.append(CheckResult(name, bool(passed), detail))
        return bool(passed)

    def note(self, text: str) -> None:
        self._notes.append(text)

    def build(self) -> Report:
        return Report(self.title, tuple(self._checks), tuple(self._notes))

