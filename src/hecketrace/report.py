"""Pass/fail records shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = ["CheckResult", "all_passed", "format_results", "format_records"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name}"
        return f"FAIL {self.name}: {self.detail}" if self.detail else f"FAIL {self.name}"


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def format_results(results) -> list[str]:
    """Canonical report: one line per check, sorted by check name."""
    return [r.line() for r in sorted(results, key=lambda r: r.name)]


def format_records(results) -> list[str]:
    """The canonical report as JSON lines {"name", "passed", "detail"}."""
    return [json.dumps(asdict(r)) for r in sorted(results, key=lambda r: r.name)]
