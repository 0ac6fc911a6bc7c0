"""Pass/fail records shared by the verification suites and the CLI, and
Value, the base of the package's immutable value classes CheckResult,
TraceParams and ModelContext.

A Value subclass names its fields in the class attribute _fields and sets
them in its own __init__; the base compares and hashes instances by those
fields, lists them in its repr and refuses to assign or delete an
attribute afterwards.  Other attributes, such as a cached_property or
TraceParams.weight_numerators, are left out of all three."""

from __future__ import annotations

import json

__all__ = ["Value", "CheckResult", "all_passed", "format_results", "format_records"]


class Value:
    """Frozen value semantics over the fields named in _fields."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckResult(Value):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.__dict__.update(name=name, passed=passed, detail=detail)

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
    return [
        json.dumps({"name": r.name, "passed": r.passed, "detail": r.detail})
        for r in sorted(results, key=lambda r: r.name)
    ]
