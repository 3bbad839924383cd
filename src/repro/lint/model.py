"""Violation model and rule base class for ``repro.lint``.

A :class:`Violation` is one rule finding, anchored to a module/line/column and
to the enclosing *symbol* (function or class qualname) when one exists.  The
:meth:`Violation.fingerprint` is deliberately line-number-insensitive — it
hashes the rule id, module, symbol and message — so the runtime sanitizer can
deduplicate one defect observed at several call sites, and a JSON report
names a finding stably across edits that merely shift code up or down.

A :class:`LintRule` is one invariant: a stable id (``R001`` …), a title, the
rationale, and a :meth:`LintRule.check` over a parsed project.  Every rule
reports every violation it finds; there is no per-line opt-out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List

if TYPE_CHECKING:
    from repro.lint.project import Project


@dataclass(frozen=True)
class Violation:
    """One finding of one lint rule."""

    rule: str
    module: str
    path: str
    line: int
    column: int
    symbol: str
    message: str

    def fingerprint(self) -> str:
        """Stable identity of the finding, independent of line numbers."""
        payload = "\x1f".join((self.rule, self.module, self.symbol, self.message))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def format_text(self) -> str:
        location = f"{self.path}:{self.line}:{self.column}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule}{symbol}: {self.message}"


def sort_violations(violations: List[Violation]) -> List[Violation]:
    """Deterministic report order: by path, line, column, then rule id."""
    return sorted(
        violations,
        key=lambda v: (v.path, v.line, v.column, v.rule, v.message),
    )


class LintRule:
    """Abstract lint rule.

    Subclasses set :attr:`rule_id` (the report and ``--list-rules``
    identifier), a one-line :attr:`title`, and :attr:`rationale` (why the
    invariant exists; surfaced by ``--list-rules`` and the docs) — then
    implement :meth:`check`.
    """

    #: Stable identifier, ``R001`` … ``R008``.
    rule_id: str = ""
    #: One-line human description of what the rule enforces.
    title: str = ""
    #: Why violating the invariant breaks the reproduction (one sentence).
    rationale: str = ""

    def check(self, project: "Project") -> Iterator[Violation]:
        """Yield every violation of this rule in ``project``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule_id={self.rule_id!r})"
