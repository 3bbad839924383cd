"""AST-based invariant checker for the reproduction's domain contracts.

Generic linters cannot know that a builtin ``hash()`` inside
``engine/fingerprint.py`` breaks the federated warm store, or that mutating
``TaskGraph._messages`` without bumping ``structure_token`` silently serves
stale schedules.  ``repro.lint`` machine-checks exactly those contracts:

========  ==============================================================
R001      fingerprint purity — cache-key paths are content-pure
          (no ``hash()``/``id()``/``repr()``/unordered set-dict iteration)
R002      kernel-contract conformance — backends implement the full
          abstract contract with matching signatures, no mutable class
          state; cache-key modules never import ``repro.kernels``
R003      structure-token safety — guarded containers mutate only inside
          the token-bumping construction API
R004      seeded-RNG-only — no interpreter-global random state, and the
          allowed constructors are themselves seeded
R005      no ``Decimal``/``float`` mixing in the SFP rounding chains
R006      fork/pickle safety — everything crossing a process-pool
          boundary is transitively picklable by type
R007      worker isolation — task-reachable code mutates no module
          globals or shared Session/MemoCache/DesignPointStore state
R008      report JSON-serializability — payload values reach JSON-native
          types or pass through the canonicalizer
========  ==============================================================

The static rules are complemented by an opt-in *runtime* determinism
sanitizer (:mod:`repro.lint.sanitizer`, ``repro-ftes run --sanitize`` or
``REPRO_SANITIZE=1``) that observes a real run through patched choke points
and reports violations in the same format/rule-id vocabulary.

Run the static checker with ``repro-ftes lint`` or ``python -m repro.lint``.
It is one gate: every rule runs over one serial parse of the package, every
violation is reported, and any violation fails the run (exit 1).  See
:mod:`repro.lint.cli` for the options (``--root``, ``--format json``,
``--list-rules``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.lint.model import LintRule, Violation, sort_violations
from repro.lint.project import Project
from repro.lint.rules import RULES


@dataclass
class LintReport:
    """Outcome of one lint run: every violation of every rule."""

    violations: List[Violation] = field(default_factory=list)
    checked_modules: int = 0
    rule_ids: List[str] = field(default_factory=list)

    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "checked_modules": self.checked_modules,
            "rules": self.rule_ids,
            "violations": [violation.as_dict() for violation in self.violations],
        }


def run_lint(project: Project) -> LintReport:
    """Run the whole rule set over ``project``."""
    violations: List[Violation] = []
    for rule in RULES:
        violations.extend(rule.check(project))
    return LintReport(
        violations=sort_violations(violations),
        checked_modules=len(project.modules),
        rule_ids=[rule.rule_id for rule in RULES],
    )


__all__ = [
    "LintReport",
    "LintRule",
    "Project",
    "RULES",
    "Violation",
    "run_lint",
    "sort_violations",
]
