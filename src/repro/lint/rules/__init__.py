"""Domain rules of ``repro.lint``: the fixed, id-ordered rule set.

One module per rule keeps each invariant's detection logic reviewable next
to its rationale.  :data:`RULES` holds one instance of each, in id order;
every lint run checks all of them.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.model import LintRule
from repro.lint.rules.r001_fingerprint_purity import FingerprintPurityRule
from repro.lint.rules.r002_kernel_contract import KernelContractRule
from repro.lint.rules.r003_structure_token import StructureTokenRule
from repro.lint.rules.r004_seeded_rng import SeededRngRule
from repro.lint.rules.r005_decimal_float import DecimalFloatRule
from repro.lint.rules.r006_fork_pickle import ForkPickleRule
from repro.lint.rules.r007_worker_isolation import WorkerIsolationRule
from repro.lint.rules.r008_report_json import ReportJsonRule

#: The rule set, R001 … R008.
RULES: Tuple[LintRule, ...] = (
    FingerprintPurityRule(),
    KernelContractRule(),
    StructureTokenRule(),
    SeededRngRule(),
    DecimalFloatRule(),
    ForkPickleRule(),
    WorkerIsolationRule(),
    ReportJsonRule(),
)

__all__ = ["RULES"]
