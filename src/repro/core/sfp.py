"""System Failure Probability (SFP) analysis — Appendix A of the paper.

The SFP analysis connects the hardening level of each computation node (which
determines the per-process failure probabilities ``p_ijh``) with the number of
re-executions ``k_j`` that must be provided in software on that node, such
that the whole system meets its reliability goal ``rho = 1 - gamma`` over a
time unit ``tau`` (one hour in the paper).

The chain of formulae (numbers refer to the paper):

(1) ``Pr(0; Nj^h) = prod_{Pi on Nj^h} (1 - p_ijh)``
    — probability that one application iteration executes on node ``Nj^h``
    without any process failing.

(2)/(3) ``Pr(f; Nj^h) = Pr(0; Nj^h) * sum_{f-fault scenarios} prod p``
    — probability that exactly ``f`` faults occur (as a combination *with
    repetitions* over the processes mapped on the node, because the same
    process may fail several times) and that all re-executions eventually
    succeed.  The inner sum is the complete homogeneous symmetric polynomial
    ``h_f`` of the failure probabilities; we evaluate it with an exact dynamic
    program instead of enumerating multisets (an enumerating reference
    implementation is kept for the test-suite).

(4) ``Pr(f > kj; Nj^h) = 1 - Pr(0; Nj^h) - sum_{f=1..kj} Pr(f; Nj^h)``
    — probability that more faults occur on the node than its re-execution
    budget can tolerate.

(5) ``Pr(U_j (f > kj)) = 1 - prod_j (1 - Pr(f > kj; Nj^h))``
    — probability that at least one node exceeds its budget in one iteration.

(6) ``(1 - Pr(U_j (f > kj)))^(tau / T) >= rho``
    — the reliability goal over the time unit.

All intermediate *success* probabilities are rounded **down** and all
*failure* probabilities are rounded **up** at the paper's accuracy of 1e-11
so the analysis stays pessimistic; see :mod:`repro.utils.rounding`.

The three hot primitives — formulae (1), (4) and (5) — are served by a
*kernel backend* (:mod:`repro.kernels`): the module-level functions below
delegate to the production backend (``SFP_KERNELS.active()``), which is
bit-identical to the pure-Python reference by contract, and
:class:`SFPAnalysis` reads them through the memo tables of its
:class:`~repro.engine.engine.EvaluationEngine`, on the engine's kernel.  The
combinatorial helpers (:func:`complete_homogeneous_sum`,
:func:`enumerate_fault_scenarios`, :func:`probability_exactly`) stay here as
the test-suite's independent specification of the DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import prod
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.application import Application
from repro.core.architecture import Architecture, Node
from repro.core.exceptions import ModelError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.engine.engine import EvaluationEngine, resolve_engine
from repro.kernels.registry import SFP_KERNELS
from repro.utils.rounding import floor_probability
from repro.utils.validation import require_in_unit_interval, require_positive


# ----------------------------------------------------------------------
# Stateless building blocks operating on plain probability lists
# ----------------------------------------------------------------------
def probability_no_fault(failure_probabilities: Sequence[float]) -> float:
    """Formula (1): probability that none of the processes fails.

    An empty probability list (no process mapped on the node) trivially gives
    probability 1.
    """
    return SFP_KERNELS.active().probability_no_fault(failure_probabilities)


def complete_homogeneous_sum(
    failure_probabilities: Sequence[float], faults: int
) -> float:
    """Sum over all multisets of size ``faults`` of products of probabilities.

    This is the inner sum of formula (3), i.e. the complete homogeneous
    symmetric polynomial ``h_f(p_1, ..., p_m)``.  Evaluated with the standard
    dynamic program: ``h_f`` over the first ``i`` variables equals
    ``sum_j p_i^j * h_{f-j}`` over the first ``i-1`` variables.
    """
    if faults < 0:
        raise ModelError(f"Number of faults must be >= 0, got {faults}")
    if faults == 0:
        return 1.0
    if not failure_probabilities:
        return 0.0
    # table[f] holds h_f over the variables processed so far.
    table = [0.0] * (faults + 1)
    table[0] = 1.0
    for probability in failure_probabilities:
        for f in range(1, faults + 1):
            # h_f(new) = h_f(old) + p * h_{f-1}(new): classic recurrence for
            # complete homogeneous polynomials, processed in increasing f so
            # that repetitions of the current variable are included.
            table[f] = table[f] + probability * table[f - 1]
    return table[faults]


def enumerate_fault_scenarios(
    failure_probabilities: Sequence[float], faults: int
) -> List[float]:
    """Reference implementation of the multiset sum of formula (2)/(3).

    Returns the individual products, one per ``f``-fault scenario (combination
    with repetitions of the faulty processes).  Exponential in ``faults`` —
    only used by the test-suite to validate
    :func:`complete_homogeneous_sum`.
    """
    if faults == 0:
        return [1.0]
    indices = range(len(failure_probabilities))
    scenarios: List[float] = []
    for combo in combinations_with_replacement(indices, faults):
        scenarios.append(prod(failure_probabilities[i] for i in combo))
    return scenarios


def probability_exactly(failure_probabilities: Sequence[float], faults: int) -> float:
    """Formula (3): probability of recovering from exactly ``faults`` faults."""
    no_fault = probability_no_fault(failure_probabilities)
    if faults == 0:
        return no_fault
    raw = no_fault * complete_homogeneous_sum(failure_probabilities, faults)
    return floor_probability(raw)


def probability_exceeds(failure_probabilities: Sequence[float], reexecutions: int) -> float:
    """Formula (4): probability that more than ``reexecutions`` faults occur.

    ``reexecutions`` is the per-node budget ``k_j``; the node fails when the
    number of faults in one iteration exceeds it.

    All of ``h_1 .. h_k`` are read off one dynamic-programming table built in
    a single pass over the probabilities (O(k·m) instead of the O(k²·m) of
    rebuilding the table per fault count).  The truncated table prefix after
    processing every variable is identical — operation for operation — to the
    table :func:`complete_homogeneous_sum` builds for each smaller fault
    count, so the per-term floating point results (and therefore the rounded
    output) are bit-identical to summing :func:`probability_exactly` values.

    The subtraction ``1 - Pr(0) - sum Pr(f)`` is carried out in exact decimal
    (or exact integer-quanta) arithmetic: the operands are already rounded to
    11 digits, so the result matches the paper's hand computation
    (Appendix A.2) instead of picking up binary floating point noise.  The
    computation itself runs on the SFP kernel backend
    (:mod:`repro.kernels`); all backends are bit-identical.
    """
    return SFP_KERNELS.active().probability_exceeds(failure_probabilities, reexecutions)


def system_failure_probability(per_node_exceedance: Sequence[float]) -> float:
    """Formula (5): probability that at least one node exceeds its budget.

    Evaluated in decimal arithmetic on the (already rounded) per-node
    exceedance probabilities so the union matches the paper's worked example
    digit for digit.
    """
    return SFP_KERNELS.active().system_failure(per_node_exceedance)


def reliability_over_time_unit(
    per_iteration_failure: float,
    time_unit: float,
    period: float,
) -> float:
    """Left-hand side of formula (6): survival probability over ``tau``."""
    require_in_unit_interval(per_iteration_failure, "per_iteration_failure")
    require_positive(time_unit, "time_unit")
    require_positive(period, "period")
    iterations = time_unit / period
    return (1.0 - per_iteration_failure) ** iterations


# ----------------------------------------------------------------------
# Analysis bound to an application / architecture / mapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SFPReport:
    """Outcome of one SFP evaluation for a concrete redundancy assignment."""

    per_node_failure: Dict[str, float]
    system_failure_per_iteration: float
    reliability_over_time_unit: float
    reliability_goal: float
    meets_goal: bool
    reexecutions: Dict[str, int]


class SFPAnalysis:
    """SFP analysis bound to an application, architecture, mapping and profile.

    The object is cheap to construct; every query recomputes from the current
    hardening levels of the architecture nodes, so the optimization heuristics
    can mutate hardening in place and re-query.

    The per-node exceedance and the system-failure union are served from the
    memo tables of an :class:`~repro.engine.engine.EvaluationEngine` (keyed
    by the ordered failure-probability tuples, which canonically encode node
    type, hardening level and mapped process multiset) — changing one node's
    hardening or moving one process recomputes only the affected node(s).
    ``engine=None`` gets a fresh engine for this (application, profile); the
    engine's kernel is the SFP backend of every query.
    """

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.application = application
        self.architecture = architecture
        self.mapping = mapping
        self.profile = profile
        self.engine = resolve_engine(engine, application, profile)

    # ------------------------------------------------------------------
    def node_failure_probabilities(self, node: Node) -> List[float]:
        """Failure probabilities of all processes mapped on ``node``."""
        return [
            self.profile.failure_probability(process, node.node_type.name, node.hardening)
            for process in self.mapping.processes_on(node.name)
        ]

    def probability_no_fault(self, node: Node) -> float:
        """Formula (1) for one node at its current hardening level."""
        return self.engine.kernel.probability_no_fault(self.node_failure_probabilities(node))

    def node_exceedance(self, node: Node, reexecutions: int) -> float:
        """Formula (4): probability node ``Nj`` sees more than ``k_j`` faults."""
        return self.engine.node_exceedance(
            tuple(self.node_failure_probabilities(node)), reexecutions
        )

    def system_failure_per_iteration(self, reexecutions: Mapping[str, int]) -> float:
        """Formula (5) for the whole architecture."""
        exceedances = tuple(
            self.node_exceedance(node, self._budget_of(node, reexecutions))
            for node in self.architecture
        )
        return self.engine.system_failure(exceedances)

    def evaluate(self, reexecutions: Mapping[str, int]) -> SFPReport:
        """Full evaluation of formulae (1)-(6) for a redundancy assignment."""
        per_node = {
            node.name: self.node_exceedance(node, self._budget_of(node, reexecutions))
            for node in self.architecture
        }
        system_per_iteration = self.engine.system_failure(tuple(per_node.values()))
        reliability = reliability_over_time_unit(
            system_per_iteration,
            self.application.time_unit,
            self.application.period,
        )
        return SFPReport(
            per_node_failure=per_node,
            system_failure_per_iteration=system_per_iteration,
            reliability_over_time_unit=reliability,
            reliability_goal=self.application.reliability_goal,
            meets_goal=reliability >= self.application.reliability_goal,
            reexecutions={
                node.name: self._budget_of(node, reexecutions)
                for node in self.architecture
            },
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _budget_of(node: Node, reexecutions: Mapping[str, int]) -> int:
        budget = reexecutions.get(node.name, 0)
        if budget < 0:
            raise ModelError(
                f"Negative re-execution budget {budget} for node {node.name}"
            )
        return budget
