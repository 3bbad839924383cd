"""Vehicle cruise-controller (CC) case study (Section 7 of the paper).

The paper evaluates its strategies on a real-life cruise controller of 32
processes mapped on three automotive ECUs — the Electronic Throttle Module
(ETM), the Anti-lock Braking System (ABS) and the Transmission Control Module
(TCM) — with a deadline of 300 ms, a reliability goal of ``1 - 1.2e-5`` per
hour, five hardening levels with HPD = 25 %, linear cost functions and a soft
error rate of 2e-12 for the least hardened versions.  The published findings:

* the MIN strategy (no hardening, software re-execution only) cannot produce a
  schedulable implementation,
* MAX and OPT both can, and
* OPT is about 66 % cheaper than MAX because it hardens only where the
  schedule is actually tight.

The original CC task graph comes from the first author's licentiate thesis
and is not publicly available; the graph below is a faithful synthetic
reconstruction with the same size (32 processes), the same three-ECU
architecture and a control-flow structure typical of a cruise controller
(sensor acquisition → filtering → state estimation → control law →
arbitration → actuation, plus diagnostics and display).  WCETs are chosen so
the schedule pressure matches the published behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.application import Application, Message, Process
from repro.core.architecture import NodeType, linear_cost_node_type
from repro.core.design_strategy import DesignStrategy
from repro.core.fault_model import FaultModel, HardeningModel, TechnologyModel
from repro.core.mapping import MappingAlgorithm
from repro.core.profile import ExecutionProfile
from repro.core.redundancy import POLICIES
from repro.engine import EvaluationEngine

#: Deadline and period of the cruise controller, in milliseconds.
CC_DEADLINE = 300.0
#: Reliability goal of the case study.
CC_RELIABILITY_GOAL = 1.0 - 1.2e-5
#: Soft error rate per clock cycle of the least hardened modules.
CC_SER = 2e-12
#: Hardening performance degradation between the first and the fifth level.
CC_HPD = 25.0
#: Number of h-versions per ECU.
CC_HARDENING_LEVELS = 5
#: Clock frequency (MHz) used to convert WCETs into cycle counts.
CC_CLOCK_MHZ = 1000.0
#: Recovery overhead as a fraction of each process WCET (paper: 1-10 %).
CC_RECOVERY_FRACTION = 0.05
#: Worst-case bus transmission time of every CC message, in milliseconds.
CC_MESSAGE_TIME = 1.0
#: Tabu-search effort of the case study: iterations (the search stops after
#: half as many without improvement) and re-mapping candidates per iteration.
CC_MAPPING_ITERATIONS = 6
CC_MAPPING_CANDIDATES = 3

#: The 32 processes of the reconstructed cruise controller.  Each entry is
#: ``(name, WCET on the unhardened ECU in ms, list of predecessors)``.
CC_PROCESS_TABLE: List[Tuple[str, float, Tuple[str, ...]]] = [
    # -- sensor acquisition ------------------------------------------------
    ("read_speed_sensor", 12.0, ()),
    ("read_throttle_position", 6.0, ()),
    ("read_brake_pedal", 5.0, ()),
    ("read_driver_buttons", 4.0, ()),
    ("read_engine_rpm", 6.0, ()),
    ("read_gear_position", 4.0, ()),
    # -- filtering / validation --------------------------------------------
    ("filter_speed", 14.0, ("read_speed_sensor",)),
    ("filter_throttle", 8.0, ("read_throttle_position",)),
    ("validate_brake", 6.0, ("read_brake_pedal",)),
    ("debounce_buttons", 5.0, ("read_driver_buttons",)),
    ("filter_rpm", 7.0, ("read_engine_rpm",)),
    ("validate_gear", 5.0, ("read_gear_position",)),
    # -- state estimation ----------------------------------------------------
    ("estimate_vehicle_speed", 16.0, ("filter_speed",)),
    ("estimate_acceleration", 14.0, ("estimate_vehicle_speed",)),
    ("detect_override", 8.0, ("validate_brake", "filter_throttle")),
    ("determine_cc_state", 12.0, ("estimate_acceleration", "debounce_buttons", "detect_override")),
    ("compute_target_speed", 14.0, ("determine_cc_state",)),
    # -- control law ---------------------------------------------------------
    ("compute_speed_error", 10.0, ("compute_target_speed",)),
    ("pid_controller", 22.0, ("compute_speed_error", "filter_throttle")),
    ("feedforward_compensation", 14.0, ("pid_controller",)),
    ("compute_torque_request", 16.0, ("feedforward_compensation", "filter_rpm")),
    ("safety_monitor", 10.0, ("detect_override", "validate_brake")),
    # -- arbitration ----------------------------------------------------------
    ("check_abs_interlock", 7.0, ("validate_brake",)),
    ("check_transmission_interlock", 6.0, ("validate_gear",)),
    ("arbitrate_torque", 18.0, ("compute_torque_request", "check_abs_interlock")),
    ("limit_torque_rate", 14.0, ("arbitrate_torque",)),
    ("gear_advice", 9.0, ("arbitrate_torque", "validate_gear")),
    # -- actuation / outputs ---------------------------------------------------
    ("throttle_command", 40.0, ("limit_torque_rate",)),
    ("transmission_command", 12.0, ("gear_advice", "check_transmission_interlock")),
    ("brake_release_command", 8.0, ("safety_monitor",)),
    ("update_display", 8.0, ("determine_cc_state",)),
    ("log_diagnostics", 6.0, ("safety_monitor",)),
]

#: Base (unhardened) cost of each ECU; the cost grows linearly with the level.
CC_NODE_BASE_COSTS: Dict[str, float] = {"ETM": 4.0, "ABS": 3.0, "TCM": 3.0}


def cruise_controller_application() -> Application:
    """Build the 32-process cruise-controller application."""
    application = Application(
        name="cruise_controller",
        deadline=CC_DEADLINE,
        reliability_goal=CC_RELIABILITY_GOAL,
        recovery_overhead=0.0,
        period=CC_DEADLINE,
    )
    graph = application.new_graph("CC")
    for name, wcet, _ in CC_PROCESS_TABLE:
        graph.add_process(Process(name, nominal_wcet=wcet))
    message_index = 0
    for name, _, predecessors in CC_PROCESS_TABLE:
        for predecessor in predecessors:
            message_index += 1
            graph.add_message(
                Message(
                    name=f"cc_m{message_index}",
                    source=predecessor,
                    destination=name,
                    transmission_time=CC_MESSAGE_TIME,
                )
            )
    for name, wcet, _ in CC_PROCESS_TABLE:
        application.set_recovery_overhead(name, wcet * CC_RECOVERY_FRACTION)
    return application


def cruise_controller_node_types() -> List[NodeType]:
    """The three ECUs (ETM, ABS, TCM), five h-versions each, linear costs."""
    return [
        linear_cost_node_type(name, base_cost=cost, levels=CC_HARDENING_LEVELS)
        for name, cost in CC_NODE_BASE_COSTS.items()
    ]


def cruise_controller_profile(
    application: Optional[Application] = None,
    node_types: Optional[Sequence[NodeType]] = None,
) -> ExecutionProfile:
    """Derive the WCET / failure-probability tables of the case study."""
    application = application if application is not None else cruise_controller_application()
    node_types = list(node_types) if node_types is not None else cruise_controller_node_types()
    hardening = HardeningModel(
        levels=CC_HARDENING_LEVELS,
        ser_reduction_per_level=100.0,
        performance_degradation=CC_HPD,
    )
    technology = TechnologyModel(ser_per_cycle=CC_SER, clock_mhz=CC_CLOCK_MHZ)
    fault_model = FaultModel(technology, hardening)
    return fault_model.build_profile(application, node_types)


def relative_cost_saving(cost: float, reference_cost: float) -> float:
    """Relative saving of ``cost`` versus ``reference_cost`` (e.g. OPT vs MAX).

    Returns a fraction in ``[0, 1]``; 0 when there is no saving or the
    reference is not positive.
    """
    if reference_cost <= 0.0:
        return 0.0
    saving = (reference_cost - cost) / reference_cost
    return max(0.0, saving)


@dataclass(frozen=True)
class CruiseControlOutcome:
    """Result of one strategy on the cruise controller."""

    strategy: str
    schedulable: bool
    cost: float
    schedule_length: float
    hardening: Dict[str, int]
    reexecutions: Dict[str, int]


@dataclass(frozen=True)
class CruiseControlStudy:
    """Aggregated results of the MIN / MAX / OPT comparison."""

    outcomes: Dict[str, CruiseControlOutcome]

    @property
    def opt_saving_vs_max(self) -> float:
        """Relative cost saving of OPT over MAX (the paper reports ~66 %)."""
        opt = self.outcomes.get("OPT")
        max_outcome = self.outcomes.get("MAX")
        if opt is None or max_outcome is None:
            return 0.0
        if not (opt.schedulable and max_outcome.schedulable):
            return 0.0
        return relative_cost_saving(opt.cost, max_outcome.cost)


def run_cruise_controller_study() -> CruiseControlStudy:
    """Run MIN, MAX and OPT on the fixed three-ECU architecture.

    Unlike the synthetic experiments, the CC architecture is given (the three
    ECUs are physically present in the vehicle), so each strategy runs only
    its per-architecture step — the schedule-length pass, then the cost
    pass — and the strategies differ only in how they pick hardening levels
    and re-executions, and in the mapping they converge to.  All three share
    one evaluation engine.
    """
    application = cruise_controller_application()
    node_types = cruise_controller_node_types()
    profile = cruise_controller_profile(application, node_types)
    engine = EvaluationEngine(application, profile)

    outcomes: Dict[str, CruiseControlOutcome] = {}
    for policy in POLICIES:
        algorithm = MappingAlgorithm(
            policy,
            max_iterations=CC_MAPPING_ITERATIONS,
            stop_after_no_improvement=CC_MAPPING_ITERATIONS // 2,
            max_candidates=CC_MAPPING_CANDIDATES,
        )
        strategy = DesignStrategy(node_types, algorithm)
        architecture = strategy.enumerator.build(node_types)
        chosen, _ = strategy.design_for(engine, architecture)
        if chosen is not None:
            decision = chosen.decision
        else:
            # Best-effort reporting: evaluate the greedy initial mapping at the
            # policy's starting hardening so the study can still show how far
            # from the deadline the strategy lands.
            optimizer = algorithm.redundancy_optimizer
            decision = optimizer.evaluate_hardening(
                engine,
                architecture,
                algorithm.initial_mapping(application, architecture, profile),
                optimizer.initial_hardening(architecture),
            )
        outcomes[policy] = CruiseControlOutcome(
            strategy=policy,
            schedulable=chosen is not None,
            cost=decision.cost if chosen is not None else float("inf"),
            schedule_length=decision.schedule_length,
            hardening=dict(decision.hardening),
            reexecutions=dict(decision.reexecutions),
        )
    return CruiseControlStudy(outcomes=outcomes)
