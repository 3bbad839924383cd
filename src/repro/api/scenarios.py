"""Built-in scenarios: the paper's figures and case study, registered.

Every experiment the repository can reproduce is declared here as a
scenario behind the common :class:`~repro.api.registry.ScenarioSpec`
contract — the motivational examples (Fig. 3/4 + Appendix A.2), the four
synthetic acceptance-rate figures (6a–6d) and the cruise-controller case
study.  ``repro-ftes run <scenario>`` prints the tables these runners
render, so they are the single source of the printed output.

Payload conventions (shared with the golden fixtures under
``tests/golden/``): sweep settings are keyed ``f"{value:g}"`` (``"5"``,
``"1e-11"``), dataclasses are flattened with :func:`dataclasses.asdict`,
and everything is JSON-native so :class:`~repro.api.report.RunReport`
round-trips losslessly.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Dict, List, Mapping

from repro.api.registry import ScenarioOutcome, register_scenario
from repro.core.fault_model import SER_MEDIUM
from repro.experiments.cruise_control import run_cruise_controller_study
from repro.experiments.motivational import (
    appendix_sfp_example,
    evaluate_fig3_alternatives,
    evaluate_fig4_alternatives,
)
from repro.experiments.results import format_table
from repro.experiments.synthetic import (
    PAPER_ARC_VALUES,
    PAPER_HPD_VALUES,
    PAPER_SER_VALUES,
    render_arc_table,
    render_sweep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session


def _g_keyed(mapping: Mapping[float, object]) -> Dict[str, object]:
    """Normalize numeric sweep keys to the golden fixtures' ``%g`` strings."""
    return {f"{key:g}": value for key, value in mapping.items()}


# ----------------------------------------------------------------------
# Motivational examples (Fig. 3 / Fig. 4 / Appendix A.2)
# ----------------------------------------------------------------------
@register_scenario(
    "motivational",
    title="Fig. 3/4 motivational examples + Appendix A.2 SFP computation",
    description=(
        "Hardware vs. software recovery for a single process, the five "
        "architecture alternatives of Fig. 4, and the worked SFP example"
    ),
    figure="3/4/A.2",
)
def run_motivational(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    fig3 = evaluate_fig3_alternatives()
    fig3_rows = [
        [
            outcome.label,
            outcome.reexecutions.get("N1", 0),
            outcome.schedule_length,
            outcome.cost,
            "yes" if outcome.schedulable else "no",
        ]
        for outcome in fig3
    ]
    fig4 = evaluate_fig4_alternatives()
    fig4_rows = [
        [
            label,
            ", ".join(f"{node}^{level}" for node, level in outcome.hardening.items()),
            ", ".join(f"{node}:{k}" for node, k in outcome.reexecutions.items()),
            outcome.schedule_length,
            outcome.cost,
            "yes" if outcome.schedulable else "no",
        ]
        for label, outcome in fig4.items()
    ]
    appendix = appendix_sfp_example()
    lines: List[str] = [
        format_table(
            ["h-version", "k", "worst-case SL (ms)", "cost", "schedulable"],
            fig3_rows,
            title="Fig. 3 — hardware vs. software recovery (single process)",
        ),
        "",
        format_table(
            ["alt", "h-versions", "re-executions", "worst-case SL (ms)", "cost", "schedulable"],
            fig4_rows,
            title="Fig. 4 — architecture alternatives for the Fig. 1 application",
        ),
        "",
        "Appendix A.2 — worked SFP example",
    ]
    lines.extend(f"  {key} = {value:.12g}" for key, value in appendix.items())
    payload = {
        "fig3": [asdict(outcome) for outcome in fig3],
        "fig4": {label: asdict(outcome) for label, outcome in fig4.items()},
        "appendix": appendix,
    }
    return ScenarioOutcome(payload=payload, text="\n".join(lines))


# ----------------------------------------------------------------------
# Synthetic acceptance-rate experiments (Fig. 6a–6d)
# ----------------------------------------------------------------------
#: The fixed setting of each Fig. 6 sweep: the SER of Fig. 6a/6b, the HPD
#: (in percent) of Fig. 6c and of Fig. 6d, and the maximum architectural
#: cost of Fig. 6a, 6c and 6d.  The generator-backed scenario families
#: accept designs under the same cost cap.
FIG6AB_SER = SER_MEDIUM
FIG6C_HPD = 5.0
FIG6D_HPD = 100.0
FIG6_ARC = 20.0

FIG6A_TITLE = f"Fig. 6a — % accepted vs. HPD (SER={FIG6AB_SER:g}, ArC={FIG6_ARC:g})"
FIG6B_TITLE = f"Fig. 6b — % accepted vs. (HPD, ArC) at SER={FIG6AB_SER:g}"
FIG6C_TITLE = f"Fig. 6c — % accepted vs. SER (HPD={FIG6C_HPD:g}%, ArC={FIG6_ARC:g})"
FIG6D_TITLE = f"Fig. 6d — % accepted vs. SER (HPD={FIG6D_HPD:g}%, ArC={FIG6_ARC:g})"


def _accepted(session: "Session", ser: float, hpd: float, max_cost: float) -> Dict[str, float]:
    """% accepted per strategy at one (SER, HPD) setting of the session's experiment.

    The experiment memoizes each setting, so every figure counts acceptance
    under its cost caps from the same strategy runs (as Section 7 does).
    """
    return session.experiment().run_setting(ser, hpd).acceptance_percent(max_cost)


@register_scenario(
    "fig6a",
    title=FIG6A_TITLE,
    description="MIN/MAX/OPT acceptance over the hardening performance degradation sweep",
    figure="6a",
)
def run_fig6a(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    sweep = {hpd: _accepted(session, FIG6AB_SER, hpd, FIG6_ARC) for hpd in PAPER_HPD_VALUES}
    payload = {
        "figure": "6a",
        "preset": session.config.preset,
        "ser": FIG6AB_SER,
        "max_cost": FIG6_ARC,
        "acceptance": _g_keyed(sweep),
    }
    return ScenarioOutcome(payload=payload, text=render_sweep(sweep, FIG6A_TITLE))


@register_scenario(
    "fig6b",
    title=FIG6B_TITLE,
    description="MIN/MAX/OPT acceptance per (HPD, maximum architectural cost) pair",
    figure="6b",
)
def run_fig6b(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    table = {
        hpd: {arc: _accepted(session, FIG6AB_SER, hpd, arc) for arc in PAPER_ARC_VALUES}
        for hpd in PAPER_HPD_VALUES
    }
    payload = {
        "figure": "6b",
        "preset": session.config.preset,
        "ser": FIG6AB_SER,
        "acceptance": {
            f"{hpd:g}": _g_keyed(per_arc) for hpd, per_arc in table.items()
        },
    }
    return ScenarioOutcome(payload=payload, text=render_arc_table(table, FIG6B_TITLE))


def _by_ser_outcome(
    session: "Session", figure: str, hpd: float, title: str
) -> ScenarioOutcome:
    """Fig. 6c / 6d: acceptance over the three technologies at one HPD."""
    sweep = {ser: _accepted(session, ser, hpd, FIG6_ARC) for ser in PAPER_SER_VALUES}
    payload = {
        "figure": figure,
        "preset": session.config.preset,
        "hpd": hpd,
        "max_cost": FIG6_ARC,
        "acceptance": _g_keyed(sweep),
    }
    return ScenarioOutcome(payload=payload, text=render_sweep(sweep, title))


@register_scenario(
    "fig6c",
    title=FIG6C_TITLE,
    description="MIN/MAX/OPT acceptance over the soft-error-rate sweep at low HPD",
    figure="6c",
)
def run_fig6c(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    return _by_ser_outcome(session, "6c", FIG6C_HPD, FIG6C_TITLE)


@register_scenario(
    "fig6d",
    title=FIG6D_TITLE,
    description="MIN/MAX/OPT acceptance over the soft-error-rate sweep at high HPD",
    figure="6d",
)
def run_fig6d(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    return _by_ser_outcome(session, "6d", FIG6D_HPD, FIG6D_TITLE)


# ----------------------------------------------------------------------
# Cruise-controller case study (Section 7)
# ----------------------------------------------------------------------
@register_scenario(
    "cruise-control",
    title="Vehicle cruise controller case study (D=300 ms, rho=1-1.2e-5)",
    description="MIN/MAX/OPT on the fixed three-ECU architecture; OPT ~66% cheaper than MAX",
    figure="Section 7",
)
def run_cruise_control(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    study = run_cruise_controller_study()
    rows = []
    for strategy, outcome in study.outcomes.items():
        rows.append(
            [
                strategy,
                "yes" if outcome.schedulable else "no",
                outcome.cost if outcome.schedulable else float("inf"),
                outcome.schedule_length,
                ", ".join(f"{node}^{level}" for node, level in outcome.hardening.items()),
                ", ".join(f"{node}:{k}" for node, k in outcome.reexecutions.items()),
            ]
        )
    text = "\n".join(
        [
            format_table(
                [
                    "strategy",
                    "schedulable",
                    "cost",
                    "worst-case SL (ms)",
                    "h-versions",
                    "re-executions",
                ],
                rows,
                title="Cruise controller case study (D=300 ms, rho=1-1.2e-5)",
            ),
            "",
            f"OPT cost saving over MAX: {study.opt_saving_vs_max * 100:.1f}%",
        ]
    )
    payload = {
        "outcomes": {
            strategy: asdict(outcome) for strategy, outcome in study.outcomes.items()
        },
        "opt_saving_vs_max": study.opt_saving_vs_max,
    }
    return ScenarioOutcome(payload=payload, text=text)
