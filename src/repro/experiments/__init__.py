"""Experiment harnesses reproducing the paper's figures and case study."""

from __future__ import annotations

from repro.experiments.motivational import (
    appendix_sfp_example,
    evaluate_fig3_alternatives,
    evaluate_fig4_alternatives,
    fig1_application,
    fig1_node_types,
    fig1_profile,
    fig3_application,
    fig3_node_type,
    fig3_profile,
)
from repro.experiments.synthetic import (
    AcceptanceExperiment,
    ExperimentPreset,
    SettingResult,
)
from repro.experiments.cruise_control import (
    cruise_controller_application,
    cruise_controller_node_types,
    cruise_controller_profile,
    run_cruise_controller_study,
)

__all__ = [
    "AcceptanceExperiment",
    "ExperimentPreset",
    "SettingResult",
    "appendix_sfp_example",
    "cruise_controller_application",
    "cruise_controller_node_types",
    "cruise_controller_profile",
    "evaluate_fig3_alternatives",
    "evaluate_fig4_alternatives",
    "fig1_application",
    "fig1_node_types",
    "fig1_profile",
    "fig3_application",
    "fig3_node_type",
    "fig3_profile",
    "run_cruise_controller_study",
]
