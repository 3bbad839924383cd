"""The paper's qualitative claims on the fast preset, and three ablations.

Fig. 6a-6d are read setting by setting from the session-shared
``fast_experiment`` fixture at each figure's fixed setting, so each
(SER, HPD) setting is evaluated once per test session (the golden tests
read the same settings).  Every assertion is parametrized over the
swept axis or the instance, so a failure names the setting that broke the
claim:

* Fig. 6a (SER=1e-11, ArC=20): MIN is flat over HPD, MAX degrades, OPT
  dominates both baselines at every HPD.
* Fig. 6b (SER=1e-11): relaxing the cost cap ArC never hurts a strategy,
  and OPT dominates every (HPD, ArC) cell.
* Fig. 6c (HPD=5 %, ArC=20): MIN degrades as the error rate grows, OPT
  dominates at every SER, and the OPT-MIN gap is largest at the highest SER.
* Fig. 6d (HPD=100 %, ArC=20): OPT dominates at every SER, and MAX is no
  better than at HPD=5 %.

The ablations measure what three parts of the paper's stack buy: the tabu
search over the greedy initial mapping (Section 6.2), the heuristic stack
against the exhaustive optimum on enumerable instances, and shared over
per-process recovery slack (Section 6.4).
"""

from __future__ import annotations

from itertools import product
from typing import Dict

import pytest

from repro.api.scenarios import FIG6_ARC, FIG6AB_SER, FIG6C_HPD, FIG6D_HPD
from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.mapping import MappingAlgorithm, Objective
from repro.core.reexecution import ReExecutionOpt
from repro.engine import EvaluationEngine
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile
from repro.experiments.synthetic import (
    PAPER_ARC_VALUES,
    PAPER_HPD_VALUES,
    PAPER_SER_VALUES,
)
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark
from repro.scheduling.list_scheduler import ListScheduler

HPD_LOW, HPD_HIGH = PAPER_HPD_VALUES[0], PAPER_HPD_VALUES[-1]
ARC_LOW, ARC_HIGH = PAPER_ARC_VALUES[0], PAPER_ARC_VALUES[-1]
SER_LOW, SER_HIGH = PAPER_SER_VALUES[0], PAPER_SER_VALUES[-1]
INFEASIBLE = float("inf")


# ----------------------------------------------------------------------
# Fig. 6a-6d
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig6a(fast_experiment):
    return {
        hpd: fast_experiment.run_setting(FIG6AB_SER, hpd).acceptance_percent(FIG6_ARC)
        for hpd in PAPER_HPD_VALUES
    }


@pytest.fixture(scope="module")
def fig6b(fast_experiment):
    return {
        hpd: {
            arc: fast_experiment.run_setting(FIG6AB_SER, hpd).acceptance_percent(arc)
            for arc in PAPER_ARC_VALUES
        }
        for hpd in PAPER_HPD_VALUES
    }


def _by_ser(experiment, hpd):
    return {
        ser: experiment.run_setting(ser, hpd).acceptance_percent(FIG6_ARC)
        for ser in PAPER_SER_VALUES
    }


@pytest.fixture(scope="module")
def fig6c(fast_experiment):
    return _by_ser(fast_experiment, FIG6C_HPD)


@pytest.fixture(scope="module")
def fig6d(fast_experiment):
    return _by_ser(fast_experiment, FIG6D_HPD)


@pytest.mark.parametrize("hpd", PAPER_HPD_VALUES[1:])
def test_fig6a_min_is_flat_over_hpd(fig6a, hpd):
    # MIN ignores hardening, hence its degradation too.
    assert fig6a[hpd]["MIN"] == fig6a[HPD_LOW]["MIN"]


def test_fig6a_max_degrades_with_hpd(fig6a):
    assert fig6a[HPD_HIGH]["MAX"] <= fig6a[HPD_LOW]["MAX"]


@pytest.mark.parametrize("hpd", PAPER_HPD_VALUES)
def test_fig6a_opt_dominates(fig6a, hpd):
    assert fig6a[hpd]["OPT"] >= fig6a[hpd]["MIN"]
    assert fig6a[hpd]["OPT"] >= fig6a[hpd]["MAX"]


@pytest.mark.parametrize("hpd", PAPER_HPD_VALUES)
def test_fig6b_relaxing_the_cost_cap_never_hurts(fig6b, hpd):
    for strategy in ("MIN", "MAX", "OPT"):
        assert fig6b[hpd][ARC_HIGH][strategy] >= fig6b[hpd][ARC_LOW][strategy]


@pytest.mark.parametrize("hpd,arc", list(product(PAPER_HPD_VALUES, PAPER_ARC_VALUES)))
def test_fig6b_opt_dominates(fig6b, hpd, arc):
    cell = fig6b[hpd][arc]
    assert cell["OPT"] >= cell["MIN"]
    assert cell["OPT"] >= cell["MAX"]


def test_fig6c_min_degrades_with_error_rate(fig6c):
    assert fig6c[SER_HIGH]["MIN"] <= fig6c[SER_LOW]["MIN"]


@pytest.mark.parametrize("ser", PAPER_SER_VALUES)
def test_fig6c_opt_dominates(fig6c, ser):
    assert fig6c[ser]["OPT"] >= fig6c[ser]["MIN"]
    assert fig6c[ser]["OPT"] >= fig6c[ser]["MAX"]


def test_fig6c_opt_min_gap_grows_with_error_rate(fig6c):
    def gap(ser: float) -> float:
        return fig6c[ser]["OPT"] - fig6c[ser]["MIN"]

    assert gap(SER_HIGH) >= gap(SER_LOW)


@pytest.mark.parametrize("ser", PAPER_SER_VALUES)
def test_fig6d_opt_dominates(fig6d, ser):
    assert fig6d[ser]["OPT"] >= fig6d[ser]["MIN"]
    assert fig6d[ser]["OPT"] >= fig6d[ser]["MAX"]


@pytest.mark.parametrize("ser", PAPER_SER_VALUES)
def test_fig6d_max_at_hpd100_is_no_better_than_at_hpd5(fig6c, fig6d, ser):
    assert fig6d[ser]["MAX"] <= fig6c[ser]["MAX"]


# ----------------------------------------------------------------------
# Ablation: tabu-search mapping vs. the greedy initial mapping
# ----------------------------------------------------------------------
TABU_SEEDS = tuple(range(11, 17))


@pytest.fixture(scope="module")
def tabu_vs_greedy() -> Dict[int, Dict[str, float]]:
    """Schedule length per seed: greedy only (0 tabu iterations) vs. tabu."""
    rows = {}
    for seed in TABU_SEEDS:
        instance = generate_benchmark(
            seed, config=BenchmarkConfig(n_processes=14, n_node_types=3)
        )
        node_types, profile = build_platform(instance, 1e-11, 25.0)
        architecture = Architecture([Node(nt.name, nt) for nt in node_types[:2]])
        lengths = {}
        for name, algorithm in (
            ("greedy", MappingAlgorithm(max_iterations=0)),
            ("tabu", MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3)),
        ):
            result = algorithm.optimize(
                EvaluationEngine(instance.application, profile),
                architecture,
                objective=Objective.SCHEDULE_LENGTH,
            )
            lengths[name] = result.schedule_length if result else INFEASIBLE
        rows[seed] = lengths
    return rows


@pytest.mark.parametrize("seed", TABU_SEEDS)
def test_tabu_mapping_is_never_worse_than_greedy(tabu_vs_greedy, seed):
    # An infeasible mapping counts as an infinite schedule length.
    row = tabu_vs_greedy[seed]
    assert row["tabu"] <= row["greedy"] + 1e-9


def test_tabu_mapping_solves_some_instance(tabu_vs_greedy):
    assert any(row["tabu"] != INFEASIBLE for row in tabu_vs_greedy.values())


# ----------------------------------------------------------------------
# Ablation: heuristic stack vs. exhaustive optimum on small instances
# ----------------------------------------------------------------------
OPTIMALITY_SEEDS = tuple(range(31, 35))
OPTIMALITY_INSTANCES = ("fig1",) + tuple(f"seed{seed}" for seed in OPTIMALITY_SEEDS)


def _heuristic_and_optimum(node_types, application, profile) -> Dict[str, float]:
    heuristic = DesignStrategy(
        node_types, mapping_algorithm=MappingAlgorithm(max_iterations=6)
    ).explore(EvaluationEngine(application, profile))
    optimal = ExhaustiveSearch(node_types, max_nodes=2).explore(
        EvaluationEngine(application, profile)
    )
    return {
        "heuristic": heuristic.cost if heuristic.feasible else INFEASIBLE,
        "optimal": optimal.cost if optimal.feasible else INFEASIBLE,
    }


@pytest.fixture(scope="module")
def heuristic_vs_exhaustive() -> Dict[str, Dict[str, float]]:
    """Design cost per instance: the paper's heuristic vs. the optimum."""
    rows = {
        "fig1": _heuristic_and_optimum(
            list(fig1_node_types()), fig1_application(), fig1_profile()
        )
    }
    config = BenchmarkConfig(n_processes=6, n_node_types=2)
    for seed in OPTIMALITY_SEEDS:
        instance = generate_benchmark(seed, config=config)
        node_types, profile = build_platform(instance, 1e-11, 25.0)
        rows[f"seed{seed}"] = _heuristic_and_optimum(
            node_types, instance.application, profile
        )
    return rows


@pytest.mark.parametrize("instance", OPTIMALITY_INSTANCES)
def test_heuristic_never_beats_the_optimum(heuristic_vs_exhaustive, instance):
    row = heuristic_vs_exhaustive[instance]
    if row["optimal"] != INFEASIBLE and row["heuristic"] != INFEASIBLE:
        assert row["heuristic"] >= row["optimal"] - 1e-9


def test_heuristic_mean_optimality_gap_is_bounded(heuristic_vs_exhaustive):
    solvable = [
        row for row in heuristic_vs_exhaustive.values() if row["optimal"] != INFEASIBLE
    ]
    assert solvable, "the exhaustive search should solve at least one instance"
    solved_both = [row for row in solvable if row["heuristic"] != INFEASIBLE]
    assert solved_both
    mean_gap = sum(row["heuristic"] / row["optimal"] for row in solved_both) / len(
        solved_both
    )
    assert mean_gap <= 2.0


# ----------------------------------------------------------------------
# Ablation: shared vs. naive per-process recovery slack
# ----------------------------------------------------------------------
SLACK_SEEDS = tuple(range(1, 7))


def naive_slack_length(schedule, application, budgets) -> float:
    """Worst-case length had every process reserved its own recovery slack.

    The root schedule does not depend on the slack, so the naive per-process
    bound ``k_n * sum(t + mu)`` is added to the shared-slack schedule's node
    completions in place of the shared ``k_n * max(t + mu)``.
    """
    message_finish = max((entry.finish for entry in schedule.messages), default=0.0)
    node_lengths = [
        schedule.node_completion(node)
        + budgets.get(node, 0)
        * sum(
            entry.duration + application.recovery_overhead_of(entry.process)
            for entry in schedule.processes_on(node)
        )
        for node in schedule.nodes()
    ]
    return max(node_lengths + [message_finish])


@pytest.fixture(scope="module")
def slack_sharing() -> Dict[int, Dict[str, float]]:
    """Worst-case schedule length per seed with shared and naive slack."""
    rows = {}
    for seed in SLACK_SEEDS:
        instance = generate_benchmark(
            seed, config=BenchmarkConfig(n_processes=16, n_node_types=3)
        )
        node_types, profile = build_platform(instance, 1e-11, 25.0)
        architecture = Architecture([Node(nt.name, nt) for nt in node_types[:2]])
        application = instance.application
        mapping = MappingAlgorithm().initial_mapping(application, architecture, profile)
        decision = ReExecutionOpt().optimize(
            EvaluationEngine(application, profile), architecture, mapping
        )
        budgets = decision.reexecutions if decision is not None else {}
        shared = ListScheduler().schedule(
            application, architecture, mapping, profile, budgets
        )
        naive = naive_slack_length(shared, application, budgets)
        rows[seed] = {
            "k_total": sum(budgets.values()),
            "shared": shared.length,
            "naive": naive,
            "ratio": naive / shared.length if shared.length else 1.0,
        }
    return rows


@pytest.mark.parametrize("seed", SLACK_SEEDS)
def test_naive_slack_is_never_shorter_than_shared(slack_sharing, seed):
    row = slack_sharing[seed]
    assert row["naive"] >= row["shared"] - 1e-9


def test_shared_slack_shortens_schedules_with_budgets(slack_sharing):
    with_budget = [row for row in slack_sharing.values() if row["k_total"] > 0]
    assert with_budget, "expected at least one instance that needs re-executions"
    mean_ratio = sum(row["ratio"] for row in with_budget) / len(with_budget)
    assert mean_ratio > 1.05
