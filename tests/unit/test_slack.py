"""Unit tests for the recovery-slack computations."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ModelError
from repro.scheduling.slack import shared_recovery_slack


class TestSharedRecoverySlack:
    def test_empty_node_has_no_slack(self):
        assert shared_recovery_slack([], 3) == 0.0

    def test_zero_budget_has_no_slack(self):
        assert shared_recovery_slack([(10.0, 1.0)], 0) == 0.0

    def test_single_process_matches_paper_formula(self):
        # Fig. 2a: k=2, t=30, mu=5 -> slack 2 * 35 = 70.
        assert shared_recovery_slack([(30.0, 5.0)], 2) == pytest.approx(70.0)

    def test_shared_slack_takes_worst_single_victim(self):
        pairs = [(75.0, 15.0), (90.0, 15.0)]
        assert shared_recovery_slack(pairs, 1) == pytest.approx(105.0)

    def test_grows_linearly_with_budget(self):
        pairs = [(10.0, 2.0), (20.0, 2.0)]
        assert shared_recovery_slack(pairs, 4) == pytest.approx(4 * 22.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ModelError):
            shared_recovery_slack([(10.0, 1.0)], -1)

