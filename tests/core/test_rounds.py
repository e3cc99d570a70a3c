"""Tests for repro.core.rounds — the multi-round deployment loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DeploymentLoop, P2BConfig
from repro.data import SyntheticPreferenceEnvironment
from repro.utils.exceptions import ConfigError


def _loop(max_reports=1, refresh=True, seed=0, **config_overrides) -> DeploymentLoop:
    config = P2BConfig(
        n_actions=5,
        n_features=6,
        n_codes=16,
        p=0.5,
        window=5,
        shuffler_threshold=1,
        max_reports_per_user=max_reports,
        **config_overrides,
    )
    env = SyntheticPreferenceEnvironment(
        n_actions=5, n_features=6, weight_scale=8.0, seed=seed
    )
    return DeploymentLoop(
        config=config, env=env, interactions_per_round=5, refresh=refresh, seed=seed
    )


class TestDeploymentLoop:
    def test_round_without_users_raises(self):
        with pytest.raises(ConfigError, match="no users"):
            _loop().run_round()

    def test_single_round_stats(self):
        loop = _loop()
        stats = loop.run_round(new_users=100)
        assert stats.round_index == 0
        assert stats.n_active_users == 100
        assert 0 < stats.n_reports <= 100
        assert stats.n_released <= stats.n_reports

    def test_population_grows_across_rounds(self):
        loop = _loop()
        loop.run_round(new_users=50)
        stats = loop.run_round(new_users=30)
        assert stats.n_active_users == 80
        assert len(loop.rounds) == 2

    def test_lifetime_report_budget_respected(self):
        loop = _loop(max_reports=1)
        for _ in range(4):
            loop.run_round(new_users=25)
        assert loop.max_reports_by_any_user() <= 1

    def test_composition_accounting_tracks_realized_reports(self):
        loop = _loop(max_reports=3)
        for _ in range(6):
            loop.run_round(new_users=20)
        report = loop.privacy_report()
        realized = loop.max_reports_by_any_user()
        assert 1 <= realized <= 3
        assert report.epsilon_total == pytest.approx(realized * report.epsilon)

    def test_trajectory_length(self):
        loop = _loop()
        for _ in range(3):
            loop.run_round(new_users=30)
        assert loop.mean_reward_trajectory.shape == (3,)

    def test_refresh_pulls_central_model(self):
        loop = _loop(refresh=True)
        loop.run_round(new_users=120)
        ingested = loop.system.server.n_tuples_ingested
        if ingested == 0:
            pytest.skip("no released tuples this seed")
        loop.run_round()
        agent, _ = loop._users[0]
        # two rounds of local learning alone give t = 10; the refresh
        # grafts the central model's observation count on top
        assert agent.policy.t > 2 * loop.interactions_per_round

    def test_reward_improves_with_rounds(self):
        """The Fig. 1 loop pays off: later rounds earn more than round 0."""
        loop = _loop(max_reports=1, seed=3)
        loop.run_round(new_users=400)
        for _ in range(2):
            loop.run_round()
        trajectory = loop.mean_reward_trajectory
        assert trajectory[-1] >= trajectory[0] - 0.005

    def test_reproducible(self):
        def run():
            loop = _loop(seed=9)
            loop.run_round(new_users=40)
            loop.run_round(new_users=10)
            return loop.mean_reward_trajectory

        np.testing.assert_array_equal(run(), run())


class TestEnrollSeeding:
    def test_enrollments_continue_the_user_seed_stream(self):
        """Bulk enrollment deals each user the session stream the old
        per-user ``spawn_seeds(user_root, n)`` loop did, across calls."""
        from repro.utils.rng import spawn_seeds

        loop = _loop(seed=5)
        loop.enroll(3)
        loop.run_round()
        loop.enroll(4)
        user_root = spawn_seeds(5, 2)[1]
        reference = _loop(seed=5).env
        want = [reference.new_user(s) for s in spawn_seeds(user_root, 3)]
        want += [reference.new_user(s) for s in spawn_seeds(user_root, 4)]
        got = [session for _, session in loop._users]
        assert len(got) == len(want)
        for g, w in zip(got[3:], want[3:]):
            np.testing.assert_array_equal(g.preference, w.preference)
            assert g._rng.bit_generator.state == w._rng.bit_generator.state
        for g, w in zip(got[:3], want[:3]):  # these have interacted since
            np.testing.assert_array_equal(g.preference, w.preference)
        assert [agent.agent_id for agent, _ in loop._users] == [f"agent-{k}" for k in range(1, 8)]
