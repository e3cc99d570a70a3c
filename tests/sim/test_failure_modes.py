"""Fleet-engine failure modes and guard rails.

The sharded engine widened what ``engine="fleet"`` accepts, so the
refusals that remain are load-bearing: populations with any
non-stackable policy must raise loudly (never fall back silently), and
the support probe must handle degenerate populations.  Also pins the
``DeploymentLoop`` warm-start path — ``set_state`` into freshly
enrolled agents, then sharded stepping — against the sequential
reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB, RandomPolicy
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import FleetRunner, fleet_supported, shard_indices, shard_key
from repro.utils.exceptions import ConfigError

from _testkit import N_FEATURES, make_population


class TestFleetSupportedEdgeCases:
    def test_empty_population_not_supported(self):
        assert not fleet_supported([])

    def test_empty_population_shard_partition_is_empty(self):
        assert shard_indices([], []) == []

    def test_single_agent_population_supported(self):
        agents, sessions = make_population(
            lambda a, d, s: LinUCB(n_arms=a, n_features=d, seed=s),
            AgentMode.COLD,
            1,
            0,
        )
        assert fleet_supported(agents)
        result = FleetRunner(agents, sessions).run(3)
        assert result.rewards.shape == (1, 3)

    def test_unsupported_policy_key_is_none(self):
        agent = LocalAgent("u0", RandomPolicy(n_arms=3, n_features=N_FEATURES), mode="cold")
        assert shard_key(agent) is None
        assert not fleet_supported([agent])

    def test_warm_private_without_encoder_unreachable_but_guarded(self, kmeans_encoder):
        # LocalAgent refuses to construct warm-private without an
        # encoder, so shard_key's encoder guard is exercised by
        # forgery: a well-formed agent whose encoder was stripped.
        agents, _ = make_population(
            lambda a, d, s: CodeLinUCB(n_arms=a, n_features=d, seed=s),
            AgentMode.WARM_PRIVATE,
            1,
            0,
            encoder=kmeans_encoder,
        )
        agents[0].encoder = None
        assert shard_key(agents[0]) is None
        assert not fleet_supported(agents)
        # and the refusal names the actual cause, not the policy
        env = SyntheticPreferenceEnvironment(n_actions=4, n_features=N_FEATURES, seed=1)
        with pytest.raises(ConfigError, match="no encoder"):
            FleetRunner(agents, [env.new_user(0)])

    def test_mixed_codebook_sizes_supported(self, kmeans_encoder):
        from repro.encoding.kmeans_encoder import KMeansEncoder

        other = KMeansEncoder(
            n_codes=kmeans_encoder.n_codes // 2,
            n_features=N_FEATURES,
            n_fit_samples=300,
            seed=13,
        ).fit()
        factory = lambda a, d, s: CodeLinUCB(n_arms=a, n_features=d, seed=s)  # noqa: E731
        agents_a, sessions_a = make_population(
            factory, AgentMode.WARM_PRIVATE, 2, 0, encoder=kmeans_encoder
        )
        agents_b, sessions_b = make_population(
            factory, AgentMode.WARM_PRIVATE, 2, 1, encoder=other
        )
        mixed = agents_a + agents_b
        assert fleet_supported(mixed)
        runner = FleetRunner(mixed, sessions_a + sessions_b)
        assert runner.n_shards == 2
        runner.run(4)  # and it actually steps


class TestFleetEngineRefusals:
    def test_fleet_runner_raises_with_agent_identity(self):
        agents, sessions = make_population(
            lambda a, d, s: LinUCB(n_arms=a, n_features=d, seed=s),
            AgentMode.COLD,
            2,
            0,
        )
        bad = LocalAgent("rogue", RandomPolicy(n_arms=4, n_features=N_FEATURES), mode="cold")
        env = SyntheticPreferenceEnvironment(n_actions=4, n_features=N_FEATURES, seed=1)
        with pytest.raises(ConfigError, match="rogue"):
            FleetRunner(agents + [bad], sessions + [env.new_user(0)])

    def test_deployment_loop_engine_fleet_never_falls_back(self):
        """engine='fleet' must raise, not silently run sequentially,
        when the enrolled population loses fleet support."""
        config = P2BConfig(
            n_actions=3, n_features=N_FEATURES, n_codes=8, shuffler_threshold=1
        )
        env = SyntheticPreferenceEnvironment(n_actions=3, n_features=N_FEATURES, seed=2)
        loop = DeploymentLoop(config, env, interactions_per_round=3, seed=0, engine="fleet")
        loop.enroll(4)
        # sabotage one enrolled policy's fleet support
        loop._users[0][0].policy.supports_fleet = False
        with pytest.raises(ConfigError, match="fleet"):
            loop.run_round()

    def test_zero_interactions_rejected(self):
        agents, sessions = make_population(
            lambda a, d, s: LinUCB(n_arms=a, n_features=d, seed=s),
            AgentMode.COLD,
            2,
            0,
        )
        with pytest.raises(Exception):
            FleetRunner(agents, sessions).run(0)


class TestDeploymentLoopWarmStartSharded:
    """Satellite: warm-start (set_state into fresh cohorts) under the
    sharded engine reproduces the sequential loop round for round."""

    def _build(self, engine):
        config = P2BConfig(
            n_actions=3,
            n_features=N_FEATURES,
            n_codes=8,
            p=0.9,
            window=3,
            max_reports_per_user=3,
            shuffler_threshold=1,
        )
        env = SyntheticPreferenceEnvironment(
            n_actions=3, n_features=N_FEATURES, weight_scale=8.0, seed=2
        )
        return DeploymentLoop(config, env, interactions_per_round=5, seed=7, engine=engine)

    def test_warm_start_rounds_identical(self):
        loop_seq, loop_fleet = self._build("sequential"), self._build("fleet")
        for new_users in (6, 3):
            stats_seq = loop_seq.run_round(new_users=new_users)
            stats_fleet = loop_fleet.run_round(new_users=new_users)
            assert stats_seq == stats_fleet
        # second round ran with a mixture of warm-started (set_state)
        # and continuing agents; states must agree agent by agent
        for (sa, _), (fa, _) in zip(loop_seq._users, loop_fleet._users):
            state_seq, state_fleet = sa.policy.get_state(), fa.policy.get_state()
            for key in state_seq:
                np.testing.assert_array_equal(
                    np.asarray(state_seq[key]), np.asarray(state_fleet[key])
                )
        np.testing.assert_array_equal(
            loop_seq.mean_reward_trajectory, loop_fleet.mean_reward_trajectory
        )
