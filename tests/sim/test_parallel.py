"""Parallel shard stepping: identical to serial, by construction.

Shards share no mutable state, so ``FleetRunner(n_workers=k)`` stepping
them concurrently (threads) — or running whole shards in worker
processes (``worker_backend="process"``) — must produce bit-identical
rewards, actions, policy states and outboxes.  These tests pin that,
plus the ``n_workers`` plumbing through ``run_setting`` and
``DeploymentLoop`` and the validation guard rails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import get_default_config, run_setting, use_config
from repro.sim import FleetRunner
from repro.utils.exceptions import ConfigError
from repro.utils.rng import spawn_seeds

from _testkit import N_FEATURES, assert_outboxes_equal, assert_states_equal

N_ACTIONS = 4

_ML_DATASET = make_multilabel_dataset(90, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)


def _mixed_population(seed, n_agents=12):
    """Three policy kinds over two session kinds => multiple shards,
    some traced (multilabel) and some stationary (synthetic)."""
    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    ml = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=6, seed=1)
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(
            (ml if i % 2 else syn).new_user(session_seed)
        )
    return agents, sessions


def _assert_runs_identical(result_a, result_b, agents_a, agents_b):
    np.testing.assert_array_equal(result_a.rewards, result_b.rewards)
    np.testing.assert_array_equal(result_a.actions, result_b.actions)
    if result_a.expected is not None:
        np.testing.assert_array_equal(result_a.expected, result_b.expected)
        np.testing.assert_array_equal(result_a.expected_mask, result_b.expected_mask)
    for a, b in zip(agents_a, agents_b):
        assert_states_equal(a.policy, b.policy)
    assert_outboxes_equal(agents_a, agents_b)


class TestThreadBackend:
    def test_parallel_identical_to_serial(self):
        a1, s1 = _mixed_population(0)
        serial = FleetRunner(a1, s1)
        assert serial.n_shards == 6  # 3 policy kinds x {traced, stationary}
        r1 = serial.run(14, track_expected=True)

        a2, s2 = _mixed_population(0)
        r2 = FleetRunner(a2, s2, n_workers=3).run(14, track_expected=True)
        _assert_runs_identical(r1, r2, a1, a2)

    def test_more_workers_than_shards_is_fine(self):
        a1, s1 = _mixed_population(3)
        r1 = FleetRunner(a1, s1).run(6)
        a2, s2 = _mixed_population(3)
        r2 = FleetRunner(a2, s2, n_workers=64).run(6)
        _assert_runs_identical(r1, r2, a1, a2)

    def test_single_shard_population_unaffected(self):
        def build(seed):
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
            )
            agents, sessions = [], []
            for i, s in enumerate(spawn_seeds(seed, 5)):
                ps, ss = s.spawn(2)
                agents.append(
                    LocalAgent(
                        f"u{i}",
                        LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=ps),
                        mode="cold",
                    )
                )
                sessions.append(env.new_user(ss))
            return agents, sessions

        a1, s1 = build(4)
        r1 = FleetRunner(a1, s1).run(7)
        a2, s2 = build(4)
        r2 = FleetRunner(a2, s2, n_workers=8).run(7)
        _assert_runs_identical(r1, r2, a1, a2)


class TestProcessBackend:
    def test_process_identical_to_serial(self):
        a1, s1 = _mixed_population(1)
        r1 = FleetRunner(a1, s1).run(10, track_expected=True)

        a2, s2 = _mixed_population(1)
        r2 = FleetRunner(a2, s2, n_workers=3, worker_backend="process").run(
            10, track_expected=True
        )
        _assert_runs_identical(r1, r2, a1, a2)

    def test_process_preserves_agent_and_session_identity(self):
        agents, sessions = _mixed_population(2)
        runner = FleetRunner(agents, sessions, n_workers=2, worker_backend="process")
        runner.run(5)
        # the caller-visible objects are the ones that got the state
        assert runner.agents[0] is agents[0]
        assert runner.sessions[0] is sessions[0]
        assert all(a.n_interactions == 5 for a in agents)
        # a second run continues from the adopted state (streams moved)
        again = runner.run(5)
        assert again.rewards.shape == (len(agents), 5)
        assert all(a.n_interactions == 10 for a in agents)

    def test_process_backend_honored_for_single_shard(self):
        """An explicit process request is not silently dropped when the
        population happens to form one shard."""

        def build(seed):
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
            )
            agents, sessions = [], []
            for i, s in enumerate(spawn_seeds(seed, 4)):
                ps, ss = s.spawn(2)
                agents.append(
                    LocalAgent(
                        f"u{i}",
                        LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=ps),
                        mode="cold",
                    )
                )
                sessions.append(env.new_user(ss))
            return agents, sessions

        a1, s1 = build(6)
        r1 = FleetRunner(a1, s1).run(6)
        a2, s2 = build(6)
        runner = FleetRunner(a2, s2, n_workers=2, worker_backend="process")
        assert runner.n_shards == 1
        r2 = runner.run(6)
        _assert_runs_identical(r1, r2, a1, a2)

    def test_process_drain_outboxes_sees_adopted_reports(self):
        def build(seed):
            syn = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
            )
            from repro.core.participation import RandomizedParticipation

            agents, sessions = [], []
            for i, s in enumerate(spawn_seeds(seed, 6)):
                ps, parts, ss = s.spawn(3)
                kind = LinUCB if i % 2 else EpsilonGreedy
                agents.append(
                    LocalAgent(
                        f"u{i}",
                        kind(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=ps),
                        mode=AgentMode.WARM_NONPRIVATE,
                        participation=RandomizedParticipation(
                            p=0.9, window=3, max_reports=2, seed=parts
                        ),
                    )
                )
                sessions.append(syn.new_user(ss))
            return agents, sessions

        a1, s1 = build(5)
        serial = FleetRunner(a1, s1)
        serial.run(8)
        a2, s2 = build(5)
        parallel = FleetRunner(a2, s2, n_workers=2, worker_backend="process")
        parallel.run(8)
        assert serial.drain_outboxes() == parallel.drain_outboxes()


class TestValidationAndPlumbing:
    def test_invalid_n_workers_rejected(self):
        agents, sessions = _mixed_population(0, n_agents=3)
        with pytest.raises(Exception):
            FleetRunner(agents, sessions, n_workers=0)

    def test_invalid_backend_rejected(self):
        agents, sessions = _mixed_population(0, n_agents=3)
        with pytest.raises(ConfigError, match="worker_backend"):
            FleetRunner(agents, sessions, worker_backend="gpu")

    def test_default_n_workers_round_trip(self):
        assert get_default_config().n_workers == 1
        with use_config(n_workers=4):
            assert get_default_config().n_workers == 4
        assert get_default_config().n_workers == 1

    def test_run_setting_n_workers_identical(self):
        config = P2BConfig(n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8)

        def env():
            return SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=2
            )

        results = [
            run_setting(
                env(),
                config,
                AgentMode.COLD,
                n_eval_agents=6,
                eval_interactions=8,
                seed=13,
                engine="fleet",
                n_workers=w,
            )
            for w in (1, 3)
        ]
        assert results[0].mean_reward == results[1].mean_reward
        np.testing.assert_array_equal(results[0].curve, results[1].curve)

    def test_deployment_loop_n_workers_identical(self):
        config = P2BConfig(
            n_actions=N_ACTIONS,
            n_features=N_FEATURES,
            n_codes=8,
            p=0.9,
            window=4,
            shuffler_threshold=1,
        )

        def build(n_workers):
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=2
            )
            return DeploymentLoop(
                config, env, interactions_per_round=5, seed=11, n_workers=n_workers
            )

        loop_serial, loop_parallel = build(1), build(2)
        for new_users in (8, 4):
            assert loop_serial.run_round(new_users=new_users) == loop_parallel.run_round(
                new_users=new_users
            )

    def test_cli_workers_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig3", "--workers", "3"])
        assert args.workers == 3
