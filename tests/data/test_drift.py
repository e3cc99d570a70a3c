"""Drifting synthetic sessions: epoch semantics + fleet bit-identity.

The drifting workload is piecewise-stationary: within an epoch it obeys
the stationary plan contract, and at every boundary one uniform coin
picks switch vs drift.  The fleet engine joins via
``plan_horizon_limit()`` — chunks are capped at the earliest boundary —
so drifting fleet runs must stay bit-identical to the sequential loop
for every chunk size.  Warm populations also report: their columnar
payloads and rebuilt participation buffers must match the scalar
``record_interaction`` path, with report windows straddling epoch
boundaries, chunk boundaries and run (request) boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.linucb import LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.data import DriftingSyntheticEnvironment
from repro.encoding.kmeans_encoder import KMeansEncoder
from repro.experiments import FleetService
from repro.sim import FleetRunner
from repro.utils.exceptions import ValidationError
from repro.utils.rng import spawn_seeds

N_ACTIONS = 4
N_FEATURES = 5
EPOCH = 6


def _env(**kwargs):
    kwargs.setdefault("epoch_length", EPOCH)
    return DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7, **kwargs
    )


def _population(n_agents: int, seed: int):
    env = _env()
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = LinUCB(
            n_arms=N_ACTIONS, n_features=N_FEATURES, alpha=1.0, seed=policy_seed
        )
        agents.append(LocalAgent(f"agent-{i}", policy, mode=AgentMode.COLD))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _sequential(agents, sessions, n):
    rewards = np.empty((len(agents), n))
    for u, (agent, session) in enumerate(zip(agents, sessions)):
        for t in range(n):
            x = session.next_context()
            action = agent.act(x)
            r = session.reward(action)
            agent.learn(x, action, r)
            rewards[u, t] = r
    return rewards


class TestEpochSemantics:
    def test_preference_fixed_within_epoch(self):
        session = _env(switch_prob=1.0).new_user(3)
        first = session.next_context()
        for _ in range(EPOCH - 1):
            np.testing.assert_array_equal(session.next_context(), first)
        # boundary: a switch_prob=1.0 boundary re-draws the preference
        assert not np.array_equal(session.next_context(), first)

    def test_preference_stays_on_simplex(self):
        session = _env(switch_prob=0.0, drift_scale=0.3).new_user(5)
        for _ in range(5 * EPOCH):
            x = session.next_context()
            assert np.all(x >= 0)
            assert np.isclose(x.sum(), 1.0)

    def test_zero_drift_zero_switch_still_consumes_boundary_draws(self):
        """Even a degenerate boundary flips the coin — the RNG discipline
        both engines share."""
        drifting = _env(switch_prob=0.0, drift_scale=0.0).new_user(9)
        first = drifting.next_context()
        for _ in range(3 * EPOCH):
            drifting.next_context()
        # drift of scale 0 keeps |p + 0| / sum = p
        np.testing.assert_allclose(drifting.next_context(), first)

    def test_plan_horizon_limit_counts_down(self):
        session = _env().new_user(3)
        assert session.plan_horizon_limit() == EPOCH
        session.next_context()
        assert session.plan_horizon_limit() == EPOCH - 1
        for _ in range(EPOCH - 1):
            session.next_context()
        # at the (not yet crossed) boundary a full epoch is plannable
        assert session.plan_horizon_limit() == EPOCH

    def test_oversized_plan_rejected(self):
        session = _env().new_user(3)
        session.next_context()
        with pytest.raises(ValidationError, match="drift boundary"):
            session.plan_rewards(EPOCH)  # only EPOCH-1 stationary steps remain

    def test_plan_walk_equals_step_walk(self):
        """Planning epoch stretches reproduces stepping bit-for-bit."""
        horizon = 3 * EPOCH + 2
        actions = np.arange(horizon) % N_ACTIONS
        stepped = _env().new_user(4)
        planned = _env().new_user(4)

        step_contexts, step_rewards = [], []
        for t in range(horizon):
            step_contexts.append(stepped.next_context())
            step_rewards.append(stepped.reward(int(actions[t])))

        taken = 0
        plan_contexts, plan_rewards = [], []
        while taken < horizon:
            h = min(planned.plan_horizon_limit(), horizon - taken)
            plan = planned.plan_rewards(h)
            plan_contexts.extend([plan.context] * h)
            plan_rewards.extend(plan.realize(actions[taken : taken + h]))
            taken += h

        for a, b in zip(step_contexts, plan_contexts):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.asarray(step_rewards), np.asarray(plan_rewards))


class TestFleetBitIdentity:
    @pytest.mark.parametrize("chunk", [None, 1, 3, EPOCH, EPOCH + 5, 64])
    def test_fleet_matches_sequential_across_chunk_sizes(self, chunk):
        n, horizon = 5, 3 * EPOCH + 2
        seq_agents, seq_sessions = _population(n, seed=17)
        fleet_agents, fleet_sessions = _population(n, seed=17)

        seq_rewards = _sequential(seq_agents, seq_sessions, horizon)
        result = FleetRunner(
            fleet_agents, fleet_sessions, plan_chunk_size=chunk
        ).run(horizon)

        np.testing.assert_array_equal(seq_rewards, result.rewards)
        for a, b in zip(seq_agents, fleet_agents):
            state_a, state_b = a.policy.get_state(), b.policy.get_state()
            for key in state_a:
                np.testing.assert_array_equal(
                    np.asarray(state_a[key]), np.asarray(state_b[key]), err_msg=key
                )

    def test_mixed_drifting_and_stationary_population(self):
        """Drifting agents shard with stationary ones; both stay exact."""
        from repro.data.synthetic import SyntheticPreferenceEnvironment

        stationary_env = SyntheticPreferenceEnvironment(
            n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
        )

        def build():
            agents, sessions = _population(3, seed=23)
            for i, s in enumerate(spawn_seeds(99, 3)):
                policy_seed, session_seed = s.spawn(2)
                agents.append(
                    LocalAgent(
                        f"stat-{i}",
                        LinUCB(
                            n_arms=N_ACTIONS,
                            n_features=N_FEATURES,
                            alpha=1.0,
                            seed=policy_seed,
                        ),
                        mode=AgentMode.COLD,
                    )
                )
                sessions.append(stationary_env.new_user(session_seed))
            return agents, sessions

        seq_agents, seq_sessions = build()
        fleet_agents, fleet_sessions = build()
        seq_rewards = _sequential(seq_agents, seq_sessions, 2 * EPOCH)
        result = FleetRunner(fleet_agents, fleet_sessions, plan_chunk_size=4).run(
            2 * EPOCH
        )
        np.testing.assert_array_equal(seq_rewards, result.rewards)


@pytest.fixture(scope="module")
def codebook():
    return KMeansEncoder(n_codes=8, n_features=N_FEATURES, n_fit_samples=600, seed=3).fit()


def _warm_population(mode, seed, encoder, *, private_context="one-hot", n_agents=16):
    """Reporting agents on drifting users: window 4 straddles the
    epoch-6 boundaries, and the budget of 3 exhausts some agents."""
    env = _env()
    acting_dim = (
        encoder.n_codes
        if mode == AgentMode.WARM_PRIVATE and private_context == "one-hot"
        else N_FEATURES
    )
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        agents.append(
            LocalAgent(
                f"agent-{i}",
                LinUCB(n_arms=N_ACTIONS, n_features=acting_dim, alpha=1.0, seed=policy_seed),
                mode=mode,
                encoder=encoder if mode == AgentMode.WARM_PRIVATE else None,
                participation=RandomizedParticipation(
                    p=0.8, window=4, max_reports=3, seed=part_seed
                ),
                private_context=private_context,
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _assert_agents_identical(seq_agents, fleet_agents):
    """Policy state, counters, participation and outbox, bit for bit."""
    for a, b in zip(seq_agents, fleet_agents):
        state_a, state_b = a.policy.get_state(), b.policy.get_state()
        for key in state_a:
            np.testing.assert_array_equal(
                np.asarray(state_a[key]), np.asarray(state_b[key]), err_msg=key
            )
        assert a.n_interactions == b.n_interactions
        assert a.total_reward == b.total_reward
        pa, pb = a.participation, b.participation
        assert (pa.reports_sent, pa.windows_seen) == (pb.reports_sent, pb.windows_seen)
        assert len(pa._buffer) == len(pb._buffer)
        for (ctx_a, act_a, rew_a), (ctx_b, act_b, rew_b) in zip(pa._buffer, pb._buffer):
            np.testing.assert_array_equal(ctx_a, ctx_b)
            assert (act_a, rew_a) == (act_b, rew_b)
        box_a, box_b = a.outbox, b.outbox
        assert len(box_a) == len(box_b)
        for ra, rb in zip(box_a, box_b):
            assert type(ra) is type(rb)
            if hasattr(ra, "code"):
                assert ra.code == rb.code
            else:
                np.testing.assert_array_equal(ra.context, rb.context)
            assert (ra.action, ra.reward) == (rb.action, rb.reward)
            assert ra.metadata == rb.metadata


WARM_SETTINGS = [
    (AgentMode.WARM_PRIVATE, "one-hot"),
    (AgentMode.WARM_PRIVATE, "centroid"),
    (AgentMode.WARM_NONPRIVATE, "one-hot"),
]


class TestWarmDriftingFleet:
    """Reporting populations on drifting users record columnar, exactly."""

    @pytest.mark.parametrize("mode,private_context", WARM_SETTINGS)
    @pytest.mark.parametrize("chunk", [None, 1, 4, EPOCH, 64])
    def test_fleet_matches_sequential(self, codebook, mode, private_context, chunk):
        # two runs of 11 steps: 11 is no multiple of the window, so the
        # second run's first window also samples items buffered by the
        # first; epochs turn at 6, 12 and 18
        seq_agents, seq_sessions = _warm_population(
            mode, 31, codebook, private_context=private_context
        )
        fleet_agents, fleet_sessions = _warm_population(
            mode, 31, codebook, private_context=private_context
        )
        seq_rewards = _sequential(seq_agents, seq_sessions, 22)
        fleet = FleetRunner(fleet_agents, fleet_sessions, plan_chunk_size=chunk)
        first = fleet.run(11)
        second = fleet.run(11)

        np.testing.assert_array_equal(
            seq_rewards, np.concatenate([first.rewards, second.rewards], axis=1)
        )
        _assert_agents_identical(seq_agents, fleet_agents)
        assert any(a.participation.reports_sent for a in fleet_agents)

    def test_service_requests_straddle_report_windows(self, codebook):
        """A FleetService's requests of 4 steps cut windows of 3 and
        epochs of 5 at different places; every report stays exact."""
        config = P2BConfig(
            n_actions=N_ACTIONS,
            n_features=N_FEATURES,
            n_codes=8,
            window=3,
            max_reports_per_user=4,
            shuffler_threshold=2,
        )

        def service():
            env = _env(epoch_length=5)
            return FleetService(config, env, seed=5)

        served = service()
        served_agents = served.arrive(6)
        results = [served.interact(4) for _ in range(4)]

        twin = service()
        twin_agents = twin.arrive(6)
        seq_rewards = _sequential(twin_agents, twin.fleet.sessions, 16)

        np.testing.assert_array_equal(
            seq_rewards, np.concatenate([r.rewards for r in results], axis=1)
        )
        _assert_agents_identical(twin_agents, served_agents)
