"""The stationary plan path's encode cache, counted.

Warm-private shards keep an ``(n, d)`` cache of the contexts they
encoded and re-encode only rows whose context changed, one
``encode_batch`` call per encoder group.  A counting encoder makes the
work visible: a persistent shard's second run encodes nothing, a
drifting shard re-encodes exactly its drifted agents, and no plan path
ever calls scalar ``encode``.  Every case is also checked against the
sequential loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data import DriftingSyntheticEnvironment
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding.base import Encoder
from repro.encoding.kmeans_encoder import KMeansEncoder
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

from _testkit import (
    N_ACTIONS,
    N_FEATURES,
    assert_outboxes_equal,
    assert_states_equal,
    simulate_sequential,
)

EPOCH = 6


class CountingEncoder(Encoder):
    """Delegates to a fitted encoder and counts what it encodes."""

    def __init__(self, inner: Encoder) -> None:
        self.inner = inner
        self.n_codes = inner.n_codes
        self.n_features = inner.n_features
        self.scalar_calls = 0
        self.batch_rows = 0

    def encode(self, context):
        self.scalar_calls += 1
        return self.inner.encode(context)

    def encode_batch(self, contexts):
        self.batch_rows += len(contexts)
        return self.inner.encode_batch(contexts)

    def decode(self, code):
        return self.inner.decode(code)

    def decode_batch(self, codes):
        return self.inner.decode_batch(codes)


@pytest.fixture(scope="module")
def second_codebook():
    """A codebook of the same size fitted differently (its own group)."""
    return KMeansEncoder(n_codes=8, n_features=N_FEATURES, n_fit_samples=600, seed=11).fit()


def _population(encoders, envs, seed, *, private_context="one-hot"):
    """Warm-private agents; agent ``i`` holds ``encoders[i]`` and
    draws its user from ``envs[i]``."""
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, len(encoders))):
        policy_seed, part_seed, session_seed = s.spawn(3)
        dim = encoders[i].n_codes if private_context == "one-hot" else N_FEATURES
        agents.append(
            LocalAgent(
                f"agent-{i}",
                LinUCB(n_arms=N_ACTIONS, n_features=dim, alpha=1.0, seed=policy_seed),
                mode=AgentMode.WARM_PRIVATE,
                encoder=encoders[i],
                participation=RandomizedParticipation(
                    p=0.8, window=3, max_reports=4, seed=part_seed
                ),
                private_context=private_context,
            )
        )
        sessions.append(envs[i].new_user(session_seed))
    return agents, sessions


def _stationary_env():
    return SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7)


def _drifting_env():
    return DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, epoch_length=EPOCH, seed=7
    )


def _assert_identical(seq_agents, fleet_agents):
    for a, b in zip(seq_agents, fleet_agents):
        assert_states_equal(a.policy, b.policy, a.agent_id)
    assert_outboxes_equal(seq_agents, fleet_agents)


def test_persistent_stationary_shard_encodes_once(kmeans_encoder):
    n = 6
    counting = CountingEncoder(kmeans_encoder)
    envs = [_stationary_env()] * n
    seq_agents, seq_sessions = _population([kmeans_encoder] * n, envs, 3)
    agents, sessions = _population([counting] * n, envs, 3)
    fleet = FleetRunner(agents, sessions, persistent=True)

    # runs of two whole windows: no report reaches back into items
    # buffered before the run, so only acting could encode
    first = fleet.run(6)
    assert counting.batch_rows == n
    second = fleet.run(6)
    assert counting.batch_rows == n  # every cached row still matches
    assert counting.scalar_calls == 0

    seq_rewards = simulate_sequential(seq_agents, seq_sessions, 12)
    np.testing.assert_array_equal(
        seq_rewards, np.concatenate([first.rewards, second.rewards], axis=1)
    )
    _assert_identical(seq_agents, agents)


@pytest.mark.parametrize("private_context", ["one-hot", "centroid"])
@pytest.mark.parametrize("chunk", [None, 2])
def test_drifting_shard_reencodes_only_changed_agents(kmeans_encoder, chunk, private_context):
    # agents 0, 2, 4 drift at steps 6 and 12; 1, 3, 5 never move
    n, horizon = 6, 2 * EPOCH + 1
    counting = CountingEncoder(kmeans_encoder)
    envs = [_drifting_env(), _stationary_env()] * (n // 2)
    seq_agents, seq_sessions = _population(
        [kmeans_encoder] * n, envs, 5, private_context=private_context
    )
    agents, sessions = _population([counting] * n, envs, 5, private_context=private_context)
    result = FleetRunner(agents, sessions, plan_chunk_size=chunk).run(horizon)

    # every agent once, then each drifting agent once per crossed epoch
    assert counting.batch_rows == n + 2 * (n // 2)
    assert counting.scalar_calls == 0
    np.testing.assert_array_equal(
        simulate_sequential(seq_agents, seq_sessions, horizon), result.rewards
    )
    _assert_identical(seq_agents, agents)


@pytest.mark.parametrize("env_factory", [_stationary_env, _drifting_env])
def test_several_encoder_groups_stay_exact(kmeans_encoder, second_codebook, env_factory):
    n = 8
    plain = [kmeans_encoder, second_codebook]
    counting = [CountingEncoder(e) for e in plain]
    env = env_factory()
    envs = [env] * n
    # interleaved membership: two groups, neither a contiguous block
    seq_agents, seq_sessions = _population([plain[i % 2] for i in range(n)], envs, 9)
    agents, sessions = _population([counting[i % 2] for i in range(n)], envs, 9)
    fleet = FleetRunner(agents, sessions)
    assert fleet.n_shards == 1  # equal codebook size: one shard, two groups
    first = fleet.run(7)
    second = fleet.run(7)

    for enc in counting:
        assert enc.batch_rows > 0
        assert enc.scalar_calls == 0
    seq_rewards = simulate_sequential(seq_agents, seq_sessions, 14)
    np.testing.assert_array_equal(
        seq_rewards, np.concatenate([first.rewards, second.rewards], axis=1)
    )
    _assert_identical(seq_agents, agents)
