"""Shared-row-table trace plans end to end.

Pins the :meth:`plan_trace_indexed` contract (same walk, same generator
consumption, same realized values as the sequential
``next_context()``/``reward()`` loop), the per-dataset table sharing
(one :class:`TraceRowTable` object per dataset, aliasing the dataset's
own arrays where possible), and the fleet-engine consequences: traced
shards are bit-identical to the sequential reference on the multilabel
and Criteo populations across every mode, a population over several
datasets partitions into one shard per dataset, report payloads gather
through the same row indices (each dataset row encoded at most once per
encoder), and the per-agent plan footprint is just the row walk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data.criteo import (
    CriteoBanditEnvironment,
    build_criteo_actions,
    make_criteo_like,
)
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.experiments.runner import _simulate_agent
from repro.sim import FleetRunner, shard_indices
from repro.sim.fleet import _Shard
from repro.utils.exceptions import ConfigError
from repro.utils.rng import spawn_seeds

from _testkit import assert_outboxes_equal, assert_states_equal

N_ACTIONS = 5
N_FEATURES = 6

_ML_DATASET = make_multilabel_dataset(120, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)
_CRITEO_DATASET = build_criteo_actions(
    make_criteo_like(2_500, seed=0), n_actions=N_ACTIONS, d=N_FEATURES
)


def _ml_env():
    return MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)


def _criteo_env():
    return CriteoBanditEnvironment(_CRITEO_DATASET, impressions_per_user=9, seed=1)


class _TwoDatasetEnv:
    """``new_user`` alternates between a multilabel and a Criteo
    environment: a population over two datasets (and row tables)."""

    def __init__(self):
        self._envs = (_ml_env(), _criteo_env())
        self._n_users = 0

    def new_user(self, seed):
        env = self._envs[self._n_users % 2]
        self._n_users += 1
        return env.new_user(seed)


@pytest.fixture(scope="module")
def encoder():
    from repro.encoding.kmeans_encoder import KMeansEncoder

    return KMeansEncoder(
        n_codes=8, n_features=N_FEATURES, n_fit_samples=400, seed=3
    ).fit()


def make_population(
    env_factory,
    policy_factory,
    mode: str,
    n_agents: int,
    seed: int,
    *,
    encoder=None,
    private_context: str = "one-hot",
    p: float = 0.8,
):
    env = env_factory()
    if mode == AgentMode.WARM_PRIVATE and private_context == "one-hot":
        acting_dim = encoder.n_codes
    else:
        acting_dim = N_FEATURES
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        participation = (
            None
            if mode == AgentMode.COLD
            else RandomizedParticipation(p=p, window=3, max_reports=2, seed=part_seed)
        )
        agents.append(
            LocalAgent(
                f"agent-{i}",
                policy_factory(N_ACTIONS, acting_dim, policy_seed),
                mode=mode,
                encoder=encoder if mode == AgentMode.WARM_PRIVATE else None,
                participation=participation,
                private_context=private_context,
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _code_linucb(n_arms, n_features, seed):
    return CodeLinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


# --------------------------------------------------------------------- #
# plan_trace_indexed contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_indexed_plan_realizes_the_sequential_walk(env_factory):
    """Same walk as ``next_context()``/``reward()``: gathered contexts,
    every action's reward row, generator consumption and post-plan
    session state all coincide."""
    horizon = 20  # > samples/impressions per user => reshuffles happen
    walker = env_factory().new_user(11)
    contexts, reward_rows = [], []
    for _ in range(horizon):
        contexts.append(walker.next_context())
        # reward() may be asked about several actions for one context
        reward_rows.append([walker.reward(a) for a in range(N_ACTIONS)])
    reward_rows = np.asarray(reward_rows)
    indexed_session = env_factory().new_user(11)
    indexed = indexed_session.plan_trace_indexed(horizon)

    assert indexed.horizon == horizon
    table = indexed.table
    np.testing.assert_array_equal(np.stack(contexts), table.contexts[indexed.rows])
    np.testing.assert_array_equal(
        reward_rows, table.action_rewards[indexed.rows].astype(np.float64)
    )
    actions = np.random.default_rng(5).integers(0, N_ACTIONS, size=horizon)
    np.testing.assert_array_equal(
        reward_rows[np.arange(horizon), actions], indexed.realize(actions)
    )
    # logged data: expected aliases realized
    assert table.expected is table.action_rewards

    # generator and walk state: the plan is interchangeable with the loop
    assert walker._rng.bit_generator.state == indexed_session._rng.bit_generator.state
    assert walker._cursor == indexed_session._cursor
    np.testing.assert_array_equal(walker._order, indexed_session._order)
    for _ in range(5):
        np.testing.assert_array_equal(
            walker.next_context(), indexed_session.next_context()
        )


@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_row_table_is_shared_per_dataset(env_factory):
    """Every session over one dataset returns the identical table
    object — the property the fleet shard keys sharing off."""
    env_a, env_b = env_factory(), env_factory()
    tables = {
        id(s.trace_row_table())
        for s in (env_a.new_user(0), env_a.new_user(1), env_b.new_user(2))
    }
    assert len(tables) == 1


def test_multilabel_table_aliases_the_dataset():
    """The multilabel row table allocates nothing: contexts are X,
    rewards are Y, expected aliases rewards."""
    table = _ml_env().new_user(0).trace_row_table()
    assert table.contexts is _ML_DATASET.X
    assert table.action_rewards is _ML_DATASET.Y
    assert table.expected is _ML_DATASET.Y
    assert table.n_rows == _ML_DATASET.n_samples
    assert table.n_actions == N_ACTIONS


def test_criteo_table_matches_scalar_reward():
    """The Criteo table is the per-row one-hot-and-clicked expansion —
    bit-equal to what ``reward()`` returns on every row."""
    session = _criteo_env().new_user(0)
    table = session.trace_row_table()
    scalar = np.empty(table.action_rewards.shape, dtype=np.float64)
    for row in range(_CRITEO_DATASET.n_samples):
        session._current = row
        scalar[row] = [session.reward(a) for a in range(N_ACTIONS)]
    np.testing.assert_array_equal(table.action_rewards.astype(np.float64), scalar)
    assert table.contexts is _CRITEO_DATASET.X


# --------------------------------------------------------------------- #
# golden fleet equivalence: traced shards vs sequential
# --------------------------------------------------------------------- #
def _combos():
    yield _linucb, AgentMode.COLD, "one-hot"
    yield _linucb, AgentMode.WARM_NONPRIVATE, "one-hot"
    yield _linucb, AgentMode.WARM_PRIVATE, "centroid"
    yield _code_linucb, AgentMode.WARM_PRIVATE, "one-hot"


@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
@pytest.mark.parametrize(
    "factory,mode,private_context",
    list(_combos()),
    ids=lambda v: getattr(v, "__name__", str(v)).lstrip("_"),
)
def test_indexed_fleet_matches_sequential(
    env_factory, factory, mode, private_context, encoder
):
    """The golden: the shared-row-table engine reproduces the
    sequential loop bit for bit on both datasets across every mode."""
    n_agents, n_interactions, seed = 9, 16, 42
    seq_agents, seq_sessions = make_population(
        env_factory, factory, mode, n_agents, seed,
        encoder=encoder, private_context=private_context,
    )
    fleet_agents, fleet_sessions = make_population(
        env_factory, factory, mode, n_agents, seed,
        encoder=encoder, private_context=private_context,
    )

    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, n_interactions)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    runner = FleetRunner(fleet_agents, fleet_sessions, persistent=True)
    result = runner.run(n_interactions)
    assert all(shard.traced for shard in runner._shards.values())
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for sa, fa in zip(seq_agents, fleet_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy, label=f"{mode}/{private_context}")
    assert_outboxes_equal(seq_agents, fleet_agents)


def _sequential(agents, sessions, n_interactions):
    """Reference rewards and expected rewards, one row per agent."""
    runs = [
        _simulate_agent(a, s, n_interactions, track_expected=True)
        for a, s in zip(agents, sessions)
    ]
    return np.stack([r for r, _ in runs]), np.stack([e for _, e in runs])


def test_expected_channel_matches_sequential():
    """``track_expected`` gathers through the shared expected table."""
    n_agents, n_interactions, seed = 8, 12, 3
    seq_agents, seq_sessions = make_population(
        _ml_env, _linucb, AgentMode.COLD, n_agents, seed
    )
    seq_rewards, seq_expected = _sequential(seq_agents, seq_sessions, n_interactions)
    agents, sessions = make_population(_ml_env, _linucb, AgentMode.COLD, n_agents, seed)
    result = FleetRunner(agents, sessions).run(n_interactions, track_expected=True)
    assert result.expected_mask.all()
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    np.testing.assert_array_equal(seq_expected, result.expected)
    np.testing.assert_array_equal(seq_expected, result.measured())


# --------------------------------------------------------------------- #
# one shard, one row table
# --------------------------------------------------------------------- #
def _cold_agents(n, seed):
    return [
        LocalAgent(
            f"a{i}", LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=s), mode="cold"
        )
        for i, s in enumerate(spawn_seeds(seed, n))
    ]


def test_one_dataset_shard_is_traced():
    env = _ml_env()
    sessions = [env.new_user(s) for s in spawn_seeds(3, 4)]
    shard = _Shard(np.arange(4), _cold_agents(4, 0), sessions)
    shard.prepare(6)
    assert shard.traced and not shard.stationary


def test_mixed_dataset_shard_raises():
    """A shard built directly over sessions walking two datasets has no
    single row table to gather through."""
    env = _TwoDatasetEnv()
    sessions = [env.new_user(s) for s in spawn_seeds(9, 4)]
    with pytest.raises(ConfigError, match="row tables"):
        _Shard(np.arange(4), _cold_agents(4, 1), sessions)


def _two_dataset_population(factory, mode, private_context, n_agents, seed, encoder):
    return make_population(
        _TwoDatasetEnv, factory, mode, n_agents, seed,
        encoder=encoder, private_context=private_context,
    )


@pytest.mark.parametrize("track_expected", [False, True], ids=["plain", "expected"])
@pytest.mark.parametrize("chunk", [None, 2], ids=["whole", "chunk2"])
@pytest.mark.parametrize(
    "factory,mode,private_context",
    list(_combos()),
    ids=lambda v: getattr(v, "__name__", str(v)).lstrip("_"),
)
def test_two_datasets_split_into_one_shard_each(
    factory, mode, private_context, chunk, track_expected, encoder
):
    """Agents with one configuration over two datasets partition into
    one traced shard per dataset — and stay bit-identical to the
    sequential loop (rewards, expected rewards, states, outboxes)."""
    n_agents, n_interactions, seed = 10, 9, 5
    seq_agents, seq_sessions = _two_dataset_population(
        factory, mode, private_context, n_agents, seed, encoder
    )
    seq_rewards, seq_expected = _sequential(seq_agents, seq_sessions, n_interactions)
    agents, sessions = _two_dataset_population(
        factory, mode, private_context, n_agents, seed, encoder
    )
    tables = [
        {id(sessions[i].trace_row_table()) for i in group}
        for group in shard_indices(agents, sessions)
    ]
    assert len(tables) == 2 and all(len(t) == 1 for t in tables)
    assert tables[0] != tables[1]
    runner = FleetRunner(agents, sessions, plan_chunk_size=chunk)
    assert runner.n_shards == 2
    result = runner.run(n_interactions, track_expected=track_expected)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    if track_expected:
        np.testing.assert_array_equal(seq_expected, result.expected)
        assert result.expected_mask.all()
    for sa, fa in zip(seq_agents, agents):
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy)
    assert_outboxes_equal(seq_agents, agents)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("private_context", ["one-hot", "centroid"])
def test_two_datasets_parallel_backends_match_sequential(
    backend, private_context, encoder
):
    factory = _code_linucb if private_context == "one-hot" else _linucb
    args = (factory, AgentMode.WARM_PRIVATE, private_context, 10, 8, encoder)
    seq_agents, seq_sessions = _two_dataset_population(*args)
    seq_rewards, seq_expected = _sequential(seq_agents, seq_sessions, 9)
    agents, sessions = _two_dataset_population(*args)
    runner = FleetRunner(
        agents, sessions, n_workers=2, worker_backend=backend, plan_chunk_size=2
    )
    assert runner.n_shards == 2
    result = runner.run(9, track_expected=True)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    np.testing.assert_array_equal(seq_expected, result.expected)
    for sa, fa in zip(seq_agents, agents):
        assert_states_equal(sa.policy, fa.policy)
    assert_outboxes_equal(seq_agents, agents)


@pytest.mark.parametrize(
    "backend,fault_plan",
    [("thread", None), ("process", None), ("thread", "at=raise:0:3")],
    ids=["thread", "process", "thread-retried"],
)
def test_add_agents_from_a_new_dataset_opens_a_shard(backend, fault_plan, encoder):
    """Churn over a second dataset lands in a new shard and a second
    persistent run stays exact — also after a process run or a retry
    from a pickled snapshot rebound the first shard's sessions to a
    copy of the dataset (newcomers over the original then shard apart)."""
    args = (_code_linucb, AgentMode.WARM_PRIVATE)

    def build():
        old = make_population(_ml_env, *args, 6, 31, encoder=encoder)
        new = make_population(_criteo_env, *args, 4, 32, encoder=encoder)
        more = make_population(_ml_env, *args, 3, 33, encoder=encoder)
        return old, new, more

    (seq_old, seq_old_s), (seq_new, seq_new_s), (seq_more, seq_more_s) = build()
    seq_agents = seq_old + seq_new + seq_more
    seq_sessions = seq_old_s + seq_new_s + seq_more_s
    first = _sequential(seq_old, seq_old_s, 7)[0]
    second = _sequential(seq_agents, seq_sessions, 5)[0]

    (old, old_s), (new, new_s), (more, more_s) = build()
    runner = FleetRunner(
        old, old_s, persistent=True, worker_backend=backend, fault_plan=fault_plan
    )
    np.testing.assert_array_equal(first, runner.run(7).rewards)
    assert runner.n_shards == 1
    runner.add_agents(new, new_s)
    assert runner.n_shards == 2
    runner.add_agents(more, more_s)  # the first dataset again
    adopted = backend == "process" or fault_plan is not None
    assert runner.n_shards == (3 if adopted else 2)
    np.testing.assert_array_equal(second, runner.run(5).rewards)
    for sa, fa in zip(seq_agents, old + new + more):
        assert_states_equal(sa.policy, fa.policy)
    assert_outboxes_equal(seq_agents, old + new + more)


# --------------------------------------------------------------------- #
# encode-once and memory properties
# --------------------------------------------------------------------- #
def test_each_dataset_row_encoded_at_most_once(encoder, monkeypatch):
    """Warm-private indexed shards encode *dataset rows*, not steps:
    with 9 agents x 30 steps over a 120-row dataset, the encoder sees
    each visited row once and the scalar ``encode`` never runs."""
    agents, sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, 9, 21, encoder=encoder
    )
    seen_rows: list[int] = []
    real_batch = type(encoder).encode_batch

    def counting_batch(self, X):
        seen_rows.append(X.shape[0])
        return real_batch(self, X)

    def no_scalar(self, x):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("scalar encode must not run on the indexed path")

    monkeypatch.setattr(type(encoder), "encode_batch", counting_batch)
    monkeypatch.setattr(type(encoder), "encode", no_scalar)
    FleetRunner(agents, sessions).run(30)
    # one batched call (one encoder group, one chunk), bounded by the
    # dataset size — not by agents x steps = 270
    assert sum(seen_rows) <= _ML_DATASET.n_samples


def test_concurrent_shards_share_one_table():
    """Two shards over one dataset, stepped with ``n_workers=2``: both
    gather through the identical row table — and parallel equals
    serial."""
    from repro.bandits import EpsilonGreedy

    dataset = make_multilabel_dataset(100, N_FEATURES, N_ACTIONS, n_clusters=4, seed=8)

    def build():
        env = MultilabelBanditEnvironment(dataset, samples_per_user=7, seed=1)
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(3, 12)):
            policy_seed, session_seed = s.spawn(2)
            policy = (
                LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
                if i % 2
                else EpsilonGreedy(
                    n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed
                )
            )
            agents.append(LocalAgent(f"a{i}", policy, mode="cold"))
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    runner = FleetRunner(*build(), n_workers=2)
    assert runner.n_shards == 2
    tables = {id(session.trace_row_table()) for session in runner.sessions}
    assert tables == {id(dataset._p2b_row_table)}
    parallel = runner.run(10)
    serial = FleetRunner(*build()).run(10)
    np.testing.assert_array_equal(parallel.rewards, serial.rewards)
    np.testing.assert_array_equal(parallel.actions, serial.actions)


def test_traced_plan_bytes_are_the_row_walk(encoder):
    """Per-agent plan bytes are exactly the row walk; the row table and
    the per-row code tables are shared, independent of the population."""
    n_agents, horizon = 12, 20
    agents, sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, 17, encoder=encoder
    )
    shard = _Shard(np.arange(n_agents), agents, sessions)
    shard.prepare(horizon)
    nbytes = shard.plan_nbytes()
    assert nbytes["per_agent"] == n_agents * horizon * np.intp(0).nbytes
    codes = shard._row_codes.nbytes + shard._row_encoded.nbytes
    assert nbytes["shared"] == shard._row_table.nbytes() + codes
    assert nbytes["total"] == nbytes["per_agent"] + nbytes["shared"]
