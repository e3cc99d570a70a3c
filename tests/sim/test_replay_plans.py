"""Replay-plan fast path: dataset sessions on the fleet engine.

Golden equivalence suites pinning fleet-vs-sequential bit-identity on
the multilabel and Criteo populations (every mode, including private
contexts, participation refusals and the shuffler release), the
``plan_trace_indexed`` exactness contract (same values, same generator
consumption, same session state as the sequential walk), and the
capability-flag regression: sessions that *inherit* a working plan
stay on the fast path, and shards mixing plan-capable and plan-less
sessions fall back to the generic loop without losing bit-identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.data.criteo import (
    CriteoBanditEnvironment,
    build_criteo_actions,
    make_criteo_like,
)
from repro.data.multilabel import (
    MultilabelBanditEnvironment,
    MultilabelUserSession,
    make_multilabel_dataset,
)
from repro.data.synthetic import SyntheticPreferenceEnvironment, SyntheticUserSession
from repro.experiments.runner import _simulate_agent, run_setting
from repro.sim import FleetRunner
from repro.sim.fleet import _Shard
from repro.utils.rng import spawn_seeds

from _testkit import assert_outboxes_equal, assert_states_equal

N_ACTIONS = 5
N_FEATURES = 6

_ML_DATASET = make_multilabel_dataset(
    120, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0
)
_CRITEO_DATASET = build_criteo_actions(
    make_criteo_like(2_500, seed=0), n_actions=N_ACTIONS, d=N_FEATURES
)


def _ml_env():
    # samples_per_user < horizon in the equivalence tests, so the walk
    # reshuffles mid-run and plans must reproduce that exactly
    return MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)


def _criteo_env():
    return CriteoBanditEnvironment(_CRITEO_DATASET, impressions_per_user=9, seed=1)


@pytest.fixture(scope="module")
def replay_encoder():
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
# plan_trace_indexed exactness contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_plan_trace_is_exact_stand_in_for_sequential_walk(env_factory):
    """Contexts, rewards, generator consumption and walk state after
    ``plan_trace_indexed(T)`` are identical to ``T`` sequential
    interactions."""
    horizon = 20  # > samples/impressions per user => reshuffles happen
    walker = env_factory().new_user(11)
    contexts, rewards, expected = [], [], []
    rng = np.random.default_rng(5)
    actions = rng.integers(0, walker._dataset.n_actions
                           if hasattr(walker._dataset, "n_actions")
                           else N_ACTIONS, size=horizon)
    for t in range(horizon):
        contexts.append(walker.next_context())
        rewards.append(walker.reward(int(actions[t])))
        expected.append(walker.expected_rewards())

    planner = env_factory().new_user(11)
    plan = planner.plan_trace_indexed(horizon)
    np.testing.assert_array_equal(np.stack(contexts), plan.table.contexts[plan.rows])
    np.testing.assert_array_equal(np.asarray(rewards), plan.realize(actions))
    np.testing.assert_array_equal(
        np.stack(expected), plan.table.expected[plan.rows].astype(np.float64)
    )
    # post-plan state: generator, walk cursors, current row
    assert planner._rng.bit_generator.state == walker._rng.bit_generator.state
    assert planner._cursor == walker._cursor
    assert planner._current == walker._current
    np.testing.assert_array_equal(planner._order, walker._order)
    # and the *next* contexts still agree, i.e. the streams stay merged
    for _ in range(5):
        np.testing.assert_array_equal(walker.next_context(), planner.next_context())


def test_plan_trace_rejects_bad_horizon():
    from repro.utils.exceptions import ValidationError

    session = _ml_env().new_user(0)
    with pytest.raises(ValidationError):
        session.plan_trace_indexed(0)


# --------------------------------------------------------------------- #
# golden fleet-vs-sequential equivalence on dataset populations
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
def test_fleet_matches_sequential_on_replay(
    env_factory, factory, mode, private_context, replay_encoder
):
    n_agents, n_interactions, seed = 9, 16, 42
    seq_agents, seq_sessions = make_population(
        env_factory, factory, mode, n_agents, seed,
        encoder=replay_encoder, private_context=private_context,
    )
    fleet_agents, fleet_sessions = make_population(
        env_factory, factory, mode, n_agents, seed,
        encoder=replay_encoder, private_context=private_context,
    )

    seq_rewards = np.empty((n_agents, n_interactions))
    seq_actions = np.empty((n_agents, n_interactions), dtype=np.intp)
    for i, (agent, session) in enumerate(zip(seq_agents, seq_sessions)):
        for t in range(n_interactions):
            x = session.next_context()
            a = agent.act(x)
            r = session.reward(a)
            agent.learn(x, a, r)
            seq_rewards[i, t] = r
            seq_actions[i, t] = a

    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    np.testing.assert_array_equal(seq_actions, result.actions)
    for sa, fa in zip(seq_agents, fleet_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy, label=f"{mode}/{private_context}")
    assert_outboxes_equal(seq_agents, fleet_agents)


def test_refusing_participation_reports_identical(replay_encoder):
    """Low-p participation (mostly refusals) still produces identical
    outboxes through the traced fast path."""
    n_agents, seed = 12, 7
    seq_agents, seq_sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed,
        encoder=replay_encoder, p=0.2,
    )
    fleet_agents, fleet_sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed,
        encoder=replay_encoder, p=0.2,
    )
    for agent, session in zip(seq_agents, seq_sessions):
        _simulate_agent(agent, session, 12)
    FleetRunner(fleet_agents, fleet_sessions).run(12)
    assert_outboxes_equal(seq_agents, fleet_agents)
    assert any(a.outbox == [] for a in fleet_agents)  # refusals happened


@pytest.mark.parametrize("measure", ["realized", "expected"])
def test_run_setting_engines_identical_on_multilabel(replay_encoder, measure):
    """Full §5.2 protocol (contribution + shuffler + warm eval) agrees
    across engines on a dataset workload."""
    config = P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=replay_encoder.n_codes,
        p=0.9,
        window=4,
        shuffler_threshold=1,
    )
    results = {}
    for engine in ("sequential", "fleet"):
        results[engine] = run_setting(
            _ml_env(),
            config,
            AgentMode.WARM_PRIVATE,
            n_contributors=20,
            n_eval_agents=6,
            eval_interactions=10,
            seed=31,
            encoder=replay_encoder,
            measure=measure,
            engine=engine,
        )
    seq, fleet = results["sequential"], results["fleet"]
    assert seq.mean_reward == fleet.mean_reward
    np.testing.assert_array_equal(seq.curve, fleet.curve)
    assert seq.n_reports == fleet.n_reports
    assert seq.n_released == fleet.n_released
    assert seq.privacy == fleet.privacy


# --------------------------------------------------------------------- #
# capability flags: inheritance keeps the fast path; mixtures fall back
# --------------------------------------------------------------------- #
class _InheritingMultilabelSession(MultilabelUserSession):
    """Overrides something unrelated; inherits the working plan."""

    def expected_rewards(self) -> np.ndarray:  # pragma: no cover - same math
        return super().expected_rewards()


class _InheritingSyntheticSession(SyntheticUserSession):
    pass


def _cold_agents(n, seed):
    return [
        LocalAgent(
            f"a{i}", LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=s), mode="cold"
        )
        for i, s in enumerate(spawn_seeds(seed, n))
    ]


def test_plan_inheriting_subclasses_stay_on_fast_path():
    """Regression for the old method-identity probe: subclasses that
    inherit ``plan_trace_indexed`` / ``plan_rewards`` must keep the fast path
    (the capability flags are inherited class attributes)."""
    env = _ml_env()
    sessions = [env.new_user(s) for s in spawn_seeds(3, 4)]
    inheriting = [
        _InheritingMultilabelSession(s._dataset, s._indices, s._rng) for s in sessions
    ]
    shard = _Shard(np.arange(4), _cold_agents(4, 0), inheriting)
    shard.prepare(6)
    assert shard.traced and not shard.stationary

    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=2
    )
    syn_sessions = []
    for s in spawn_seeds(4, 4):
        base = syn.new_user(s)
        syn_sessions.append(
            _InheritingSyntheticSession(base.preference, syn, base._rng)
        )
    shard = _Shard(np.arange(4), _cold_agents(4, 1), syn_sessions)
    shard.prepare(6)
    assert shard.stationary and not shard.traced


def test_mixed_capability_shard_falls_back_to_generic():
    """One shard holding stationary *and* traced sessions takes the
    generic per-round path (neither flag holds for all); the runner
    never builds one — it partitions by session kind — and both stay
    bit-identical to the sequential reference."""
    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=2
    )

    def build(seed):
        env = _ml_env()
        agents = _cold_agents(6, seed)
        sessions = []
        for i, s in enumerate(spawn_seeds(seed + 100, 6)):
            sessions.append(syn.new_user(s) if i % 2 else env.new_user(s))
        return agents, sessions

    seq_agents, seq_sessions = build(9)
    seq_rewards = np.stack(
        [_simulate_agent(a, s, 8)[0] for a, s in zip(seq_agents, seq_sessions)]
    )

    shard_agents, shard_sessions = build(9)
    shard = _Shard(np.arange(6), shard_agents, shard_sessions)
    shard.prepare(8)
    assert not shard.stationary and not shard.traced
    rewards = np.empty((6, 8), dtype=np.float64)
    actions = np.empty((6, 8), dtype=np.intp)
    for t in range(8):
        shard.step(t, rewards, actions, None, np.zeros(6, dtype=bool))
    shard.finish(rewards, actions)
    shard.stacked.writeback()
    np.testing.assert_array_equal(seq_rewards, rewards)

    fleet_agents, fleet_sessions = build(9)
    runner = FleetRunner(fleet_agents, fleet_sessions)
    assert runner.n_shards == 2  # one stationary shard, one traced shard
    result = runner.run(8)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for sa, sh, fa in zip(seq_agents, shard_agents, fleet_agents):
        assert_states_equal(sa.policy, sh.policy)
        assert_states_equal(sa.policy, fa.policy)


def test_replay_plan_smoke():
    """Tiny non-slow smoke: the traced fast path runs end-to-end and
    matches the reference — exercised on every push."""
    seq_agents, seq_sessions = make_population(_ml_env, _linucb, AgentMode.COLD, 3, 1)
    fleet_agents, fleet_sessions = make_population(_ml_env, _linucb, AgentMode.COLD, 3, 1)
    seq = np.stack(
        [_simulate_agent(a, s, 9)[0] for a, s in zip(seq_agents, seq_sessions)]
    )
    runner = FleetRunner(fleet_agents, fleet_sessions)
    result = runner.run(9)
    np.testing.assert_array_equal(seq, result.rewards)
