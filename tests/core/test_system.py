"""Integration tests for repro.core.system — the full P2B pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AgentMode, P2BConfig, P2BSystem
from repro.utils.exceptions import ConfigError
from repro.utils.rng import spawn_seeds


def _config(**overrides) -> P2BConfig:
    base = dict(
        n_actions=4,
        n_features=5,
        n_codes=8,
        p=0.5,
        window=5,
        shuffler_threshold=2,
    )
    base.update(overrides)
    return P2BConfig(**base)


def _run_agents(system: P2BSystem, n_agents: int, n_interactions: int, rng):
    """Simulate agents on a trivial environment: reward 1 iff action == 0."""
    agents = [system.new_agent() for _ in range(n_agents)]
    for agent in agents:
        for _ in range(n_interactions):
            x = rng.dirichlet(np.ones(5))
            agent.step(x, lambda a: 1.0 if a == 0 else 0.0)
    return agents


class TestConstruction:
    def test_private_system_builds_codebook(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=0)
        assert system.encoder is not None
        assert system.encoder.n_codes == 8
        assert system.shuffler is not None

    def test_nonprivate_has_no_shuffler(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_NONPRIVATE, seed=0)
        assert system.shuffler is None
        assert system.server is not None

    def test_cold_has_no_server(self):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=0)
        assert system.server is None
        with pytest.raises(ConfigError):
            system.model_snapshot()

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            P2BSystem(_config(), mode="tepid", seed=0)

    def test_agent_ids_unique(self):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=0)
        ids = {system.new_agent().agent_id for _ in range(10)}
        assert len(ids) == 10


class TestPrivatePipeline:
    def test_end_to_end_collection(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=1)
        agents = _run_agents(system, n_agents=60, n_interactions=5, rng=rng)
        result = system.collect(agents)
        # ~half of 60 agents report (p=0.5)
        assert 15 <= result.n_reports <= 45
        assert result.n_released <= result.n_reports
        assert result.shuffler_stats is not None
        assert result.shuffler_stats.audit.satisfied
        assert system.server.n_tuples_ingested == result.n_released

    def test_warm_agent_inherits_central_model(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=2)
        agents = _run_agents(system, n_agents=80, n_interactions=5, rng=rng)
        system.collect(agents)
        warm = system.new_warm_agent()
        np.testing.assert_allclose(
            warm.policy.counts, system.server.policy.counts, atol=1e-12
        )
        np.testing.assert_allclose(
            warm.policy.sums, system.server.policy.sums, atol=1e-12
        )

    def test_privacy_report_uses_realized_l(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=3)
        agents = _run_agents(system, n_agents=100, n_interactions=5, rng=rng)
        system.collect(agents)
        report = system.privacy_report()
        assert report.epsilon == pytest.approx(np.log(2.0))
        assert report.l >= 2  # at least the shuffler threshold

    def test_privacy_report_before_collection_uses_threshold(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=0)
        assert system.privacy_report().l == 2

    def test_server_never_sees_raw_contexts(self, rng):
        """Type-level check: everything ingested is an EncodedReport."""
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=4)
        agents = _run_agents(system, n_agents=50, n_interactions=5, rng=rng)
        reports = []
        for a in agents:
            reports.extend(a.outbox)
        from repro.core import EncodedReport

        assert all(isinstance(r, EncodedReport) for r in reports)

    def test_reproducible_given_seed(self, rng):
        def run(seed):
            system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=seed)
            rng_local = np.random.default_rng(0)
            agents = _run_agents(system, 40, 5, rng_local)
            system.collect(agents)
            return system.server.policy.sums.copy()

        np.testing.assert_array_equal(run(11), run(11))


class TestNonPrivatePipeline:
    def test_end_to_end(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_NONPRIVATE, seed=5)
        agents = _run_agents(system, n_agents=40, n_interactions=5, rng=rng)
        result = system.collect(agents)
        assert result.n_released == result.n_reports  # no thresholding
        assert system.server.n_tuples_ingested == result.n_reports

    def test_privacy_report_refused(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_NONPRIVATE, seed=0)
        with pytest.raises(ConfigError):
            system.privacy_report()


class TestColdPipeline:
    def test_collect_is_noop(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=6)
        agents = _run_agents(system, n_agents=10, n_interactions=5, rng=rng)
        result = system.collect(agents)
        assert result.n_reports == 0 and result.n_released == 0


def _old_agent_streams(seed, n_agents, skip=0):
    """The per-agent seeding P2BSystem used before bulk construction.

    ``spawn_seeds(seed, 4)[3]`` is the agent root; agent ``k`` took
    ``root.spawn(1)[0].spawn(2)`` as (policy, participation) seeds.
    """
    root = spawn_seeds(seed, 4)[3]
    streams = []
    for k in range(skip + n_agents):
        (child,) = root.spawn(1)
        policy_seed, part_seed = child.spawn(2)
        if k >= skip:
            streams.append((np.random.default_rng(policy_seed), np.random.default_rng(part_seed)))
    return streams


def _assert_agent_streams(agents, streams):
    assert len(agents) == len(streams)
    for agent, (policy_rng, part_rng) in zip(agents, streams):
        assert agent.policy._rng.bit_generator.state == policy_rng.bit_generator.state
        if agent.participation is not None:
            got = agent.participation._rng.bit_generator.state
            assert got == part_rng.bit_generator.state


class TestBulkConstruction:
    """new_agents seeds the same tree the one-at-a-time factory did."""

    @pytest.mark.parametrize(
        "mode", [AgentMode.WARM_PRIVATE, AgentMode.WARM_NONPRIVATE, AgentMode.COLD]
    )
    def test_new_agents_matches_per_agent_spawning(self, mode):
        system = P2BSystem(_config(), mode=mode, seed=21)
        agents = system.new_agents(7)
        assert [a.agent_id for a in agents] == [f"agent-{k}" for k in range(1, 8)]
        _assert_agent_streams(agents, _old_agent_streams(21, 7))

    def test_interleaved_calls_continue_one_tree(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=3)
        agents = [system.new_agent()]
        agents += system.new_agents(4)
        agents.append(system.new_agent("named"))
        agents += system.new_agents(0)
        agents.append(system.new_warm_agent())
        agents += system.new_agents(2, warm=True)
        assert agents[5].agent_id == "named"
        assert [a.agent_id for a in agents[6:]] == ["agent-7", "agent-8", "agent-9"]
        _assert_agent_streams(agents, _old_agent_streams(3, 9))

    def test_pickled_system_continues_the_tree(self):
        import pickle

        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=8)
        system.new_agents(5)
        resumed = pickle.loads(pickle.dumps(system))
        tail = resumed.new_agents(3)
        assert [a.agent_id for a in tail] == ["agent-6", "agent-7", "agent-8"]
        _assert_agent_streams(tail, _old_agent_streams(8, 3, skip=5))
        _assert_agent_streams(system.new_agents(3), _old_agent_streams(8, 3, skip=5))

    def test_pickled_agents_carry_numpy_seed_sequences(self):
        import pickle

        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=8)
        agent = pickle.loads(pickle.dumps(system.new_agents(2)[1]))
        seq = agent.policy._rng.bit_generator.seed_seq
        assert type(seq) is np.random.SeedSequence
        assert seq.spawn_key[-2:] == (1, 0)

    def test_warm_agents_share_one_snapshot_without_aliasing(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=0)
        system.collect(_run_agents(system, 30, 10, rng))
        warm = system.new_agents(3, warm=True)
        snapshot = system.model_snapshot()
        assert snapshot["counts"].sum() > 0
        for agent in warm:
            np.testing.assert_array_equal(agent.policy.counts, snapshot["counts"])
        warm[0].policy.counts += 1.0
        np.testing.assert_array_equal(warm[1].policy.counts, snapshot["counts"])

    def test_cold_system_refuses_warm_agents(self):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=0)
        with pytest.raises(ConfigError):
            system.new_agents(2, warm=True)
        # the refused call consumed no agent slot
        _assert_agent_streams(system.new_agents(1), _old_agent_streams(0, 1))

    def test_system_pickled_without_the_batch_field_still_builds(self):
        import pickle

        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=8)
        system.new_agents(2)
        system.__dict__.pop("_seed_block", None)  # as pickled before the field existed
        resumed = pickle.loads(pickle.dumps(system))
        _assert_agent_streams([resumed.new_agent()], _old_agent_streams(8, 1, skip=2))
