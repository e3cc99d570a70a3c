"""Unit tests for stacked policy states and the stacking dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, CodeLinUCB, EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.sim import (
    StackedCodeLinUCB,
    StackedEpsilonGreedy,
    StackedLinUCB,
    StackedThompson,
    StackedUCB1,
    policies_stackable,
    stack_policies,
)
from repro.utils.exceptions import ConfigError
from repro.utils.rng import spawn_seeds


def _population(cls, n, seed=0, **kwargs):
    return [
        cls(n_arms=3, n_features=4, seed=s, **kwargs) for s in spawn_seeds(seed, n)
    ]


class TestDispatch:
    @pytest.mark.parametrize(
        "cls,stacked_cls",
        [
            (LinUCB, StackedLinUCB),
            (EpsilonGreedy, StackedEpsilonGreedy),
            (LinearThompsonSampling, StackedThompson),
            (CodeLinUCB, StackedCodeLinUCB),
            (UCB1, StackedUCB1),
        ],
    )
    def test_stack_by_kind(self, cls, stacked_cls):
        stacked = stack_policies(_population(cls, 5))
        assert isinstance(stacked, stacked_cls)
        assert stacked.n_agents == 5

    def test_unsupported_policy_not_stackable(self):
        from repro.bandits import RandomPolicy

        policies = _population(RandomPolicy, 3)
        assert not policies_stackable(policies)
        with pytest.raises(ConfigError):
            stack_policies(policies)

    def test_empty_not_stackable(self):
        assert not policies_stackable([])
        with pytest.raises(ConfigError):
            stack_policies([])

    def test_mixed_hyperparams_rejected(self):
        policies = _population(LinUCB, 2) + [
            LinUCB(n_arms=3, n_features=4, alpha=2.0, seed=0)
        ]
        with pytest.raises(ConfigError):
            stack_policies(policies)

    def test_mixed_shapes_not_stackable(self):
        policies = _population(LinUCB, 2) + [LinUCB(n_arms=5, n_features=4, seed=0)]
        assert not policies_stackable(policies)


class TestStackedStepEquivalence:
    """One stacked step == one scalar step per agent, bit for bit."""

    def test_linucb_select_update_writeback(self):
        rng = np.random.default_rng(0)
        scalar = _population(LinUCB, 6, seed=1)
        stacked_pols = _population(LinUCB, 6, seed=1)
        stacked = stack_policies(stacked_pols)
        for _ in range(5):
            X = rng.dirichlet(np.ones(4), size=6)
            acts_scalar = np.array([p.select(x) for p, x in zip(scalar, X)])
            acts_stacked = stacked.select(X)
            np.testing.assert_array_equal(acts_scalar, acts_stacked)
            rewards = rng.random(6)
            for p, x, a, r in zip(scalar, X, acts_scalar, rewards):
                p.update(x, int(a), float(r))
            stacked.update(X, acts_stacked, rewards)
        stacked.writeback()
        for p, q in zip(scalar, stacked_pols):
            s1, s2 = p.get_state(), q.get_state()
            for key in s1:
                np.testing.assert_array_equal(np.asarray(s1[key]), np.asarray(s2[key]))

    def test_code_linucb_codes_path(self):
        rng = np.random.default_rng(3)
        scalar = _population(CodeLinUCB, 8, seed=2)
        stacked_pols = _population(CodeLinUCB, 8, seed=2)
        stacked = stack_policies(stacked_pols)
        for _ in range(6):
            codes = rng.integers(0, 4, size=8)
            acts_scalar = np.array([p.select_code(int(c)) for p, c in zip(scalar, codes)])
            acts_stacked = stacked.select(codes.astype(np.intp))
            np.testing.assert_array_equal(acts_scalar, acts_stacked)
            rewards = rng.random(8)
            for p, c, a, r in zip(scalar, codes, acts_scalar, rewards):
                p.update_code(int(c), int(a), float(r))
            stacked.update(codes.astype(np.intp), acts_stacked, rewards)
        stacked.writeback()
        for p, q in zip(scalar, stacked_pols):
            np.testing.assert_array_equal(p.counts, q.counts)
            np.testing.assert_array_equal(p.sums, q.sums)
            assert p.t == q.t

    def test_ucb1_forced_first_plays_match(self):
        scalar = _population(UCB1, 5, seed=4)
        stacked_pols = _population(UCB1, 5, seed=4)
        stacked = stack_policies(stacked_pols)
        rng = np.random.default_rng(9)
        for _ in range(8):
            acts_scalar = np.array([p.select() for p in scalar])
            acts_stacked = stacked.select()
            np.testing.assert_array_equal(acts_scalar, acts_stacked)
            rewards = rng.random(5)
            for p, a, r in zip(scalar, acts_scalar, rewards):
                p.update(None, int(a), float(r))
            stacked.update(None, acts_stacked, rewards)
        stacked.writeback()
        for p, q in zip(scalar, stacked_pols):
            np.testing.assert_array_equal(p.counts, q.counts)
            np.testing.assert_array_equal(p.sums, q.sums)

    def test_epsilon_decay_is_per_agent_state(self):
        pols = _population(EpsilonGreedy, 4, seed=5, epsilon=0.5, decay=0.9)
        stacked = stack_policies(pols)
        X = np.eye(4)
        stacked.update(X, np.zeros(4, dtype=np.intp), np.ones(4))
        stacked.writeback()
        for p in pols:
            assert p.epsilon == pytest.approx(0.45)

    def test_writeback_copies_do_not_alias(self):
        pols = _population(LinUCB, 3, seed=6)
        stacked = stack_policies(pols)
        stacked.update(np.eye(4)[:3], np.zeros(3, dtype=np.intp), np.ones(3))
        stacked.writeback()
        before = pols[0].A_inv.copy()
        stacked.update(np.eye(4)[:3], np.ones(3, dtype=np.intp), np.ones(3))
        np.testing.assert_array_equal(before, pols[0].A_inv)


class TestTiebreakRows:
    """The stacked tie-break is the scalar helper, row by row."""

    @staticmethod
    def _check(scores):
        from repro.bandits import argmax_random_tiebreak
        from repro.sim.stacked import _tiebreak_rows

        rngs = [np.random.default_rng(i) for i in range(scores.shape[0])]
        twins = [np.random.default_rng(i) for i in range(scores.shape[0])]
        actions = _tiebreak_rows(scores, rngs)
        want = [argmax_random_tiebreak(row, g) for row, g in zip(scores, twins)]
        assert actions.tolist() == want
        for g, w in zip(rngs, twins):
            assert g.bit_generator.state == w.bit_generator.state
        return actions

    def test_mixed_tied_and_untied_rows(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 3, size=(300, 10)).astype(np.float64)
        scores[::7] = rng.random((len(scores[::7]), 10))  # untied rows
        self._check(scores)

    def test_all_rows_tied(self):
        self._check(np.ones((50, 6)))

    def test_no_row_tied(self):
        self._check(np.random.default_rng(1).random((40, 5)))

    def test_single_row(self):
        self._check(np.array([[0.5, 0.9, 0.9, 0.1]]))
        self._check(np.array([[0.5, 0.9, 0.2, 0.1]]))

    def test_ties_at_first_and_last_column(self):
        scores = np.array([[2.0, 1.0, 1.0, 2.0], [2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 3.0]] * 20)
        actions = self._check(scores)
        assert set(actions[0::3].tolist()) == {0, 3}
        assert set(actions[1::3].tolist()) == {0, 1}
        assert set(actions[2::3].tolist()) == {2, 3}

    def test_ucb1_infinite_scores(self):
        scores = np.array(
            [[np.inf, 0.3, np.inf], [np.inf] * 3, [0.1, np.inf, 0.2], [0.4, 0.4, 0.1]] * 10
        )
        self._check(scores)

    def test_ucb1_population_scores(self):
        stacked = stack_policies(_population(UCB1, 25, seed=4))
        self._check(stacked.scores())
