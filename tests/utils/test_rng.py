"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.exceptions import ValidationError
from repro.utils.rng import (
    ensure_rng,
    iter_rngs,
    permutation_from,
    spawn_generators,
    spawn_rngs,
    spawn_seeds,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(8), ensure_rng(2).random(8))

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(42)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(ValidationError):
            ensure_rng("not-a-seed")  # type: ignore[arg-type]

    def test_numpy_integer_seed(self):
        a = ensure_rng(np.int64(3)).random()
        b = ensure_rng(3).random()
        assert a == b


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn_rngs(0, 10)) == 10

    def test_children_are_independent(self):
        g1, g2 = spawn_rngs(0, 2)
        assert not np.array_equal(g1.random(16), g2.random(16))

    def test_spawn_reproducible(self):
        a = [g.random() for g in spawn_rngs(5, 3)]
        b = [g.random() for g in spawn_rngs(5, 3)]
        assert a == b

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValidationError):
            spawn_seeds(0, -1)

    def test_spawn_from_seed_sequence(self):
        seq = np.random.SeedSequence(9)
        seeds = spawn_seeds(seq, 4)
        assert len(seeds) == 4

    def test_spawn_from_generator(self):
        g = np.random.default_rng(0)
        seeds = spawn_seeds(g, 2)
        assert len(seeds) == 2


class TestIterAndPermutation:
    def test_iter_rngs_yields_generators(self):
        it = iter_rngs(0)
        gens = [next(it) for _ in range(3)]
        assert all(isinstance(g, np.random.Generator) for g in gens)

    def test_permutation_is_permutation(self):
        g = np.random.default_rng(0)
        perm = permutation_from(g, 20)
        assert sorted(perm.tolist()) == list(range(20))

    def test_permutation_negative_raises(self):
        with pytest.raises(ValidationError):
            permutation_from(np.random.default_rng(0), -1)


class TestSpawnOrderRegression:
    """Pin the deterministic spawn order the fleet engine relies on.

    The fleet/sequential equivalence guarantee (repro.sim) rests on
    per-agent streams being *identified by spawn position*: agent i's
    policy, participation and session generators are children i of
    their parent SeedSequence, regardless of simulation order.  These
    golden values freeze the numpy spawning protocol as observed at the
    time the fleet engine shipped; if numpy or a refactor ever
    reorders child streams, every seeded experiment silently changes —
    this test makes that loud instead.
    """

    def test_spawn_keys_are_positional(self):
        seeds = spawn_seeds(1234, 4)
        assert [s.spawn_key for s in seeds] == [(0,), (1,), (2,), (3,)]
        # grandchildren extend the key tuple, preserving the tree path
        child = spawn_seeds(seeds[0], 2)
        assert [s.spawn_key for s in child] == [(0, 0), (0, 1)]

    def test_spawned_streams_golden_values(self):
        seeds = spawn_seeds(1234, 4)
        draws = [int(np.random.default_rng(s).integers(0, 2**32)) for s in seeds]
        assert draws == [1846833804, 3051574339, 1238630655, 1575710679]
        child = spawn_seeds(seeds[0], 2)
        draws = [int(np.random.default_rng(s).integers(0, 2**32)) for s in child]
        assert draws == [4262643536, 2938421772]

    def test_spawn_is_prefix_stable(self):
        """Spawning n then m more children never re-deals the first n —
        growing a population extends agent streams, never reorders them."""
        root_a = np.random.SeedSequence(77)
        root_b = np.random.SeedSequence(77)
        first = spawn_seeds(root_a, 3)
        both = spawn_seeds(root_b, 3) + spawn_seeds(root_b, 2)
        assert [s.spawn_key for s in both[:3]] == [s.spawn_key for s in first]
        for x, y in zip(first, both[:3]):
            np.testing.assert_array_equal(
                np.random.default_rng(x).random(8), np.random.default_rng(y).random(8)
            )


def _numpy_children(parent, n, *, start=0, suffix=()):
    """The reference: each generator seeded through numpy's own SeedSequence."""
    return [
        np.random.default_rng(
            np.random.SeedSequence(
                parent.entropy, spawn_key=parent.spawn_key + (start + i,) + suffix
            )
        )
        for i in range(n)
    ]


def _assert_same_streams(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.bit_generator.state == w.bit_generator.state
        np.testing.assert_array_equal(g.random(4), w.random(4))
        np.testing.assert_array_equal(g.integers(0, 2**63, 3), w.integers(0, 2**63, 3))


ROOTS = {
    "small-int": lambda: np.random.SeedSequence(5),
    "128-bit": lambda: np.random.SeedSequence(2**127 + 0x1234_5678_9ABC),
    "none": lambda: np.random.SeedSequence(),
    "wide-entropy": lambda: np.random.SeedSequence(2**200 + 3),
    "word-list": lambda: np.random.SeedSequence([1, 2, 3, 4, 5, 6]),
    "nested-key": lambda: np.random.SeedSequence(7, spawn_key=(3, 1)),
    "multiword-key": lambda: np.random.SeedSequence(7, spawn_key=(2**40 + 9,)),
    "spawned-child": lambda: np.random.SeedSequence(9).spawn(2)[1],
    "uint32-array": lambda: np.random.SeedSequence(np.arange(6, dtype=np.uint32) * 7),
    "int64-array": lambda: np.random.SeedSequence(np.array([1, 2**33, 0], np.int64)),
    "numpy-int": lambda: np.random.SeedSequence(np.uint64(2**40), spawn_key=(np.int64(3),)),
    "zero-words": lambda: np.random.SeedSequence([0, 0, 0, 0, 0], spawn_key=(0, 0)),
}


class TestSpawnGenerators:
    """spawn_generators is numpy's SeedSequence tree, computed in bulk."""

    @pytest.mark.parametrize("root", list(ROOTS.values()), ids=list(ROOTS))
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("start", [0, 1000])
    @pytest.mark.parametrize("suffix", [(), (0,), (1,), (2, 7)])
    def test_matches_numpy_seed_sequence(self, root, n, start, suffix):
        parent = root()
        _assert_same_streams(
            spawn_generators(parent, n, start=start, suffix=suffix),
            _numpy_children(parent, n, start=start, suffix=suffix),
        )

    def test_last_counter_word(self):
        parent = np.random.SeedSequence(11)
        _assert_same_streams(
            spawn_generators(parent, 2, start=2**32 - 2),
            _numpy_children(parent, 2, start=2**32 - 2),
        )

    def test_int_and_none_parents_are_coerced(self):
        _assert_same_streams(spawn_generators(5, 3), _numpy_children(np.random.SeedSequence(5), 3))
        assert len(spawn_generators(None, 2)) == 2

    def test_equals_spawning_from_the_root(self):
        root = np.random.SeedSequence(1234)
        root.spawn(3)
        bulk = spawn_generators(root, 4, start=root.n_children_spawned)
        _assert_same_streams(bulk, [np.random.default_rng(s) for s in root.spawn(4)])

    def test_spawned_children_are_numpys(self):
        parent = np.random.SeedSequence(2**100 + 1)
        (g,) = spawn_generators(parent, 1, start=4, suffix=(1,))
        (w,) = _numpy_children(parent, 1, start=4, suffix=(1,))
        # twice: the second spawn continues the first's counter
        for _ in range(2):
            _assert_same_streams(g.spawn(3), w.spawn(3))
        seq = g.bit_generator.seed_seq
        assert seq.entropy == parent.entropy
        assert seq.spawn_key == (4, 1)
        assert seq.n_children_spawned == 6
        assert spawn_seeds(g, 1)[0].spawn_key == (4, 1, 6)

    def test_pickles_as_numpy_seed_sequence(self):
        import pickle

        parent = np.random.SeedSequence(77)
        g = spawn_generators(parent, 3, start=2)[1]
        g.random(5)
        h = pickle.loads(pickle.dumps(g))
        seq = h.bit_generator.seed_seq
        assert type(seq) is np.random.SeedSequence
        assert seq.spawn_key == (3,)
        assert h.bit_generator.state == g.bit_generator.state
        _assert_same_streams(h.spawn(2), g.spawn(2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, start=2**32),
            dict(n=2, start=2**32 - 1),
            dict(n=1, suffix=(2**32,)),
            dict(n=1, suffix=(-1,)),
            dict(n=-1),
            dict(n=1, start=-1),
        ],
    )
    def test_out_of_range_key_words_raise(self, kwargs):
        with pytest.raises(ValidationError):
            spawn_generators(np.random.SeedSequence(0), **kwargs)

    def test_other_pool_sizes_raise(self):
        with pytest.raises(ValidationError):
            spawn_generators(np.random.SeedSequence(0, pool_size=8), 1)

    def test_generator_parent_raises(self):
        with pytest.raises(ValidationError):
            spawn_generators(np.random.default_rng(0), 1)
