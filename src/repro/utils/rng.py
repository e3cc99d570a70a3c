"""Deterministic random-number plumbing.

Every stochastic component in :mod:`repro` accepts a ``seed`` argument
that may be ``None``, an ``int``, a :class:`numpy.random.SeedSequence`,
or an already-constructed :class:`numpy.random.Generator`.  This module
centralizes the coercion logic (:func:`ensure_rng`) and the hierarchical
seed-spawning used by the distributed simulation (:func:`spawn_rngs`;
:func:`spawn_generators` seeds a whole population's generators in one
vectorized pass over the same tree), so that

* a single experiment seed reproduces the entire multi-agent run, and
* per-agent streams are statistically independent (children of one
  ``SeedSequence``), meaning the *order* in which agents are simulated
  can never change results.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .exceptions import ValidationError

__all__ = ["ensure_rng", "spawn_generators", "spawn_rngs", "spawn_seeds", "rng_state_digest"]

RandomState = int | np.random.SeedSequence | np.random.Generator | None


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, a ``SeedSequence``,
        or a ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.

    Examples
    --------
    >>> g = ensure_rng(0)
    >>> h = ensure_rng(0)
    >>> float(g.random()) == float(h.random())
    True
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    raise ValidationError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_seeds(seed: RandomState, n: int) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child :class:`~numpy.random.SeedSequence`.

    Children are derived via the SeedSequence spawning protocol, so they
    are independent of each other *and* of the parent's future output.

    Raises
    ------
    ValidationError
        If ``n`` is negative or ``seed`` is a ``Generator`` (generators
        cannot be spawned without perturbing their stream in a way that
        is surprising to callers — pass the original seed instead).
    """
    if n < 0:
        raise ValidationError(f"cannot spawn a negative number of seeds: {n}")
    if isinstance(seed, np.random.Generator):
        # Spawning from a generator consumes entropy from its bit
        # generator's seed sequence; supported in numpy>=1.25 via
        # Generator.spawn, used here for convenience.
        return [g.bit_generator.seed_seq for g in seed.spawn(n)]  # type: ignore[attr-defined]
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(n))
    return list(np.random.SeedSequence(seed).spawn(n))


def spawn_rngs(seed: RandomState, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators (see :func:`spawn_seeds`)."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
_WORD = 2**32
_MASK = _WORD - 1


def _hash_constants(init: int, mult: int, k: int) -> list[int]:
    """numpy's running ``hash_const`` over ``k`` hashes (``k + 1`` values)."""
    out = [init]
    for _ in range(k):
        out.append((out[-1] * mult) & _MASK)
    return out


def _n_words(value) -> int:
    """How many uint32 words numpy's SeedSequence splits ``value`` into.

    An int takes one word per started 32 bits (0 takes one); a
    sequence takes the sum over its entries.
    """
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(_n_words(v) for v in value)


def _hashmix(value, before, after):
    """numpy's ``hashmix`` on uint32 arrays (which wrap like its C code)."""
    out = (value ^ before) * after
    return out ^ (out >> _XSHIFT)


# generate_state's hash constants for PCG64's 8 words, as (2, 4):
# word 4h + s hashes pool slot s
_STATE_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), np.uint32)
_STATE_BEFORE = _STATE_CONSTANTS[:-1].reshape(2, _POOL_SIZE)
_STATE_AFTER = _STATE_CONSTANTS[1:].reshape(2, _POOL_SIZE)


@functools.lru_cache(maxsize=64)
def _key_schedule(n_words: int, suffix: tuple[int, ...]):
    """numpy's ``mix_entropy`` operands from the counter word on.

    After ``n_words`` shared words the pool is the parent's own
    ``SeedSequence.pool``; what follows depends only on positions:
    the counter word's (before, after) hash constants and, for each
    ``suffix`` word, ``MIX_MULT_R * hashmix(word)`` — the operand of
    numpy's ``mix`` that does not depend on the counter.  Returned as
    ``(4,)`` uint32 arrays, one per pool slot.
    """
    # hashes before the counter: 4 fill the pool, 12 cross-mix it, 4 per
    # further word — 4 per word in all
    j = _POOL_SIZE * n_words
    hc = _hash_constants(_INIT_A, _MULT_A, j + _POOL_SIZE * (1 + len(suffix)))
    tail = []
    for k, w in enumerate(suffix, 1):
        hashed = []
        for d in range(j + _POOL_SIZE * k, j + _POOL_SIZE * (k + 1)):
            v = ((w ^ hc[d]) * hc[d + 1]) & _MASK
            hashed.append(int(_MIX_MULT_R) * (v ^ (v >> _XSHIFT)) & _MASK)
        tail.append(hashed)
    out = [hc[j : j + _POOL_SIZE], hc[j + 1 : j + _POOL_SIZE + 1], *tail]
    out = [np.array(a, dtype=np.uint32) for a in out]
    for a in out:  # shared by every caller of the memo
        a.setflags(write=False)
    return out[0], out[1], out[2:]


class _PresetSeedSequence(ISpawnableSeedSequence):
    """A SeedSequence whose PCG64 state words were computed in bulk.

    Hands :class:`~numpy.random.PCG64` the precomputed
    ``generate_state(4, uint64)`` words; anything else (``spawn``,
    ``entropy``, ``n_children_spawned``, other ``generate_state``
    shapes) builds the real :class:`~numpy.random.SeedSequence` on
    first use and delegates to it, so ``Generator.spawn`` deals the
    same children.  Pickles as that real SeedSequence.
    """

    __slots__ = ("_words", "_entropy", "_spawn_key", "_real")

    def __init__(self, words: np.ndarray, entropy, spawn_key: tuple) -> None:
        self._words = words
        self._entropy = entropy
        self._spawn_key = spawn_key
        self._real = None

    def _seed_sequence(self) -> np.random.SeedSequence:
        if self._real is None:
            self._real = np.random.SeedSequence(self._entropy, spawn_key=self._spawn_key)
        return self._real

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._words
        return self._seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seed_sequence().spawn(n_children)

    def __getattr__(self, name):
        if name.startswith("_"):  # an unset slot: never recurse into it
            raise AttributeError(name)
        return getattr(self._seed_sequence(), name)

    def __reduce__(self):
        return self._seed_sequence().__reduce__()


def spawn_generators(
    parent: np.random.SeedSequence | int | None,
    n: int,
    *,
    start: int = 0,
    suffix: tuple[int, ...] = (),
) -> list[np.random.Generator]:
    """``n`` generators addressed by spawn key under ``parent``, built in bulk.

    Generator ``i`` is bit-identical to ``default_rng(SeedSequence(
    parent.entropy, spawn_key=parent.spawn_key + (start + i,) +
    suffix))`` — so ``spawn_generators(root, n, start=root.n_children_spawned)``
    deals what ``[default_rng(s) for s in root.spawn(n)]`` would, and
    ``suffix=(j,)`` addresses grandchild ``j`` of each of those
    children.  numpy's entropy pool mixing and PCG64 state derivation
    run once for all ``n`` keys as uint32 array arithmetic instead of
    ``n`` Python-level hashes.  ``parent`` is not advanced: callers that
    spawn from one root repeatedly keep their own ``start`` counter.

    Raises
    ------
    ValidationError
        If ``n`` or ``start`` is negative, ``parent`` is a Generator or
        has a pool size other than 4, or a spawn-key word (``start + i``
        or a ``suffix`` entry) is ``2**32`` or more.
    """
    if isinstance(parent, np.random.Generator):
        raise ValidationError(
            "spawn_generators addresses children by spawn key; pass the "
            "root SeedSequence, not a Generator"
        )
    if not isinstance(parent, np.random.SeedSequence):
        parent = np.random.SeedSequence(parent)
    if n < 0 or start < 0:
        raise ValidationError(f"n and start must be >= 0, got n={n}, start={start}")
    if parent.pool_size != _POOL_SIZE:
        raise ValidationError(f"pool_size must be {_POOL_SIZE}, got {parent.pool_size}")
    suffix = tuple(int(w) for w in suffix)
    if start + n > _WORD or any(not 0 <= w < _WORD for w in suffix):
        raise ValidationError("spawn-key words must lie in [0, 2**32)")
    if n == 0:
        return []

    # A child's entropy words are the parent's run entropy zero-padded
    # to the pool size, the parent's key words, the counter, the suffix.
    # Zero padding mixes exactly like numpy's short-entropy fill, so
    # the pool after the words before the counter is parent.pool.
    n_words = max(_POOL_SIZE, _n_words(parent.entropy)) + _n_words(parent.spawn_key)
    before, after, tail = _key_schedule(n_words, suffix)

    # numpy's mix_entropy with the counter as an (n, 1) uint32 column:
    # mix(x, y) = MIX_MULT_L * x - MIX_MULT_R * y, then an xorshift
    counter = np.arange(start, start + n, dtype=np.uint32)[:, None]
    mixer = parent.pool * _MIX_MULT_L - _hashmix(counter, before, after) * _MIX_MULT_R
    mixer ^= mixer >> _XSHIFT
    for rhash in tail:
        mixer = mixer * _MIX_MULT_L - rhash
        mixer ^= mixer >> _XSHIFT

    # generate_state(4, uint64): 8 uint32 words cycling over the pool,
    # paired little-endian into uint64
    state = _hashmix(mixer[:, None, :], _STATE_BEFORE, _STATE_AFTER).reshape(n, 2 * _POOL_SIZE)
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)

    entropy, key = parent.entropy, parent.spawn_key
    return [
        np.random.Generator(
            np.random.PCG64(_PresetSeedSequence(state[i], entropy, key + (start + i,) + suffix))
        )
        for i in range(n)
    ]


def rng_state_digest(rng: np.random.Generator) -> int:
    """Cheap fingerprint of a generator's current state.

    Used in tests to assert that a code path did (or did not) consume
    randomness from a shared stream.
    """
    state = rng.bit_generator.state
    inner = state["state"]
    return hash(str(sorted(inner.items()) if isinstance(inner, dict) else state))


def iter_rngs(seed: RandomState) -> Iterator[np.random.Generator]:
    """Infinite iterator of independent generators rooted at ``seed``."""
    base = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed if not isinstance(seed, np.random.Generator) else None)
    )
    while True:
        (child,) = base.spawn(1)
        yield np.random.default_rng(child)


def permutation_from(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random permutation of ``range(n)`` as an index array."""
    if n < 0:
        raise ValidationError(f"permutation length must be >= 0, got {n}")
    return rng.permutation(n)
