"""The trusted shuffler (paper §3.3).

Performs, in order, the three PROCHLO-style operations the paper
specifies:

1. **Anonymization** — every received report is stripped of all
   metadata (the in-process stand-in for discarding IP addresses and
   enclave attestation; see the substitutions in EXPERIMENTS.md §1).
2. **Shuffling** — batch order is randomized, destroying arrival-order
   correlations.
3. **Thresholding** — tuples whose encoded context appears fewer than
   ``threshold`` times in the batch are dropped.  The threshold *is*
   the crowd-blending ``l`` (§4).

The shuffler returns both the released batch and a
:class:`~repro.privacy.crowd_blending.CrowdBlendingAudit` so callers
can assert the privacy invariant held (the audit on released output
must always pass — a property test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..privacy.crowd_blending import CrowdBlendingAudit, verify_crowd_blending
from ..utils.rng import ensure_rng
from ..utils.validation import check_positive_int
from .payload import (
    EncodedReport,
    encoded_reports_from_arrays,
    encoded_reports_to_arrays,
)

__all__ = ["Shuffler", "ShufflerStats"]


@dataclass(frozen=True)
class ShufflerStats:
    """Book-keeping for one shuffler batch.

    ``n_quarantined`` counts malformed tuples refused at the door —
    negative or out-of-range codes, negative actions, non-finite
    rewards, or whole batches with misaligned columns — which are
    excluded *before* shuffling and thresholding, so they can never
    reach the released stream or skew the crowd-blending audit.
    """

    n_received: int
    n_released: int
    n_dropped: int
    codes_received: int
    codes_released: int
    audit: CrowdBlendingAudit
    n_quarantined: int = 0


class Shuffler:
    """Anonymize → shuffle → threshold (paper §3.3).

    Parameters
    ----------
    threshold:
        Minimum per-code batch frequency for release (the crowd-blending
        ``l``).
    seed:
        Randomness for the shuffle permutation.
    n_codes:
        Size of the valid code space, when known (the encoder's
        codebook size).  Codes ``>= n_codes`` are then quarantined as
        out-of-range; ``None`` (default) only rejects negatives —
        raw-signature code spaces can be huge and sparse.

    Malformed input — a device shipping garbage, a corrupted transport
    batch — is **quarantined, not raised**: collection is the
    production hot loop, and one bad reporter must not stall every
    honest one.  Quarantined tuples are counted per batch
    (``ShufflerStats.n_quarantined``) and cumulatively
    (:attr:`total_quarantined`), and never reach the shuffle,
    threshold, release, or audit stages.
    """

    def __init__(
        self, threshold: int = 10, *, seed=None, n_codes: int | None = None
    ) -> None:
        self.threshold = check_positive_int(threshold, name="threshold")
        if n_codes is not None:
            n_codes = check_positive_int(n_codes, name="n_codes")
        self.n_codes = n_codes
        self._rng = ensure_rng(seed)
        # asynchronous-collection buffer: column triples accumulated by
        # buffer_arrays, released by release_ready when thresholds fill
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: malformed tuples quarantined over this shuffler's lifetime
        self.total_quarantined = 0
        # quarantined since the last release_ready (reported in its stats)
        self._pending_quarantined = 0

    def _sanitize(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Split off malformed rows; returns the clean columns + bad count.

        Runs *before* the shuffle permutation, so a batch with nothing
        malformed consumes the RNG exactly as it always did.
        """
        bad = (codes < 0) | (actions < 0) | ~np.isfinite(rewards)
        if self.n_codes is not None:
            bad |= codes >= self.n_codes
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            good = ~bad
            codes, actions, rewards = codes[good], actions[good], rewards[good]
        return codes, actions, rewards, n_bad

    def process(
        self, reports: Sequence[EncodedReport]
    ) -> tuple[list[EncodedReport], ShufflerStats]:
        """Run one batch through the three-stage pipeline.

        Implemented over the columnar representation: converting to
        arrays *is* the anonymization step (array form carries no
        metadata), and shuffling/thresholding become one permutation
        plus one bincount instead of per-report Python work.

        Returns
        -------
        (released, stats)
            ``released`` is the anonymized, shuffled, thresholded batch;
            ``stats.audit`` is the crowd-blending audit of the release
            (guaranteed satisfied by construction).
        """
        codes, actions, rewards = encoded_reports_to_arrays(reports)
        r_codes, r_actions, r_rewards, stats = self.process_arrays(codes, actions, rewards)
        released = encoded_reports_from_arrays(r_codes, r_actions, r_rewards)
        return released, stats

    def process_arrays(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, ShufflerStats]:
        """Columnar fast path: anonymize → shuffle → threshold on arrays.

        The per-batch RNG consumption is identical to the object path
        (one permutation draw for a non-empty batch, nothing for an
        empty one), so object and array callers are interchangeable
        mid-stream.
        """
        codes = np.asarray(codes, dtype=np.intp).ravel()
        actions = np.asarray(actions, dtype=np.intp).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        n_received = codes.shape[0]
        # 0. quarantine — malformed tuples never reach the pipeline
        codes, actions, rewards, n_quarantined = self._sanitize(
            codes, actions, rewards
        )
        self.total_quarantined += n_quarantined
        n_clean = codes.shape[0]
        # 1. anonymization — the columnar form carries no metadata.
        # 2. shuffling
        if n_clean:
            order = self._rng.permutation(n_clean)
            codes, actions, rewards = codes[order], actions[order], rewards[order]
        # 3. thresholding (via one unique call, not bincount: code
        # spaces can be huge and sparse, e.g. 2^30 for wide LSH
        # signatures; the same counts drive the release mask and both
        # code-diversity stats)
        codes_received = codes_released = 0
        if n_clean:
            _, inverse, batch_counts = np.unique(
                codes, return_inverse=True, return_counts=True
            )
            codes_received = int(batch_counts.size)
            released_mask = batch_counts >= self.threshold
            codes_released = int(np.count_nonzero(released_mask))
            keep = released_mask[inverse]
            codes, actions, rewards = codes[keep], actions[keep], rewards[keep]
        audit = verify_crowd_blending(codes, self.threshold)
        stats = ShufflerStats(
            n_received=n_received,
            n_released=int(codes.shape[0]),
            n_dropped=n_clean - int(codes.shape[0]),
            codes_received=codes_received,
            codes_released=codes_released,
            audit=audit,
            n_quarantined=n_quarantined,
        )
        return codes, actions, rewards, stats

    # ------------------------------------------------------------------ #
    # asynchronous collection: devices report on their own clocks, the
    # shuffler releases when thresholds fill — no global round barrier
    @property
    def n_pending(self) -> int:
        """Tuples buffered but not yet released (awaiting crowd-mates)."""
        return sum(c.shape[0] for c, _, _ in self._pending)

    def buffer_arrays(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> int:
        """Accept one columnar report batch into the pending buffer.

        Nothing is released here — arrival time stops mattering the
        moment tuples enter the buffer (they are anonymized to columns
        immediately and shuffled with the whole buffer at the next
        :meth:`release_ready`).  Returns the new pending count.

        Malformed input is quarantined, never raised: misaligned
        columns void the whole batch (tuples cannot be paired up), and
        out-of-range rows of an aligned batch are dropped row-wise —
        both counted into :attr:`total_quarantined` and the next
        :meth:`release_ready` stats, while collection continues.
        """
        codes = np.asarray(codes, dtype=np.intp).ravel()
        actions = np.asarray(actions, dtype=np.intp).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if not (codes.shape[0] == actions.shape[0] == rewards.shape[0]):
            n_bad = int(max(codes.shape[0], actions.shape[0], rewards.shape[0]))
            self.total_quarantined += n_bad
            self._pending_quarantined += n_bad
            return self.n_pending
        codes, actions, rewards, n_bad = self._sanitize(codes, actions, rewards)
        self.total_quarantined += n_bad
        self._pending_quarantined += n_bad
        if codes.shape[0]:
            self._pending.append((codes, actions, rewards))
        return self.n_pending

    def buffer_reports(self, reports: Sequence[EncodedReport]) -> int:
        """Object-path convenience for :meth:`buffer_arrays`."""
        return self.buffer_arrays(*encoded_reports_to_arrays(reports))

    def release_ready(
        self, *, final: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, ShufflerStats]:
        """Release every pending tuple whose code's crowd has filled.

        The whole buffer is shuffled (one permutation draw when
        non-empty, the same RNG discipline as :meth:`process_arrays`),
        then codes appearing at least ``threshold`` times *across the
        buffer* release; sub-threshold tuples stay pending — they wait
        for crowd-mates from later reports instead of being dropped,
        which is the asynchronous analogue of the per-batch threshold.
        ``final=True`` drops the stragglers instead (end of deployment:
        their crowd never arrived), leaving the buffer empty.

        Crowd-blending holds per release by construction (every
        released code brought ``>= threshold`` tuples with it), and
        ``stats.audit`` asserts it.  In ``stats``, ``n_received``
        counts the tuples considered (the whole buffer) and
        ``n_dropped`` the tuples *permanently* dropped — zero unless
        ``final`` (retained tuples are neither released nor dropped).
        """
        if self._pending:
            codes = np.concatenate([c for c, _, _ in self._pending])
            actions = np.concatenate([a for _, a, _ in self._pending])
            rewards = np.concatenate([r for _, _, r in self._pending])
        else:
            codes = np.empty(0, dtype=np.intp)
            actions = np.empty(0, dtype=np.intp)
            rewards = np.empty(0, dtype=np.float64)
        n_buffered = codes.shape[0]
        if n_buffered:
            order = self._rng.permutation(n_buffered)
            codes, actions, rewards = codes[order], actions[order], rewards[order]
        codes_received = codes_released = 0
        if n_buffered:
            _, inverse, counts = np.unique(
                codes, return_inverse=True, return_counts=True
            )
            codes_received = int(counts.size)
            released_mask = counts >= self.threshold
            codes_released = int(np.count_nonzero(released_mask))
            keep = released_mask[inverse]
            retained = (codes[~keep], actions[~keep], rewards[~keep])
            codes, actions, rewards = codes[keep], actions[keep], rewards[keep]
        else:
            retained = (codes, actions, rewards)
        n_released = int(codes.shape[0])
        n_retained = int(retained[0].shape[0])
        self._pending = [] if final or n_retained == 0 else [retained]
        audit = verify_crowd_blending(codes, self.threshold)
        n_quarantined = self._pending_quarantined
        self._pending_quarantined = 0
        stats = ShufflerStats(
            n_received=n_buffered,
            n_released=n_released,
            n_dropped=n_buffered - n_released if final else 0,
            codes_received=codes_received,
            codes_released=codes_released,
            audit=audit,
            n_quarantined=n_quarantined,
        )
        return codes, actions, rewards, stats
