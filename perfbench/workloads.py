"""The benchmark's three workloads, each one of the paper's experiments.

Every workload is driven through the entry points a user calls
(``run_setting``, ``compare_settings``, ``FleetService``) with the
default :class:`~repro.experiments.runner.EngineConfig` (bit tier,
serial engine).  A workload seed fixes every input: the synthetic
world or corpus, the public codebook and every population.

One *pass* of a workload runs ``instances`` independent instances of
the experiment, instance ``j`` seeded with ``1000 * seed + j``.  Each
instance is set up (timed as ``setup_s``: everything before its first
timed call) and then driven by one timed request.  The learned reward
of one instance varies a lot with its world and population; averaging
several per pass keeps ``reward_mean`` steady across seeds while it
stays exact for any one seed.

Each request returns a digest of its results: evaluation curves, reward
sums, report and release counts, and a hash of every central model
snapshot.  Two runs of one seed must give the same digest.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data import (
    DriftingSyntheticEnvironment,
    MultilabelBanditEnvironment,
    SyntheticPreferenceEnvironment,
    make_mediamill_like,
)
from repro.encoding.kmeans_encoder import KMeansEncoder
from repro.experiments.runner import EngineConfig, compare_settings, run_setting
from repro.experiments.serve import FleetService
from repro.sim.fleet import FleetRunner

#: Seed kept out of development: no run with it informed any choice of
#: scale or bound, so a later claim can be re-checked on inputs it was
#: not tuned on (README.md lists the seeds that were used).
HELD_OUT_SEED = 7331


def instance_seed(seed: int, j: int) -> int:
    return 1000 * seed + j


# ---------------------------------------------------------------------- #
# digests
class Digest:
    """SHA-256 over a canonical byte form of result values."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> "Digest":
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(f"nd{v.dtype.str}{v.shape}".encode())
                self._h.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, dict):
                for key in sorted(v):
                    self.add(str(key), v[key])
            elif isinstance(v, (list, tuple)):
                self._h.update(f"seq{len(v)}".encode())
                self.add(*v)
            elif isinstance(v, (float, np.floating)):
                self._h.update(float(v).hex().encode())
            else:
                self._h.update(repr(v).encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def model_hash(system: P2BSystem) -> str:
    """Hash of the central model snapshot (``"none"`` for cold systems)."""
    if system.server is None:
        return "none"
    return Digest().add(system.model_snapshot()).hexdigest()


@contextmanager
def captured():
    """Record the systems built and the fleet shards run inside the block.

    ``run_setting`` keeps its system and its fleet runners to itself;
    the digest needs the central model it trained and the error rate
    needs the shards it ran and dropped.  The hooks add one Python call
    per system built and per fleet run, so they stay on in timed passes.
    """
    seen = {"systems": [], "shards": 0, "dropped": 0}
    init, run = P2BSystem.__init__, FleetRunner.run

    def capture_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen["systems"].append(self)

    def capture_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        seen["shards"] += self.n_shards
        if result is not None:
            seen["dropped"] += len(result.dropped)
        return result

    P2BSystem.__init__, FleetRunner.run = capture_init, capture_run
    try:
        yield seen
    finally:
        P2BSystem.__init__, FleetRunner.run = init, run


def _result_digest(digest: Digest, result) -> None:
    digest.add(
        result.mode,
        result.curve,
        result.cumulative_curve,
        result.mean_reward,
        result.n_reports,
        result.n_released,
        result.privacy,
    )


# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one timed request produced."""

    seconds: float  #: wall time of the timed request
    interactions: int  #: agent-interactions completed
    latencies: list[float]  #: seconds per interact request
    reward: float  #: warm-private mean evaluated (or served) reward
    digest: str
    #: operations run: fleet shards on the batch workloads, service
    #: requests on serve_churn
    attempted: int
    #: dropped shards (batch) or failed requests plus dropped shards (serve)
    failed: int = 0


class Fig4Synthetic:
    """Fig. 4's synthetic population at its large-U end (warm-private)."""

    name = "fig4_synthetic"
    why = (
        "many contributors living T=10 steps: population build, scalar per-agent "
        "encode and cold-table tie-breaks carry it; no dense kernels"
    )
    n_actions = 10
    n_features = 10
    window = 10

    def __init__(self, n_contributors: int = 2000, n_eval: int = 200, instances: int = 6):
        self.n_contributors = n_contributors
        self.n_eval = n_eval
        self.instances = instances

    def reduced(self) -> "Fig4Synthetic":
        return Fig4Synthetic(n_contributors=200, n_eval=30, instances=1)

    def setup(self, seed: int):
        env = SyntheticPreferenceEnvironment(
            n_actions=self.n_actions, n_features=self.n_features, weight_scale=8.0, seed=seed
        )
        # figure4 parameters: k=2^6, p=0.5, threshold 1, T=window=10
        config = P2BConfig(
            n_actions=self.n_actions,
            n_features=self.n_features,
            n_codes=2**6,
            q=1,
            p=0.5,
            window=self.window,
            shuffler_threshold=1,
            alpha=1.0,
        )
        # the public codebook, fitted once and shared as population_sweep does
        encoder = KMeansEncoder(
            n_codes=config.n_codes, n_features=config.n_features, q=config.q, seed=seed
        ).fit()
        return env, config, encoder, seed

    def request(self, world, engine: EngineConfig) -> Outcome:
        env, config, encoder, seed = world
        with captured() as seen:
            t0 = time.perf_counter()
            result = run_setting(
                env,
                config,
                AgentMode.WARM_PRIVATE,
                n_contributors=self.n_contributors,
                contributor_interactions=self.window,
                n_eval_agents=self.n_eval,
                eval_interactions=self.window,
                seed=seed,
                encoder=encoder,
                measure="expected",
                engine=engine,
            )
            seconds = time.perf_counter() - t0
        digest = Digest()
        _result_digest(digest, result)
        digest.add([model_hash(s) for s in seen["systems"]])
        return Outcome(
            seconds=seconds,
            interactions=(self.n_contributors + self.n_eval) * self.window,
            latencies=[seconds],
            reward=result.mean_reward,
            digest=digest.hexdigest(),
            attempted=seen["shards"],
            failed=seen["dropped"],
        )


class _MultilabelFactory:
    """Fresh, identically seeded environment per setting (as figure6 builds it)."""

    def __init__(self, dataset, samples_per_user: int, seed: int) -> None:
        self.dataset = dataset
        self.samples_per_user = samples_per_user
        self.seed = seed

    def __call__(self) -> MultilabelBanditEnvironment:
        return MultilabelBanditEnvironment(
            self.dataset, samples_per_user=self.samples_per_user, seed=self.seed
        )


class Fig6Multilabel:
    """Fig. 6's multi-label replay: cold, warm-nonprivate and warm-private."""

    name = "fig6_multilabel"
    why = (
        "long horizons on few agents: dense LinUCB select/update lead, encode goes "
        "through encode_batch; the control for encode, build and tie-break changes"
    )
    n_actions = 40
    n_codes = 2**5
    samples_per_user = 100

    def __init__(
        self,
        n_agents: int = 240,
        contributor_interactions: int = 30,
        eval_interactions: int = 100,
        instances: int = 6,
    ):
        self.n_agents = n_agents
        self.n_contributors = int(round(0.7 * n_agents))
        self.n_eval = n_agents - self.n_contributors
        self.contributor_interactions = contributor_interactions
        self.eval_interactions = eval_interactions
        self.instances = instances

    def reduced(self) -> "Fig6Multilabel":
        return Fig6Multilabel(
            n_agents=60, contributor_interactions=30, eval_interactions=40, instances=1
        )

    def setup(self, seed: int):
        # figure6's corpus size, codebook and threshold rules for this scale
        dataset = make_mediamill_like(
            max(4000, self.n_agents * self.samples_per_user // 8), seed=seed
        )
        config = P2BConfig(
            n_actions=self.n_actions,
            n_features=dataset.n_features,
            n_codes=self.n_codes,
            q=1,
            p=0.5,
            window=10,
            shuffler_threshold=max(2, int(round(10 * self.n_agents / 3000))),
            alpha=1.0,
        )
        encoder = KMeansEncoder(
            n_codes=self.n_codes, n_features=dataset.n_features, q=1, seed=seed
        ).fit(dataset.X[: min(5000, dataset.X.shape[0])])
        return dataset, config, encoder, seed

    def request(self, world, engine: EngineConfig) -> Outcome:
        dataset, config, encoder, seed = world
        with captured() as seen:
            t0 = time.perf_counter()
            comparison = compare_settings(
                _MultilabelFactory(dataset, self.samples_per_user, seed),
                config,
                n_contributors=self.n_contributors,
                contributor_interactions=self.contributor_interactions,
                n_eval_agents=self.n_eval,
                eval_interactions=self.eval_interactions,
                seed=seed,
                encoder=encoder,
                engine=engine,
            )
            seconds = time.perf_counter() - t0
        digest = Digest()
        interactions = 0
        for mode in comparison.modes():
            result = comparison[mode]
            _result_digest(digest, result)
            interactions += result.n_eval_agents * result.eval_interactions
            interactions += result.n_contributors * self.contributor_interactions
        digest.add([model_hash(s) for s in seen["systems"]])
        return Outcome(
            seconds=seconds,
            interactions=interactions,
            latencies=[seconds],
            reward=comparison[AgentMode.WARM_PRIVATE].mean_reward,
            digest=digest.hexdigest(),
            attempted=seen["shards"],
            failed=seen["dropped"],
        )


class ServeChurn:
    """One closed-loop client driving FleetService under churn and drift."""

    name = "serve_churn"
    why = (
        "drift re-encodes and re-plans every epoch, churn and refresh restack every "
        "request, the shuffler takes many small async batches"
    )
    n_actions = 10
    n_features = 10
    collect_every = 4
    refresh_every = 12
    instances = 1

    def __init__(self, n_agents: int = 400, cycles: int = 30, steps: int = 10):
        self.n_agents = n_agents
        self.cycles = cycles
        self.steps = steps
        self.churn = max(1, n_agents // 100)

    def reduced(self) -> "ServeChurn":
        return ServeChurn(n_agents=50, cycles=6, steps=5)

    def setup(self, seed: int) -> FleetService:
        env = DriftingSyntheticEnvironment(
            n_actions=self.n_actions,
            n_features=self.n_features,
            # one epoch per request: every request re-plans once per agent,
            # so request latency has one mode and a steady median
            epoch_length=self.steps,
            weight_scale=8.0,
            seed=seed,
        )
        config = P2BConfig(
            n_actions=self.n_actions,
            n_features=self.n_features,
            n_codes=2**6,
            q=1,
            p=0.5,
            window=10,
            shuffler_threshold=10,
            max_reports_per_user=self.cycles,
            alpha=1.0,
        )
        service = FleetService(config, env, engine=EngineConfig(), seed=seed)
        service.arrive(self.n_agents)
        # the first request pays the one-time stack
        service.interact(1)
        return service

    def request(self, service: FleetService, engine: EngineConfig) -> Outcome:
        # FleetService took its engine (the default) at construction
        start = service.stats
        results = []
        latencies = []
        attempted = 0
        t0 = time.perf_counter()
        for cycle in range(1, self.cycles + 1):
            service.arrive(self.churn)
            service.depart(list(range(self.churn)))
            s = time.perf_counter()
            results.append(service.interact(self.steps))
            latencies.append(time.perf_counter() - s)
            attempted += 3
            if cycle % self.collect_every == 0:
                service.collect()
                attempted += 1
            if cycle % self.refresh_every == 0:
                service.refresh()
                attempted += 1
        seconds = time.perf_counter() - t0
        flushed = service.flush()
        stats = service.stats
        digest = Digest()
        served = 0.0
        n_served = 0
        for result in results:
            digest.add(result.rewards, result.actions)
            served += float(result.rewards.sum())
            n_served += result.rewards.size
        digest.add(
            stats.n_interactions,
            stats.n_reports,
            stats.n_released,
            stats.n_pending,
            flushed.n_released,
            model_hash(service.system),
        )
        return Outcome(
            seconds=seconds,
            interactions=stats.n_interactions - start.n_interactions,
            latencies=latencies,
            reward=served / n_served,
            digest=digest.hexdigest(),
            attempted=attempted + 1,
            failed=stats.n_dropped_shards,
        )


WORKLOADS = {w.name: w for w in (Fig4Synthetic(), Fig6Multilabel(), ServeChurn())}
