"""Chaos-smoke counters for the CI step summary.

Runs three small deterministic fault scenarios — supervised recovery,
degraded (skip_shard) execution, and report-batch corruption — and
prints a markdown table of the counters CI surfaces:

* how many faults the seeded plan injected and how many were recovered
  (a recovered fault is bitwise invisible: the run's results equal the
  fault-free twin's);
* how many shards were degraded out under ``skip_shard``;
* how many malformed tuples the shuffler quarantined while collection
  kept going and the crowd-blending audit passed.

Usage::

    PYTHONPATH=src python benchmarks/chaos_summary.py >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import numpy as np

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import FaultPlan, FaultPolicy, FaultSpec, FleetRunner
from repro.utils.rng import spawn_generators, spawn_seeds

N_ACTIONS, N_FEATURES, N_AGENTS, HORIZON = 4, 5, 12, 10


def _population(seed):
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, N_AGENTS)):
        ps, ss = s.spawn(2)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=ps)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(env.new_user(ss))
    return agents, sessions


def recovery_counters() -> tuple[int, bool]:
    plan = FaultPlan(seed=11, p_raise=0.1, p_crash=0.05)
    injected = sum(
        1 for s in range(3) for t in range(HORIZON) if plan.step_fault(s, t, 0)
    )
    agents_a, sessions_a = _population(0)
    base = FleetRunner(agents_a, sessions_a).run(HORIZON)
    agents_b, sessions_b = _population(0)
    chaos = FleetRunner(
        agents_b, sessions_b, fault_plan=plan,
        fault_policy=FaultPolicy(max_retries=3, backoff=0.0),
    ).run(HORIZON)
    invisible = (
        chaos.dropped == ()
        and np.array_equal(base.rewards, chaos.rewards)
        and np.array_equal(base.actions, chaos.actions)
    )
    return injected, invisible


def degraded_counters() -> tuple[int, int]:
    specs = [FaultSpec("raise", 1, 2, attempt=k) for k in range(3)]
    agents, sessions = _population(1)
    result = FleetRunner(
        agents, sessions, fault_plan=FaultPlan(specs),
        fault_policy=FaultPolicy(max_retries=2, backoff=0.0, on_exhausted="skip_shard"),
    ).run(HORIZON)
    return len(result.dropped), sum(d.n_agents for d in result.dropped)


def quarantine_counters() -> tuple[int, int, bool]:
    config = P2BConfig(
        n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8,
        shuffler_threshold=2, window=3, max_reports_per_user=2, p=0.7,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=0)
    system.fault_plan = FaultPlan(seed=13, p_corrupt=1.0, corrupt_frac=0.25)
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    agents = system.new_agents(N_AGENTS)
    sessions = [env.new_user(g) for g in spawn_generators(2, N_AGENTS)]
    FleetRunner(agents, sessions).run(HORIZON)
    outcome = system.collect(agents)  # raises if the audit is violated
    return (
        system.shuffler.total_quarantined,
        outcome.n_released,
        outcome.shuffler_stats.audit.satisfied,
    )


def main() -> int:
    injected, invisible = recovery_counters()
    n_dropped, n_degraded_agents = degraded_counters()
    n_quarantined, n_released, audit_ok = quarantine_counters()
    print("### chaos smoke")
    print()
    print("| counter | value |")
    print("| --- | --- |")
    print(f"| faults injected (seeded plan) | {injected} |")
    print(f"| recovery bitwise invisible | {'yes' if invisible else 'NO'} |")
    print(f"| shards degraded out (skip_shard) | {n_dropped} |")
    print(f"| agents on dropped shards | {n_degraded_agents} |")
    print(f"| malformed tuples quarantined | {n_quarantined} |")
    print(f"| tuples still released | {n_released} |")
    print(f"| crowd-blending audit | {'pass' if audit_ok else 'FAIL'} |")
    ok = invisible and injected > 0 and n_dropped == 1 and n_quarantined > 0 and audit_ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
