#!/usr/bin/env python
"""Quickstart: a complete P2B round-trip in ~40 lines.

Builds a warm-private P2B deployment on the paper's synthetic
preference benchmark, runs a contribution phase, prints the privacy
report, and shows a warm-started agent beating a cold one.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import AgentMode, P2BConfig, P2BSystem, SyntheticPreferenceEnvironment


def run_agent(agent, session, n_steps: int) -> float:
    """Interact ``n_steps`` times; return the mean ground-truth reward."""
    total = 0.0
    for _ in range(n_steps):
        x = session.next_context()
        action = agent.act(x)
        reward = session.reward(action)
        agent.learn(x, action, reward)
        total += session.expected_rewards()[action]
    return total / n_steps


def main() -> None:
    env = SyntheticPreferenceEnvironment(
        n_actions=10, n_features=10, weight_scale=8.0, seed=0
    )
    config = P2BConfig(
        n_actions=10,
        n_features=10,
        n_codes=64,  # k: the codebook size (crowds of ~U/k users per code)
        p=0.5,  # participation probability  =>  eps = ln 2
        window=10,  # T local interactions per participation coin
        shuffler_threshold=1,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=0)

    # --- contribution phase: 5000 users interact and opportunistically report
    contributors = system.new_agents(5000)  # seeded in one bulk pass
    users = env.user_population(5000, seed=1)
    for agent, user in zip(contributors, users):
        run_agent(agent, user, n_steps=10)
    outcome = system.collect(contributors)
    print(f"reports collected: {outcome.n_reports}, released after shuffling: "
          f"{outcome.n_released}")
    print(system.privacy_report())  # eps = ln 2 ~ 0.693 at p = 0.5

    # --- evaluation: warm-started agents vs a cold agent on fresh users
    warm_rewards, cold_rewards = [], []
    for seed in range(40):
        warm = system.new_warm_agent()
        warm_rewards.append(run_agent(warm, env.new_user(1000 + seed), 10))
        cold_system = P2BSystem(config, mode=AgentMode.COLD, seed=seed)
        cold = cold_system.new_agent()
        cold_rewards.append(run_agent(cold, env.new_user(1000 + seed), 10))
    print(f"warm-private mean reward: {np.mean(warm_rewards):.4f}")
    print(f"cold          mean reward: {np.mean(cold_rewards):.4f}")


if __name__ == "__main__":
    main()
