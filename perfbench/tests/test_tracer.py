"""The tracer and the layer wrappers: exact, removable, self-consistent."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import layers
import numpy as np
import pytest
import run
from tracer import Tracer
from workloads import WORKLOADS, Fig4Synthetic, Fig6Multilabel, ServeChurn

from repro.bandits.code_linucb import CodeLinUCB
from repro.experiments.runner import EngineConfig
from repro.sim.stacked import StackedCodeLinUCB


def ticking_clock(step: float = 1.0):
    """A clock that advances ``step`` on every read."""
    counter = itertools.count()
    return lambda: step * next(counter)


class Toy:
    def outer(self, x):
        return self.inner(x) + self.inner(x + 1)

    def inner(self, x):
        return 2 * x

    def recurse(self, n):
        return 0 if n == 0 else 1 + self.recurse(n - 1)


def class_attrs(classes):
    return {(cls, k): v for cls in classes for k, v in vars(cls).items()}


def test_wrap_keeps_results_and_unwrap_restores():
    original = dict(vars(Toy))
    expected = Toy().outer(3)
    with Tracer() as tracer:
        tracer.wrap(Toy, "outer", "toy.outer")
        tracer.wrap(Toy, "inner", "toy.inner")
        assert Toy.__dict__["outer"] is not original["outer"]
        assert Toy().outer(3) == expected
    assert dict(vars(Toy)) == original


def test_wrap_rejects_inherited_attribute():
    class Child(Toy):
        pass

    with Tracer() as tracer, pytest.raises(TypeError):
        tracer.wrap(Child, "inner", "toy.inner")


def test_nested_self_times_with_known_clock():
    # each clock read advances 1: outer opens at 0, inner spans take
    # [1, 2] and [3, 4], outer closes at 5
    with Tracer(clock=ticking_clock()) as tracer:
        tracer.wrap(Toy, "outer", "toy.outer")
        tracer.wrap(Toy, "inner", "toy.inner")
        Toy().outer(1)
    assert tracer.self_times() == {"toy.outer": 3.0, "toy.inner": 2.0}
    assert tracer.calls() == {"toy.outer": 1, "toy.inner": 2}
    assert tracer.durations("toy.inner") == [1.0, 1.0]


def test_same_name_reentry_folds_into_outer_span():
    with Tracer(clock=ticking_clock()) as tracer:
        tracer.wrap(Toy, "recurse", "toy.recurse")
        assert Toy().recurse(4) == 4
    assert tracer.calls() == {"toy.recurse": 1}


def test_self_times_and_unattributed_sum_to_wall():
    with Tracer() as tracer:
        tracer.wrap(Toy, "outer", "toy.outer")
        tracer.wrap(Toy, "inner", "toy.inner")
        t0 = tracer.clock()
        for i in range(50):
            Toy().outer(i)
            sum(range(1000))  # untraced work between spans
        wall = tracer.clock() - t0
    total = sum(tracer.self_times().values()) + tracer.unattributed(wall)
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert tracer.unattributed(wall) > 0


def test_layer_install_round_trip_restores_library():
    probe = Tracer()
    layers.install(probe)
    owners = {owner for owner, _, _ in probe._patches}
    probe.unwrap_all()
    before = class_attrs(owners)
    with Tracer() as tracer:
        layers.install(tracer)
        assert class_attrs(owners) != before
    assert class_attrs(owners) == before


@pytest.mark.parametrize("workload", [Fig4Synthetic().reduced(), Fig6Multilabel().reduced()])
def test_traced_workload_matches_untraced_and_sums_to_wall(workload):
    plain = workload.request(workload.setup(5), EngineConfig())
    with Tracer() as tracer:
        layers.install(tracer)
        t0 = tracer.clock()
        traced = workload.request(workload.setup(5), EngineConfig())
        wall = tracer.clock() - t0
    assert traced.digest == plain.digest
    metrics = layers.per_layer(tracer, wall)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["core.system.new_agent.calls"] > 0
    assert metrics["sim.stacked.select.rows"] > 0


def test_serve_reduced_reports_serve_layers():
    workload = ServeChurn().reduced()
    with Tracer() as tracer:
        layers.install(tracer)
        workload.request(workload.setup(3), EngineConfig())
        metrics = layers.per_layer(tracer, 1.0)
    assert metrics["serve.arrive.p50_ms"] > 0
    assert metrics["core.shuffler.received"] > 0
    assert metrics["core.shuffler.released"] <= metrics["core.shuffler.received"]


def test_tied_rows_counted_from_pure_scores():
    # fresh CodeLinUCB tables score every arm equally: every row ties
    policies = [CodeLinUCB(n_arms=3, n_features=4, seed=i) for i in range(5)]
    stacked = StackedCodeLinUCB(policies)
    states = [p._rng.bit_generator.state for p in policies]
    with Tracer() as tracer:
        layers.install(tracer)
        stacked.select(np.array([0, 1, 2, 3, 0]))
    assert tracer.counts["sim.stacked.select.rows"] == 5
    assert tracer.counts["sim.stacked.select.tied_rows"] == 5
    # the counting re-score drew nothing: only select's own tie-breaks did
    fresh = [CodeLinUCB(n_arms=3, n_features=4, seed=i) for i in range(5)]
    StackedCodeLinUCB(fresh).select(np.array([0, 1, 2, 3, 0]))
    assert [p._rng.bit_generator.state for p in policies] == [
        p._rng.bit_generator.state for p in fresh
    ]
    assert states != [p._rng.bit_generator.state for p in policies]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 20)
    assert run.tail([float(i) for i in range(21)])[0] == 10.0
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(1 for i in range(100) if i > value) == 10


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
