"""One benchmark process: measure, trace or check one workload.

``run.py`` starts this script once per role, one at a time, with BLAS
threads pinned, and reads the JSON object it prints as its last line::

    python3 perfbench/worker.py measure --workload W --seed N --seconds S
    python3 perfbench/worker.py trace   --workload W --seed N --seconds S
    python3 perfbench/worker.py check   --workload W --seed N

``measure`` repeats untraced passes until ``S`` seconds have gone (at
least one pass); ``trace`` does the same with every layer wrapped (at
least two passes, so per-layer counts can be compared); ``check`` runs a
reduced copy of the workload on the fleet and the sequential engine
and compares their digests bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import layers
from tracer import Tracer
from workloads import HELD_OUT_SEED, WORKLOADS, Digest, instance_seed

from repro.experiments.runner import EngineConfig


def run_pass(workload, seed: int, engine: EngineConfig) -> dict:
    """Set up and drive every instance of one pass."""
    setups, outcomes, errors = [], [], []
    t0 = time.perf_counter()
    for j in range(workload.instances):
        s = time.perf_counter()
        try:
            world = workload.setup(instance_seed(seed, j))
            setups.append(time.perf_counter() - s)
            outcomes.append(workload.request(world, engine))
        except Exception:  # one failed request must not hide the others
            errors.append(traceback.format_exc(limit=4))
    wall = time.perf_counter() - t0
    digest = Digest().add([o.digest for o in outcomes], len(errors)).hexdigest()
    rewards = [o.reward for o in outcomes]
    return {
        "wall": wall,
        "setups": setups,
        "outcomes": outcomes,
        "digest": digest,
        "reward": float(np.mean(rewards)) if rewards else float("nan"),
        "attempted": sum(o.attempted for o in outcomes) + len(errors),
        "failed": sum(o.failed for o in outcomes) + len(errors),
        "errors": errors,
    }


def _summary(passes: list[dict]) -> dict:
    outcomes = [o for p in passes for o in p["outcomes"]]
    return {
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "setup_s": [s for p in passes for s in p["setups"]],
        "interactions": sum(o.interactions for o in outcomes),
        "request_s": sum(o.seconds for o in outcomes),
        "latency_s": [x for o in outcomes for x in o.latencies],
        "digests": [p["digest"] for p in passes],
        "rewards": [p["reward"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]][:3],
    }


def _warm_up(workload, seed: int, engine: EngineConfig) -> None:
    """One untimed reduced pass: lazy imports and first-call costs."""
    reduced = workload.reduced()
    reduced.request(reduced.setup(instance_seed(seed, 0)), engine)


def repeat_passes(workload, seed: int, seconds: float, min_passes: int, run=run_pass):
    """Run passes until about ``seconds`` have gone, at least ``min_passes``.

    A new pass starts only if it is expected to end less than half a
    pass after the deadline, so a run measures close to ``seconds``.
    """
    engine = EngineConfig()
    _warm_up(workload, seed, engine)
    start = time.perf_counter()
    passes = []
    while len(passes) < min_passes or (
        time.perf_counter() - start + 0.5 * passes[-1]["wall"] < seconds
    ):
        passes.append(run(workload, seed, engine))
    return passes


def measure(workload, seed: int, seconds: float) -> dict:
    out = _summary(repeat_passes(workload, seed, seconds, min_passes=1))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["stamp"] = environment_stamp()
    out["held_out_seed"] = seed == HELD_OUT_SEED
    return out


def trace(workload, seed: int, seconds: float, spans_path: str | None) -> dict:
    with Tracer() as tracer:
        layers.install(tracer)

        def traced_pass(workload, seed, engine):
            tracer.reset()
            result = run_pass(workload, seed, engine)
            result["per_layer"] = layers.per_layer(tracer, result["wall"])
            return result

        # two passes at least, so per-layer counts can be compared
        passes = repeat_passes(workload, seed, seconds, min_passes=2, run=traced_pass)
        if spans_path is not None:
            _write_spans(tracer, spans_path)
    out = _summary(passes)
    out["per_layer"] = [p["per_layer"] for p in passes]
    return out


def _write_spans(tracer: Tracer, path: str) -> None:
    """Write the last pass's spans: names once, then rows of indices."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], start, end, parent] for n, start, end, parent in tracer.spans]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                   "spans": rows}, fh)


def check(workload, seed: int) -> dict:
    """Fleet against sequential engine on a reduced copy, bit for bit."""
    reduced = workload.reduced()
    first = instance_seed(seed, 0)
    fleet = reduced.request(reduced.setup(first), EngineConfig())
    if workload.name == "serve_churn":
        # FleetService has no sequential engine: compare a second run
        again = reduced.request(reduced.setup(first), EngineConfig())
        return {"reference": "second fleet run", "fleet": fleet.digest,
                "reference_digest": again.digest, "match": fleet.digest == again.digest}
    sequential = reduced.request(reduced.setup(first), EngineConfig(engine="sequential"))
    return {"reference": "sequential engine", "fleet": fleet.digest,
            "reference_digest": sequential.digest,
            "match": fleet.digest == sequential.digest}


def environment_stamp() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version"),
                "openblas_configuration": deps.get("openblas configuration")}
    except (TypeError, KeyError):  # older numpy: no dict form of the build config
        blas = {"name": "unknown"}
    blas["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("measure", "trace", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.role == "measure":
        out = measure(workload, args.seed, args.seconds)
    elif args.role == "trace":
        out = trace(workload, args.seed, args.seconds, args.spans)
    else:
        out = check(workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
