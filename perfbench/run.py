"""Benchmark of the P2B pipeline: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fig4_synthetic --seed 0 --seconds 20 --trace 0

Workloads: ``fig4_synthetic``, ``fig6_multilabel``, ``serve_churn``
(see ``workloads.py`` for what each one drives and why).

``--trace 0`` measures the end-to-end metrics on untraced passes.
``--trace 1`` splits ``--seconds`` between untraced and traced passes
and reports the per-layer metrics of the traced pass with the median
wall time, plus ``trace_overhead``.  Either way a reduced copy of the
workload is first checked bit for bit against the sequential engine.

Each role runs in its own process (``worker.py``), one at a time, with
BLAS pinned to one thread.  The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, ``record {...}``, carries the full record: environment
stamp, digests, sample counts, the tail percentile used and per-layer
shares.  Any digest mismatch sets ``correct`` to false and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4_synthetic", "fig6_multilabel", "serve_churn")
#: per-child wall-clock limit beyond its measuring time
CHILD_SLACK_S = 60.0
#: the whole command must end within 180 s; children share this budget
TOTAL_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "interactions_per_s": "1/s",
    "reward_mean": "reward",
    "peak_rss_mb": "MB",
    "interact_p50_ms": "ms",
    "interact_tail_ms": "ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # one BLAS thread: the engine is serial and its kernels are einsum;
    # extra BLAS threads would only contend on a shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # the workloads are defined fault-free
    env.pop("REPRO_FAULTS", None)
    return env


def run_child(role: str, args, deadline: float, seconds: float | None = None, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    cmd += list(extra)
    limit = max(1.0, min((seconds or 0.0) + CHILD_SLACK_S, deadline - time.monotonic()))
    # run() kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=limit)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  Below 21 samples that
    percentile would not lie above the median, so there is no tail to
    estimate and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    k = n - 11  # ten samples lie beyond ordered[k]
    return ordered[k], 100.0 * (k + 1) / n, n


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(measure: dict) -> tuple[dict, dict]:
    """End-to-end metric values and the notes that qualify them."""
    latency_ms = [1000.0 * x for x in measure["latency_s"]]
    tail_ms, tail_pct, n_lat = tail(latency_ms)
    values = {
        "setup_s": statistics.median(measure["setup_s"]),
        "interactions_per_s": measure["interactions"] / measure["request_s"],
        "reward_mean": measure["rewards"][0],
        "peak_rss_mb": measure["peak_rss_mb"],
        "interact_p50_ms": statistics.median(latency_ms),
        "interact_tail_ms": tail_ms,
    }
    notes = {
        "setup_samples": len(measure["setup_s"]),
        "interactions": measure["interactions"],
        "request_s": measure["request_s"],
        "interact_samples": n_lat,
        "interact_tail_percentile": round(tail_pct, 2),
        "passes": measure["passes"],
        "error_rate": measure["failed"] / max(1, measure["attempted"]),
    }
    return values, notes


def layer_metrics(measure: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass with the median wall time."""
    walls = traced["pass_wall_s"]
    pick = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    values = dict(traced["per_layer"][pick])
    values["trace_overhead"] = walls[pick] / statistics.median(measure["pass_wall_s"]) - 1.0
    wall = values["traced_wall_s"]
    shares = {
        k[: -len(".self_s")]: round(v / wall, 4)
        for k, v in values.items()
        if k.endswith(".self_s") and v > 0
    }
    shares["unattributed"] = round(values["unattributed_s"] / wall, 4)
    return values, {"traced_passes": len(walls), "share_of_traced_wall": shares}


def counts_repeat(traced: dict) -> bool:
    """Every per-layer count is identical in every traced pass."""
    names = [f"{s}.calls" for s in layers.CALL_SPANS] + list(layers.COUNTS)
    names.append("core.shuffler.release_ratio")
    first = traced["per_layer"][0]
    return all(all(p[n] == first[n] for n in names) for p in traced["per_layer"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to the benchmark", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + TOTAL_BUDGET_S
    checked = run_child("check", args, deadline)
    if args.trace:
        spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"
        measured = run_child("measure", args, deadline, args.seconds / 2)
        traced = run_child("trace", args, deadline, args.seconds / 2, ["--spans", str(spans)])
    else:
        measured = run_child("measure", args, deadline, args.seconds)
        traced = None

    digests = set(measured["digests"])
    checks = {
        "reduced_copy_matches_" + checked["reference"].replace(" ", "_"): checked["match"],
        "digest_repeats_across_passes": len(digests) == 1,
        "no_errors": not measured["errors"],
    }
    if traced is not None:
        checks["traced_digest_matches_untraced"] = set(traced["digests"]) == digests
        checks["per_layer_counts_repeat"] = counts_repeat(traced)
        checks["no_errors"] = checks["no_errors"] and not traced["errors"]
    correct = all(checks.values())

    e2e, notes = end_to_end(measured)
    if traced is not None:
        metrics, layer_notes = layer_metrics(measured, traced)
        notes.update(layer_notes)
        units = layers.metric_units()
    else:
        metrics, units = e2e, END_TO_END_UNITS
    attempted = measured["attempted"] + (traced["attempted"] if traced else 0)
    failed = measured["failed"] + (traced["failed"] if traced else 0)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": measured["held_out_seed"],
        "trace": args.trace,
        "stamp": {
            **measured["stamp"],
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
        },
        "checks": checks,
        "digest": sorted(digests),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "notes": notes,
        "errors": measured["errors"] + (traced["errors"] if traced else []),
        "elapsed_s": time.monotonic() - started,
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {notes['error_rate']:.6g} ratio")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
