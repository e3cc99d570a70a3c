"""Which public functions the traced run wraps, and the metrics they give.

Layers are named after the modules of ``src/repro``.  :func:`install`
wraps the public calls into each layer on a :class:`~tracer.Tracer`;
:func:`per_layer` turns one traced pass into the per-layer metrics
``BENCHMARK.json`` lists.  README.md maps each layer to its metrics and
to the end-to-end metrics a change to it should move.

Nothing here changes library behaviour: wrappers call the original
function with the original arguments and return its result untouched.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

#: spans whose self time is reported, in the order BENCHMARK.json lists them
SELF_SPANS = (
    "core.system.new_agent",
    "core.system.collect",
    "data.new_user",
    "data.plan",
    "encoding.encode",
    "encoding.encode_batch",
    "encoding.fit",
    "sim.stacked.select",
    "sim.stacked.update",
    "sim.stacked.writeback",
    "core.participation.step",
    "core.payload.append",
    "core.shuffler.process_arrays",
    "core.shuffler.buffer_arrays",
    "core.shuffler.release_ready",
    "core.server.ingest_arrays",
    "core.agent.warm_start",
    "sim.fleet.run",
    "sim.fleet.add_agents",
    "sim.fleet.remove_agents",
    "serve.arrive",
    "serve.depart",
    "serve.collect",
    "serve.refresh",
    # re-scoring select inputs to count tied rows; kept apart so the
    # bookkeeping is not charged to the layer around it
    "trace.tied_rows",
)
CALL_SPANS = (
    "core.system.new_agent",
    "core.system.collect",
    "data.new_user",
    "data.plan",
    "encoding.encode",
    "core.agent.warm_start",
)
COUNTS = (
    "encoding.encode_batch.rows",
    "sim.stacked.select.rows",
    "sim.stacked.select.tied_rows",
    "core.participation.step.fired",
    "core.payload.append.reports",
    "core.shuffler.received",
    "core.shuffler.released",
    "core.shuffler.thresholded",
    "core.shuffler.quarantined",
    "core.shuffler.pending",
    "core.server.ingest_arrays.tuples",
)
SERVE_P50 = ("serve.arrive", "serve.depart", "serve.collect", "serve.refresh")


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units: dict[str, str] = {}
    for span in SELF_SPANS:
        units[f"{span}.self_s"] = "s"
    for span in CALL_SPANS:
        units[f"{span}.calls"] = "count"
    for name in COUNTS:
        units[name] = "count"
    units["core.shuffler.release_ratio"] = "ratio"
    for span in SERVE_P50:
        units[f"{span}.p50_ms"] = "ms"
    units["traced_wall_s"] = "s"
    units["unattributed_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------- #
# counters: run after the span closes, add to tracer.counts / peaks
def _rows(metric: str, position: int):
    def count(tracer, args, kwargs, result):
        tracer.counts[metric] += len(args[position])

    return count


def _fired(tracer, args, kwargs, result):
    reported, _ = result
    tracer.counts["core.participation.step.fired"] += int(np.count_nonzero(reported))


def _add_stats(tracer: Tracer, stats) -> None:
    tracer.counts["core.shuffler.released"] += stats.n_released
    tracer.counts["core.shuffler.thresholded"] += stats.n_dropped
    tracer.counts["core.shuffler.quarantined"] += stats.n_quarantined


def _process_arrays(tracer, args, kwargs, result):
    stats = result[3]
    tracer.counts["core.shuffler.received"] += stats.n_received
    _add_stats(tracer, stats)


def _buffer_arrays(tracer, args, kwargs, result):
    tracer.counts["core.shuffler.received"] += len(args[1])
    # buffer_arrays returns the pending count; the pass reports its peak
    tracer.peak("core.shuffler.pending", int(result))


def _release_ready(tracer, args, kwargs, result):
    _add_stats(tracer, result[3])


#: stacker class -> its pure bit-tier score function; tied rows are
#: counted by re-scoring the select input with it, never from a call
#: that draws from a generator
_PURE_SCORES = {"StackedCodeLinUCB": "scores_for_codes", "StackedLinUCB": "scores"}


def _select(tracer, args, kwargs, result):
    stacked, inputs = args[0], args[1]
    tracer.counts["sim.stacked.select.rows"] += len(inputs)
    score_fn = _PURE_SCORES.get(type(stacked).__name__)
    if score_fn is not None:
        with tracer.span("trace.tied_rows"):
            scores = getattr(stacked, score_fn)(inputs)
            is_max = scores == scores.max(axis=1, keepdims=True)
            tied = int(np.count_nonzero(is_max.sum(axis=1) > 1))
        tracer.counts["sim.stacked.select.tied_rows"] += tied


def _subclasses(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _wrap_defined(tracer: Tracer, classes, attr: str, name: str, count=None) -> None:
    """Wrap ``attr`` on each class that defines it itself."""
    for cls in classes:
        if attr in cls.__dict__:
            tracer.wrap(cls, attr, name, count)


def install(tracer: Tracer) -> None:
    """Wrap the public calls into every layer (README.md has the table)."""
    from repro.core.agent import LocalAgent
    from repro.core.participation import StackedParticipation
    from repro.core.payload import ReportLog
    from repro.core.server import NonPrivateServer, PrivateServer
    from repro.core.shuffler import Shuffler
    from repro.core.system import P2BSystem
    from repro.data.environment import Environment, UserSession
    from repro.encoding.base import Encoder
    from repro.experiments.serve import FleetService
    from repro.sim.fleet import FleetRunner
    from repro.sim.stacked import StackedPolicies

    for attr in ("new_agent", "new_warm_agent"):
        tracer.wrap(P2BSystem, attr, "core.system.new_agent")
    for attr in ("collect", "collect_async"):
        tracer.wrap(P2BSystem, attr, "core.system.collect")

    _wrap_defined(tracer, _subclasses(Environment), "new_user", "data.new_user")
    sessions = _subclasses(UserSession)
    _wrap_defined(tracer, sessions, "plan_rewards", "data.plan")
    _wrap_defined(tracer, sessions, "plan_trace_indexed", "data.plan")

    encoders = _subclasses(Encoder)
    _wrap_defined(tracer, encoders, "encode", "encoding.encode")
    _wrap_defined(
        tracer, encoders, "encode_batch", "encoding.encode_batch",
        _rows("encoding.encode_batch.rows", 1),
    )
    _wrap_defined(tracer, encoders, "fit", "encoding.fit")

    stackers = _subclasses(StackedPolicies)
    _wrap_defined(tracer, stackers, "select", "sim.stacked.select", _select)
    _wrap_defined(tracer, stackers, "update", "sim.stacked.update")
    _wrap_defined(tracer, stackers, "writeback", "sim.stacked.writeback")

    tracer.wrap(StackedParticipation, "step", "core.participation.step", _fired)
    tracer.wrap(
        ReportLog, "append", "core.payload.append", _rows("core.payload.append.reports", 1)
    )

    tracer.wrap(Shuffler, "process_arrays", "core.shuffler.process_arrays", _process_arrays)
    tracer.wrap(Shuffler, "buffer_arrays", "core.shuffler.buffer_arrays", _buffer_arrays)
    tracer.wrap(Shuffler, "release_ready", "core.shuffler.release_ready", _release_ready)

    tuples = _rows("core.server.ingest_arrays.tuples", 1)
    tracer.wrap(PrivateServer, "ingest_arrays", "core.server.ingest_arrays", tuples)
    tracer.wrap(NonPrivateServer, "ingest_arrays", "core.server.ingest_arrays", tuples)
    tracer.wrap(LocalAgent, "warm_start", "core.agent.warm_start")

    tracer.wrap(FleetRunner, "run", "sim.fleet.run")
    tracer.wrap(FleetRunner, "add_agents", "sim.fleet.add_agents")
    tracer.wrap(FleetRunner, "remove_agents", "sim.fleet.remove_agents")

    for attr in ("arrive", "depart", "collect", "refresh"):
        tracer.wrap(FleetService, attr, f"serve.{attr}")


def per_layer(tracer: Tracer, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass that took ``wall`` seconds.

    Metrics of layers the workload never calls read 0.
    """
    self_s = tracer.self_times()
    calls = tracer.calls()
    out: dict[str, float] = {}
    for span in SELF_SPANS:
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in CALL_SPANS:
        out[f"{span}.calls"] = calls.get(span, 0)
    for name in COUNTS:
        out[name] = tracer.peaks.get(name, tracer.counts.get(name, 0))
    received = out["core.shuffler.received"]
    out["core.shuffler.release_ratio"] = (
        out["core.shuffler.released"] / received if received else 0.0
    )
    for span in SERVE_P50:
        durations = tracer.durations(span)
        out[f"{span}.p50_ms"] = 1000.0 * float(np.median(durations)) if durations else 0.0
    out["traced_wall_s"] = wall
    out["unattributed_s"] = tracer.unattributed(wall)
    return out
