"""In-memory span tracer that wraps public functions in place.

The benchmark's traced run records a span around every call into a
layer of the P2B pipeline without touching the library: :meth:`Tracer.wrap`
replaces a method on its owning class with a timing wrapper, and
:meth:`Tracer.unwrap_all` (or leaving the ``with`` block) puts the
original function object back.

Each span is ``[name, start, end, parent]``, where ``parent`` is the
index of the enclosing span (``-1`` at top level).  Spans stay in memory
until the caller writes them out.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all spans
plus the time outside every span add up to the traced wall time.

A call that re-enters a span of the same name (a subclass method calling
``super()``, or ``new_warm_agent`` calling ``new_agent``) is folded into
the enclosing span, so ``calls`` counts the outermost calls only.

The tracer keeps one span stack and so assumes the traced code calls
its layers from one thread; the benchmark runs the default serial
engine, where that holds.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

__all__ = ["Tracer"]

#: ``count(tracer, args, kwargs, result)`` adds to :attr:`Tracer.counts`
#: (or :meth:`Tracer.peak`); it runs after the span has closed, so a
#: cheap counter adds no time to the layer it counts
Counter = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Record nested spans and counts around wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def reset(self) -> None:
        """Forget recorded spans and counts (wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []
        self.counts = defaultdict(int)
        self.peaks = {}

    def peak(self, metric: str, value: float) -> None:
        """Keep the largest ``value`` seen for ``metric``."""
        self.peaks[metric] = max(self.peaks.get(metric, value), value)

    # ------------------------------------------------------------------ #
    def wrap(self, owner: type, attr: str, name: str, count: Counter | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``attr`` must be a plain function defined on ``owner`` itself
        (not inherited), so unwrapping restores exactly what was there.
        """
        original = owner.__dict__.get(attr)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner.__name__}.{attr} is not a plain function of the class")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()

    # ------------------------------------------------------------------ #
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Number of (outermost) spans per name."""
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def durations(self, name: str) -> list[float]:
        """Wall durations of every span called ``name``."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def unattributed(self, wall: float) -> float:
        """Time in ``wall`` that no span covers (top-level gaps)."""
        covered = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return wall - covered

