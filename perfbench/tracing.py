"""Spans around the calls the prototta layers make into each other.

The tracer replaces module attributes such as ``prototta.adapt.model_forward``
or ``prototta.autodiff.backward`` with wrappers that open a span, call the
original, and close the span. Nothing in the package itself is edited, and
``uninstall`` puts every original back.

Every span has a bucket name (``adapt.filter``, ``model.clean_forward``, ...).
While a span is the innermost one open in its thread, the time is a segment
of that bucket. ``attribute`` turns the segments of all threads into
per-bucket self times that add up to the traced wall time: each instant is
split evenly among the threads busy at that instant, and a thread that only
waits for a worker pool counts when no worker is busy.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager

# A thread inside one of these buckets is blocked on other threads.
WAIT_BUCKETS = frozenset({"bench.pool_wait"})


class Tracer:
    """Collects segments and counters; cheap enough to leave on for a round."""

    def __init__(self):
        self._local = threading.local()
        self.segments: list[tuple[float, float, tuple[str, ...]]] = []
        self.counts: Counter = Counter()
        self.inclusive: Counter = Counter()  # summed wall duration per bucket
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"stack": [], "last": 0.0}
        return state

    def current(self) -> str | None:
        stack = self._state()["stack"]
        return stack[-1] if stack else None

    def _enter(self, bucket: str) -> float:
        state = self._state()
        now = time.perf_counter()
        stack = state["stack"]
        if stack:
            self.segments.append((state["last"], now, tuple(stack)))
        stack.append(bucket)
        state["last"] = now
        return now

    def _exit(self, started: float) -> None:
        state = self._state()
        now = time.perf_counter()
        stack = state["stack"]
        self.segments.append((state["last"], now, tuple(stack)))
        self.inclusive[stack.pop()] += now - started
        state["last"] = now

    @contextmanager
    def span(self, bucket: str):
        started = self._enter(bucket)
        try:
            yield
        finally:
            self._exit(started)

    # -- module patching -----------------------------------------------------

    def wrap(self, module, attr: str, bucket, after=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper until ``uninstall``.

        ``bucket`` is a name, or a function of (parent bucket, args, kwargs)
        returning one; ``after(result, args, kwargs)`` may update counters.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            name = bucket if isinstance(bucket, str) else bucket(tracer.current(), args, kwargs)
            started = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(started)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- attribution ---------------------------------------------------------

    def attribute(self, inclusive_of=()) -> tuple[Counter, Counter]:
        """Self time per bucket, and wall-share time spent under each
        ``inclusive_of`` bucket, its children included."""
        events = []
        for idx, (t0, t1, _) in enumerate(self.segments):
            if t1 > t0:
                events.append((t0, 1, idx))
                events.append((t1, 0, idx))
        events.sort()
        self_time: Counter = Counter()
        under: Counter = Counter()
        active: dict[int, tuple[str, ...]] = {}
        prev = None
        for t, kind, idx in events:
            if active and prev is not None and t > prev:
                dt = t - prev
                paths = list(active.values())
                busy = [p for p in paths if p[-1] not in WAIT_BUCKETS]
                share = busy or paths
                part = dt / len(share)
                for path in share:
                    self_time[path[-1]] += part
                    for name in inclusive_of:
                        if name in path:
                            under[name] += part
            if kind:
                active[idx] = self.segments[idx][2]
            else:
                del active[idx]
            prev = t
        return self_time, under
