"""Spans around iterboot's layers, recorded from outside the package.

``install(trace_dir)`` rebinds each traced function at every attribute of
every loaded ``iterboot`` module that holds it, so a caller that did
``from .csvio import write_agg_csv`` calls the wrapper too. Nothing in
``src/`` changes.

Each span belongs to a group (``"engine.select"``, ``"csvio.write"``...).
Per process and group the tracer keeps the number of calls, the total
time (spans nested in a span of the same group are not counted twice)
and the self time (span minus its traced children). ``engine.run`` and
``engine.monte_carlo`` also keep their (start, end) intervals, so the
Monte Carlo self time can subtract runs that executed in pool workers.

Totals stay in memory and are written to ``<trace_dir>/<pid>.json`` by
``dump()``. Pool workers are forked from a traced process by
multiprocessing: they reset the inherited totals when they start and
dump when the worker shuts down.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util

_clock = time.monotonic  # CLOCK_MONOTONIC, comparable across processes

_INTERVAL_GROUPS = ("engine.run", "engine.monte_carlo")


class _State:
    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.reset()

    def reset(self) -> None:
        self.groups: dict[str, list[float]] = {}  # group -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.intervals: dict[str, list[float]] = {g: [] for g in _INTERVAL_GROUPS}
        self.stack: list[list] = []  # [group, time covered by traced children]

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def dump(self) -> None:
        path = os.path.join(self.trace_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"groups": self.groups, "counts": self.counts, "intervals": self.intervals},
                fh,
            )

    def after_fork(self) -> None:
        self.reset()
        util.Finalize(None, self.dump, exitpriority=10)


_state: _State | None = None


def _wrap(group: str, fn, on_result=None):
    state = _state

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = state.stack
        frame = [group, 0.0]
        stack.append(frame)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            dt = t1 - t0
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += dt
            acc = state.groups.get(group)
            if acc is None:
                acc = state.groups[group] = [0, 0.0, 0.0]
            acc[0] += 1
            if parent is None or parent[0] != group:
                acc[1] += dt
            acc[2] += dt - frame[1]
            if group in state.intervals:
                state.intervals[group] += (t0, t1)
        if on_result is not None:
            on_result(args, kwargs, result)
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "iterboot" and not name.startswith("iterboot."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(trace_dir: str) -> None:
    """Wrap iterboot's layer functions; call after importing iterboot."""
    global _state
    from iterboot import csvio, engine, gaussian, gdmodel, svgplot

    _state = state = _State(trace_dir)
    # Runs in multiprocessing children after their finalizer registry is
    # cleared, so the Finalize registered there survives.
    util.register_after_fork(state, _State.after_fork)

    def on_select(args, kwargs, result):
        state.count("engine.draws", int(result[1]))

    def on_sample(args, kwargs, result):
        state.count("engine.samples_generated", result.shape[0] if result.ndim == 2 else 1)

    def on_write_text(args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        state.count("csvio.bytes", len(text.encode("utf-8")))

    def on_render(args, kwargs, result):
        state.count("svgplot.bytes", len(result.encode("utf-8")))

    targets = [
        (engine, "_select", "engine.select", on_select),
        (engine, "run", "engine.run", None),
        (engine, "monte_carlo", "engine.monte_carlo", None),
        (gaussian, "sample", "gaussian.sample", on_sample),
        (gaussian, "reward", "gaussian.reward", None),
        (gaussian, "expected_reward", "gaussian.expected_reward", None),
        (gaussian, "mle_update", "gaussian.mle_update", None),
        (gdmodel, "gd_update", "gdmodel.gd_update", None),
        (csvio, "write_agg_csv", "csvio.write", None),
        (csvio, "write_text_atomic", "csvio.write", on_write_text),
        (csvio, "read_agg_csv", "csvio.read", None),
        (svgplot, "render_gap_vs_cost", "svgplot.render", on_render),
    ]
    for module, attr, group, on_result in targets:
        original = getattr(module, attr)
        _rebind(original, _wrap(group, original, on_result))

    base = engine.ProcessPoolExecutor

    class CountedPool(base):
        def __init__(self, *args, **kwargs):
            state.count("engine.pool_starts", 1)
            super().__init__(*args, **kwargs)

    engine.ProcessPoolExecutor = CountedPool


def dump() -> None:
    """Write this process's totals to the trace directory."""
    _state.dump()
