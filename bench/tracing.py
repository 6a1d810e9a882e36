"""Span tracing installed from outside the program.

``install`` replaces every public function of a paraself module at each name
a calling module uses (``paraself.certify.generalized_j_value``,
``paraself.strategies.born_probability``, ...) with a wrapper that records a
span ``(id, name, start, end, parent)``.  The CLI layer is traced at its
command callbacks and at the ``json`` module it calls.  Spans stay in memory
and are written to an ``.npz`` file when the traced process ends;
``summarize`` turns span files into per-name call counts, total time and
self time (a span's duration minus the part of it its child spans cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from pathlib import Path

import numpy as np

LAYERS = ("cli", "certify", "bell", "strategies", "qcore")


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so every call records one span ``name``.

        A span opened on a worker thread with nothing open on that thread is
        parented to the innermost span open on the main thread, which is
        the call that handed the work to the pool.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans and counters to ``path`` (``.npz``)."""
        names = sorted({s[1] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        np.savez(
            path,
            sid=np.asarray(cols[0], dtype=np.int64),
            name=np.asarray([code[n] for n in cols[1]], dtype=np.int32),
            start=np.asarray(cols[2], dtype=np.float64),
            end=np.asarray(cols[3], dtype=np.float64),
            parent=np.asarray(cols[4], dtype=np.int64),
            names=np.asarray(json.dumps(names)),
            counters=np.asarray(json.dumps(self.counters)),
        )


def _count_kernel_bytes(tracer, args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    tracer.add("bell.kernel_read_bytes", table.probs.nbytes)


def _count_compose_bytes(tracer, args, kwargs, result):
    tracer.add("strategies.compose.table_bytes", result.probs.nbytes)


_ON_RETURN = {
    "bell.conditional_slice": _count_kernel_bytes,
    "strategies.compose": _count_compose_bytes,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every paraself layer where they are
    called from, plus the CLI commands and the CLI's ``json`` calls."""
    import importlib

    modules = [importlib.import_module(f"paraself.{layer}") for layer in LAYERS]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__.startswith("paraself.")):
                name = f"{value.__module__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, tracer.wrap(name, value, _ON_RETURN.get(name)))
    cli = modules[0]
    for command_name, command in cli.main.commands.items():
        command.callback = tracer.wrap(f"cli.{command_name}", command.callback)
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.dumps = tracer.wrap("cli.json_dumps", json.dumps)
    proxy.loads = tracer.wrap("cli.json_loads", json.loads)
    cli.json = proxy


def _covered(starts, ends) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    reach = -np.inf
    for s, e in sorted(zip(starts, ends)):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def summarize_file(path) -> tuple[dict, dict]:
    """Per-name ``{"calls", "total_s", "self_s"}`` and the counters of one
    span file."""
    with np.load(path) as f:
        sid, name, start, end, parent = (f[k] for k in ("sid", "name", "start", "end", "parent"))
        names = json.loads(str(f["names"]))
        counters = json.loads(str(f["counters"]))
    stats: dict = {}
    if sid.size == 0:
        return stats, counters
    duration = end - start
    order = np.argsort(sid)
    sid, name, start, end, parent, duration = (
        a[order] for a in (sid, name, start, end, parent, duration))
    # Children of one parent on one thread never overlap, so their summed
    # durations are the covered part; parents whose children overlap (a
    # thread pool) are measured by the union of the child intervals.
    has_parent = np.isin(parent, sid)
    row = np.searchsorted(sid, parent[has_parent])
    covered = np.bincount(row, weights=duration[has_parent], minlength=sid.size)
    by_parent = np.lexsort((start, parent))
    p, s, e = parent[by_parent], start[by_parent], end[by_parent]
    overlap = (p[1:] == p[:-1]) & (s[1:] < e[:-1])
    for parent_id in np.unique(p[1:][overlap]):
        if parent_id in sid:
            mine = p == parent_id
            covered[np.searchsorted(sid, parent_id)] = _covered(s[mine], e[mine])
    size = len(names)
    calls = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=duration, minlength=size)
    own = np.bincount(name, weights=duration - covered, minlength=size)
    for k, n in enumerate(names):
        stats[n] = {"calls": int(calls[k]), "total_s": float(total[k]), "self_s": float(own[k])}
    return stats, counters


def summarize(paths) -> tuple[dict, dict]:
    """Sum :func:`summarize_file` over several span files."""
    stats: dict = {}
    counters: dict = {}
    for path in paths:
        file_stats, file_counters = summarize_file(Path(path))
        for n, st in file_stats.items():
            acc = stats.setdefault(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for key, value in file_counters.items():
            counters[key] = counters.get(key, 0) + value
    return stats, counters
