"""Span recorder, timing wrappers and the self-time arithmetic.

The traced repetition of a workload runs with every callable of
:data:`span_table.SPAN_TABLE` wrapped *from here*: nothing under ``src/``
knows it is being timed.  A span is ``(name, start, end, parent, rep)``;
spans live in flat in-memory arrays until the repetition ends, then are
summarised per name (calls, inclusive seconds, self seconds) and, when a
path is given, written out as Chrome trace JSON.

Single-threaded by construction: the four workloads call the wrapped
callables from one thread, so one open-span stack is the parent chain.
Children forked while the wrappers are installed record into their own
copy of the arrays, which dies with them -- they are accounted only
through ``rusage`` (see ``child.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array


class SpanRecorder:
    """Flat arrays of spans plus named counters, one per traced child.

    Span ``i`` is ``(names[_name_id[i]], _start[i], _end[i], _parent[i])``
    with ``_parent[i]`` the index of the enclosing span, -1 at top level.
    """

    def __init__(self, clock=time.perf_counter, rep: int = 0):
        self.clock = clock
        self.rep = rep
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self._start)
        stack = self._stack
        self._name_id.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(index)
        self._start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self._end[index] = self.clock()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` (inclusive; a span nested
        under one of the same name is not counted twice) and ``self_s``."""
        start, end, parent, name_id = self._start, self._end, self._parent, self._name_id
        selfs = self_times(start, end, parent)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(len(start)):
            nid = name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            p = parent[i]
            while p >= 0 and name_id[p] != nid:
                p = parent[p]
            if p < 0:
                row["total_s"] += end[i] - start[i]
        return out

    def durations_under(self, name: str, parent_prefix: str) -> list[float]:
        """Durations of the ``name`` spans whose direct parent's name
        starts with ``parent_prefix``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        under = [n.startswith(parent_prefix) for n in self.names]
        return [
            e - s
            for n, s, e, p in zip(self._name_id, self._start, self._end, self._parent)
            if n == nid and p >= 0 and under[self._name_id[p]]
        ]

    def covered_s(self, window: tuple[float, float]) -> float:
        """Seconds of ``window`` that lie inside some top-level span."""
        lo, hi = window
        pieces = [
            (max(s, lo), min(e, hi))
            for s, e, p in zip(self._start, self._end, self._parent)
            if p < 0 and e > lo and s < hi
        ]
        return _union_length(pieces)

    def write_chrome_trace(self, path: str, layer_of: dict[str, str]) -> None:
        """Chrome ``traceEvents`` JSON: one complete event per span, the
        layer as category, the repetition as pid, times in microseconds
        from the first span."""
        origin = self._start[0] if self._start else 0.0
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            fh.write(
                json.dumps(
                    {"name": "process_name", "ph": "M", "pid": self.rep, "tid": 0,
                     "args": {"name": f"rep{self.rep}"}}
                )
            )
            heads = [
                json.dumps({"name": n, "cat": layer_of.get(n, "bench"), "ph": "X",
                            "pid": self.rep, "tid": 0})[:-1]
                for n in self.names
            ]
            for i, (nid, s, e, p) in enumerate(
                zip(self._name_id, self._start, self._end, self._parent)
            ):
                fh.write(
                    ',\n%s,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}'
                    % (heads[nid], (s - origin) * 1e6, (e - s) * 1e6, i, p)
                )
            fh.write("\n]}\n")


def _union_length(pieces: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(pieces):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the part of its own
    interval that its direct children cover (children are clipped to the
    parent and overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out = [e - s for s, e in zip(start, end)]
    for p, pieces in children.items():
        lo, hi = start[p], end[p]
        out[p] -= _union_length(
            [(max(s, lo), min(e, hi)) for s, e in pieces if e > lo and s < hi]
        )
    return out


# --------------------------------------------------------------------- #
# wrappers                                                              #
# --------------------------------------------------------------------- #
def wrap_callable(recorder: SpanRecorder, fn, span: str, key: str, measure=None):
    """Time every call of ``fn`` as a span named ``span``.

    A generator function is timed per ``next()`` -- creating the
    generator costs nothing and is not a span -- and each yielded item
    bumps the ``<span>.items`` counter.  ``key`` names the per-target
    call counter the table guard reads.  ``measure(args, kwargs,
    result)`` returns ``{counter: amount}`` to add after a call (after
    each yielded item, for generators).
    """
    nid = recorder.name_id(span)
    calls = f"calls:{key}"
    recorder.counters.setdefault(calls, 0)
    add, open_, close = recorder.add, recorder.open, recorder.close

    if inspect.isgeneratorfunction(fn):
        items = f"{span}.items"

        def timed_iter(iterator, args, kwargs):
            while True:
                index = open_(nid)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(index)
                add(items, 1)
                if measure is not None:
                    for counter, amount in measure(args, kwargs, item).items():
                        add(counter, amount)
                yield item

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            add(calls, 1)
            return timed_iter(fn(*args, **kwargs), args, kwargs)

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(index)
        add(calls, 1)
        if measure is not None:
            for counter, amount in measure(args, kwargs, result).items():
                add(counter, amount)
        return result

    return wrapper


class TableError(RuntimeError):
    """The span table and the program disagree (unresolvable target,
    expected callable never ran, bypassed callable ran)."""


def resolve_target(dotted: str):
    """``pkg.mod.func`` or ``pkg.mod.Class.method`` -> (owner, attribute).

    Every path component must be public (dunder methods such as
    ``__iter__`` count as public): the benchmark may only lean on names
    the program exports.
    """
    parts = dotted.split(".")
    for part in parts:
        if part.startswith("_") and not (part.startswith("__") and part.endswith("__")):
            raise TableError(f"span target {dotted!r} reaches into private name {part!r}")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
            getattr(owner, parts[-1])
        except AttributeError as exc:
            raise TableError(f"span target {dotted!r} does not resolve: {exc}") from exc
        return owner, parts[-1]
    raise TableError(f"span target {dotted!r} does not resolve: no importable module")


class Installer:
    """Installs the table's wrappers and takes every one of them off again.

    A module-level function is replaced at *every* binding in the loaded
    ``repro`` modules (``from repro.fleet.simulator import simulate_fleet``
    in ``api/backends.py`` is its own binding); a method is replaced on
    the class the table names.  Use as a context manager so the
    wrappers come off in ``finally``.
    """

    def __init__(self, recorder: SpanRecorder, package: str = "repro"):
        self.recorder = recorder
        self.package = package
        self._undo: list = []

    def __enter__(self) -> "Installer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self, rows) -> None:
        for row in rows:
            owner, attr = resolve_target(row.target)
            if inspect.isclass(owner):
                self._patch_method(owner, attr, row)
            else:
                self._patch_function(owner, attr, row)

    def _wrap(self, fn, row):
        return wrap_callable(self.recorder, fn, row.span, row.target, row.measure)

    def _patch_method(self, cls, attr: str, row) -> None:
        missing = object()
        own = cls.__dict__.get(attr, missing)
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, row))
        else:
            wrapped = self._wrap(raw, row)
        setattr(cls, attr, wrapped)
        if own is missing:
            self._undo.append(lambda: delattr(cls, attr))
        else:
            self._undo.append(lambda: setattr(cls, attr, own))

    def _patch_function(self, module, attr: str, row) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(original, row)
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)
                    self._undo.append(
                        lambda mod=mod, binding=binding: setattr(mod, binding, original)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def check_table(rows, counters: dict[str, float], workload: str) -> list[str]:
    """The guard: every row that must run on ``workload`` ran, and none
    that the workload bypasses did.  Returns the violations."""
    problems = []
    for row in rows:
        calls = counters.get(f"calls:{row.target}", 0)
        if workload in row.runs_on and calls == 0:
            problems.append(f"{row.target} must run on {workload} but recorded 0 calls")
        if workload in row.bypassed_on and calls > 0:
            problems.append(
                f"{row.target} is bypassed on {workload} but recorded {int(calls)} calls"
            )
    return problems
