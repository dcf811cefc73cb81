"""In-memory span tracer that wraps the public functions of ``nonrecip``.

Spans are recorded from the benchmark side only: :func:`install` replaces
every public function (one named in its defining module's ``__all__``) in
every ``nonrecip.*`` namespace that binds it, so callers that imported a
function by name (``design`` and ``verify`` import ``transmission_pair``)
go through the same wrapper as callers of the defining module. Nothing
under ``src/`` changes.

A span is ``(id, parent, name id, t0, t1)``. ``parent`` is the id of the
enclosing span on the main thread. Spans opened on other threads (the
sweep thread pool) have no parent and are recorded as detached: their
time is already inside the main-thread span that waits for them, so they
count as calls but not toward self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from collections import Counter, defaultdict

DETACHED = -2
NO_PARENT = -1


class Tracer:
    """Span store plus per-name counters; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[int, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is self._main:
            parent = NO_PARENT
        else:
            parent = DETACHED
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name_id: int,
               t0: float, t1: float) -> None:
        self._local.stack.pop()
        self.spans.append((sid, parent, name_id, t0, t1))

    def call(self, name_id: int, fn, hook, args, kwargs):
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            t1 = time.perf_counter()
            if hook is not None:
                hook(self.counts, args, kwargs, None, exc)
            self._close(sid, parent, name_id, t0, t1)
            raise
        t1 = time.perf_counter()
        if hook is not None:
            hook(self.counts, args, kwargs, result, None)
        self._close(sid, parent, name_id, t0, t1)
        return result

    def span(self, name: str) -> "_Span":
        """A benchmark-side span (a round or a request), used with ``with``."""
        return _Span(self, self.name_id(name))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name_id, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": self.names[name_id],
                                     "t0": t0, "t1": t1}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id
        self.duration = 0.0

    def __enter__(self) -> "_Span":
        if self.tracer.active:
            self.sid, self.parent = self.tracer._open()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        self.duration = t1 - self.t0
        if self.tracer.active:
            self.tracer._close(self.sid, self.parent, self.name_id,
                               self.t0, t1)
        return False


def _package_modules():
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "nonrecip"
                                or modname.startswith("nonrecip.")):
            yield modname, mod


def layer_of(name: str) -> str:
    """The layer (module) part of a qualified span name."""
    return name.split(".", 1)[0]


def install(tracer: Tracer, hooks: dict, also=()) -> Counter:
    """Wrap every public function in every namespace that binds it.

    Modules are reached through ``sys.modules`` because the package
    re-exports some functions under their module's name (the attribute
    ``nonrecip.sweep`` is the ``sweep`` function). ``hooks`` maps a
    qualified name such as ``"design.design_isolator"`` to a callable
    ``hook(counts, args, kwargs, result, exc)`` run after each traced call.
    ``also`` lists further modules (the benchmark's own) whose bindings of
    those functions are replaced too. Returns how many bindings were
    replaced per qualified name.
    """
    wrappers: dict[int, tuple[str, object, object]] = {}
    for modname, mod in _package_modules():
        layer = modname.rsplit(".", 1)[-1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if not (isinstance(fn, types.FunctionType)
                    and fn.__module__ == modname):
                continue
            qual = f"{layer}.{fn.__name__}"
            wrappers[id(fn)] = (qual, fn, _make_wrapper(
                tracer, fn, tracer.name_id(qual), hooks.get(qual)))
    bound: Counter = Counter()
    for mod in [m for _, m in _package_modules()] + list(also):
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[1] is obj:
                setattr(mod, attr, entry[2])
                bound[entry[0]] += 1
    return bound


def _make_wrapper(tracer: Tracer, fn, name_id: int, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name_id, fn, hook, args, kwargs)
    return wrapper


def summarize(tracer: Tracer) -> tuple[dict[str, float],
                                       dict[str, list[float]], Counter]:
    """Self time per span name, inclusive durations per name, call counts.

    Self time is a span's duration minus the durations of its main-thread
    children. Detached spans contribute calls and durations only.
    """
    child_sum: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1 in tracer.spans:
        if parent >= 0:
            child_sum[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    calls: Counter = Counter()
    for sid, parent, name_id, t0, t1 in tracer.spans:
        name = tracer.names[name_id]
        calls[name] += 1
        durations[name].append(t1 - t0)
        if parent != DETACHED:
            self_s[name] += (t1 - t0) - child_sum.get(sid, 0.0)
    return dict(self_s), dict(durations), calls
