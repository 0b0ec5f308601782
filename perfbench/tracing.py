"""In-memory spans around calls into the toolchain's public functions.

The traced run replaces module attributes (and class attributes, for
``Container.save`` / ``Container.load``) with wrappers that open a span per
call. This works because every caller in the toolchain looks these functions
up through their module at call time. ``uninstall`` puts the originals back.

A span carries a name, start, end, parent span and the id of the operation it
belongs to. Calls made outside an operation (the benchmark's own checks) are
not recorded. Spans opened on a thread other than the installing one (the
``fakequant`` and ``fp32`` thread pools) take as parent the innermost span
open on the installing thread, which is blocked waiting for the pool.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` attribute ``qualname`` (``Class.attr``
    for methods). ``before(args, kwargs)`` may return replacement arguments;
    ``after(tracer, args, kwargs, result)`` records counts from a call that
    returned."""
    module: str
    qualname: str
    before: object = None
    after: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.captured: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._op: int | None = None

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            owner_top = self._owner_stack[-1:]  # slice: the owner may pop concurrently
            parent = owner_top[0].id if owner_top else None
        with self._lock:
            s = Span(next(self._ids), parent, self._op, name, threading.get_ident(),
                     self.clock())
            self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; every span opened inside it,
        on any thread, carries its id."""
        with self.span(name) as root:
            root.op = root.id
            self._op = root.id
            try:
                yield root
            finally:
                self._op = None

    def add(self, key: str, value: float):
        with self._lock:
            self.counts[key] += value

    # -- wrapping ----------------------------------------------------------

    def install(self, modules: dict, targets) -> None:
        """Wrap every target whose module and attribute exist; record the
        names of the others in ``missing``."""
        for t in targets:
            owner = modules.get(t.module)
            *path, attr = t.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if owner is None or raw is None:
                self.missing.append(t.name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, t))
            else:
                new = self._wrap(raw, t)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, func, t: Target):
        name = t.name

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self._op is None:  # the benchmark's own checks, not an operation
                return func(*args, **kwargs)
            if t.before is not None:
                args, kwargs = t.before(self, args, kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            if t.after is not None:
                t.after(self, args, kwargs, result)
            return result
        return wrapper


# -- analysis ---------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children from several threads may overlap each other; their union is
    subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
            for s in spans}


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def by_name(spans) -> dict[str, NameStats]:
    st = self_times(spans)
    out: dict[str, NameStats] = {}
    for s in spans:
        ns = out.setdefault(s.name, NameStats())
        ns.calls += 1
        ns.self_s += st[s.id]
        ns.durations.append(s.end - s.start)
    return out
