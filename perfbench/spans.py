"""In-memory span tracing from outside the program.

The traced run wraps the public functions the workloads' entry points
call (see :mod:`layers`) so that each call records a :class:`Span`: name,
start, end, parent span and request id.  Spans stay in memory and are
written out once, at the end of the run.  Nothing here touches the
program's own code: wrappers are installed on the modules and classes at
run time and removed again afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans of the process that created it.

    Worker processes forked while wrappers are installed inherit them;
    a wrapper running under another pid calls straight through, so a
    child never records into its dead copy of the tracer.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(len(self.spans), name, self.clock(), 0.0,
                      self._stack[-1] if self._stack else None,
                      self.request)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return func(*args, **kwargs)
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def write(self, path: Path, header: dict) -> None:
        """Write ``header`` then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` plus a ``qualname`` such as
    ``"Corpus.from_texts"``, recorded under span ``name``."""

    module: str
    qualname: str
    name: str

    @property
    def path(self) -> str:
        return f"{self.module}.{self.qualname}"


class Patches:
    """Installs and removes tracing wrappers around :class:`Target` s.

    A target that no longer exists is kept in :attr:`unmeasured` with the
    reason, and its span simply never appears — the run goes on.
    """

    def __init__(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        self.tracer = tracer
        self.targets = tuple(targets)
        self.unmeasured: dict[str, str] = {}
        self._undo: list[Callable[[], None]] = []

    def _resolve(self, target: Target):
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        return owner, attr, raw

    def install(self) -> None:
        if self._undo:
            return
        for target in self.targets:
            try:
                owner, attr, raw = self._resolve(target)
            except (ImportError, AttributeError) as error:
                self.unmeasured[target.path] = (
                    f"{type(error).__name__}: {error}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.tracer.wrap(target.name,
                                                     raw.__func__))
            else:
                patched = self.tracer.wrap(target.name, raw)
            own = attr in vars(owner)
            setattr(owner, attr, patched)
            self._undo.append(functools.partial(
                setattr, owner, attr, raw) if own else
                functools.partial(delattr, owner, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self, on: bool = True) -> Iterator[None]:
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()


# ----------------------------------------------------------------------
# Span-tree arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in result:
            result[span.parent] -= span.duration
    return result


def descendants(spans: Sequence[Span], roots: Iterable[int]) -> set[int]:
    """Ids of every span below ``roots`` (roots excluded)."""
    children: dict[int, list[int]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)
    found: set[int] = set()
    frontier = list(roots)
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.add(child)
            frontier.append(child)
    return found


def layer_self_times(spans: Sequence[Span],
                     root_prefix: str = "bench.") -> dict[str, float]:
    """Self time summed per layer over every span below the roots."""
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    roots = [s.id for s in spans if s.name.startswith(root_prefix)]
    totals: dict[str, float] = {}
    for span_id in sorted(descendants(spans, roots)):
        layer = by_id[span_id].layer
        totals[layer] = totals.get(layer, 0.0) + own[span_id]
    return totals


def coverage(spans: Sequence[Span], root_prefix: str = "bench.") -> float:
    """Share of the roots' wall time that named layers account for:
    the sum of layer self times over the sum of root durations."""
    wall = sum(s.duration for s in spans if s.name.startswith(root_prefix))
    if wall <= 0:
        return 0.0
    return sum(layer_self_times(spans, root_prefix).values()) / wall
