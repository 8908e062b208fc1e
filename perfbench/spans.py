"""In-memory spans recorded around calls into the program.

A span has a name, a layer bucket, start and end times, the thread it ran on
and the span that caused it (the innermost open span of the same thread).
``Tracer.wrap`` turns a function into one that records a span per call;
``install`` swaps such wrappers in for module attributes and ``uninstall``
puts the originals back, so the program's sources are never edited.
"""

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    bucket: str
    thread: int
    t0: float
    t1: float = float("nan")
    error: Optional[str] = None
    info: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, bucket: str):
        stack = self._stack()
        sp = Span(id=next(self._ids), parent=stack[-1].id if stack else None,
                  name=name, bucket=bucket, thread=threading.get_ident(),
                  t0=self.clock())
        stack.append(sp)
        try:
            yield sp
        except BaseException as err:
            sp.error = f"{type(err).__name__}: {err}"
            raise
        finally:
            sp.t1 = self.clock()
            stack.pop()
            self.spans.append(sp)

    def wrap(self, fn: Callable, name: str, bucket: str,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``observe(span, args, result)`` runs after the span has closed, so
        the bookkeeping it does is not charged to the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, bucket) as sp:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(sp, args, result)
            return result

        return traced


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: Dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.t0, sp.t1))
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.t0
        for a, b in sorted(children.get(sp.id, ())):
            a, b = max(a, reach), min(b, sp.t1)
            if b > a:
                covered += b - a
                reach = b
        out[sp.id] = sp.duration - covered
    return out


def install(targets: Iterable[object], wrappers: Dict[Callable, Callable]) -> list:
    """Rebind every attribute of ``targets`` that holds a wrapped original.

    A function imported by name into several modules is rebound in each of
    them. Returns the patches for ``uninstall``.
    """
    patches = []
    for target in targets:
        for attr, value in list(vars(target).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable attribute values
                continue
            if wrapper is not None:
                patches.append((target, attr, value))
                setattr(target, attr, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
