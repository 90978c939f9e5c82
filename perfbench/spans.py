"""In-memory spans recorded around calls into propval's public functions.

The traced run times each layer from outside the package: it replaces a
function with a timing wrapper in every ``propval`` module that holds
it.  Replacing the name only in the defining module would miss most
calls, because ``valuation``, ``costmodel`` and ``cli`` bind
``range_basis``, ``valuate``, ``load_matrix`` and the rest with
``from ... import``.  :meth:`Tracer.restore` puts every original back.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``note`` is whatever the
target's ``observe`` hook extracted from the call.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

NAME, START, END, PARENT, NOTE = range(5)


@dataclass(frozen=True)
class Target:
    """A public function to time: ``module.attr`` recorded as ``span``.

    ``observe(args, result)`` runs after the span has ended and returns
    the span's note (a grouping key or a count), or None.
    """

    module: str
    attr: str
    span: str
    observe: Callable[[tuple, Any], Any] | None = None


class Tracer:
    def __init__(self, package: str = "propval"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self.begin(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if target.observe is not None:
                try:
                    self.spans[idx][NOTE] = target.observe(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the function's signature changed; the note stays None
            return result

        return timed

    def install(self, targets: list[Target]) -> None:
        """Patch every binding of each target inside the package."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]
        self.missing = []
        for target in targets:
            home = sys.modules.get(target.module)
            original = getattr(home, target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]
