"""Span tracing of the binquant layers from outside the program.

:func:`traced` replaces every public function bound at module level in the
six library modules (``density``, ``likelihood``, ``channel``, ``solver``,
``oracle``, ``cli``) with a wrapper that records one span per call: name,
start, end and parent, plus the size of the second positional argument
(array length, 1 for a float, the value of an integer: points for
``posterior``/``log_pdf``/``cdf``, ``n_thresholds`` for ``grid_search``)
and a small result-derived count.  Module globals are looked up at call time, so
calls *between* library functions go through the wrappers too.  The
wrappers pass arguments and results through untouched, so traced outputs
are bit-identical to untraced ones.  The originals are restored on exit.

A span is named after the module that defines the function, which is the
layer its self time is charged to (``channel.posterior`` records as
``likelihood.posterior``).  A function is public when the defining module
lists it in ``__all__``; private helpers (``oracle._mi_from_masses``,
``channel.binary_entropy_arr``) run unwrapped inside the grid search's inner
loop, and their time is the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("density", "likelihood", "channel", "solver", "oracle", "cli")

#: ``extra`` value of a span whose call raised.
RAISED = -1


def _size(y) -> int:
    if isinstance(y, np.ndarray):
        return y.size
    if isinstance(y, float):
        return 1
    return y if isinstance(y, int) else 0


def _extra(result) -> int:
    """Roots of a level set, or tuples an oracle search evaluated."""
    roots = getattr(result, "roots", None)
    if roots is not None:
        return len(roots)
    return int(getattr(result, "n_evaluated", 0))


class Tracer:
    """Spans held in flat arrays; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("q")
        self.extra = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, fn, span_name: str):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, start, end, arg, extra, stack = (
            self.name, self.parent, self.start, self.end, self.arg, self.extra, self._stack
        )

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            y = args[1] if len(args) > 1 else None
            arg.append(_size(y))
            extra.append(RAISED)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            extra[idx] = _extra(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "arg": np.frombuffer(self.arg, dtype=np.int64).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``; ``names`` maps name ids)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on the library's public module-level functions."""
    modules = [importlib.import_module(f"binquant.{layer}") for layer in LAYERS]
    public = {m.__name__: set(m.__all__) for m in modules}
    wrappers: dict[int, object] = {}
    patched = []
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if not inspect.isfunction(fn) or fn.__name__ not in public.get(fn.__module__, ()):
                continue
            if id(fn) not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[1]
                wrappers[id(fn)] = tracer.wrap(fn, f"{layer}.{fn.__name__}")
            patched.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])
    try:
        yield tracer
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)


class SpanTable:
    """Analysis view of a tracer: self times and per-name selections."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.arg = a["arg"]
        self.extra = a["extra"]
        self.dur = a["end"] - a["start"]
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child], minlength=self.dur.size)
        self.self_time = self.dur - covered
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        self.layer = layer_of[self.name] if self.name.size else np.array([], dtype=str)

    def select(self, span_name: str, within: np.ndarray) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return within & (self.name == self.names.index(span_name))

    def layer_self(self, layer: str, within: np.ndarray) -> float:
        return float(self.self_time[within & (self.layer == layer)].sum())
