"""Span tracing of the cescov layers, applied from outside the package.

A :class:`Tracer` wraps every public function of each layer module (the
names in the module's ``__all__``, or its public top-level functions when it
has none) plus ``RngStream.generator``.  The wrapper is installed under every
name a layer module binds the function to, so ``mc_verify.sample_ces`` is
traced as a call into the ``ces_sampler`` layer.  Private kernels such as
``mc_verify._moment_chunk`` stay unwrapped: their time is self time of the
layer that runs them.

Spans are recorded only inside a root span opened with :meth:`Tracer.root`
and stay in memory until :meth:`Tracer.write` dumps them.  A span is
(name, layer, start, end, parent); the names and layers of span ``i`` are
``names[key[i]]`` and ``layers[key[i]]`` in the written file.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from array import array

LAYERS = ("lin_core", "ces_sampler", "estimators", "theory", "mc_verify", "cli")
ROOT_LAYER = "bench"


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        return [
            n
            for n, obj in vars(module).items()
            if not n.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ]
    return [n for n in names if inspect.isfunction(getattr(module, n))]


class Tracer:
    """Records (name, layer, start_ns, end_ns, parent) spans while installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.  Spans live in flat arrays (indexed by
    span id, parent -1 for a root) so that holding many of them costs the
    garbage collector nothing.
    """

    def __init__(self, package):
        self.package = package
        self.keys: list[tuple[str, str]] = []  # (span name, layer) per key id
        self.key = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _key(self, name: str, layer: str) -> int:
        if (name, layer) not in self.keys:
            self.keys.append((name, layer))
        return self.keys.index((name, layer))

    def _open(self, key: int) -> int:
        idx = len(self.start)
        self.key.append(key)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name: str, layer: str):
        key, stack, clock = self._key(name, layer), self._stack, time.perf_counter_ns
        keys, start, end, parent = self.key, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside any root span: not part of a measured call
                return fn(*args, **kwargs)
            idx = len(start)  # same steps as _open, inlined: this runs per call
            keys.append(key)
            parent.append(stack[-1])
            end.append(0)
            start.append(clock())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        mods = {layer: getattr(self.package, layer) for layer in LAYERS}
        owner = {}  # id(function) -> (function, layer that exports it)
        for layer, mod in mods.items():
            for name in _public_functions(mod):
                fn = getattr(mod, name)
                owner.setdefault(id(fn), (fn, layer))
        bindings = [*mods.items(), ("cescov", self.package)]
        for bind_name, mod in bindings:
            for name, obj in list(vars(mod).items()):
                hit = owner.get(id(obj))
                if hit is not None and hit[0] is obj:
                    wrapped = self._wrap(obj, f"{bind_name}.{name}", hit[1])
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapped)
        stream_cls = mods["ces_sampler"].RngStream
        gen = stream_cls.__dict__["generator"]
        self._patches.append((stream_cls, "generator", gen))
        stream_cls.generator = self._wrap(gen, "RngStream.generator", "ces_sampler")
        return self

    def __exit__(self, *exc) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span; wrapped calls inside it are recorded."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        idx = self._open(self._key(name, ROOT_LAYER))
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def name(self, idx: int) -> str:
        return self.keys[self.key[idx]][0]

    def layer(self, idx: int) -> str:
        return self.keys[self.key[idx]][1]

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus the time of its children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[i] - self.start[i]
        return own

    def roots(self) -> list[int]:
        """Index of the root span each span belongs to (parents precede children)."""
        root: list[int] = []
        for i, par in enumerate(self.parent):
            root.append(i if par < 0 else root[par])
        return root

    def write(self, path) -> None:
        """Write the spans as gzipped JSON columns, one entry per span id."""
        t0 = self.start[0] if self.start else 0
        cols = {
            "names": [k[0] for k in self.keys],
            "layers": [k[1] for k in self.keys],
            "key": self.key.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(cols, f)
