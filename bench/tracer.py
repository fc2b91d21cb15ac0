"""Call tracing of the monofilt layers, installed from outside the package.

``Tracer.install`` wraps every public function of each ``monofilt``
module by rebinding the name in every ``monofilt.*`` module (and in the
module-level dicts, such as ``theorems.EXTENSIONS``) that holds it, and
wraps the public methods and operator methods on the classes themselves.
Nothing in the package is edited; ``uninstall`` puts every original back.

Each wrapped call records one span: name, start, end, parent span and the
id of the item being verified.  Spans live in flat arrays while the run
is going and are written out at the end (``write``).  ``summarize``
derives call counts, inclusive time per function and self time per module
from the spans alone.
"""
from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("qlinalg", "weights", "monodromy", "gluing", "kgroup", "theorems",
          "report", "cli")
ROOT = "bench.verdict"
_OPERATORS = ("__matmul__", "__add__", "__and__", "__sub__", "__neg__")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps layer name to the imported ``monofilt`` module."""
        self.modules = modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.item = -1
        self._undo: list = []
        self._root = self._wrap(lambda func, *args: func(*args), ROOT)

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, func, name: str):
        nid = self._name_id(name)
        stack = self._stack
        name_of, parent, item_of = self.name_of, self.parent, self.item_of
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            item_of.append(self.item)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def span(self, item: int, func, *args):
        """Run ``func(*args)`` as the root span of one verdict on ``item``."""
        self.item = item
        try:
            return self._root(func, *args)
        finally:
            self.item = -1

    # -- installation ----------------------------------------------------

    def _set(self, owner, key, value, via_dict=False):
        old = owner[key] if via_dict else owner.__dict__[key]
        self._undo.append((owner, key, old, via_dict))
        if via_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = list(self.modules.values())
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._rebind(obj, self._wrap(obj, f"{layer}.{attr}"), namespaces)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(layer, obj)

    def _rebind(self, original, wrapped, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, attr, wrapped)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._set(value, key, wrapped, via_dict=True)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(value.__func__, name)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, name))

    def uninstall(self) -> None:
        for owner, key, old, via_dict in reversed(self._undo):
            if via_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, item, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.item_of[i]}\t"
                         f"{names[self.name_of[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\n")


def summarize(tr: Tracer) -> dict:
    """Call counts, inclusive seconds per name and self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children; the root verdict spans give the total verdict time.
    """
    n = len(tr)
    dur = array("d", (e - s for s, e in zip(tr.start, tr.end)))
    child = array("d", bytes(8 * n))
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_s: Counter = Counter()
    verdict_s = 0.0
    for i in range(n):
        name = tr.names[tr.name_of[i]]
        if name == ROOT:
            verdict_s += dur[i]
            continue
        calls[name] += 1
        inclusive[name] += dur[i]
        self_s[_layer(name)] += dur[i] - child[i]
    return {"calls": dict(calls), "inclusive_s": dict(inclusive),
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "verdict_s": verdict_s, "spans": n}
