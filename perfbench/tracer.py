"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer`` wraps the public functions and methods of the package's layer
modules in spans, and the ``+``, ``-`` and ``*`` operators of ``Fraction``
and ``PolyScalar`` in plain counters.  A span records calls, total time and
self time (its duration minus the time of wrapped spans it encloses).
Every module namespace and module-level dict that holds a wrapped object is
rebound, because the package binds names at import (``from .fock import
...``, ``verify.SUITES``, ``cli._COMMANDS``).  Leaving the ``with`` block
restores everything.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

PACKAGE = "lrcumulants"
LAYER_MODULES = ("partitions", "lukasiewicz", "deque", "cumulants", "fock", "verify", "cli")

# Called millions of times per sweep with almost no work inside, so a span
# would cost more than the call: these get a counter only.
COUNT_ONLY = frozenset({"fock.CoefficientTable.coeff"})

# lru_cache'd functions whose cache statistics are reported as hits/misses.
CACHED = (("deque", "restriction_data"), ("fock", "mixture_plan"))

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


class Tracer:
    """Context manager that installs the wrappers and collects the stats."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.scalar_ops = {"fraction": 0, "poly": 0}
        self._stack: List[float] = []  # child time accumulated per open span
        self._undo: List[Callable[[], None]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _op_counter(self, kind: str, fn: Callable) -> Callable:
        ops = self.scalar_ops

        def wrapper(a, b):
            ops[kind] += 1
            return fn(a, b)

        return wrapper

    def _wrap(self, name: str, fn: Callable) -> Callable:
        return self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def __enter__(self) -> "Tracer":
        modules = {
            short: sys.modules[f"{PACKAGE}.{short}"] for short in LAYER_MODULES
        }
        replaced: Dict[int, Callable] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(short, obj)
                elif callable(obj) and hasattr(obj, "__name__"):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # rebind every module-level name and dict entry that holds an original
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]
                            self._undo.append(functools.partial(obj.__setitem__, key, value))
        poly = modules["fock"].PolyScalar
        for cls, kind in ((Fraction, "fraction"), (poly, "poly")):
            for attr in OPERATORS:
                self._set(cls, attr, self._op_counter(kind, getattr(cls, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def stats(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) for every wrapped name."""
        return {name: (int(c), t, s) for name, (c, t, s) in self.spans.items()}
