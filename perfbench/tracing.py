"""Span tracer that measures the qsr package from outside.

Entering a `Tracer` wraps every public function that each qsr module
defines, at every qsr namespace that binds it (the package itself and each
submodule, under any name), so calls within a module and calls across
modules both open a span. Leaving it puts every original binding back.

Spans are not stored one by one: each wrapped function keeps a call count,
its summed span time and its summed self time (span time minus the time
covered by its child spans), which keeps memory flat on the million-call
passes of the benchmark. The time of outermost spans is kept as `root_s`;
summed self times equal it up to rounding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

#: Attribute set on each wrapper, pointing at the function it wraps.
ORIGINAL_ATTR = "__perfbench_original__"


def package_namespaces(package) -> list:
    """The package and its public submodules, importing them if needed.

    Submodules whose names start with an underscore (``__main__`` runs the
    CLI on import) are skipped.
    """
    namespaces = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            namespaces.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return namespaces


def public_functions(namespaces) -> dict:
    """Map each public function defined in one of the modules to its span key.

    The key is ``"<module>.<function>"`` with the module's last dotted name
    part, e.g. ``"linalg.hermitian_eigenvalues"``.
    """
    found = {}
    for module in namespaces:
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[value] = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    return found


class Tracer:
    """Context manager that aggregates spans over the public qsr functions.

    A tracer may be entered several times; its statistics accumulate.
    Queries for a name that was never called, or no longer exists, return 0.
    """

    def __init__(self, package):
        self._package = package
        self._stats = {}  # span key -> [calls, span seconds, self seconds]
        self._stack = []  # child seconds accumulated by each open span
        self._bindings = []  # (namespace, name, original) replaced on entry
        self.root_s = 0.0

    def __enter__(self):
        if self._bindings:
            raise RuntimeError("tracer is already active")
        namespaces = package_namespaces(self._package)
        wrappers = {fn: self._wrap(fn, key) for fn, key in public_functions(namespaces).items()}
        try:
            for module in namespaces:
                for name, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._bindings.append((module, name, value))
                        setattr(module, name, wrappers[value])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._bindings:
            module, name, original = self._bindings.pop()
            setattr(module, name, original)
        self._stack.clear()

    def _wrap(self, fn, key):
        stat = self._stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - child
                if stack:
                    stack[-1] += span
                else:
                    tracer.root_s += span

        setattr(traced, ORIGINAL_ATTR, fn)
        return traced

    def _stat(self, key: str) -> list:
        return self._stats.get(key, [0, 0.0, 0.0])

    def calls(self, key: str) -> int:
        return self._stat(key)[0]

    def span_s(self, key: str) -> float:
        return self._stat(key)[1]

    def self_s(self, key: str) -> float:
        return self._stat(key)[2]

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for k, s in self._stats.items() if k.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for k, s in self._stats.items() if k.startswith(layer + "."))

    def total_self_s(self) -> float:
        return sum(s[2] for s in self._stats.values())
