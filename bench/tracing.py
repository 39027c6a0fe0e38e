"""Per-function call tracing for brext, installed from outside the package.

Every public function and public method defined in a brext layer module is
replaced by one counting wrapper, in every brext namespace that binds it
(brmul, for instance, is bound in bruck_reilly, verify, topology, cli and
the package itself), so calls are caught whichever module makes them.
Calls are aggregated in memory per (function, caller) edge into a call
count, an inclusive time and a self time (inclusive minus the time spent in
wrapped callees); nothing is recorded per call.  `uninstall` puts every
original back, and `installed_wrappers` lets untraced runs prove that no
wrapper is left behind.

Generator functions are counted at creation only; the time spent iterating
them is charged to whoever consumes the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("groups", "clifford", "bicyclic", "bruck_reilly", "topology", "verify", "config", "cli")

_MARK = "__brext_bench_wrapper__"
ROOT = "<bench>"


def _modules():
    """Every loaded brext namespace: the package and all its modules."""
    return [m for name, m in list(sys.modules.items()) if name == "brext" or name.startswith("brext.")]


def _layer_targets():
    """(key, owner, attribute, descriptor) for every public callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"brext.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{obj.__qualname__}", mod, name, obj))
            elif inspect.isclass(obj):
                for attr, desc in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    fn = desc.__func__ if isinstance(desc, (classmethod, staticmethod)) else desc
                    if inspect.isfunction(fn):
                        out.append((f"{layer}.{fn.__qualname__}", obj, attr, desc))
    return out


class Tracer:
    """Aggregated (function, caller) -> [calls, total_s, self_s] counters."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}
        self._stack = [ROOT]
        self._child = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key):
        edges, stack, child, clock = self.edges, self._stack, self._child, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append(key)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                inner = child.pop()
                child[-1] += dt
                e = edges.get((key, parent))
                if e is None:
                    edges[(key, parent)] = [1, dt, dt - inner]
                else:
                    e[0] += 1
                    e[1] += dt
                    e[2] += dt - inner

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}  # original function -> wrapper, shared across namespaces
        for key, owner, attr, desc in _layer_targets():
            if isinstance(desc, (classmethod, staticmethod)):
                wrapped = type(desc)(self._wrap(desc.__func__, key))
            else:
                wrapped = self._wrap(desc, key)
                originals[desc] = wrapped
            self._saved.append((owner, attr, desc))
            setattr(owner, attr, wrapped)
        for mod in _modules():
            for name, obj in list(vars(mod).items()):
                wrapped = originals.get(obj) if inspect.isfunction(obj) else None
                if wrapped is not None and getattr(mod, name) is not wrapped:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregates -------------------------------------------------------

    def calls(self, key: str) -> int:
        return sum(e[0] for (k, _), e in self.edges.items() if k == key)

    def total_s(self, key: str, parent: str | None = None) -> float:
        return sum(
            e[1] for (k, p), e in self.edges.items() if k == key and (parent is None or p == parent)
        )

    def self_s(self, key: str) -> float:
        return sum(e[2] for (k, _), e in self.edges.items() if k == key)

    def dump(self) -> list[dict]:
        """Edges as records, heaviest self time first."""
        rows = [
            {"function": k, "caller": p, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (k, p), e in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows


def installed_wrappers() -> list[str]:
    """Names of tracing wrappers currently bound anywhere in brext."""
    found = []
    for mod in _modules():
        for name, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            elif inspect.isclass(obj) and obj.__module__.startswith("brext"):
                for attr, desc in vars(obj).items():
                    fn = getattr(desc, "__func__", desc)
                    if getattr(fn, _MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
