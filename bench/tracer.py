"""Per-layer tracing from outside the program.

The tracer replaces public functions of the fcgp modules with wrappers that
record calls and self time: a call's duration minus the time spent in the
wrapped calls nested inside it.  A wrapper is installed at every module
attribute that holds the original function, because callers look functions
up in different places: ``cli`` imports ``compute_profile`` by name, while
``run_pipeline`` imports it from ``fcgp.graph`` at call time.

Hot methods of ``AnnotatedInstance`` (and ``RuleTrace.log``) get count-only
wrappers; their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from types import ModuleType

LAYERS = ("graph", "instance", "rules", "ramsey", "solve", "harness", "cli")

# (module, class, method) -> counter name; counted, not timed.
COUNTED_METHODS = {
    ("instance", "AnnotatedInstance", "better_cmp"): "instance.better_cmp_calls",
    ("instance", "AnnotatedInstance", "contribution"): "instance.contribution_calls",
    ("instance", "AnnotatedInstance", "deg_bonus"): "instance.deg_bonus_calls",
    ("instance", "AnnotatedInstance", "val"): "instance.val_calls",
    ("instance", "AnnotatedInstance", "include"): "instance.include_calls",
    ("instance", "AnnotatedInstance", "exclude"): "instance.exclude_calls",
    ("rules", "RuleTrace", "log"): "rules.trace_entries",
}

# Result attribute summed per function: solver nodes explored.
RESULT_SUMS = {
    "solve.brute_force": ("solve.brute_subsets", "nodes_explored"),
    "solve.solve_auto": ("solve.auto_nodes", "nodes_explored"),
}


class Tracer:
    """Installs wrappers on a freshly imported fcgp and accumulates stats."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------

    def install(self, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        targets = [package, *modules.values()]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                wrapper = self._timed(f"{layer}.{name}", fn)
                for target in targets:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patch(target, attr, wrapper)
        for (layer, cls_name, meth), counter in COUNTED_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._counted(counter, getattr(cls, meth)))

    def uninstall(self) -> None:
        for target, attr, original, _ in reversed(self._patches):
            setattr(target, attr, original)

    def reinstall(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def _patch(self, target, attr: str, wrapper) -> None:
        self._patches.append((target, attr, vars(target)[attr], wrapper))
        setattr(target, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key: str, fn):
        child = self._child
        calls, self_s, counts = self.calls, self.self_s, self.counts
        summed = RESULT_SUMS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = child.pop()
                calls[key] += 1
                self_s[key] += elapsed - inner
                if child:
                    child[-1] += elapsed
            if summed is not None:
                counts[summed[0]] += getattr(result, summed[1])
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reading -----------------------------------------------------------

    def ms(self, *keys: str, prefix: str | None = None, exclude: tuple[str, ...] = ()) -> float:
        """Self time in ms of the named functions, or of every function under a prefix."""
        names = set(keys)
        if prefix is not None:
            names |= {k for k in self.self_s if k.startswith(prefix) and k not in exclude}
        return 1000.0 * sum(self.self_s.get(k, 0.0) for k in names)

    def n_calls(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def functions(self) -> dict[str, dict[str, float]]:
        return {
            k: {"calls": self.calls[k], "self_ms": round(1000.0 * self.self_s[k], 3)}
            for k in sorted(self.calls)
        }
