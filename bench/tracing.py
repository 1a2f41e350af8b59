"""Spans around calls into diffsys's public functions, taken from outside the package.

``Tracer.install`` wraps every public function of the layer modules and puts
the wrapper in place of the function at every module binding, so
``diffsys.cli.monodromy``, ``diffsys.immersion.monodromy`` and
``diffsys.monodromy.monodromy`` all record under ``monodromy.monodromy``.
Spans stay in memory until ``write``.  A span's self time is its duration
minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("field", "curves", "multiplication", "systems", "monodromy", "immersion", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_exact_rank(counts, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    counts["field.exact_rank.entries"] += m.rows * m.cols


def _count_integrate_loop(counts, args, kwargs, result):
    loop = _arg(args, kwargs, 2, "loop")
    counts["monodromy.integrate_loop.letters"] += len(loop.word)
    counts["monodromy.integrate_loop.segments"] += len(loop.vertices) - 1


def _count_monodromy(counts, args, kwargs, result):
    counts["monodromy.monodromy.valid"] += bool(result.valid)


def _count_cli_main(counts, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.report_bytes"] += os.path.getsize(path)


COUNTERS = {
    "field.exact_rank": _count_exact_rank,
    "monodromy.integrate_loop": _count_integrate_loop,
    "monodromy.monodromy": _count_monodromy,
    "cli.main": _count_cli_main,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, op index or -1)
        self.op = -1  # index of the op in progress; -1 during set-up
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # [span index, time of wrapped children] per open span

    def install(self, package: str = "diffsys") -> None:
        layer_modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, module in zip(LAYERS, layer_modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, COUNTERS.get(name))
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, binding, wrapper)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def value(self, metric: str) -> float:
        """Run total of a per-layer metric: ``<layer>.<function>.<stat>`` or a
        computed count such as ``cli.report_bytes``."""
        fn, _, stat = metric.rpartition(".")
        if stat == "calls":
            return float(self.calls[fn])
        if stat == "self_s":
            return self.self_s[fn]
        if stat == "valid_per_call":
            calls = self.calls[fn]
            return self.counts[f"{fn}.valid"] / calls if calls else 0.0
        return float(self.counts[metric])

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
