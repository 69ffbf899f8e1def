"""In-memory span tracer that wraps phasestab's public functions from outside.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none).  Spans are recorded only while ``active`` is
true, so the benchmark can switch tracing on for whole cycles of operations
and leave the correctness checks between operations untraced.  Self time is a
span's duration minus the time its child spans cover; one thread runs every
span, so children never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# Public functions traced, keyed by the layer (module) that defines them.
TRACED = {
    "grid": ("fourier_transform", "inverse_transform", "lp_norm", "shift"),
    "bounds": (
        "evaluate_theorem",
        "translation_term",
        "smoothness_modulus",
        "spectral_tail",
        "evaluate_corollary1",
    ),
    "experiments": ("fit_scaling",),
    "geometry": ("lemma1_gap",),
    "io": ("save_field", "load_field", "write_text_atomic"),
    "cli": ("main",),
}


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _fft_bytes(tracer, args, kwargs, result):
    # One pass over a complex128 array per transform (computed, not measured).
    tracer.counters["grid.fft_bytes"] += 16 * result.grid.size


def _lemma_points(tracer, args, kwargs, result):
    tracer.counters["geometry.lemma1_gap.points"] += int(np.size(result))


def _bytes_read(tracer, args, kwargs, result):
    tracer.counters["io.bytes_read"] += os.path.getsize(_first(args, kwargs, "path"))


def _bytes_written(tracer, args, kwargs, result):
    tracer.counters["io.bytes_written"] += os.path.getsize(_first(args, kwargs, "path"))


def _keep_report(tracer, args, kwargs, result):
    tracer.reports.append(result)


# Counters taken at the same boundaries as the spans, run after the call.
HOOKS = {
    "grid.fourier_transform": _fft_bytes,
    "grid.inverse_transform": _fft_bytes,
    "geometry.lemma1_gap": _lemma_points,
    "io.load_field": _bytes_read,
    "io.write_text_atomic": _bytes_written,
    "bounds.evaluate_theorem": _keep_report,
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.reports: list = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Replace each traced function in every namespace that holds it.

        ``modules`` maps layer names to modules; the package itself may be
        given too, under any key not in TRACED.
        """
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(stats)
