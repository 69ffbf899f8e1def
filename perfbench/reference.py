"""Reference kernels that gauge the host's speed next to the timed work.

The benchmark shares a few vCPUs of a host whose speed drifts by up to 2x
over seconds to minutes, so the wall time of the same operation differs that
much between runs.  A kernel here is fixed stdlib/numpy code that never calls
phasestab and, once warm, allocates no array above 16 KiB, so only the
host's speed, not the program under test, moves its time.  The benchmark
times a kernel between operations (a *gauge*) and scales each operation's
wall time by
``kernel.nominal_s / gauge``: the time the operation would take on a host on
which the kernel takes exactly ``nominal_s``.

Host slowdowns hit interpreted code, large-array passes and module loading
differently, so each workload names the kernel closest to where its own time
goes, and the import timing of setup_s uses the ``import`` kernel.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

_SMALL = np.random.default_rng(12345).standard_normal(1024) * (1.0 + 0.0j)


def _python_kernel() -> float:
    """Interpreter loop plus small FFTs: where certify_1d and the cli spend time."""
    start = perf_counter()
    acc = 0.0
    for i in range(900):
        acc += (i * 0.5) % 7
    for _ in range(18):
        spectrum = np.roll(np.fft.fft(_SMALL), 7)
        acc += float(np.abs(spectrum).sum())
    return perf_counter() - start


@functools.cache
def _array_buffers() -> tuple[np.ndarray, ...]:
    """Made on first use, so workloads gauged by the python kernel do not hold them."""
    fft_in = np.random.default_rng(54321).standard_normal(2**18) * (1.0 + 0.0j)
    pass_in = np.random.default_rng(4321).standard_normal(2**20) * (1.0 + 0.0j)
    return fft_in, np.empty_like(fft_in), pass_in, np.empty_like(pass_in), np.empty(2**20)


def _array_kernel() -> float:
    """A 4 MiB FFT and passes over 16 MiB arrays: the 3-D and experiments traffic.

    The 16 MiB arrays do not fit in L2, so the passes feel the shared
    last-level cache and memory bandwidth, as the 32 MiB arrays of a 128^3
    grid and the lemma chunks do.
    """
    fft_in, fft_out, pass_in, pass_out, modulus = _array_buffers()
    start = perf_counter()
    np.fft.fft(fft_in, out=fft_out)
    np.multiply(pass_in, pass_in, out=pass_out)
    np.abs(pass_out, out=modulus)
    return perf_counter() - start


# Prints the seconds its imports took, as run.py's probe does for phasestab.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, json, decimal, email.parser, http.client; "
    "print(time.perf_counter() - t)"
)


def _import_kernel() -> float:
    """Cold imports of numpy and stdlib packages in a child interpreter.

    Loading modules and shared libraries costs what timing ``import
    phasestab`` costs, which in-process kernels track poorly.
    """
    child = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], float]  # runs the kernel once and returns its seconds
    nominal_s: float  # a round figure near its time on the host it was tuned on
    repeats: int  # runs per gauge; the gauge is their median


KERNELS = {
    "python": Kernel(_python_kernel, 1.0e-3, 5),
    "array": Kernel(_array_kernel, 10.0e-3, 3),
    "import": Kernel(_import_kernel, 0.15, 1),
}


def gauge(kernel: Kernel) -> float:
    """Median seconds of ``kernel.repeats`` runs of the kernel."""
    return statistics.median(kernel.run() for _ in range(kernel.repeats))


def scale(seconds: float, kernel: Kernel, before: float, after: float) -> float:
    """``seconds`` of wall time scaled by the gauges taken before and after it."""
    return seconds * kernel.nominal_s / (0.5 * (before + after))
