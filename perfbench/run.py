#!/usr/bin/env python3
"""phasestab benchmark: one workload, closed loop, one client, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify_1d --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and workloads.py): certify_1d, verify_3d,
cli_roundtrip_2d, experiments_suite.  phasestab is imported from ``src/``
beside this directory; the run fails without printing a result if it is not
there.

Each operation starts when the previous one has finished and been checked.
The check runs outside the timed interval; an operation that raises or fails
its check counts as failed, and its latency as infinite.

Times are host-scaled (see reference.py): the host's speed drifts by up to
2x between runs, so a reference kernel is timed between operations, once
GAUGE_EVERY_S seconds have passed since the last time, and each timed
interval is scaled by the kernel's nominal time over the mean of the gauges
just before and after it.  The wall times are printed beside the scaled ones.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``ops_per_s``: checked operations per second of busy time, the summed
  host-scaled time of the timed operations (the checks between them are left
  out);
* ``op_p50_ms``: median host-scaled operation latency;
* ``setup_s``: the median of IMPORT_REPEATS imports of phasestab, each in a
  fresh interpreter, plus the median of SETUP_REPEATS set-ups, each of which
  builds the inputs and runs one untimed warm-up op; both host-scaled, the
  imports by the ``import`` kernel;
* ``peak_rss_mb``: peak resident memory of the process.

``op_p90_ms`` (only with at least 100 operations) and ``failed_op_share`` are
printed on the lines before the result; ``failed_op_share`` reads 0 on a good
run, so the result carries it as ``failed`` / ``attempted`` instead.

``--trace 1`` wraps the public functions of every layer as spans and
alternates traced and untraced whole cycles of operations; the per-layer
metrics come from the traced cycles, and ``trace.overhead_share`` compares
the two.  Spans stay in memory and are written to ``.perfbench_out/`` at the
end, with the environment and the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy and scipy pools: one thread, so one busy CPU.  Set before anything
# loads numpy, reference.py included.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
P90_MIN_OPS = 100
GAUGE_EVERY_S = 0.2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_phasestab():
    """Import phasestab from ``src/`` and the workloads module; return the latter."""
    if not (SRC / "phasestab" / "__init__.py").is_file():
        raise SystemExit(f"error: no phasestab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import phasestab
    import workloads

    if Path(phasestab.__file__).resolve().parent != SRC / "phasestab":
        raise SystemExit(f"error: phasestab imported from {phasestab.__file__}, not {SRC}")
    return workloads


# Run in a fresh interpreter; prints the seconds ``import phasestab`` took,
# the cli layer included.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import phasestab, phasestab.cli; print(time.perf_counter() - t)"
)


def gauged(kernel, repeats: int, step):
    """Run ``step`` ``repeats`` times with a gauge of ``kernel`` before and after each.

    ``step()`` returns (wall seconds, value).  Returns the last value, the
    wall seconds and the host-scaled seconds.
    """
    walls, scaled = [], []
    before = reference.gauge(kernel)
    for _ in range(repeats):
        wall, value = step()
        after = reference.gauge(kernel)
        walls.append(wall)
        scaled.append(reference.scale(wall, kernel, before, after))
        before = after
    return value, walls, scaled


def import_once() -> tuple[float, None]:
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout), None


def import_times() -> tuple[list[float], list[float]]:
    """Wall and host-scaled seconds of IMPORT_REPEATS cold imports of phasestab.

    Each import runs in a child interpreter.  The benchmark's own import has
    already written the bytecode caches, so the first child pays no
    compilation that the others skip.
    """
    _, walls, scaled = gauged(reference.KERNELS["import"], IMPORT_REPEATS, import_once)
    return walls, scaled


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc_size() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and int(level) > best[0]:
            best = (int(level), f"L{int(level)} {size.strip()}")
    return best[1]


def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return head or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def set_up(workload_cls, seed: int, workdir: Path, tracer, kernel):
    """Run SETUP_REPEATS set-ups; return the last workload and their wall and scaled seconds."""

    def one():
        start = perf_counter()
        workload = workload_cls()
        workload.setup(seed, workdir)
        workload.check(0, workload.op(0, tracer))
        return perf_counter() - start, workload

    return gauged(kernel, SETUP_REPEATS, one)


def run_ops(workload, seconds: float, tracer, trace: bool, kernel):
    """Closed loop of whole cycles for at least ``seconds``.

    Returns one (wall s, ok, traced, host-scaled s) per op.  A gauge of
    ``kernel`` runs before the first op, after any op that ends GAUGE_EVERY_S
    or more after the last gauge, and after the last op; an op is scaled by
    the gauges on either side of it.

    With tracing, even-numbered cycles are traced and odd ones are not, and
    the loop ends after an even number of cycles so both halves match.
    """
    ops = []
    gauges = [reference.gauge(kernel)]
    last_gauge = perf_counter()
    start = perf_counter()
    i = 0
    while True:
        cycles = i // workload.cycle
        if i % workload.cycle == 0 and perf_counter() - start >= seconds:
            if not trace or (cycles >= 2 and cycles % 2 == 0):
                break
        traced = trace and cycles % 2 == 0
        ok = True
        tracer.active = traced
        t0 = perf_counter()
        try:
            with tracer.span("op"):
                result = workload.op(i, tracer)
        except Exception:
            ok = False
            traceback.print_exc()
        elapsed = perf_counter() - t0
        tracer.active = False
        if ok:
            try:
                workload.check(i, result)
            except Exception:
                ok = False
                traceback.print_exc()
        ops.append((elapsed, ok, traced, len(gauges) - 1))
        if perf_counter() - last_gauge >= GAUGE_EVERY_S:
            gauges.append(reference.gauge(kernel))
            last_gauge = perf_counter()
        i += 1
    if len(gauges) - 1 == ops[-1][3]:
        gauges.append(reference.gauge(kernel))
    return [(s, ok, traced, reference.scale(s, kernel, gauges[g], gauges[g + 1]))
            for s, ok, traced, g in ops]


def end_to_end(ops, imports, setups) -> tuple[dict, list[str]]:
    """Metrics for the result line, and the printed lines with sample counts.

    ``imports`` and ``setups`` are (wall seconds, host-scaled seconds) lists.
    """
    lat = sorted(scaled * 1e3 if ok else math.inf for _, ok, _, scaled in ops)
    wall_lat = sorted(s * 1e3 if ok else math.inf for s, ok, _, _ in ops)
    n = len(ops)
    good = sum(ok for _, ok, _, _ in ops)
    busy = sum(scaled for _, _, _, scaled in ops)
    wall_busy = sum(s for s, _, _, _ in ops)
    setup = statistics.median(imports[1]) + statistics.median(setups[1])
    wall_setup = statistics.median(imports[0]) + statistics.median(setups[0])
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (good / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    p90 = (
        f"{statistics.quantiles(lat, n=10)[8]!r} ms (n={n}; wall "
        f"{statistics.quantiles(wall_lat, n=10)[8]!r} ms)"
        if n >= P90_MIN_OPS
        else f"not reported (n={n} < {P90_MIN_OPS})"
    )

    def rounded(times):
        return [round(t, 4) for t in times]

    lines = [
        f"ops_per_s        {metrics['ops_per_s'][0]!r} 1/s ({good} checked ops in "
        f"{busy:.3f} s of timed ops; wall {good / wall_busy!r} 1/s in {wall_busy:.3f} s)",
        f"op_p50_ms        {metrics['op_p50_ms'][0]!r} ms (n={n}; wall "
        f"{statistics.median(wall_lat)!r} ms)",
        f"op_p90_ms        {p90}",
        f"failed_op_share  {(n - good) / n!r} ({n - good}/{n})",
        f"setup_s          {metrics['setup_s'][0]!r} s (median of {len(imports[1])} imports "
        f"{rounded(imports[1])} + median of {len(setups[1])} set-ups "
        f"{rounded(setups[1])}; wall {wall_setup!r} s, imports {rounded(imports[0])}, "
        f"set-ups {rounded(setups[0])})",
        f"peak_rss_mb      {peak_mib!r} MiB",
    ]
    return metrics, lines


GRID_FUNCTIONS = ("fourier_transform", "inverse_transform", "lp_norm", "shift")
SELF_TIMED = (
    "bounds.evaluate_theorem",
    "bounds.translation_term",
    "bounds.smoothness_modulus",
    "bounds.spectral_tail",
    "bounds.evaluate_corollary1",
    "experiments.pair_gen",
    "experiments.fit_scaling",
    "geometry.lemma1_gap",
    "io.save_field",
    "io.load_field",
    "io.write_text_atomic",
    "cli.main",
)
# Inclusive per-op times of the steps the benchmark itself spans.
STEPS = (
    "experiments.optimality",
    "experiments.triangle",
    "experiments.translation",
    "experiments.tail_k2_n1",
    "experiments.tail_k4_n1",
    "experiments.tail_k3_n2",
    "geometry.lemma1_scan",
)


def per_layer(tracer, ops, is_certified) -> dict:
    stats = tracer.summary()
    n = stats["op"]["calls"]

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    metrics = {}
    for fn in GRID_FUNCTIONS:
        metrics[f"grid.{fn}.calls_per_op"] = (get(f"grid.{fn}", "calls") / n, "count")
        metrics[f"grid.{fn}.self_ms_per_op"] = (get(f"grid.{fn}", "self_s") * 1e3 / n, "ms")
    reports = tracer.reports
    metrics["grid.fourier_transform.calls_per_report"] = (
        get("grid.fourier_transform", "calls") / len(reports) if reports else 0.0,
        "count",
    )
    metrics["grid.fft_bytes_computed_per_op"] = (tracer.counters["grid.fft_bytes"] / n, "B")
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms_per_op"] = (get(name, "self_s") * 1e3 / n, "ms")
    metrics["bounds.spectral_tail.calls_per_op"] = (get("bounds.spectral_tail", "calls") / n, "count")
    metrics["bounds.certified_ratio"] = (
        sum(bool(is_certified(r)) for r in reports) / len(reports) if reports else 0.0,
        "ratio",
    )
    for step in STEPS:
        metrics[f"{step}_ms"] = (get(step, "total_s") * 1e3 / n, "ms")
    gap_s = get("geometry.lemma1_gap", "self_s")
    metrics["geometry.lemma1_gap.points_per_s"] = (
        tracer.counters["geometry.lemma1_gap.points"] / gap_s if gap_s else 0.0,
        "1/s",
    )
    metrics["io.bytes_written_per_op"] = (tracer.counters["io.bytes_written"] / n, "B")
    metrics["io.bytes_read_per_op"] = (tracer.counters["io.bytes_read"] / n, "B")
    traced = sum(s for s, _, t, _ in ops if t)
    untraced = sum(s for s, _, t, _ in ops if not t)
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_phasestab()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    import phasestab
    import tracer as tracing
    from phasestab import bounds, cli, experiments, geometry, grid, io

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    try:
        workload_cls = workloads.WORKLOADS[args.workload]
        kernel = reference.KERNELS[workload_cls.kernel]
        for _ in range(3):  # warm the kernels before their first gauge
            kernel.run()
        reference.KERNELS["import"].run()
        workload, *setups = set_up(workload_cls, args.seed, workdir, tracer, kernel)
        if args.trace:
            tracer.install({"grid": grid, "bounds": bounds, "experiments": experiments,
                            "geometry": geometry, "io": io, "cli": cli, "package": phasestab})
        ops = run_ops(workload, args.seconds, tracer, bool(args.trace), kernel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    array_bytes = workloads.array_bytes(workload)
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: one complex128 array = {array_bytes} B")
    if args.trace:
        metrics = per_layer(tracer, ops, bounds.is_certified)
        lines = [
            f"{name:45s} {value!r} {unit}"
            + (" (computed)" if "computed" in name else "")
            for name, (value, unit) in metrics.items()
        ]
    else:
        metrics, lines = end_to_end(ops, import_times(), setups)
    print("\n".join(lines))

    failed = sum(not ok for _, ok, _, _ in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"args": vars(args), "environment": env, "array_bytes": array_bytes,
              "lines": lines, "result": result, "ops": ops}
    if args.trace:
        record["spans"] = tracer.spans
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
