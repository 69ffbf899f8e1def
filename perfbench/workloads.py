"""The four benchmark workloads, driven only through phasestab's public API.

Every workload has the same shape: ``setup`` builds the inputs from the seed,
``op(i)`` is the timed unit of work, and ``check(i, result)`` verifies its
output outside the timed interval, raising CheckError on a wrong result.
``kernel`` names the reference kernel (reference.py) that gauges the host's
speed for the workload's kind of work.
Operations repeat with period ``cycle``, so any run of whole cycles does the
same work for every seed and its per-layer counts repeat exactly.

Functions are looked up on their modules at call time (``bounds.evaluate_theorem``
rather than a name bound at import), so the tracer's wrappers are the ones
called when tracing is on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as stdio
import json
import math
from pathlib import Path

import numpy as np

from phasestab import bounds, cli, experiments, geometry, grid
from phasestab import io as psio

P_VALUES = (1.0, 1.25, 1.5, 1.75)
LEMMA1_GAP_FLOOR = -1e-12
LEMMA1_POINTS = 10_000_000
LEMMA1_CHUNK = 2_500_000


class CheckError(Exception):
    """An operation returned a result that fails its correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _require_certified(report, context: str) -> None:
    _require(
        bounds.is_certified(report),
        f"{context}: not certified (slack={report.slack!r}, "
        f"squared_form_slack={report.squared_form_slack!r})",
    )


def _random_gaussian(rng: np.random.Generator, g):
    return experiments.gaussian(
        g,
        center=rng.uniform(-1.0, 1.0, g.dimension),
        # Wide enough that no sample underflows to 0, so the size of a field's
        # JSON (and the work per operation) barely depends on the seed.
        width=rng.uniform(0.75, 1.5, g.dimension),
        amplitude=rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()),
    )


def _gaussian_pairs(rng: np.random.Generator, g) -> list:
    """A Gaussian pair and a shifted-Gaussian pair on grid ``g``."""
    f = _random_gaussian(rng, g)
    offset = 10.0 ** rng.uniform(-3.0, -0.3, g.dimension) * rng.choice([-1.0, 1.0], g.dimension)
    return [(_random_gaussian(rng, g), _random_gaussian(rng, g)), (f, grid.shift(f, offset))]


class Certify1D:
    """One random pair from the certification sampler, evaluated at all four p."""

    name = "certify_1d"
    kernel = "python"
    cycle = 5  # iter_certification_pairs rotates through five families

    def setup(self, seed: int, workdir: Path) -> None:
        self.grid = experiments.DEFAULT_GRID
        self.pairs = experiments.iter_certification_pairs(
            2**62, np.random.default_rng(seed), self.grid
        )

    def op(self, i: int, tracer):
        with tracer.span("experiments.pair_gen"):
            family, f, g = next(self.pairs)
        return family, [bounds.evaluate_theorem(f, g, p) for p in P_VALUES]

    def check(self, i: int, result) -> None:
        family, reports = result
        for p, report in zip(P_VALUES, reports, strict=True):
            _require(report.p == p, f"{family}: report for p={report.p!r}, asked {p!r}")
            _require_certified(report, f"{family} p={p}")


class Verify3D:
    """One evaluate_theorem call on a 128^3 pair, one p per call."""

    name = "verify_3d"
    kernel = "array"
    cycle = len(P_VALUES)

    def setup(self, seed: int, workdir: Path) -> None:
        self.grid = grid.GridSpec.uniform(3, 8.0, 128)
        self.pairs = _gaussian_pairs(np.random.default_rng(seed), self.grid)

    def op(self, i: int, tracer):
        f, g = self.pairs[i % len(self.pairs)]
        return bounds.evaluate_theorem(f, g, P_VALUES[i % len(P_VALUES)])

    def check(self, i: int, report) -> None:
        p = P_VALUES[i % len(P_VALUES)]
        _require(report.p == p, f"report for p={report.p!r}, asked {p!r}")
        _require_certified(report, f"pair {i % len(self.pairs)} p={p}")


class CliRoundtrip2D:
    """save_field on a 256^2 pair, `phasestab verify --out` in-process, read back."""

    name = "cli_roundtrip_2d"
    kernel = "python"
    cycle = len(P_VALUES)

    def setup(self, seed: int, workdir: Path) -> None:
        self.grid = grid.GridSpec.uniform(2, 8.0, 256)
        self.pairs = _gaussian_pairs(np.random.default_rng(seed), self.grid)
        self.f_path = str(workdir / "f.json")
        self.g_path = str(workdir / "g.json")
        self.report_path = str(workdir / "report.json")

    def op(self, i: int, tracer):
        f, g = self.pairs[i % len(self.pairs)]
        psio.save_field(self.f_path, f)
        psio.save_field(self.g_path, g)
        argv = ["verify", "--f", self.f_path, "--g", self.g_path,
                "--p", repr(P_VALUES[i % len(P_VALUES)]), "--out", self.report_path]
        with contextlib.redirect_stdout(stdio.StringIO()):
            code = cli.main(argv)
        with open(self.report_path) as handle:
            return code, json.load(handle)

    def check(self, i: int, result) -> None:
        code, written = result
        p = P_VALUES[i % len(P_VALUES)]
        _require(code == 0, f"phasestab verify exited with {code}")
        f, g = psio.load_field(self.f_path), psio.load_field(self.g_path)
        for name, field, original in zip("fg", (f, g), self.pairs[i % len(self.pairs)]):
            _require(np.array_equal(field.values, original.values), f"{name} did not round-trip")
        # The exit code reflects the linear slack only, so the verdict is
        # re-derived from the written report, and every field must match an
        # in-process evaluation of the reloaded pair exactly.
        in_process = bounds.evaluate_theorem(f, g, p)
        expected = in_process.to_dict()
        for key, value in expected.items():
            _require(written.get(key) == value, f"{key}: report {written.get(key)!r} != {value!r}")
        _require(written["config"]["p"] == p, f"config p {written['config']['p']!r} != {p!r}")
        as_written = dataclasses.replace(in_process, **{k: written[k] for k in expected})
        _require_certified(as_written, f"written report p={p}")


TAIL_PARAMS = ((2, 1), (4, 1), (3, 2))


class ExperimentsSuite:
    """One round of the scaling experiments and the criterion-1 lemma check."""

    name = "experiments_suite"
    kernel = "array"
    cycle = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def op(self, i: int, tracer):
        with tracer.span("experiments.optimality"):
            results, corollary_reports = experiments.optimality_experiment()
        with tracer.span("experiments.triangle"):
            results.append(experiments.triangle_experiment())
        with tracer.span("experiments.translation"):
            results.append(experiments.translation_experiment())
        for k, n in TAIL_PARAMS:
            with tracer.span(f"experiments.tail_k{k}_n{n}"):
                results.append(experiments.tail_experiment(k, n))
        with tracer.span("geometry.lemma1_scan"):
            scan = geometry.lemma1_scan(1000, 1000)
        with tracer.span("geometry.lemma1_random"):
            rng = np.random.default_rng(self.seed)
            random_min = math.inf
            for _ in range(LEMMA1_POINTS // LEMMA1_CHUNK):
                w = rng.uniform(0.05, 5.0, LEMMA1_CHUNK)
                rho = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, LEMMA1_CHUNK))
                theta = rng.uniform(0.0, 2.0 * np.pi, LEMMA1_CHUNK)
                z = w * (1.0 + rho * np.exp(1j * theta))
                random_min = min(random_min, float(geometry.lemma1_gap(w, z).min()))
        return results, corollary_reports, scan.min_gap, random_min

    def check(self, i: int, result) -> None:
        results, corollary_reports, scan_min, random_min = result
        _require(len(results) == 7, f"expected 7 scaling results, got {len(results)}")
        for r in results:
            _require(r.passed, f"{r.name}: slope {r.fitted_slope!r}, expected {r.expected_slope!r}")
        for rep in corollary_reports:
            _require(
                rep.slack >= -bounds.CERTIFICATION_RTOL * rep.rhs,
                f"band-limited slack {rep.slack!r} below tolerance",
            )
        _require(scan_min >= LEMMA1_GAP_FLOOR, f"lemma1 scan min gap {scan_min!r}")
        _require(random_min >= LEMMA1_GAP_FLOOR, f"lemma1 random min gap {random_min!r}")


WORKLOADS = {w.name: w for w in (Certify1D, Verify3D, CliRoundtrip2D, ExperimentsSuite)}


def array_bytes(workload) -> int:
    """Bytes of one complex128 array on the workload's grid (largest grid for the suite)."""
    if hasattr(workload, "grid"):
        return 16 * workload.grid.size
    return 16 * max(
        g.size for g in (experiments.OPTIMALITY_GRID, experiments.TRIANGLE_GRID, *experiments.TAIL_GRIDS.values())
    )
