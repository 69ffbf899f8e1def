"""Command-line front end: load field files, run certifications and sweeps,
emit machine-readable reports.

Subcommands and their report schemas (all floats use shortest round-trip
decimal formatting, so reports are byte-stable across runs):

* ``verify --f PATH --g PATH --p REAL [--zero-tol REAL] [--out PATH]
  [--format json|csv]`` - evaluates the stability bound.  JSON output is the
  flat BoundReport object (fields p, epsilon, lhs, term_modulus,
  term_smoothness, term_translation, rhs, slack, squared_form_slack) plus a
  "config" echo; CSV output is a header row of those field names and one value
  row.
* ``corollary1 --f PATH --g PATH [--support-tol REAL] [--out PATH]`` - the
  band-limited form; JSON fields epsilon, lhs, term_modulus, term_bandlimit,
  term_translation, support_measure, rhs, slack plus "config".
* ``lemma1 --radius-steps INT --angle-steps INT [--out PATH]`` - brute-force
  scan of the half-disk inequality; JSON {min_gap, argmin_z, steps, config}
  with argmin_z as [re, im].
* ``experiment --name {optimality,triangle,translation,tail,all} [--sweep
  CSV-list] [--grid-n INT] [--grid-extent REAL] [--k INT] [--n INT]
  [--out PREFIX]`` - runs the named sweep.  JSON {name, results: [ScalingResult
  ...], config}; with --out, each ScalingResult is also written to
  PREFIX.<result-name>.csv with header "parameter,observable".  ``--name all``
  runs the fixed list optimality, triangle, translation and tail at (k, n) =
  (2, 1), (4, 1), (3, 2) with default sweeps and grids, and takes none of the
  sweep, grid, k or n options.
* ``certify [--count INT] [--seed INT] [--p CSV-list] [--out PATH]`` -
  certifies the bound and its squared form on ``count`` random pairs from the
  built-in families (``iter_certification_pairs`` seeded with ``seed``) at
  every p.  JSON {count, seed, p_values, certification_rtol, failures,
  per_family_worst: {family: {min_rel_slack, min_rel_sq_slack}}}; each failure
  is printed on stderr with its family, pair index, p and seed.

Exit codes: 0 certified / pass, 1 usage, input or numerical error (overflow
and other arithmetic faults), 2 mathematical certification failure: a violated
inequality, or a fitted slope outside its tolerance.  A closed standard output
(``phasestab certify | head -1``) changes none of them.  All defaults are
echoed into the "config" object of every report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    CERTIFICATION_RTOL,
    CertificationError,
    evaluate_corollary1,
    evaluate_theorem,
    is_certified,
    relative_slacks,
)
from .bounds import _check_p, _pair, _theorems
from .experiments import (
    DEFAULT_SWEEPS,
    ScalingResult,
    iter_certification_pairs,
    optimality_experiment,
    tail_experiment,
    translation_experiment,
    triangle_experiment,
)
from .geometry import lemma1_scan
from .grid import GridSpec, SampledFunction
from .io import load_field, write_text_atomic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2

LEMMA1_GAP_FLOOR = -1e-12
DEFAULT_P_VALUES = (1.0, 1.25, 1.5, 1.75)
# (name, k, n) of each run of ``experiment --name all``.
ALL_EXPERIMENTS = (
    ("optimality", None, None),
    ("triangle", None, None),
    ("translation", None, None),
    ("tail", 2, 1),
    ("tail", 4, 1),
    ("tail", 3, 2),
)


def _emit(payload: dict, out: str | None, text: str | None = None) -> None:
    body = text if text is not None else json.dumps(payload, indent=2)
    if out:
        write_text_atomic(out, body + "\n")
    try:
        print(body, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: the exit code still gives the verdict, and
        # devnull takes the interpreter's flush at exit (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_pair(f_path: str, g_path: str):
    f = load_field(f_path)
    g = load_field(g_path)
    for name, field in (("--f", f), ("--g", g)):
        if not isinstance(field, SampledFunction):
            raise ValueError(f'{name}: expected a space-domain file (domain "space")')
    if f.grid != g.grid:
        raise ValueError("--f and --g are sampled on different grids")
    return f, g


def _report_csv(d: dict) -> str:
    keys = list(d)
    return ",".join(keys) + "\n" + ",".join(repr(float(d[k])) for k in keys)


def _emit_report(args, report, options: dict) -> int:
    """Write a pair report with its config echo; exit code from its verdict."""
    payload = report.to_dict()
    payload["config"] = {
        "f": args.f,
        "g": args.g,
        **options,
        "certification_rtol": CERTIFICATION_RTOL,
        "version": __version__,
    }
    text = _report_csv(report.to_dict()) if args.format == "csv" else None
    _emit(payload, args.out, text=text)
    return EXIT_OK if is_certified(report) else EXIT_CERTIFICATION


def cmd_verify(args) -> int:
    f, g = _load_pair(args.f, args.g)
    report = evaluate_theorem(f, g, args.p, zero_tol=args.zero_tol)
    return _emit_report(args, report, {"p": args.p, "zero_tol": args.zero_tol})


def cmd_corollary1(args) -> int:
    f, g = _load_pair(args.f, args.g)
    report = evaluate_corollary1(f, g, support_tol=args.support_tol)
    return _emit_report(args, report, {"support_tol": args.support_tol})


def cmd_certify(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    ps = tuple(map(_check_p, args.p))
    worst, failures = {}, 0
    pairs = iter_certification_pairs(args.count, np.random.default_rng(args.seed))
    for index, (family, f, g) in enumerate(pairs):
        entry = worst.setdefault(family, {"min_rel_slack": math.inf, "min_rel_sq_slack": math.inf})
        # one pass per pair, read at every p
        for report in _theorems(_pair(f, g, ps, "evaluate_theorem")):
            rel, rel_sq = relative_slacks(report)
            entry["min_rel_slack"] = min(entry["min_rel_slack"], rel)
            entry["min_rel_sq_slack"] = min(entry["min_rel_sq_slack"], rel_sq)
            if not is_certified(report):
                failures += 1
                print(
                    f"FAIL {family} pair={index} p={report.p!r} seed={args.seed}: "
                    f"slack={report.slack:.3e}, squared_form_slack={report.squared_form_slack:.3e}",
                    file=sys.stderr,
                )
    payload = {
        "count": args.count,
        "seed": args.seed,
        "p_values": list(args.p),
        "certification_rtol": CERTIFICATION_RTOL,
        "failures": failures,
        "per_family_worst": worst,
    }
    _emit(payload, args.out)
    return EXIT_OK if failures == 0 else EXIT_CERTIFICATION


def cmd_lemma1(args) -> int:
    scan = lemma1_scan(args.radius_steps, args.angle_steps)
    payload = {
        "min_gap": scan.min_gap,
        "argmin_z": [scan.argmin_z.real, scan.argmin_z.imag],
        "steps": [scan.radius_steps, scan.angle_steps],
        "config": {"gap_floor": LEMMA1_GAP_FLOOR, "version": __version__},
    }
    _emit(payload, args.out)
    return EXIT_OK if scan.min_gap >= LEMMA1_GAP_FLOOR else EXIT_CERTIFICATION


def _experiment_grid(args) -> GridSpec | None:
    if args.grid_n is None and args.grid_extent is None:
        return None
    if args.grid_n is None or args.grid_extent is None:
        raise ValueError("--grid-n and --grid-extent must be given together")
    dimension = args.n if args.name == "tail" else 1
    return GridSpec.uniform(dimension, args.grid_extent, args.grid_n)


def _run_experiment(name, sweep=None, grid=None, k=None, n=None) -> list[ScalingResult]:
    if name == "optimality":
        return optimality_experiment(sweep, grid=grid)[0]
    if name == "triangle":
        return [triangle_experiment(amplitudes=sweep, grid=grid)]
    if name == "translation":
        return [translation_experiment(epsilons=sweep, grid=grid)]
    return [tail_experiment(k, n, epsilons=sweep, grid=grid)]


def cmd_experiment(args) -> int:
    options = {
        "--sweep": args.sweep,
        "--grid-n": args.grid_n,
        "--grid-extent": args.grid_extent,
        "--k": args.k,
        "--n": args.n,
    }
    if args.name == "all":
        given = [flag for flag, value in options.items() if value is not None]
        if given:
            raise ValueError(f"--name all runs a fixed list and takes no {', '.join(given)}")
        results = [r for name, k, n in ALL_EXPERIMENTS for r in _run_experiment(name, k=k, n=n)]
        config = {"runs": [r.name for r in results], "version": __version__}
    else:
        if args.name == "tail":
            args.k = 2 if args.k is None else args.k
            args.n = 1 if args.n is None else args.n
        sweep = args.sweep
        results = _run_experiment(args.name, sweep, _experiment_grid(args), args.k, args.n)
        config = {
            "sweep": list(sweep) if sweep is not None else list(DEFAULT_SWEEPS[args.name]),
            "grid_n": args.grid_n,
            "grid_extent": args.grid_extent,
            "k": args.k if args.name == "tail" else None,
            "n": args.n if args.name == "tail" else None,
            "version": __version__,
        }
    payload = {"name": args.name, "results": [r.to_dict() for r in results], "config": config}
    _emit(payload, f"{args.out}.json" if args.out else None)
    if args.out:
        for result in results:
            _write_result_csv(Path(f"{args.out}.{result.name}.csv"), result)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CERTIFICATION


def _write_result_csv(path: Path, result: ScalingResult) -> None:
    rows = ["parameter,observable"]
    rows += [
        f"{x!r},{y!r}" for x, y in zip(result.parameter_values, result.observable_values)
    ]
    write_text_atomic(path, "\n".join(rows) + "\n")


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasestab",
        description="Certify and stress-test Fourier phase retrieval stability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="evaluate the stability bound for two function files")
    p_verify.add_argument("--f", required=True, help="path of the reference function file")
    p_verify.add_argument("--g", required=True, help="path of the comparison function file")
    p_verify.add_argument("--p", required=True, type=float, help="exponent in [1, 2)")
    p_verify.add_argument("--zero-tol", type=float, default=None, dest="zero_tol")
    p_verify.add_argument("--out", default=None, help="write the report here as well")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(run=cmd_verify)

    p_cor = sub.add_parser("corollary1", help="evaluate the band-limited form of the bound")
    p_cor.add_argument("--f", required=True)
    p_cor.add_argument("--g", required=True)
    p_cor.add_argument("--support-tol", type=float, default=None, dest="support_tol")
    p_cor.add_argument("--out", default=None)
    p_cor.set_defaults(run=cmd_corollary1, format="json")

    p_lem = sub.add_parser("lemma1", help="brute-force scan of the half-disk inequality")
    p_lem.add_argument("--radius-steps", required=True, type=int, dest="radius_steps")
    p_lem.add_argument("--angle-steps", required=True, type=int, dest="angle_steps")
    p_lem.add_argument("--out", default=None)
    p_lem.set_defaults(run=cmd_lemma1)

    p_exp = sub.add_parser("experiment", help="run a named scaling experiment")
    p_exp.add_argument(
        "--name", required=True, choices=("optimality", "triangle", "translation", "tail", "all")
    )
    p_exp.add_argument("--sweep", type=_csv_floats, default=None)
    p_exp.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    p_exp.add_argument("--grid-extent", type=float, default=None, dest="grid_extent")
    p_exp.add_argument("--k", type=int, default=None, help="decay order for tail (default 2)")
    p_exp.add_argument("--n", type=int, default=None, help="dimension for tail (default 1)")
    p_exp.add_argument("--out", default=None, help="output prefix for JSON and CSV files")
    p_exp.set_defaults(run=cmd_experiment)

    p_cert = sub.add_parser("certify", help="certify the bound on random pairs of all families")
    p_cert.add_argument("--count", type=int, default=200, help="number of random pairs")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--p", type=_csv_floats, default=DEFAULT_P_VALUES, help="exponents in [1, 2)")
    p_cert.add_argument("--out", default=None, help="write the summary here as well")
    p_cert.set_defaults(run=cmd_certify)

    return parser


# built on the first call of main, about 0.8 ms; parse_args leaves it as it was
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap onto the input-error code
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ArithmeticError as exc:
        # overflow and other numerical faults say nothing about the inequality
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
