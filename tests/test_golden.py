"""Golden report corpus: every report float, pinned bit for bit.

The corpus in ``tests/data/golden_reports.json`` holds the reports of a fixed
set of pairs, all built in code here:

* the bound at p = 1, 1.25, 1.5, 1.75 on the first 50 pairs of
  ``iter_certification_pairs`` seeded with 3, all four read from one pass
  over each pair, as ``phasestab certify`` reads them;
* ``evaluate_theorem`` at the same four p on a Gaussian pair and a shifted
  pair in 2-D (256^2 and 1024 x 512) and 3-D (32^3); 1024 x 512 is from the
  two-thread gate on, so its pairs run a staged 2-D transform in
  2^16-point steps with a worker's half of every pass;
* the band-limited form on ``optimality_family`` at L = 4 and 16, read from
  a pass that has already yielded the bound's report, as
  ``optimality_experiment`` reads it;
* the ``ScalingResult`` fields of ``phasestab experiment --name all``.

Under the numpy version that wrote the corpus every float must match exactly
(compared as ``repr``); under another numpy, whose FFT may round differently,
each float must lie within 4 ulps.  A change that moves a report on purpose
regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and names every changed field in CHANGES.md.  The corpus is written at one
p per pass or at four; a report read at several p must have the bits of the
same report read alone, which ``test_shared_pass_matches_one_p_passes`` pins.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from phasestab.bounds import _corollary, _pair, _theorems, evaluate_theorem
from phasestab.cli import main
from phasestab.experiments import (
    OPTIMALITY_GRID,
    gaussian,
    iter_certification_pairs,
    optimality_family,
)
from phasestab.grid import GridSpec, shift

CORPUS = Path(__file__).parent / "data" / "golden_reports.json"
P_VALUES = (1.0, 1.25, 1.5, 1.75)
ULPS = 4


def _gaussian_pairs(grid, offset):
    f = gaussian(grid, center=0.3, width=1.1, amplitude=1.2 * np.exp(0.7j))
    g = gaussian(grid, center=-0.2, width=0.9, amplitude=0.8)
    return {"gaussian": (f, g), "shift": (f, shift(f, offset))}


def build_corpus() -> dict:
    """label -> report fields, for every report of the corpus."""
    entries = {}
    for index, (family, f, g) in enumerate(iter_certification_pairs(50, np.random.default_rng(3))):
        reports = _theorems(_pair(f, g, P_VALUES, "evaluate_theorem"))
        for p, report in zip(P_VALUES, reports):
            entries[f"certify/{index}/{family}/p={p!r}"] = report.to_dict()
    grids = {
        "2d": GridSpec.uniform(2, 8.0, 256),
        "3d": GridSpec.uniform(3, 4.0, 32),
        "1024x512": GridSpec(2, (8.0, 8.0), (1024, 512)),
    }
    for name, grid in grids.items():
        for kind, (f, g) in _gaussian_pairs(grid, 0.05).items():
            for p in P_VALUES:
                entries[f"{name}/{kind}/p={p!r}"] = evaluate_theorem(f, g, p).to_dict()
    for L in (4.0, 16.0):
        pair = _pair(*optimality_family(OPTIMALITY_GRID, L), (1.0,), "evaluate_theorem")
        _theorems(pair)  # the bound's report first, as optimality_experiment reads them
        entries[f"corollary1/optimality/L={L!r}"] = _corollary(pair).to_dict()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["experiment", "--name", "all"])
    assert code == 0
    for result in json.loads(out.getvalue())["results"]:
        entries[f"experiment/{result['name']}"] = result
    return entries


def _write(path: Path) -> None:
    entries = build_corpus()
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        '{"numpy": ' + json.dumps(np.__version__) + ', "entries": {\n'
        + ",\n".join(lines) + "\n}}\n"
    )


def _floats_match(actual: float, expected: float, exact: bool) -> bool:
    if exact:
        return repr(actual) == repr(expected)
    return abs(actual - expected) <= ULPS * np.spacing(max(abs(actual), abs(expected)))


def _mismatches(actual, expected, exact: bool, where: str) -> list[str]:
    if isinstance(expected, float):
        ok = isinstance(actual, float) and _floats_match(actual, expected, exact)
        return [] if ok else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, exact, f"{where}[{i}]")]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in _mismatches(actual[k], expected[k], exact, f"{where}.{k}")]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def test_reports_match_golden_corpus():
    corpus = json.loads(CORPUS.read_text())
    exact = corpus["numpy"] == np.__version__
    actual = json.loads(json.dumps(build_corpus()))
    assert list(actual) == list(corpus["entries"])
    bad = _mismatches(actual, corpus["entries"], exact, "corpus")
    assert not bad, f"{len(bad)} report fields moved ({'exact' if exact else f'{ULPS} ulps'}):\n" + "\n".join(bad[:20])


def _shared_pass_pairs():
    pairs = iter_certification_pairs(5, np.random.default_rng(3))
    for family, f, g in pairs:
        yield pytest.param(f, g, id=family)
    # several blocks, and from 1024 x 512 on a worker's half of them
    for name, grid in [
        ("2d", GridSpec.uniform(2, 8.0, 256)),
        ("3d", GridSpec.uniform(3, 4.0, 32)),
        ("1024x512", GridSpec(2, (8.0, 8.0), (1024, 512))),
    ]:
        for kind, (f, g) in _gaussian_pairs(grid, 0.05).items():
            yield pytest.param(f, g, id=f"{name}-{kind}")


def _bits(report) -> list[int]:
    fields = list(report.to_dict().values())
    return np.array(fields, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("f, g", _shared_pass_pairs())
def test_shared_pass_matches_one_p_passes(f, g):
    # out of order and repeated: each report is its own p's, bit for bit
    ps = (1.75, 1.0, 1.5, 1.0)
    reports = _theorems(_pair(f, g, ps, "evaluate_theorem"))
    assert [r.p for r in reports] == list(ps)
    assert [_bits(r) for r in reports] == [_bits(evaluate_theorem(f, g, p)) for p in ps]


if __name__ == "__main__":
    _write(CORPUS)
