"""The double pass judged by a plain longdouble one (``_oracle``).

A blocked integral is the math.fsum of its blocks' np.sums, and ``gaussian``
and ``shift`` form their fields from one factor per axis, so neither has the
bits of a plain full-size pass; these tests bound how far each lies from the
same formulas evaluated in longdouble.  The report bounds are per family,
relative to the form's rhs (rhs^2 for ``squared_form_slack``), at the largest
error of the double pass measured on ``certify --count 200 --seed 0`` before
the blocked sums moved to math.fsum, rounded up at two digits:

* ``bandlimited``: 5.289e-9, the translation term at the zero_tol cut, where
  a |F| within rounding of the tolerance is in one pass's set and not the
  other's;
* ``gaussian``: 7.716e-13, the same cut;
* every other family, and the 2-D and 3-D pairs of the golden corpus:
  2.307e-15.
"""

import dataclasses

import numpy as np
import pytest

import _oracle
from phasestab.bounds import _corollary, _pair, _theorems
from phasestab.experiments import (
    FAMILY_BUILDERS,
    OPTIMALITY_GRID,
    gaussian,
    iter_certification_pairs,
    optimality_family,
)
from phasestab.grid import GridSpec, shift

P_VALUES = (1.0, 1.25, 1.5, 1.75)
FAMILY_RTOL = {"bandlimited": 5.3e-9, "gaussian": 7.8e-13}
RTOL = 2.4e-15
# largest error of a field, in units of 2^-52 max|f|: gaussian's one
# exponential per axis and two products, shift's two transforms
GAUSSIAN_ULPS, SHIFT_ULPS = 2, 3


def test_longdouble_is_wider_than_double():
    # on a host whose longdouble is double the oracle would judge nothing
    assert np.finfo(np.longdouble).eps < 1e-18
    assert _oracle.LONGDOUBLE_EPS < 1e-18


def _errors(report, reference) -> dict:
    """|report - reference| per field over the form's scale: rhs, and rhs^2
    for the squared form."""
    rhs = reference["rhs"]
    scales = {"squared_form_slack": rhs**2}
    return {
        name: float(abs(np.longdouble(value) - reference[name]) / scales.get(name, rhs))
        for name, value in report.to_dict().items()
    }


def test_family_reports_lie_within_their_bounds():
    worst = dict.fromkeys(FAMILY_BUILDERS, 0.0)
    for family, f, g in iter_certification_pairs(200, np.random.default_rng(0)):
        reference = _oracle.Pass(f, g)
        for p, report in zip(P_VALUES, _theorems(_pair(f, g, P_VALUES, "evaluate_theorem"))):
            worst[family] = max(worst[family], *_errors(report, reference.theorem(p)).values())
    for family, error in worst.items():
        assert error <= FAMILY_RTOL.get(family, RTOL), family


def _golden_pairs():
    # the 2-D and 3-D pairs of tests/test_golden.py, 1024 x 512 from the gate on
    for name, grid in [
        ("256x256", GridSpec.uniform(2, 8.0, 256)),
        ("32^3", GridSpec.uniform(3, 4.0, 32)),
        ("1024x512", GridSpec(2, (8.0, 8.0), (1024, 512))),
    ]:
        f = gaussian(grid, center=0.3, width=1.1, amplitude=1.2 * np.exp(0.7j))
        g = gaussian(grid, center=-0.2, width=0.9, amplitude=0.8)
        yield pytest.param(f, g, id=f"{name}-gaussian")
        yield pytest.param(f, shift(f, 0.05), id=f"{name}-shift")


@pytest.mark.parametrize("f, g", _golden_pairs())
def test_golden_reports_lie_within_the_bound(f, g):
    reference = _oracle.Pass(f, g)
    for p, report in zip(P_VALUES, _theorems(_pair(f, g, P_VALUES, "evaluate_theorem"))):
        errors = _errors(report, reference.theorem(p))
        assert max(errors.values()) <= RTOL, errors


@pytest.mark.parametrize("L", [4.0, 16.0])
def test_corollary1_reports_lie_within_the_bound(L):
    f, g = optimality_family(OPTIMALITY_GRID, L)
    report = _corollary(_pair(f, g, (1.0,), "evaluate_corollary1"))
    reference = _oracle.Pass(f, g).corollary1()
    for name, value in dataclasses.asdict(report).items():
        assert abs(np.longdouble(value) - reference[name]) <= RTOL * reference["rhs"], name


# 2-D and 3-D shapes of test_grid's PARITY_SHAPES: below the gate, at it
# (staged, on two threads), staged 3-D, and slabs that start at odd rows
FIELD_SHAPES = [(6, 10), (256, 256), (1024, 512), (64, 64, 128), (130, 66, 64)]


@pytest.mark.parametrize("shape", FIELD_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_gaussian_and_shift_lie_within_the_bound(shape):
    n = len(shape)
    grid = GridSpec(n, (8.0, 6.0, 4.0)[:n], shape)
    centers, widths = (0.3, -0.2, 0.1)[:n], (1.1, 0.9, 1.2)[:n]
    offsets, amplitude = (0.05, -0.013, 0.21)[:n], 1.2 * np.exp(0.7j)
    f = gaussian(grid, centers, widths, amplitude)
    reference = _oracle.gaussian(grid, centers, widths, amplitude)
    assert _oracle.field_error(f.values, reference) <= GAUSSIAN_ULPS * 2.0**-52
    error = _oracle.field_error(shift(f, offsets).values, _oracle.shift(f, offsets))
    assert error <= SHIFT_ULPS * 2.0**-52
