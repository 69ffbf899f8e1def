import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasestab
from phasestab.bounds import evaluate_theorem, spectral_tail
from phasestab.experiments import (
    DEFAULT_GRID,
    DEFAULT_SWEEPS,
    FAMILY_BUILDERS,
    TAIL_GRIDS,
    TRIANGLE_GRID,
    ScalingResult,
    edge_sign_flip,
    fit_scaling,
    gaussian,
    iter_certification_pairs,
    optimality_experiment,
    optimality_family,
    smooth_bump,
    tail_experiment,
    translation_experiment,
    triangle_experiment,
    triangle_spectrum,
)
from phasestab.grid import GridSpec, Spectrum, fourier_transform, inverse_transform


class TestFitScaling:
    def test_recovers_exact_power_law(self):
        xs = np.geomspace(1, 100, 8)
        ys = 3.5 * xs**-0.75
        res = fit_scaling("demo", xs, ys, expected_slope=-0.75, slope_tolerance=0.01)
        assert res.fitted_slope == pytest.approx(-0.75, abs=1e-12)
        assert res.slope_stderr == pytest.approx(0.0, abs=1e-10)
        assert res.passed

    def test_zero_observables_excluded(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [1.0, 2.0, 4.0, 8.0, 0.0]
        res = fit_scaling("demo", xs, ys, expected_slope=1.0, slope_tolerance=0.01)
        assert len(res.parameter_values) == 4
        assert res.passed

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="fewer than 4"):
            fit_scaling("demo", [1.0, 2.0, 4.0], [1.0, 2.0, 4.0], 1.0, 0.1)

    def test_out_of_tolerance_fails(self):
        xs = np.geomspace(1, 100, 6)
        res = fit_scaling("demo", xs, xs**2.0, expected_slope=1.0, slope_tolerance=0.5)
        assert not res.passed

    def test_result_serialization_has_pass_key(self):
        xs = np.geomspace(1, 10, 5)
        res = fit_scaling("demo", xs, xs, 1.0, 0.1)
        d = res.to_dict()
        assert d["pass"] is True
        assert set(d) == {
            "name",
            "parameter_values",
            "observable_values",
            "fitted_slope",
            "slope_stderr",
            "expected_slope",
            "slope_tolerance",
            "pass",
        }

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ScalingResult("bad", (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0), 1, 0, 1, 0.1, True)
        with pytest.raises(ValueError):
            ScalingResult("bad", (1.0, -2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0), 1, 0, 1, 0.1, True)

    GOOD = dict(
        name="x",
        parameter_values=(1.0, 2.0, 3.0, 4.0),
        observable_values=(1.0, 2.0, 3.0, 4.0),
        fitted_slope=1.0,
        slope_stderr=0.1,
        expected_slope=1.0,
        slope_tolerance=0.1,
        passed=True,
    )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("parameter_values", (1.0, 2.0, 3.0, math.nan)),
            ("parameter_values", (1.0, 2.0, math.inf, 4.0)),
            ("observable_values", (math.nan, 2.0, 3.0, 4.0)),
            ("observable_values", (1.0, 2.0, 3.0, math.inf)),
            ("fitted_slope", math.nan),
            ("slope_stderr", math.inf),
            ("expected_slope", -math.inf),
            ("slope_tolerance", math.nan),
            ("passed", 1),
            ("passed", np.True_),
        ],
    )
    def test_non_finite_field_or_non_bool_pass_refused(self, field, value):
        # each would reach the experiment JSON as NaN, Infinity or "pass": 1
        with pytest.raises(ValueError, match=field):
            ScalingResult(**{**self.GOOD, field: value})

    def test_matches_linregress_bit_for_bit(self):
        # scipy is a test-only dependency: the reference the closed form follows
        from scipy.stats import linregress

        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(4, 12))
            xs = np.sort(rng.uniform(1e-3, 1e2, n))
            noise = 10.0 ** rng.uniform(-12, 0)
            ys = np.exp(rng.uniform(-2, 2) * np.log(xs) + noise * rng.standard_normal(n))
            res = fit_scaling("demo", xs, ys, 0.0, 1.0)
            ref = linregress(np.log(xs), np.log(ys))
            assert res.fitted_slope == ref.slope
            assert res.slope_stderr == ref.stderr

    def test_identical_parameters_rejected(self):
        with pytest.raises(ValueError, match="all x values are identical"):
            fit_scaling("demo", [0.01] * 4, [1.0, 2.0, 3.0, 4.0], 1.0, 0.1)

    @pytest.mark.parametrize("level", [1.0, 1.5707963218278655])
    def test_constant_observable_has_zero_stderr(self, level):
        # the second level is the saturated sub-level mass of `tail --sweep 100,200,300,400`
        res = fit_scaling("demo", [100.0, 200.0, 300.0, 400.0], [level] * 4, 1.5, 0.1)
        assert res.fitted_slope == 0.0
        assert res.slope_stderr == 0.0
        assert not res.passed

    @pytest.mark.parametrize(
        "expected, tolerance",
        [
            (True, True), ("1", 0.1), (1.0, "0.1"), (math.nan, 0.1), (math.inf, 0.1),
            (1.0, -0.1), (1.0, math.inf),
        ],
    )
    def test_slope_and_tolerance_must_be_finite_reals(self, expected, tolerance):
        with pytest.raises(ValueError, match="demo: (expected_slope, )?slope_tolerance"):
            fit_scaling("demo", [1, 2, 3, 4], [1, 2, 3, 4], expected, tolerance)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["parameter", "observable"])
    def test_non_finite_point_rejected(self, column, bad):
        # such a point is a numerical fault, not a point to drop or a slope failure
        xs, ys = [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0]
        (xs if column == "parameter" else ys)[2] = bad
        with pytest.raises(ValueError, match="demo: sweep point"):
            fit_scaling("demo", xs, ys, 1.0, 0.1)


_IMPORT_CLI = "import sys, phasestab, phasestab.cli\n"


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(
            _IMPORT_CLI + "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
            id="loads-no-scipy",
        ),
        pytest.param(
            "import sys\nsys.modules['scipy'] = None\n"
            + _IMPORT_CLI
            + "from phasestab.experiments import fit_scaling\n"
            + "assert fit_scaling('demo', [1, 2, 4, 8], [1, 4, 16, 64], 2.0, 1e-9).passed",
            id="runs-with-scipy-blocked",
        ),
        pytest.param(
            # the pair pass imports concurrent.futures only on grids past its gate
            _IMPORT_CLI + "assert not [m for m in sys.modules if m.split('.')[0] == 'concurrent']",
            id="loads-no-concurrent",
        ),
    ],
)
def test_runtime_needs_numpy_only(script):
    # a fresh interpreter, so that modules the tests import do not count
    src = str(Path(phasestab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestSmoothBump:
    def test_support_and_peak(self):
        t = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
        vals = smooth_bump(t)
        assert vals[0] == vals[1] == vals[4] == vals[5] == 0.0
        assert vals[2] == pytest.approx(np.exp(-1.0))
        assert 0 < vals[3] < vals[2]


class TestOptimalityFamily:
    def test_modulus_match_and_real_spectrum(self):
        grid = GridSpec.uniform(1, 16.0, 4096)
        f, g = optimality_family(grid, 8.0)
        F, G = fourier_transform(f), fourier_transform(g)
        assert np.abs(np.abs(F.values) - np.abs(G.values)).max() <= 1e-12
        assert np.abs(G.values.imag).max() <= 1e-12

    def test_l_too_large_rejected(self):
        grid = GridSpec.uniform(1, 16.0, 1024)  # frequency domain [-16, 16)
        with pytest.raises(ValueError, match="does not cover"):
            optimality_family(grid, 100.0)

    def test_sweep_slopes(self):
        results, reports = optimality_experiment()
        by_name = {r.name: r for r in results}
        assert by_name["optimality_l2"].fitted_slope == pytest.approx(-0.5, abs=0.1)
        assert by_name["optimality_l1"].fitted_slope == pytest.approx(-1.0, abs=0.1)
        assert all(r.passed for r in results)
        ratios = [rep.rhs / rep.lhs for rep in reports]
        assert max(ratios) <= 1.01 * min(ratios)  # scale-free family


class TestTriangleExperiment:
    def test_default_run(self):
        res = triangle_experiment()
        assert res.expected_slope == 1.5
        assert abs(res.fitted_slope - 1.5) <= 0.15
        assert res.passed

    def test_unperturbed_amplitude_is_excluded(self):
        # delta = 0 leaves g = f, silently; its zero observable must drop out of the fit
        res = triangle_experiment(amplitudes=[0.0, *DEFAULT_SWEEPS["triangle"]])
        assert len(res.parameter_values) == len(DEFAULT_SWEEPS["triangle"])
        assert res.passed

    def test_negative_amplitude_is_refused(self):
        # a negative delta flips no sample, so g = f; it is refused before any evaluation
        with pytest.raises(ValueError, match=r"delta=-0\.05 is negative"):
            triangle_experiment(amplitudes=[*DEFAULT_SWEEPS["triangle"], -0.05])

    @pytest.mark.parametrize("delta", DEFAULT_SWEEPS["triangle"])
    def test_perturbation_is_real_and_even(self, delta):
        # odd and imaginary parts of g stay within 1e-8 of its peak
        freq = TRIANGLE_GRID.dual()
        fhat = triangle_spectrum(freq)
        g = inverse_transform(Spectrum(freq, edge_sign_flip(freq.axis_coordinate(0), fhat.values, delta)))
        peak = np.abs(g.values).max()
        mirrored = np.roll(g.values[::-1], 1)  # x_j -> -x_j is index j -> (N - j) mod N
        assert 0.5 * np.abs(g.values - mirrored).max() <= 1e-8 * peak
        assert np.abs(g.values.imag).max() <= 1e-8 * peak

    def test_h_regime_filter(self):
        # amplitudes far beyond the power regime leave < 4 fit points
        with pytest.raises(ValueError, match="fewer than 4"):
            triangle_experiment(amplitudes=[0.3, 0.5, 0.7, 0.9])

    def test_h_regime_filter_is_10_eps(self):
        # the three extra amplitudes give eps = 0.126, 0.158 and 0.190, so
        # 10 eps > 1 drops them while 5 eps <= 1 would keep them
        res = triangle_experiment(amplitudes=[*DEFAULT_SWEEPS["triangle"], 0.08, 0.1, 0.12])
        assert len(res.parameter_values) == len(DEFAULT_SWEEPS["triangle"]) == 8
        assert max(res.parameter_values) <= 0.1


class TestTranslationExperiment:
    def test_default_run(self):
        res = translation_experiment()
        assert res.expected_slope == 1.0
        assert abs(res.fitted_slope - 1.0) <= 0.05
        assert res.passed

    def test_zero_offset_excluded(self):
        res = translation_experiment(epsilons=[0.0, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        assert len(res.parameter_values) == 5
        assert res.passed

    @pytest.mark.parametrize("amplitude", [1e-6, 1e6, 1e8])
    def test_scale_free(self, amplitude):
        # |f - g|_2 scales with f, so the slope does not move; the modulus
        # term's rounding floor scales with |F|_2, so the check must too
        res = translation_experiment(f=gaussian(DEFAULT_GRID, amplitude=amplitude))
        assert res.passed
        assert res.fitted_slope == pytest.approx(translation_experiment().fitted_slope, abs=1e-12)

    def test_custom_bandlimited_function(self, grid_1d):
        freq = grid_1d.dual()
        xi = freq.axis_coordinate(0)
        F = Spectrum(freq, smooth_bump(xi / 4.0).astype(complex))
        f = inverse_transform(F)
        res = translation_experiment(f=f)
        assert res.passed


class TestTailExperiment:
    @pytest.mark.parametrize("k,n,expected", [(2, 1, 1.5), (4, 1, 1.75), (3, 2, 4.0 / 3.0)])
    def test_expected_exponents(self, k, n, expected):
        res = tail_experiment(k, n)
        assert res.expected_slope == pytest.approx(expected)
        assert abs(res.fitted_slope - expected) <= 0.1
        assert res.passed

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError, match="k >"):
            tail_experiment(1, 1)

    def test_grid_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            tail_experiment(3, 2, grid=GridSpec.uniform(1, 64.0, 1024))

    @pytest.mark.parametrize("k,n", [(2.9, 1.7), (2.0, 1), (3, True)])
    def test_non_integer_k_or_n_rejected(self, k, n):
        # not truncated to a neighbouring (k, n) with another expected slope
        with pytest.raises(ValueError, match="must be"):
            tail_experiment(k, n)

    @pytest.mark.parametrize("eps", [0.1, 100.0])
    def test_saturated_sweep_point_rejected(self, eps):
        # 10 eps >= max|F| = 1 puts the whole grid in the sub-level set (ties in)
        with pytest.raises(ValueError, match=f"eps={eps!r}.*whole grid"):
            tail_experiment(2, 1, epsilons=[1e-3, 2e-3, 3e-3, eps])

    @pytest.mark.parametrize("order", ["default", "descending", "shuffled"])
    @pytest.mark.parametrize("k,n", [(2, 1), (4, 1), (3, 2)])
    def test_sweep_masses_are_spectral_tail(self, k, n, order):
        # one |F|^2 for the whole sweep gives spectral_tail's bits at every point
        eps = list(DEFAULT_SWEEPS["tail"])
        if order == "descending":
            eps.reverse()
        elif order == "shuffled":
            eps = [eps[i] for i in (4, 0, 8, 2, 6, 1, 7, 3, 5)]
        grid = TAIL_GRIDS[n]
        rsq = np.zeros(grid.shape)
        for xi in grid.coordinate_grids():
            rsq = rsq + xi * xi
        F = Spectrum(grid, 1.0 / (1.0 + np.sqrt(rsq) ** k))
        res = tail_experiment(k, n, epsilons=eps)
        assert res.parameter_values == tuple(eps)
        assert res.observable_values == tuple(spectral_tail(F, e) for e in eps)

    @pytest.mark.parametrize("eps", [0.0, -1e-3])
    def test_nonpositive_sweep_point_gets_spectral_tail_message(self, eps):
        with pytest.raises(ValueError) as expected:
            spectral_tail(triangle_spectrum(GridSpec.uniform(1, 1.0, 64)), eps)
        with pytest.raises(ValueError) as got:
            tail_experiment(2, 1, epsilons=[1e-3, 2e-3, 3e-3, eps])
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "sweep, match",
        [([1e-3, 0.5, -1e-3, 2e-3], "whole grid"), ([1e-3, -1e-3, 0.5, 2e-3], "positive")],
    )
    def test_first_bad_sweep_point_names_the_refusal(self, sweep, match):
        # every point is checked in sweep order, as when each went to spectral_tail
        with pytest.raises(ValueError, match=match):
            tail_experiment(2, 1, epsilons=sweep)


_GRID_2D = GridSpec.uniform(2, 8.0, 16)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: gaussian(DEFAULT_GRID, width=0.0), "width", id="gaussian-width-0"),
        pytest.param(lambda: gaussian(DEFAULT_GRID, width=-1.0), "width", id="gaussian-width-neg"),
        pytest.param(lambda: triangle_spectrum(_GRID_2D), "one-dimensional", id="triangle-2d"),
        pytest.param(
            lambda: triangle_spectrum(GridSpec.uniform(1, 0.5, 64)), "cover", id="triangle-narrow"
        ),
        pytest.param(lambda: optimality_family(_GRID_2D, 2.0), "one-dimensional", id="optimality-2d"),
        pytest.param(lambda: optimality_family(DEFAULT_GRID, 0.0), "positive", id="optimality-L-0"),
        pytest.param(
            lambda: translation_experiment(f=gaussian(_GRID_2D)), "one-dimensional",
            id="translation-2d",
        ),
        pytest.param(
            lambda: translation_experiment(grid=_GRID_2D), "one-dimensional",
            id="translation-grid-2d",
        ),
        pytest.param(
            lambda: FAMILY_BUILDERS["bandlimited"](np.random.default_rng(0), _GRID_2D),
            "one-dimensional", id="bandlimited-2d",
        ),
    ],
)
def test_invalid_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


_NOT_REALS = {"str": "1.0", "bool": True, "complex": 1j, "nan": math.nan}


@pytest.mark.parametrize("name", ["center", "width"])
@pytest.mark.parametrize(
    "value",
    [*_NOT_REALS.values(), [1.0, True], [1.0, 1.0, 1.0]],
    ids=[*_NOT_REALS, "list-with-bool", "wrong-length"],
)
def test_gaussian_refuses_non_real_center_and_width(name, value):
    # numpy would parse the string and take True as 1.0, also inside a list
    with pytest.raises(ValueError, match=f"{name} .*got {re.escape(repr(value))}"):
        gaussian(_GRID_2D, **{name: value})


@pytest.mark.parametrize(
    "amplitude",
    [math.inf, math.nan, complex(0.0, math.inf), True, "1.0", 10**400],
    ids=["inf", "nan", "complex-inf", "bool", "str", "huge-int"],
)
def test_gaussian_refuses_a_non_finite_or_non_numeric_amplitude(amplitude):
    # numpy would warn on inf, take True as 1 and fail on the string with its own error
    with pytest.raises(ValueError, match=f"amplitude .*got {re.escape(repr(amplitude))}"):
        gaussian(_GRID_2D, amplitude=amplitude)


@pytest.mark.parametrize(
    "grid", [GridSpec.uniform(1, 16.0, 64), GridSpec.uniform(2, 16.0, 64)], ids=["1d", "2d"]
)
def test_gaussian_of_a_tiny_width_is_its_amplitude_at_the_centre(grid):
    # ((x - c) / w)^2 overflows away from the centre, where the factor is 0;
    # numpy warned there, which the suite turns into an error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = gaussian(grid, width=1e-200, amplitude=2.5).values
    assert caught == []
    expected = np.zeros(grid.shape, dtype=complex)
    expected[tuple(n // 2 for n in grid.shape)] = 2.5
    assert np.array_equal(values, expected)


def test_gaussian_takes_real_and_complex_amplitudes_of_any_number_type():
    one = gaussian(_GRID_2D).values
    for amplitude in (1, np.int64(1), np.float64(1.0), 1 + 0j, np.complex64(1.0)):
        assert np.array_equal(gaussian(_GRID_2D, amplitude=amplitude).values, one)
    assert np.array_equal(gaussian(_GRID_2D, amplitude=2j).values, 2j * one)


@pytest.mark.parametrize(
    "delta",
    [math.nan, math.inf, True, "0.1", 0.1j],
    ids=["nan", "inf", "bool", "str", "complex"],
)
def test_edge_sign_flip_refuses_a_non_finite_or_non_real_delta(delta):
    # a NaN delta gave a NaN spectrum, True flipped as 1 and a string raised a bare TypeError
    freq = TRIANGLE_GRID.dual()
    fhat = triangle_spectrum(freq)
    with pytest.raises(ValueError, match=f"delta must be a finite real, got {re.escape(repr(delta))}"):
        edge_sign_flip(freq.axis_coordinate(0), fhat.values, delta)


def test_gaussian_takes_ints_numpy_reals_and_one_value_per_axis(rng):
    def values(center, width):
        return gaussian(_GRID_2D, center=center, width=width).values

    c, w = rng.uniform(-2.0, 2.0, 2), rng.uniform(0.5, 2.0, 2)
    assert np.array_equal(values(c, w), values(tuple(c.tolist()), tuple(w.tolist())))
    assert np.array_equal(values(1, 2), values((1.0, 1.0), (2.0, 2.0)))
    assert np.array_equal(values([np.float64(0.5)], [1.5]), values((0.5, 0.5), (1.5, 1.5)))


@pytest.mark.parametrize(
    "L",
    [*_NOT_REALS.values(), [True], [8.0]],
    ids=[*_NOT_REALS, "list-with-bool", "list"],
)
def test_optimality_family_refuses_non_real_L(L):
    with pytest.raises(ValueError, match=f"L must be a positive real, got {re.escape(repr(L))}"):
        optimality_family(DEFAULT_GRID, L)


def test_optimality_family_takes_ints_and_numpy_reals():
    expected = optimality_family(DEFAULT_GRID, 8.0)[0].values
    for L in (8, np.int64(8), np.float64(8.0)):
        assert np.array_equal(optimality_family(DEFAULT_GRID, L)[0].values, expected)


@pytest.mark.parametrize(
    "run, name",
    [
        pytest.param(optimality_experiment, "L_values", id="optimality"),
        pytest.param(lambda s: triangle_experiment(amplitudes=s), "amplitudes", id="triangle"),
        pytest.param(lambda s: translation_experiment(epsilons=s), "epsilons", id="translation"),
        pytest.param(lambda s: tail_experiment(2, 1, epsilons=s), "epsilons", id="tail"),
    ],
)
@pytest.mark.parametrize(
    "sweep",
    [
        ["1e-3", "2e-3", "3e-3", "4e-3"],
        [1e-3, 2e-3, 3e-3, True],
        [1e-3, 2e-3, 3e-3, 4e-3j],
        [1e-3, 2e-3, 3e-3, math.nan],
        [[1e-3, 2e-3], [3e-3, 4e-3]],
    ],
    ids=["str", "list-with-bool", "complex", "nan", "nested"],
)
def test_sweeps_refuse_non_real_points(run, name, sweep):
    with pytest.raises(ValueError, match=f"{name} entries must be finite reals"):
        run(sweep)


def test_sweeps_take_numpy_arrays_and_ints():
    eps = np.geomspace(1e-4, 1e-2, 9)
    expected = tail_experiment(2, 1, epsilons=eps.tolist())
    assert tail_experiment(2, 1, epsilons=eps) == expected
    assert translation_experiment(epsilons=[0, 1e-3, 3e-3, 1e-2, 3e-2]).passed


class TestCertificationFamilies:
    def test_all_families_produce_valid_pairs(self, rng):
        seen = set()
        for name, f, g in iter_certification_pairs(len(FAMILY_BUILDERS), rng):
            seen.add(name)
            assert f.grid == g.grid
            assert np.all(np.isfinite(f.values)) and np.all(np.isfinite(g.values))
        assert seen == set(FAMILY_BUILDERS)

    def test_pairs_are_reproducible(self):
        a = [(n, f, g) for n, f, g in iter_certification_pairs(5, np.random.default_rng(7))]
        b = [(n, f, g) for n, f, g in iter_certification_pairs(5, np.random.default_rng(7))]
        for (na, fa, ga), (nb, fb, gb) in zip(a, b):
            assert na == nb
            assert np.array_equal(fa.values, fb.values)
            assert np.array_equal(ga.values, gb.values)

    @pytest.mark.parametrize("count", [True, 2.0, -1, "2"])
    def test_count_must_be_a_nonnegative_integer(self, count):
        with pytest.raises(ValueError, match="count must be a nonnegative integer"):
            iter_certification_pairs(count)

    def test_count_takes_numpy_integers_and_huge_counts(self):
        assert [n for n, _, _ in iter_certification_pairs(np.int64(2))] == list(FAMILY_BUILDERS)[:2]
        name, _, _ = next(iter_certification_pairs(2**62, np.random.default_rng(0), DEFAULT_GRID))
        assert name == next(iter(FAMILY_BUILDERS))

    def test_signflip_bump_refuses_a_narrow_dual_grid(self):
        # dual half-extent 0.25 * 64 / 16 = 1; the first two families still run
        grid = GridSpec.uniform(1, 16.0, 64)
        assert list(FAMILY_BUILDERS)[2] == "signflip_bump"
        pairs = iter_certification_pairs(3, np.random.default_rng(0), grid)
        assert [next(pairs)[0] for _ in range(2)] == list(FAMILY_BUILDERS)[:2]
        with pytest.raises(
            ValueError, match=r"signflip_bump pair family needs a dual half-extent of at least 4, got 1\.0"
        ):
            next(pairs)

    def test_experiment_pairs_certify_as_side_condition(self, rng):
        # spot check beyond the experiments' internal raising checks
        for _, f, g in iter_certification_pairs(8, rng):
            rep = evaluate_theorem(f, g, 1.5)
            assert rep.slack >= -1e-6 * rep.rhs
