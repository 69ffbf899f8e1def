import dataclasses
import math

import numpy as np
import pytest

from phasestab.bounds import (
    CERTIFICATION_RTOL,
    TailParams,
    evaluate_corollary1,
    evaluate_theorem,
    exceptional_set,
    is_certified,
    smoothness_modulus,
    spectral_tail,
    support_measure,
    translation_term,
)
from phasestab.experiments import (
    TRIANGLE_QUADRATURE_GRID,
    gaussian,
    iter_certification_pairs,
    optimality_family,
    triangle_spectrum,
)
from phasestab.grid import (
    GridSpec,
    SampledFunction,
    Spectrum,
    fourier_transform,
    inverse_transform,
    lp_norm,
    shift,
)

TRIANGLE_TAIL_AT_HALF = 1.0 / 12.0  # 2 * integral_{1/2}^{1} (1 - xi)^2 d xi


@pytest.fixture(scope="module")
def triangle():
    return triangle_spectrum(TRIANGLE_QUADRATURE_GRID)


# ---------------------------------------------------------------------------
# smoothness modulus
# ---------------------------------------------------------------------------


class TestSmoothnessModulus:
    def test_zero_argument_vanishes(self, grid_1d):
        F = fourier_transform(gaussian(grid_1d))
        assert smoothness_modulus(F, 0.0, 1.0) == 0.0

    def test_triangle_closed_form(self, triangle):
        # oracle: sub-level set {|F| <= 1/2} has mass 2/3 * (1/2)^3 * 2 = 1/12,
        # so the modulus is sqrt(8/12) = sqrt(2/3)
        value = smoothness_modulus(triangle, 0.05, 1.0)
        assert value == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-3)

    def test_triangle_power_law(self, triangle):
        # oracle: sqrt(16/3) (10 x)^{3/2} while the band stays inside [-1, 1]
        for x in (0.01, 0.03, 0.08):
            expected = math.sqrt(16.0 / 3.0) * (10 * x) ** 1.5
            assert smoothness_modulus(triangle, x, 1.0) == pytest.approx(expected, rel=2e-2)

    def test_saturates_at_full_mass(self, triangle):
        full = math.sqrt(8.0) * lp_norm(triangle, 2)
        assert smoothness_modulus(triangle, 1.0, 1.0) == pytest.approx(full, rel=1e-12)

    def test_p_branch_adds_x(self, triangle):
        x = 0.37
        base = smoothness_modulus(triangle, x, 1.0)
        assert smoothness_modulus(triangle, x, 1.5) == pytest.approx(base + x, rel=1e-12)

    def test_monotone_in_x(self, triangle):
        xs = np.linspace(0.0, 0.5, 40)
        vals = [smoothness_modulus(triangle, x, 1.25) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bandlimited_linear_bound(self, triangle):
        # for support measure L: modulus <= 30 sqrt(L) x (+ x when p > 1)
        L = support_measure(triangle)
        for p in (1.0, 1.5):
            for x in (0.01, 0.05, 0.2, 1.0):
                cap = 30.0 * math.sqrt(L) * x + (x if p > 1 else 0.0)
                assert smoothness_modulus(triangle, x, p) <= cap * (1 + 1e-12)

    def test_validation(self, triangle):
        with pytest.raises(ValueError):
            smoothness_modulus(triangle, -0.1, 1.0)
        with pytest.raises(ValueError):
            smoothness_modulus(triangle, 0.1, 2.0)
        with pytest.raises(ValueError):
            smoothness_modulus(triangle, 0.1, 0.5)


# ---------------------------------------------------------------------------
# translation term
# ---------------------------------------------------------------------------


class TestTranslationTerm:
    def test_equal_spectra_vanish(self, grid_1d):
        # Im(conj(F) F) cancels up to an FMA residue in the complex multiply
        F = fourier_transform(gaussian(grid_1d))
        assert translation_term(F, F) <= 1e-20

    def test_real_reference_reduces_to_imaginary_part(self, grid_1d, rng):
        # with F exactly real the integrand is +-Im G, so the term is
        # 2 |Im G|_2 on the support of F
        freq = grid_1d.dual()
        xi = freq.axis_coordinate(0)
        F = Spectrum(freq, np.exp(-np.pi * xi**2))
        G = fourier_transform(
            SampledFunction(
                grid_1d, rng.normal(size=grid_1d.shape) + 1j * rng.normal(size=grid_1d.shape)
            )
        )
        vol = freq.cell_volume
        keep = np.abs(F.values) > 1e-12 * np.abs(F.values).max()
        expected = 2.0 * math.sqrt(vol * np.sum(G.values.imag[keep] ** 2))
        assert translation_term(F, G) == pytest.approx(expected, rel=1e-12)

    def test_shift_identity(self, grid_1d):
        # oracle: a shift multiplies the spectrum by a unimodular phase, so the
        # integrand is |F(xi) sin(2 pi eps xi)|
        f = gaussian(grid_1d)
        F = fourier_transform(f)
        xi = F.grid.axis_coordinate(0)
        vol = F.grid.cell_volume
        for eps in (1e-3, 0.01, 0.1):
            G = fourier_transform(shift(f, eps))
            expected = 2.0 * math.sqrt(
                vol * np.sum((np.abs(F.values) * np.sin(2 * np.pi * eps * xi)) ** 2)
            )
            assert translation_term(F, G) == pytest.approx(expected, rel=1e-8)

    def test_grid_mismatch(self, grid_1d):
        F = fourier_transform(gaussian(grid_1d))
        G = fourier_transform(gaussian(GridSpec.uniform(1, 8.0, 512)))
        with pytest.raises(ValueError, match="grid mismatch"):
            translation_term(F, G)

    def test_zero_spectrum_is_safe(self, grid_1d):
        Z = Spectrum(grid_1d.dual(), np.zeros(grid_1d.shape))
        G = fourier_transform(gaussian(grid_1d))
        assert translation_term(Z, G) == 0.0


# ---------------------------------------------------------------------------
# theorem evaluation
# ---------------------------------------------------------------------------


class TestEvaluateTheorem:
    def test_identical_pair_all_zero(self, grid_1d):
        f = gaussian(grid_1d)
        rep = evaluate_theorem(f, f, 1.5)
        assert rep.lhs == 0.0
        assert rep.epsilon == 0.0
        assert rep.term_modulus == 0.0
        assert rep.term_translation <= 1e-20  # FMA residue of Im(conj(F) F)
        assert rep.slack == rep.rhs
        assert rep.squared_form_slack >= 0.0

    def test_rhs_is_exact_term_sum(self, grid_1d):
        f = gaussian(grid_1d)
        g = gaussian(grid_1d, center=0.5, width=1.5)
        rep = evaluate_theorem(f, g, 1.25)
        assert rep.rhs == rep.term_modulus + rep.term_smoothness + rep.term_translation
        assert rep.slack == rep.rhs - rep.lhs

    def test_triangle_sign_flip(self):
        # spectrum sign flip: modulus and translation terms vanish, the
        # smoothness term carries the whole bound
        grid = GridSpec.uniform(1, 256.0, 16384)
        fhat = triangle_spectrum(grid.dual())
        f = inverse_transform(fhat)
        g = -f
        rep = evaluate_theorem(f, g, 1.0)
        assert rep.lhs == pytest.approx(2.0 * lp_norm(f, 2), rel=1e-12)
        assert rep.lhs == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), rel=1e-3)
        assert rep.epsilon == pytest.approx(2.0, rel=1e-2)
        assert rep.term_modulus <= 1e-10
        assert rep.term_translation <= 1e-10
        assert rep.term_smoothness == pytest.approx(math.sqrt(16.0 / 3.0), rel=1e-3)
        assert rep.slack >= 0.0
        assert is_certified(rep)

    def test_shifted_gaussian(self, grid_1d):
        f = gaussian(grid_1d)
        g = shift(f, 0.1)
        rep = evaluate_theorem(f, g, 1.0)
        assert rep.term_modulus <= 1e-10
        assert rep.term_translation > 0.0
        assert rep.slack >= -1e-6 * rep.rhs
        assert is_certified(rep)

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75])
    def test_random_pairs_certify(self, p, rng):
        for _, f, g in iter_certification_pairs(10, rng):
            rep = evaluate_theorem(f, g, p)
            assert rep.slack >= -CERTIFICATION_RTOL * rep.rhs
            sq_rhs = rep.squared_form_slack + rep.lhs**2
            assert rep.squared_form_slack >= -CERTIFICATION_RTOL * sq_rhs

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75])
    def test_report_fields_are_the_public_quantities(self, p, rng):
        # exact equality: callers read these quantities from the report
        for name, f, g in iter_certification_pairs(10, rng):
            F, G = fourier_transform(f), fourier_transform(g)
            rep = evaluate_theorem(f, g, p)
            assert rep.epsilon == lp_norm(f - g, p)
            assert rep.lhs == lp_norm(f - g, 2.0)
            assert rep.term_translation == translation_term(F, G)
            assert rep.term_smoothness == smoothness_modulus(F, rep.epsilon, p)
            if name == "signflip_bump":
                assert evaluate_corollary1(f, g).support_measure == support_measure(F)

    def test_report_serialization_field_names(self, grid_1d):
        rep = evaluate_theorem(gaussian(grid_1d), gaussian(grid_1d, width=2.0), 1.5)
        d = rep.to_dict()
        assert list(d) == [
            "p",
            "epsilon",
            "lhs",
            "term_modulus",
            "term_smoothness",
            "term_translation",
            "rhs",
            "slack",
            "squared_form_slack",
        ]
        assert all(isinstance(v, float) for v in d.values())

    def test_errors(self, grid_1d):
        f = gaussian(grid_1d)
        other = gaussian(GridSpec.uniform(1, 16.0, 512))
        with pytest.raises(ValueError, match="grid mismatch"):
            evaluate_theorem(f, other, 1.0)
        with pytest.raises(ValueError, match="p must"):
            evaluate_theorem(f, f, 2.0)
        with pytest.raises(ValueError, match="p must"):
            evaluate_theorem(f, f, 0.9)

    def test_deterministic_reports(self, grid_1d):
        f = gaussian(grid_1d, center=0.3)
        g = shift(f, 0.05)
        r1 = evaluate_theorem(f, g, 1.25)
        r2 = evaluate_theorem(f, g, 1.25)
        assert r1 == r2


# ---------------------------------------------------------------------------
# band-limited corollary
# ---------------------------------------------------------------------------


class TestCorollary1:
    def test_identical_pair(self):
        grid = GridSpec.uniform(1, 256.0, 16384)
        f = inverse_transform(triangle_spectrum(grid.dual()))
        rep = evaluate_corollary1(f, f)
        assert rep.lhs == 0.0
        assert rep.epsilon == 0.0
        assert rep.term_modulus == 0.0
        assert rep.term_bandlimit == 0.0
        assert rep.term_translation <= 1e-10
        assert rep.support_measure == pytest.approx(2.0, abs=2 * 1.0 / 512.0)

    def test_triangle_sign_flip(self):
        grid = GridSpec.uniform(1, 256.0, 16384)
        f = inverse_transform(triangle_spectrum(grid.dual()))
        rep = evaluate_corollary1(f, -f)
        assert rep.support_measure == pytest.approx(2.0, abs=2 * 1.0 / 512.0)
        assert rep.lhs == pytest.approx(2.0 * lp_norm(f, 2), rel=1e-12)
        assert rep.slack >= 0.0

    def test_verdict(self):
        grid = GridSpec.uniform(1, 256.0, 16384)
        f = inverse_transform(triangle_spectrum(grid.dual()))
        rep = evaluate_corollary1(f, -f)
        assert is_certified(rep)
        assert not is_certified(dataclasses.replace(rep, slack=-1e-3 * rep.rhs))

    def test_optimality_family_ratio_is_scale_free(self):
        grid = GridSpec.uniform(1, 16.0, 16384)
        ratios = []
        for L in (8.0, 16.0, 32.0):
            f, g = optimality_family(grid, L)
            rep = evaluate_corollary1(f, g)
            assert rep.slack >= 0.0
            ratios.append(rep.rhs / rep.lhs)
        assert max(ratios) <= 1.01 * min(ratios)

    def test_rejects_complex_spectrum(self, grid_1d):
        f = gaussian(grid_1d, center=0.5)  # off-center: complex spectrum
        with pytest.raises(ValueError, match="real-valued"):
            evaluate_corollary1(f, f)

    def test_terms_agree_with_theorem_for_real_spectrum(self, grid_1d):
        # Gaussian spectrum is real and everywhere nonzero, so both the
        # modulus and translation terms coincide with the main bound's
        f = gaussian(grid_1d)
        g = shift(f, 0.05)
        rep_c = evaluate_corollary1(f, g)
        rep_t = evaluate_theorem(f, g, 1.0)
        assert rep_c.term_modulus == pytest.approx(rep_t.term_modulus, abs=1e-14)
        assert rep_c.term_translation == pytest.approx(rep_t.term_translation, rel=1e-10)


# ---------------------------------------------------------------------------
# the constants of the bound, against closed forms and a numpy-only reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 1.5])
@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda f, g: evaluate_theorem(f, g, 1.0), id="theorem-p1"),
        pytest.param(lambda f, g: evaluate_theorem(f, g, 1.5), id="theorem-p1.5"),
        pytest.param(evaluate_corollary1, id="corollary1"),
    ],
)
def test_scaled_pair_modulus_term_closed_form(evaluate, lam, grid_1d):
    # g = lam f: | |F| - |G| | = |1 - lam| |F| and conj(F) G is real, so the
    # modulus term is 2 |1 - lam| |f|_2 (Parseval) and the translation term 0
    f = gaussian(grid_1d)  # real, even: a real spectrum, as the corollary needs
    f_l2 = math.sqrt(grid_1d.cell_volume * np.sum(np.abs(f.values) ** 2))
    rep = evaluate(f, lam * f)
    assert rep.term_modulus == pytest.approx(2.0 * abs(1.0 - lam) * f_l2, rel=1e-12)
    assert rep.term_translation <= 1e-12 * rep.rhs


def _squared_form_slack_reference(f, g, p):
    """The squared form's slack from np.fft alone, never through fourier_transform.

    The uncentred FFT differs from the centred transform by a unimodular factor
    common to F and G, which leaves |F|, |G| and conj(F) G unchanged.
    """
    dx = f.grid.cell_volume
    dxi = 1.0 / (f.grid.size * dx)
    F, G = np.fft.fftn(f.values) * dx, np.fft.fftn(g.values) * dx
    d = np.abs(f.values - g.values)
    eps = (dx * np.sum(d**p)) ** (1.0 / p)
    magF = np.abs(F)
    keep = magF > 1e-12 * magF.max()  # the default zero_tol
    im = np.zeros_like(magF)
    im[keep] = (np.conj(F[keep]) * G[keep]).imag / magF[keep]
    modulus_sq = dxi * np.sum((magF - np.abs(G)) ** 2)
    translation_sq = dxi * np.sum(im**2)
    mass = dxi * np.sum(magF[magF <= 10.0 * eps] ** 2)
    rhs_sq = 2.0 * modulus_sq + 1.2 * translation_sq + (eps**2 if p > 1 else 0.0) + 8.0 * mass
    return rhs_sq - dx * np.sum(d**2)


def _scaled_pair(grid):
    f = gaussian(grid, center=0.3)
    return f, 1.5 * f


def _shifted_pair(grid):
    f = gaussian(grid)
    return f, shift(f, 0.1)


def _signflip_bump_pair(grid):
    return optimality_family(grid, 4.0)


def _gaussian_pair(grid):
    return gaussian(grid), gaussian(grid, center=0.2, width=1.5)


@pytest.mark.parametrize(
    "pair, p",
    [
        pytest.param(_scaled_pair, 1.0, id="scaled"),
        pytest.param(_shifted_pair, 1.0, id="shifted"),
        pytest.param(_shifted_pair, 1.25, id="shifted-p1.25"),
        pytest.param(_signflip_bump_pair, 1.0, id="signflip-bump"),
        pytest.param(_gaussian_pair, 1.5, id="gaussian-p1.5"),
    ],
)
def test_squared_form_slack_matches_reference(pair, p, grid_1d):
    f, g = pair(grid_1d)
    rep = evaluate_theorem(f, g, p)
    assert rep.squared_form_slack == pytest.approx(_squared_form_slack_reference(f, g, p), rel=1e-9)


# ---------------------------------------------------------------------------
# support, exceptional set, tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tol", [-1e-3, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda F, tol: translation_term(F, F, zero_tol=tol), id="zero_tol"),
        pytest.param(lambda F, tol: support_measure(F, support_tol=tol), id="support_tol"),
    ],
)
def test_tolerance_must_be_finite_and_nonnegative(call, tol, grid_1d):
    F = fourier_transform(gaussian(grid_1d))
    with pytest.raises(ValueError, match="nonnegative"):
        call(F, tol)


class TestSupportMeasure:
    def test_triangle(self, triangle):
        dxi = triangle.grid.spacing[0]
        assert support_measure(triangle, 1e-12) == pytest.approx(2.0, abs=2 * dxi)

    def test_zero_spectrum(self, grid_1d):
        Z = Spectrum(grid_1d.dual(), np.zeros(grid_1d.shape))
        assert support_measure(Z) == 0.0

    def test_everywhere_nonzero_reports_full_volume(self, grid_1d):
        # finite-grid artifact: a truncated Gaussian never vanishes
        F = Spectrum(grid_1d.dual(), np.full(grid_1d.shape, 0.5 + 0.0j))
        dual = grid_1d.dual()
        full = 2.0 * dual.half_extent[0]
        assert support_measure(F, 1e-12) == pytest.approx(full, rel=1e-12)


class TestExceptionalSet:
    def test_equal_pair_empty(self, grid_1d):
        F = fourier_transform(gaussian(grid_1d))
        measure, mask = exceptional_set(F, F, 0.1)
        assert measure == 0.0
        assert not mask.any()

    def test_p1_families_empty(self, grid_1d, rng):
        # eps = |f-g|_1 dominates |F - G| pointwise, so the set is empty
        for _, f, g in iter_certification_pairs(15, rng):
            eps = lp_norm(f - g, 1)
            if eps == 0.0:
                continue
            measure, mask = exceptional_set(fourier_transform(f), fourier_transform(g), eps)
            assert measure == 0.0, f"nonempty set with {int(mask.sum())} points"

    @pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
    def test_measure_bounded_by_one(self, p, grid_1d, rng):
        for _, f, g in iter_certification_pairs(15, rng):
            eps = lp_norm(f - g, p)
            if eps == 0.0:
                continue
            measure, _ = exceptional_set(fourier_transform(f), fourier_transform(g), eps)
            assert measure <= 1.0 + 1e-3

    def test_validation(self, grid_1d):
        F = fourier_transform(gaussian(grid_1d))
        with pytest.raises(ValueError, match="positive"):
            exceptional_set(F, F, 0.0)


class TestSpectralTail:
    def test_full_coverage(self, triangle):
        assert spectral_tail(triangle, 1.0) == pytest.approx(lp_norm(triangle, 2) ** 2, rel=1e-12)

    def test_triangle_closed_form(self, triangle):
        assert spectral_tail(triangle, 0.05) == pytest.approx(TRIANGLE_TAIL_AT_HALF, abs=1e-3)

    def test_monotone_and_bounded(self, triangle):
        eps = np.geomspace(1e-3, 1.0, 25)
        tails = [spectral_tail(triangle, e) for e in eps]
        assert all(b >= a for a, b in zip(tails, tails[1:]))
        assert tails[-1] <= lp_norm(triangle, 2) ** 2 * (1 + 1e-12)

    def test_decay_exponent(self):
        # oracle: the sub-level mass of (1 + |xi|^2)^(-1) scales like eps^(3/2)
        grid = GridSpec.uniform(1, 512.0, 32768)
        xi = grid.axis_coordinate(0)
        F = Spectrum(grid, 1.0 / (1.0 + xi**2))
        eps = np.geomspace(1e-4, 1e-2, 9)
        tails = np.array([spectral_tail(F, e) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(tails), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.1)


class TestTailParams:
    @pytest.mark.parametrize("k,n", [(2, 1), (4, 1), (3, 2), (3, 3)])
    def test_valid(self, k, n):
        tp = TailParams(k, n)
        assert tp.expected_exponent == pytest.approx(2 - n / k)

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (2, 3), (0, 1), (-1, 1)])
    def test_hypothesis_violations(self, k, n):
        with pytest.raises(ValueError):
            TailParams(k, n)
