import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasestab import bounds
from phasestab.bounds import (
    CERTIFICATION_RTOL,
    BoundReport,
    Corollary1Report,
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
    FAMILY_BUILDERS,
    TRIANGLE_QUADRATURE_GRID,
    gaussian,
    iter_certification_pairs,
    optimality_family,
    smooth_bump,
    triangle_spectrum,
)
from phasestab.grid import (
    _BLOCK,
    _TWO_THREADS_MIN_POINTS,
    GridSpec,
    SampledFunction,
    Spectrum,
    _block,
    _centred,
    _run_blocks,
    _slabs,
    _sum_blocks,
    fourier_transform,
    inverse_transform,
    lp_norm,
    shift,
)
from phasestab.geometry import lemma1_gap
from phasestab.io import save_field

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

    def test_ties_are_in_the_sublevel_set(self):
        # |F| = 1 everywhere and 10 x == 1.0 exactly: every sample sits on the threshold
        grid = GridSpec.uniform(1, 2.0, 64)
        F = Spectrum(grid, np.tile([1.0, 1j, -1.0, -1j], 16))
        x = 0.1
        assert 10.0 * x == 1.0
        full = grid.cell_volume * grid.size
        assert spectral_tail(F, x) == full
        assert smoothness_modulus(F, x, 1.0) == math.sqrt(8.0 * full)
        assert smoothness_modulus(F, x, 1.5) == math.sqrt(8.0 * full) + x

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

    # strings and bools are not reals, even where float() would parse them
    @pytest.mark.parametrize(
        "x, p, message",
        [
            ("0.1", 1.0, "x must .*, got '0.1'"),
            (True, 1.0, "x must .*, got True"),
            (0.1, "1.5", "p must .*, got '1.5'"),
            (0.1, True, "p must .*, got True"),
        ],
    )
    def test_non_real_arguments_rejected(self, x, p, message, triangle):
        with pytest.raises(ValueError, match=message):
            smoothness_modulus(triangle, x, p)

    def test_numpy_scalars_accepted(self, triangle):
        assert smoothness_modulus(triangle, np.float32(0.25), np.int64(1)) == (
            smoothness_modulus(triangle, 0.25, 1.0)
        )


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

    @pytest.mark.parametrize("p", [2.0, 0.9, math.nan, "1.5", True])
    def test_invalid_p_rejected(self, p, grid_1d):
        f = gaussian(grid_1d)
        with pytest.raises(ValueError, match=f"p must lie in \\[1, 2\\), got {p!r}"):
            evaluate_theorem(f, f, p)

    def test_subnormal_squared_distance_refused(self, grid_1d):
        # lhs = 1.5e-161 > 0 but lhs**2 is subnormal, so no report has significant digits
        f = gaussian(grid_1d, amplitude=1e-160)
        g = shift(f, 0.1)
        with pytest.raises(ArithmeticError, match="underflow"):
            evaluate_theorem(f, g, 1.0)
        with pytest.raises(ArithmeticError, match="underflow"):
            evaluate_corollary1(f, g)

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

    @pytest.mark.parametrize("delta, refused", [(1e-7, True), (1e-9, False)])
    def test_real_spectrum_tolerance_is_1e_8_of_the_peak(self, delta, refused, grid_1d):
        # spectrum b + i delta b: max|Im| = delta max b = 0.368 delta against
        # the threshold 1e-8 max|F| = 0.368e-8
        freq = grid_1d.dual()
        b = smooth_bump(freq.axis_coordinate(0) / 4.0)
        f = inverse_transform(Spectrum(freq, b + 1j * delta * b))
        if refused:
            with pytest.raises(ValueError, match="real-valued"):
                evaluate_corollary1(f, 0.5 * f)
        else:
            assert is_certified(evaluate_corollary1(f, 0.5 * f))

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


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda f, g: evaluate_theorem(f, g, 1.0), id="theorem"),
        pytest.param(evaluate_corollary1, id="corollary1"),
    ],
)
@pytest.mark.parametrize(
    "pair", [_shifted_pair, _signflip_bump_pair], ids=["shifted", "signflip-bump"]
)
def test_underflow_boundary_is_shared(pair, evaluate, grid_1d):
    # |f - g|_2^2 is a normal double at 2^-508 and subnormal at 2^-510 on both
    # pairs; above the subnormal range the scaling by 2^-k is exact
    f, g = pair(grid_1d)

    def scaled(k):
        return (SampledFunction(h.grid, h.values * 2.0**-k) for h in (f, g))

    assert is_certified(evaluate(*scaled(508)))
    with pytest.raises(ArithmeticError, match="underflow"):
        evaluate(*scaled(510))


# ---------------------------------------------------------------------------
# the p = 1 floor is attained: g = -f and g = -3f
# ---------------------------------------------------------------------------

# g = -lam f: | |F| - |G| | = |1 - lam| |F|, conj(F) G = -lam |F|^2 is real,
# and |F| <= |f|_1 <= 10 eps puts the whole grid in the sub-level set.  So at
# p = 1 lhs = (1 + lam) |F|_2 and rhs = (2 |1 - lam| + sqrt(8)) |F|_2, and the
# squared form's slack is 2 (1 - lam)^2 + 8 - (1 + lam)^2 = (lam - 3)^2 times
# |F|_2^2: rhs / lhs = sqrt(2) at lam = 1, a slack of 0 at lam = 3.  Each
# report is a few rounded norms; on these fields the error was within 1.5
# units of 2^-52 of sqrt(2), and within 1.8 of lhs^2
ATTAINED_ULPS = 4


def _attaining_field(grid, kind):
    real = gaussian(grid, center=0.3, width=1.1)
    if kind == "real":
        return real
    return real + gaussian(grid, center=-0.4, width=0.8, amplitude=0.7j)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize(
    "grid",
    [GridSpec.uniform(1, 16.0, 1024), GridSpec.uniform(2, 8.0, 64), GridSpec.uniform(3, 4.0, 32)],
    ids=["1d", "2d", "3d"],
)
def test_minus_f_and_minus_three_f_attain_the_p1_floor(grid, kind):
    f = _attaining_field(grid, kind)
    ulp = 2.0**-52
    flip = evaluate_theorem(f, -f, 1.0)
    assert abs(flip.rhs / flip.lhs - math.sqrt(2.0)) <= ATTAINED_ULPS * ulp * math.sqrt(2.0)
    tripled = evaluate_theorem(f, -3.0 * f, 1.0)
    assert abs(tripled.squared_form_slack) <= ATTAINED_ULPS * ulp * tripled.lhs**2


# ---------------------------------------------------------------------------
# support, exceptional set, tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tol", [-1e-3, math.nan, math.inf, "1e-3", True])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, F, tol: translation_term(F, F, zero_tol=tol), id="zero_tol"),
        pytest.param(lambda f, F, tol: support_measure(F, support_tol=tol), id="support_tol"),
        pytest.param(lambda f, F, tol: evaluate_theorem(f, f, 1.0, tol), id="theorem"),
        pytest.param(lambda f, F, tol: evaluate_corollary1(f, f, tol), id="corollary1"),
    ],
)
def test_tolerance_must_be_finite_and_nonnegative(call, tol, grid_1d):
    f = gaussian(grid_1d)
    with pytest.raises(ValueError, match=f"nonnegative finite real, got {tol!r}"):
        call(f, fourier_transform(f), tol)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, tol: evaluate_theorem(f, f, 1.0, tol), id="theorem"),
        pytest.param(lambda f, tol: evaluate_corollary1(f, f, tol), id="corollary1"),
    ],
)
def test_tolerance_is_checked_before_the_pass(call, grid_1d, monkeypatch, cleared_record):
    def no_pass(*args):
        raise AssertionError("the pair pass ran before the tolerance was checked")

    monkeypatch.setattr(bounds, "_pair", no_pass)
    with pytest.raises(ValueError, match="nonnegative finite real, got -1.0"):
        call(gaussian(grid_1d), -1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda F: translation_term(F, F), "zero_tol"),
        (support_measure, "support_tol"),
    ],
)
def test_overflowing_default_tolerance_refused(call, name):
    # finite samples whose modulus overflows: the default 1e-12 max|F| is inf,
    # which would leave an empty support and a zero translation term
    grid = GridSpec.uniform(1, 4.0, 64)
    F = Spectrum(grid.dual(), np.full(grid.shape, 1.5e308 + 1.5e308j))
    with pytest.raises(ArithmeticError, match=f"default {name} .* is inf"):
        call(F)


# a 1e200 Gaussian and its shift: |F|^2 overflows, while |F|, its L^2 norm
# (taken on scaled moduli) and the values of the tail and of h at 1e150 are
# finite
@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(translation_term, "translation_term", id="translation"),
        pytest.param(
            lambda F, G: lp_norm(F, 2.0), pytest.approx(1e200 * 2.0**-0.25, rel=1e-14), id="lp_norm"
        ),
        pytest.param(lambda F, G: spectral_tail(F, 1e150), 0.0, id="spectral_tail"),
        pytest.param(lambda F, G: smoothness_modulus(F, 1e150, 1.5), 1e150, id="smoothness"),
    ],
)
def test_public_helpers_refuse_overflow_without_a_warning(call, expected, grid_1d):
    f = gaussian(grid_1d, amplitude=1e200)
    F, G = fourier_transform(f), fourier_transform(shift(f, 0.1))
    if isinstance(expected, str):
        with pytest.raises(ArithmeticError, match=f"^{expected} is inf"):
            call(F, G)
    else:
        assert call(F, G) == expected


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, F: lp_norm(f.values, 2), id="lp_norm-array"),
        pytest.param(lambda f, F: shift(F, 0.1), id="shift-spectrum"),
        pytest.param(lambda f, F: save_field("unused.json", f.values), id="save_field-array"),
        pytest.param(lambda f, F: smoothness_modulus(f, 0.1, 1.0), id="smoothness-function"),
        pytest.param(lambda f, F: translation_term(F, f), id="translation-function"),
        pytest.param(lambda f, F: evaluate_theorem(F, F, 1.0), id="theorem-spectra"),
        pytest.param(lambda f, F: evaluate_corollary1(f, F), id="corollary1-spectrum"),
    ],
)
def test_wrong_field_type_rejected(call, grid_1d, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    f = gaussian(grid_1d)
    with pytest.raises(TypeError, match="expect"):
        call(f, fourier_transform(f))
    assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("eps", [math.nan, "0.1", True])
    def test_non_real_or_nan_epsilon_rejected(self, eps, grid_1d):
        F = fourier_transform(gaussian(grid_1d))
        with pytest.raises(ValueError, match=f"epsilon must be positive, got {eps!r}"):
            exceptional_set(F, F, eps)

    @pytest.mark.parametrize("eps, whole", [(0.1, True), (0.15, False)])
    def test_regime_edges(self, eps, whole, grid_1d):
        # F = 1 and G = 1 + i eps: |F - G| = eps exactly, and |F| = 1 equals
        # 10 eps at eps = 0.1 (ties are in the set) and lies below it at 0.15
        freq = grid_1d.dual()
        F = Spectrum(freq, np.ones(freq.shape))
        G = Spectrum(freq, np.full(freq.shape, 1.0 + 1j * eps))
        measure, mask = exceptional_set(F, G, eps)
        assert mask.all() if whole else not mask.any()
        assert measure == (freq.cell_volume * freq.size if whole else 0.0)


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

    @pytest.mark.parametrize("eps", [0.0, -0.1, "0.1", True])
    def test_validation(self, eps, triangle):
        with pytest.raises(ValueError, match=f"epsilon must be positive, got {eps!r}"):
            spectral_tail(triangle, eps)

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

    @pytest.mark.parametrize(
        "k,n",
        [(1, 1), (2, 2), (2, 3), (0, 1), (-1, 1), (3, True), (True, 1), (2.9, 1), (3.0, 1),
         (3, 1.7), ("3", 1)],
    )
    def test_hypothesis_violations(self, k, n):
        with pytest.raises(ValueError):
            TailParams(k, n)

    def test_numpy_integers_accepted(self):
        tp = TailParams(np.int64(3), np.int32(2))
        assert (tp.k, tp.n) == (3, 2)
        assert type(tp.k) is int and type(tp.n) is int


# ---------------------------------------------------------------------------
# the pair pass on two threads (grids of _TWO_THREADS_MIN_POINTS or more)
# ---------------------------------------------------------------------------

# the smallest 2-D grid at the gate; 512^2 is below it
CONCURRENT_GRID = GridSpec(2, (8.0, 8.0), (1024, 512))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.usefixtures("no_thread_outlives_the_call")
class TestConcurrentPairPass:
    @pytest.mark.parametrize(
        "shape, concurrent",
        [
            pytest.param((256, 256), False, id="256x256-below-the-gate"),
            pytest.param((512, 512), False, id="512x512-below-the-gate"),
            pytest.param((1024, 512), True, id="1024x512-at-the-gate"),
        ],
    )
    def test_spectra_match_the_sequential_transform(self, shape, concurrent, monkeypatch):
        grid = GridSpec(2, (8.0, 8.0), shape)
        f = gaussian(grid, center=(0.3, -0.2))
        g = shift(gaussian(grid, width=1.2), (0.1, 0.05))
        threads = []

        def centred(transform, values, scale):
            threads.append(threading.current_thread())
            return _centred(transform, values, scale)

        monkeypatch.setattr(bounds, "_centred", centred)
        pair = bounds._pair(f, g, (1.5,), "test")
        assert len(threads) == 2
        off_main = [t for t in threads if t is not threading.main_thread()]
        assert len(off_main) == int(concurrent)
        F = _centred(np.fft.fft, f.values, grid.cell_volume)
        G = _centred(np.fft.fft, g.values, grid.cell_volume)
        magF = np.abs(F)
        volume = grid.dual().cell_volume
        assert _bits(pair.F) == _bits(F)
        assert _bits(pair.G) == _bits(G)
        assert _bits(pair.magF) == _bits(magF)
        assert pair.modulus_l2 == math.sqrt(volume * _blocked_sum((magF - np.abs(G)) ** 2))
        assert pair.volume == volume

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(GridSpec.uniform(1, 16.0, 1024), id="1d"),
            pytest.param(GridSpec.uniform(2, 8.0, 256), id="256x256"),
            pytest.param(CONCURRENT_GRID, id="1024x512"),
        ],
    )
    @pytest.mark.parametrize("huge", ["f", "g"])
    @pytest.mark.parametrize(
        "evaluate",
        [
            pytest.param(lambda f, g: evaluate_theorem(f, g, 1.0), id="theorem"),
            pytest.param(evaluate_corollary1, id="corollary1"),
        ],
    )
    def test_fft_overflow_is_the_same_error(self, grid, huge, evaluate):
        # finite samples whose transform overflows; the error state of the
        # evaluators must hold on the worker too, or numpy warns from there.
        # The report refuses the overflow, by the modulus term built from it
        big, small = gaussian(grid, amplitude=1e307), gaussian(grid)
        f, g = (big, small) if huge == "f" else (small, big)
        with pytest.raises(ArithmeticError, match="non-finite .*term_modulus"):
            evaluate(f, g)

    def test_no_nested_workers(self, executors):
        # F and G on two threads, each a part of one _run_parts call: the
        # stages of a lone transform split their slabs, those of F and G run
        # in order on their own thread
        grid = GridSpec(2, (8.0, 8.0), (1026, 512))
        f = gaussian(grid, center=(0.3, -0.2))
        g = gaussian(grid, width=1.2)
        executors.update(opened=0, most=0)
        bounds._pair(f, g, (1.5,), "test")
        assert executors["opened"] >= 1
        assert executors["most"] == 1 and executors["workers"] == 1

    @pytest.mark.usefixtures("cleared_record")
    def test_worker_exception_is_raised_in_the_caller(self, monkeypatch):
        def centred(transform, values, scale):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            return _centred(transform, values, scale)

        monkeypatch.setattr(bounds, "_centred", centred)
        f = gaussian(CONCURRENT_GRID)
        with pytest.raises(MemoryError, match="worker"):
            evaluate_theorem(f, shift(f, 0.1), 1.0)


# ---------------------------------------------------------------------------
# the blocked pair pass: the elementwise stages in blocks of grid._block(size)
# points, split between two threads from the gate on, and every integral
# the math.fsum of its blocks' np.sums
# ---------------------------------------------------------------------------


def _blocked_sum(x) -> float:
    """A blocked integral by its rule, written out: the np.sums of the flat
    ``x``'s consecutive chunks of ``_block(x.size)`` points, added by
    math.fsum; a lone chunk's np.sum as it is."""
    x = np.ravel(x)
    step = _block(x.size)
    sums = [np.sum(x[start : start + step]) for start in range(0, x.size, step)]
    return float(sums[0]) if len(sums) == 1 else math.fsum(sums)

BLOCKED_GRIDS = [
    pytest.param(GridSpec.uniform(1, 16.0, 1024), id="1d-one-block"),
    pytest.param(GridSpec.uniform(3, 4.0, 32), id="32^3-two-blocks-below-the-gate"),
    pytest.param(GridSpec.uniform(2, 8.0, 256), id="256x256-below-the-gate"),
    pytest.param(GridSpec(2, (8.0, 8.0), (258, 256)), id="258x256-partial-last-block"),
    pytest.param(CONCURRENT_GRID, id="1024x512-at-the-gate"),
    pytest.param(GridSpec(2, (8.0, 8.0), (1026, 512)), id="1026x512-partial-last-block-above-the-gate"),
    pytest.param(GridSpec(3, (4.0, 4.0, 4.0), (128, 64, 64)), id="128x64x64-at-the-gate"),
    # 1022040 points: the pairwise tree's halves are uneven at several levels
    pytest.param(
        GridSpec(3, (4.0, 4.0, 4.0), (30, 34, 1002)), id="30x34x1002-uneven-leaves-above-the-gate"
    ),
]


def _complex_pair(grid):
    centre = (0.3, -0.2, 0.1)[: grid.dimension]
    f = gaussian(grid, center=centre, width=1.0, amplitude=0.8 + 0.6j)
    return f, gaussian(grid, center=0.0, width=1.2, amplitude=0.9 - 0.1j)


def _sequential_pass(f, g, p):
    """F, G, |F|, eps, lhs, | |F|-|G| |_2 and the dual cell volume, each stage
    one full-size pass in the order of its formula, each integral summed by
    the blocked rule (``_blocked_sum``)."""
    volume = f.grid.cell_volume
    absdiff = np.abs(f.values - g.values)
    lhs = math.sqrt(volume * float(_blocked_sum(absdiff * absdiff)))
    eps = (volume * float(_blocked_sum(absdiff**p))) ** (1.0 / p)
    F = _centred(np.fft.fft, f.values, volume)
    G = _centred(np.fft.fft, g.values, volume)
    magF = np.abs(F)
    dual = f.grid.dual().cell_volume
    modulus = magF - np.abs(G)
    modulus_l2 = math.sqrt(dual * float(_blocked_sum(modulus * modulus)))
    return F, G, magF, eps, lhs, modulus_l2, dual


def _sequential_theorem(f, g, p):
    F, G, magF, eps, lhs, modulus_l2, dual = _sequential_pass(f, g, p)
    field = np.zeros_like(magF)
    np.divide((np.conjugate(F) * G).imag, magF, out=field, where=magF > 1e-12 * magF.max())
    translation = 2.0 * math.sqrt(dual * float(_blocked_sum(field * field)))
    sq = magF * magF
    sq[magF > 10.0 * eps] = 0.0
    mass = float(dual * _blocked_sum(sq))
    modulus = 2.0 * modulus_l2
    smoothness = math.sqrt(8.0 * mass) + (eps if p > 1.0 else 0.0)
    rhs = modulus + smoothness + translation
    squared_form_rhs = (
        2.0 * modulus_l2**2
        + (6.0 / 5.0) * (translation / 2.0) ** 2
        + (eps**2 if p > 1.0 else 0.0)
        + 8.0 * mass
    )
    return BoundReport(
        p, eps, lhs, modulus, smoothness, translation, rhs, rhs - lhs, squared_form_rhs - lhs**2
    )


def _sequential_corollary1(f, g):
    F, G, magF, eps, lhs, modulus_l2, dual = _sequential_pass(f, g, 1.0)
    L = float(dual * np.count_nonzero(magF > 1e-12 * magF.max()))
    modulus = 2.0 * modulus_l2
    bandlimit = 30.0 * math.sqrt(L) * eps
    translation = 2.0 * math.sqrt(dual * float(_blocked_sum(G.imag * G.imag)))
    rhs = modulus + bandlimit + translation
    return Corollary1Report(eps, lhs, modulus, bandlimit, translation, L, rhs, rhs - lhs)


def _hex_fields(report):
    return {k: float(v).hex() for k, v in dataclasses.asdict(report).items()}


@pytest.mark.usefixtures("no_thread_outlives_the_call")
class TestBlockedPairPass:
    @pytest.mark.parametrize("grid", BLOCKED_GRIDS)
    def test_pair_matches_the_sequential_pass(self, grid):
        f, g = _complex_pair(grid)
        F, G, magF, eps, lhs, modulus_l2, dual = _sequential_pass(f, g, 1.5)
        pair = bounds._pair(f, g, (1.5,), "test")
        # the translation stage forms conj(F) G in block temporaries: F stays F
        bounds._translation(pair.F, pair.G, pair.magF, 0.0, pair.volume)
        assert _bits(pair.F) == _bits(F)
        assert _bits(pair.G) == _bits(G)
        assert _bits(pair.magF) == _bits(magF)
        assert (pair.epsilons, pair.lhs, pair.modulus_l2, pair.volume) == ((eps,), lhs, modulus_l2, dual)

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75])
    @pytest.mark.parametrize("grid", BLOCKED_GRIDS)
    def test_theorem_report_matches_the_sequential_formulas(self, grid, p):
        f, g = _complex_pair(grid)
        expected = _hex_fields(_sequential_theorem(f, g, p))
        assert _hex_fields(evaluate_theorem(f, g, p)) == expected

    @pytest.mark.parametrize("grid", BLOCKED_GRIDS)
    def test_corollary1_report_matches_the_sequential_formulas(self, grid):
        # centred real Gaussians: real spectra
        f = gaussian(grid)
        for g in (-f, gaussian(grid, width=1.1, amplitude=0.9)):
            expected = _hex_fields(_sequential_corollary1(f, g))
            assert _hex_fields(evaluate_corollary1(f, g)) == expected

    def test_public_helpers_match_full_size_formulas(self):
        # translation_term and spectral_tail run their stages through the same
        # runner; on the gate's grid its second half is a worker's
        f, g = _complex_pair(CONCURRENT_GRID)
        Fs, Gs = fourier_transform(f), fourier_transform(g)
        F, G, magF = Fs.values, Gs.values, np.abs(Fs.values)
        dual = Fs.grid.cell_volume
        field = np.zeros_like(magF)
        np.divide((np.conjugate(F) * G).imag, magF, out=field, where=magF > 1e-12 * magF.max())
        translation = 2.0 * math.sqrt(dual * float(_blocked_sum(field * field)))
        assert translation_term(Fs, Gs).hex() == translation.hex()
        for eps in (1e-6, 1e-3, 0.05):
            sq = magF * magF
            sq[magF > 10.0 * eps] = 0.0
            assert spectral_tail(Fs, eps).hex() == float(dual * _blocked_sum(sq)).hex()

    @pytest.mark.usefixtures("cleared_record")
    def test_stage_exception_on_the_worker_is_raised_in_the_caller(self, monkeypatch):
        integrand = bounds._lp_integrand

        def failing(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker stage")
            return integrand(*args, **kwargs)

        monkeypatch.setattr(bounds, "_lp_integrand", failing)
        f, g = _complex_pair(CONCURRENT_GRID)
        with pytest.raises(MemoryError, match="worker stage"):
            evaluate_theorem(f, g, 1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "evaluate",
        [
            pytest.param(lambda f, g: evaluate_theorem(f, g, 1.5), id="theorem"),
            pytest.param(evaluate_corollary1, id="corollary1"),
        ],
    )
    def test_stage_overflow_on_the_worker_prints_no_warning(self, evaluate):
        # |f - g|^2 overflows in every block near the centre, half of which the
        # worker takes; only the report may refuse it
        f = gaussian(CONCURRENT_GRID, amplitude=1e300)
        with pytest.raises(ArithmeticError, match="non-finite .*lhs"):
            evaluate(f, -f)


def _record_blocks(size):
    """_run_blocks over ``size`` points with a step that returns its block's
    start, its stop and the thread it ran on."""
    return _run_blocks(lambda s: (s.start, s.stop, threading.current_thread()), size)


# one block up to _BLOCK points (np.sum's own tree inside it), one point
# either side of _BLOCK, partial last blocks below and above the gate, and
# blocks of exactly _WIDE_BLOCK points from the gate on
SUM_SIZES = [
    0, 1, 7, 8, 9, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5,
    65552, _TWO_THREADS_MIN_POINTS, 1000003, 2**21 + 6,
]


@pytest.mark.usefixtures("no_thread_outlives_the_call")
class TestRunBlocks:
    @pytest.mark.parametrize(
        "size",
        [
            pytest.param(0, id="empty"),
            pytest.param(_BLOCK - 1, id="one-partial-block"),
            pytest.param(3 * _BLOCK + 7, id="partial-last-block"),
            pytest.param(65552, id="partial-block-of-16-below-the-gate"),
            pytest.param(_TWO_THREADS_MIN_POINTS - 1, id="one-below-the-gate"),
            pytest.param(_TWO_THREADS_MIN_POINTS, id="at-the-gate"),
            pytest.param(_TWO_THREADS_MIN_POINTS + 7, id="partial-last-block-above-the-gate"),
            pytest.param(30 * 34 * 1002, id="partial-last-block-of-sixteen-above-the-gate"),
        ],
    )
    def test_blocks_in_order_and_their_threads(self, size):
        results = _record_blocks(size)
        # consecutive blocks of _block(size) points, the last one partial:
        # _BLOCK below the gate, _WIDE_BLOCK from it on
        block = _block(size)
        assert [(start, stop) for start, stop, _ in results] == [
            (start, min(start + block, size)) for start in range(0, size, block)
        ]
        assert _slabs((size,)) == tuple(slice(start, stop) for start, stop, _ in results)
        caller = threading.current_thread()
        threads = [thread for _, _, thread in results]
        if size < _TWO_THREADS_MIN_POINTS:
            assert all(thread is caller for thread in threads)
        else:
            # the first half of the blocks on the caller, the second half,
            # the last block included, on one worker
            half = len(threads) // 2
            assert all(thread is caller for thread in threads[:half])
            assert len({id(thread) for thread in threads[half:]}) == 1
            assert threads[-1] is not caller

    def test_no_points_no_blocks(self):
        assert _slabs((0,)) == ()
        assert _run_blocks(lambda s: 1 / 0, 0) == []
        assert _sum_blocks(lambda s: 1 / 0, 0) == 0.0

    @pytest.mark.parametrize("size", SUM_SIZES)
    def test_block_sums_are_added_by_fsum(self, rng, size):
        # magnitudes e^-20 .. e^20 of both signs: every addition rounds
        x, y = (
            np.exp(rng.uniform(-20.0, 20.0, size)) * rng.choice([-1.0, 1.0], size) for _ in range(2)
        )
        got = np.float64(_sum_blocks(lambda s: x[s].sum(), size))
        assert got.view(np.uint64) == np.float64(_blocked_sum(x)).view(np.uint64)
        if size <= _BLOCK:
            # one block: np.sum's own bits
            assert got.view(np.uint64) == np.sum(x).view(np.uint64)
        # two integrands' block sums as one array, each added by the same rule
        both = _sum_blocks(lambda s: np.array([x[s].sum(), y[s].sum()]), size)
        got = np.broadcast_to(np.asarray(both, dtype=float), (2,))
        want = np.array([_blocked_sum(x), _blocked_sum(y)])
        assert list(got.view(np.uint64)) == list(want.view(np.uint64))

    def test_a_total_past_the_double_range_is_inf(self):
        # finite block sums whose total overflows: math.fsum raises there, and
        # the sum must be inf for the report to refuse it by name
        assert _sum_blocks(lambda s: 1e308, 2 * _BLOCK) == math.inf
        both = _sum_blocks(lambda s: np.array([1e308, 1.0]), 2 * _BLOCK)
        assert list(both) == [math.inf, 2.0]

    def test_worker_exception_is_raised_in_the_caller(self):
        def step(s):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError(f"block at {s.start}")
            return s.start

        with pytest.raises(MemoryError, match="block at"):
            _run_blocks(step, _TWO_THREADS_MIN_POINTS)


def _theorem_miss(grid):
    f = gaussian(grid, center=0.3, amplitude=0.8 + 0.6j)
    evaluate_theorem(f, shift(gaussian(grid, width=1.2), 0.1), 1.5)


@pytest.mark.usefixtures("cleared_record", "no_thread_outlives_the_call")
class TestExecutorsOpened:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: _theorem_miss(GridSpec.uniform(1, 16.0, 1024)), id="theorem-1d-1024"),
            pytest.param(lambda: _theorem_miss(GridSpec.uniform(2, 8.0, 256)), id="theorem-256x256"),
            pytest.param(lambda: gaussian(GridSpec.uniform(2, 8.0, 256), 0.3), id="gaussian-256x256"),
            pytest.param(
                lambda: shift(gaussian(GridSpec.uniform(2, 8.0, 256)), (0.1, -0.05)),
                id="shift-256x256",
            ),
            pytest.param(
                lambda: lemma1_gap(1.0, 1.0 + 0.4 * np.exp(1j * np.linspace(0.0, 6.0, 10**5))),
                id="lemma1_gap-1e5",
            ),
        ],
    )
    def test_none_below_the_gate(self, call, executors):
        call()
        assert executors["opened"] == 0

    def test_a_theorem_miss_at_the_gate(self, executors):
        f = gaussian(CONCURRENT_GRID, center=(0.3, -0.2), amplitude=0.8 + 0.6j)
        g = shift(gaussian(CONCURRENT_GRID, width=1.2), (0.1, 0.05))
        executors.update(opened=0, most=0)
        evaluate_theorem(f, g, 1.5)
        # F and G, then the difference, modulus, translation and sub-level stages
        assert executors["opened"] == 5
        assert executors["most"] == 1 and executors["workers"] == 1


# ---------------------------------------------------------------------------
# symmetries of the bound (property tests)
# ---------------------------------------------------------------------------

# The symmetries are checked at zero_tol = 1e-6 max|F|, scaled with the pair.
# At the default 1e-12 max|F| the translation term is ill-conditioned: where
# |F| is that small its phase carries rounding noise of order 1e-4 rad while
# |G| there need not be small, so a roll or a global phase moved the term by up
# to 2e-8 of rhs on these families (2000 pairs).  At 1e-6 max|F| the worst
# deviation over the same pairs and all five symmetries was 3e-14 of rhs.
SYMMETRY_ZERO_TOL = 1e-6
SYMMETRY_RTOL = 1e-12
_REPORT_FIELDS = [f.name for f in dataclasses.fields(bounds.BoundReport) if f.name != "p"]


def _axes(values):
    return tuple(range(values.ndim))


def _roll(values, s):
    return np.roll(values, s, axis=_axes(values))


def _modulate(values, m):
    """values * exp(2 pi i x.xi) at xi = m dual-grid steps per axis: the spectrum
    rolls by m samples.  The phase is reduced mod N in integers first."""
    for axis, n in enumerate(values.shape):
        j = (np.arange(n) - n // 2) * m % n
        shape = [1] * values.ndim
        shape[axis] = n
        values = values * np.exp(2j * np.pi * j / n).reshape(shape)
    return values


def _reflect(values):
    """conj(f(-x)): x_j = (j - N/2) dx maps to x_{N - j}, index 0 to itself (periodically)."""
    return np.conj(_roll(np.flip(values), 1))


def _reports(f, g, p, transform, lam=1.0, relative_tol=SYMMETRY_ZERO_TOL):
    """The reports of (f, g) and of (transform f, transform g) at zero_tol =
    relative_tol * max|F|, times |lam| for the second (the default when None)."""
    tol = moved_tol = None
    if relative_tol is not None:
        tol = relative_tol * float(np.abs(fourier_transform(f).values).max())
        moved_tol = abs(lam) * tol
    moved = [SampledFunction(h.grid, transform(h.values)) for h in (f, g)]
    return evaluate_theorem(f, g, p, tol), evaluate_theorem(*moved, p, moved_tol)


def _assert_equivariant(before, after, lam, exact=(), rtol=SYMMETRY_RTOL):
    """Each field of ``after`` is |lam| times that of ``before`` (|lam|^2 for the
    squared form): those named in ``exact`` bit for bit, the others to ``rtol``
    of the form's right-hand side."""
    scale = abs(lam)
    assert after.p == before.p
    for name in _REPORT_FIELDS:
        squared = name == "squared_form_slack"
        factor = scale**2 if squared else scale
        rhs = before.squared_form_slack + before.lhs**2 if squared else before.rhs
        want, got = factor * getattr(before, name), getattr(after, name)
        if name in exact:
            assert got == want, name
        else:
            assert abs(got - want) <= rtol * factor * rhs, name


_N = 1024
_P_VALUES = st.sampled_from([1.0, 1.25, 1.5, 1.75])


@st.composite
def family_pairs(draw):
    """A pair from one of the certification families on the default 1-D grid."""
    name = draw(st.sampled_from(sorted(FAMILY_BUILDERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FAMILY_BUILDERS[name](rng, GridSpec.uniform(1, 16.0, _N))


class TestSymmetries:
    @settings(deadline=None, max_examples=40)
    @given(pair=family_pairs(), p=_P_VALUES, k=st.integers(-100, 100))
    def test_power_of_two_scaling(self, pair, p, k):
        # exact through the FFT, |.|, the sums, the divisions and the correctly
        # rounded square roots (lhs among them); what goes through libm pow
        # (eps's ** p and ** (1/p), the squared form's ** 2) can round one ulp apart
        lam = 2.0**k
        before, after = _reports(*pair, p, lambda v: lam * v, lam, relative_tol=None)
        exact = ["lhs", "term_modulus", "term_translation"]
        if p == 1.0:
            exact += ["epsilon", "term_smoothness", "rhs", "slack"]
        _assert_equivariant(before, after, lam, exact, rtol=1e-14)

    @settings(deadline=None, max_examples=40)
    @given(pair=family_pairs(), p=_P_VALUES, lam=st.floats(1e-3, 1e3))
    def test_scaling(self, pair, p, lam):
        _assert_equivariant(*_reports(*pair, p, lambda v: lam * v, lam), lam)

    @settings(deadline=None, max_examples=40)
    @given(pair=family_pairs(), p=_P_VALUES, s=st.integers(1, _N - 1))
    def test_grid_translation(self, pair, p, s):
        _assert_equivariant(*_reports(*pair, p, lambda v: _roll(v, s)), 1.0)

    @settings(deadline=None, max_examples=40)
    @given(pair=family_pairs(), p=_P_VALUES, m=st.integers(-_N // 2, _N // 2 - 1))
    def test_modulation(self, pair, p, m):
        _assert_equivariant(*_reports(*pair, p, lambda v: _modulate(v, m)), 1.0)

    @settings(deadline=None, max_examples=40)
    @given(pair=family_pairs(), p=_P_VALUES, theta=st.floats(0.0, 2.0 * math.pi))
    def test_global_phase(self, pair, p, theta):
        _assert_equivariant(*_reports(*pair, p, lambda v: np.exp(1j * theta) * v), 1.0)

    @settings(deadline=None, max_examples=40)
    @given(pair=family_pairs(), p=_P_VALUES)
    def test_conjugate_reflection(self, pair, p):
        _assert_equivariant(*_reports(*pair, p, _reflect), 1.0)

    @pytest.mark.usefixtures("no_thread_outlives_the_call")
    @pytest.mark.parametrize(
        "transform, lam",
        [
            pytest.param(lambda v: 3.7 * v, 3.7, id="scaling"),
            pytest.param(lambda v: _roll(v, 37), 1.0, id="translation"),
            pytest.param(lambda v: _modulate(v, -5), 1.0, id="modulation"),
            pytest.param(lambda v: np.exp(2.1j) * v, 1.0, id="global-phase"),
            pytest.param(_reflect, 1.0, id="conjugate-reflection"),
        ],
    )
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_on_the_concurrent_grid(self, transform, lam, p):
        grid = CONCURRENT_GRID
        f = gaussian(grid, center=(0.3, -0.2), width=(1.0, 1.4), amplitude=0.8 + 0.6j)
        g = shift(gaussian(grid, center=(0.3, -0.2), width=1.1), (0.1, 0.05))
        assert grid.size >= _TWO_THREADS_MIN_POINTS
        _assert_equivariant(*_reports(f, g, p, transform, lam), lam)

    @pytest.mark.usefixtures("no_thread_outlives_the_call")
    def test_power_of_two_scaling_on_the_concurrent_grid(self):
        f = gaussian(CONCURRENT_GRID, center=(0.3, -0.2))
        g = shift(f, (0.1, 0.05))
        before, after = _reports(f, g, 1.0, lambda v: 2.0**-37 * v, 2.0**-37, relative_tol=None)
        exact = [name for name in _REPORT_FIELDS if name != "squared_form_slack"]
        _assert_equivariant(before, after, 2.0**-37, exact, rtol=1e-14)

    @pytest.mark.parametrize("k", [-37, 37])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_lhs_scales_exactly_by_powers_of_two(self, k, p):
        # pair 556 of the seed-0 certification stream (shifted_gaussian): with
        # lhs = (vol * sum|x|^2) ** 0.5 it came out one ulp off 2^k times the
        # original, since libm's pow is not correctly rounded and math.sqrt is
        *_, (name, f, g) = iter_certification_pairs(557, np.random.default_rng(0))
        assert name == "shifted_gaussian"
        lam = 2.0**k
        scaled = [SampledFunction(h.grid, lam * h.values) for h in (f, g)]
        assert evaluate_theorem(*scaled, p).lhs == lam * evaluate_theorem(f, g, p).lhs


# ---------------------------------------------------------------------------
# evaluate_theorem's record: the p-independent part of the last pair it saw
# ---------------------------------------------------------------------------

# p out of order and repeated; zero_tol (times max|F|) left as None, given and
# changed.  A change of zero_tol is a miss, so these calls make four passes.
RECORD_CALLS = [
    (1.5, None), (1.0, None), (1.75, None), (1.5, None), (1.25, 1e-6),
    (1.0, 1e-6), (1.25, 0.3), (1.75, None), (1.0, None),
]
RECORD_PASSES = 4
RECORD_PAIRS = [pytest.param(name, id=name) for name in sorted(FAMILY_BUILDERS)] + [
    pytest.param(GridSpec.uniform(2, 8.0, 256), id="256x256-gaussian"),
    pytest.param(GridSpec.uniform(3, 4.0, 32), id="32^3-gaussian"),
]


def _record_pair(pair):
    if isinstance(pair, GridSpec):
        return _complex_pair(pair)
    return FAMILY_BUILDERS[pair](np.random.default_rng(11), GridSpec.uniform(1, 16.0, 1024))


def _fresh(f, g, p, zero_tol=None):
    """The report of a pass over (f, g) at p alone, which the record never sees."""
    pair = bounds._pair(f, g, (p,), "evaluate_theorem")
    return bounds._reports(bounds._theorem(pair, zero_tol))[0]


def _uint64(report):
    return np.array(dataclasses.astuple(report)).view(np.uint64).tolist()


def _leaves(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@pytest.mark.usefixtures("cleared_record")
class TestLastPairRecord:
    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return _centred(*args, **kwargs)

        monkeypatch.setattr(bounds, "_centred", counted)
        return calls

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_hit_has_the_bits_of_a_fresh_pass(self, pair, transforms):
        f, g = _record_pair(pair)
        peak = float(np.abs(fourier_transform(f).values).max())
        passes = 0
        for p, relative_tol in RECORD_CALLS:
            zero_tol = None if relative_tol is None else relative_tol * peak
            before = len(transforms)
            got = evaluate_theorem(f, g, p, zero_tol)
            passes += (len(transforms) - before) // 2
            assert _uint64(got) == _uint64(_fresh(f, g, p, zero_tol)), (p, relative_tol)
        assert passes == RECORD_PASSES

    @pytest.mark.parametrize("pair", RECORD_PAIRS)
    def test_zero_tol_moves_the_translation_term(self, pair):
        # so a record that ignored zero_tol would show in the bits above
        f, g = _record_pair(pair)
        peak = float(np.abs(fourier_transform(f).values).max())
        terms = [_fresh(f, g, 1.0, tol).term_translation for tol in (None, 0.3 * peak)]
        assert terms[0] != terms[1]

    def test_four_p_on_one_pair_transform_it_once(self, transforms):
        f, g = _complex_pair(GridSpec.uniform(1, 16.0, 1024))
        for p in (1.0, 1.25, 1.5, 1.75):
            evaluate_theorem(f, g, p)
        assert len(transforms) == 2

    def test_alternating_pairs_transform_on_every_call(self, transforms):
        # the two pairs share f, so a key without g would hit
        f, g = _complex_pair(GridSpec.uniform(1, 16.0, 1024))
        others = (g, shift(g, 0.1))
        for i, p in enumerate((1.0, 1.25, 1.5, 1.75)):
            evaluate_theorem(f, others[i % 2], p)
            assert len(transforms) == 2 * (i + 1)

    def test_no_field_kept_alive(self):
        f, g = _complex_pair(GridSpec.uniform(2, 8.0, 256))
        refs = [weakref.ref(f), weakref.ref(g)]
        evaluate_theorem(f, g, 1.5)
        del f, g
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_record_of_a_freed_pair_lasts_until_the_next_miss(self, transforms):
        grid = GridSpec.uniform(1, 16.0, 1024)
        f, g = _complex_pair(grid)
        evaluate_theorem(f, g, 1.0)
        del f, g
        gc.collect()
        # the record stays, its references reading None
        assert bounds._record is not None
        assert [bounds._record[0](), bounds._record[1]()] == [None, None]
        f, g = _complex_pair(grid)
        evaluate_theorem(f, g, 1.0)
        assert len(transforms) == 4
        assert bounds._record[0]() is f and bounds._record[1]() is g

    def test_none_is_never_a_hit(self):
        # a record whose field is gone reads None from its weak reference
        f, g = _complex_pair(GridSpec.uniform(1, 16.0, 1024))
        evaluate_theorem(f, g, 1.0)
        bounds._record = (lambda: None, lambda: None, None, bounds._record[3])
        with pytest.raises(TypeError, match="expects two SampledFunction inputs"):
            evaluate_theorem(None, None, 1.0)

    def test_record_holds_one_float_array_and_no_spectrum(self):
        f, g = _complex_pair(GridSpec.uniform(2, 8.0, 256))
        evaluate_theorem(f, g, 1.25)
        arrays = [leaf for leaf in _leaves(bounds._record) if isinstance(leaf, np.ndarray)]
        assert not any(np.iscomplexobj(a) for a in arrays)
        (magF,) = arrays
        assert magF.dtype == np.float64 and magF.size == f.grid.size
        # the pass's own array, read-only: a hit cannot write over it
        assert magF.base is None and not magF.flags.writeable

    def test_threads_sharing_the_record_get_the_bits_of_a_fresh_pass(self):
        # more threads than CPUs, each on its own pair at every p, switching
        # often: a hit on another thread's record, or on a record read half
        # replaced, would show in the bits
        grid = GridSpec.uniform(1, 16.0, 1024)
        rng = np.random.default_rng(5)
        pairs = [FAMILY_BUILDERS[name](rng, grid) for name in sorted(FAMILY_BUILDERS)]
        ps = (1.0, 1.25, 1.5, 1.75)
        expected = [[_uint64(_fresh(f, g, p)) for p in ps] for f, g in pairs]
        mismatches = []

        def evaluate(k):
            f, g = pairs[k]
            try:
                for _ in range(20):
                    for p, want in zip(ps, expected[k]):
                        if _uint64(evaluate_theorem(f, g, p)) != want:
                            mismatches.append((k, p))
            except Exception as exc:  # reported below, not lost on the thread
                mismatches.append((k, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_the_same_error_on_a_hit(self, transforms):
        grid = GridSpec.uniform(1, 16.0, 1024)
        f, g = gaussian(grid, amplitude=1e307), gaussian(grid)
        messages = []
        for p in (1.5, 1.5, 1.0):
            with pytest.raises(ArithmeticError) as raised:
                evaluate_theorem(f, g, p)
            messages.append(str(raised.value))
        # the report refused the overflow after the record was kept
        assert len(transforms) == 2
        with pytest.raises(ArithmeticError) as fresh:
            _fresh(f, g, 1.0)
        assert messages == [messages[0], messages[0], str(fresh.value)]
        assert "non-finite" in messages[0]
