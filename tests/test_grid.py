import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasestab.experiments import gaussian
from phasestab.grid import (
    GridSpec,
    SampledFunction,
    Spectrum,
    fourier_transform,
    inverse_transform,
    lp_norm,
    shift,
)


def indicator(grid, lo, hi):
    x = grid.axis_coordinate(0)
    return SampledFunction(grid, ((x >= lo) & (x < hi)).astype(complex))


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------


class TestGridSpec:
    def test_spacing_and_dual(self, grid_1d):
        assert grid_1d.spacing == (1.0 / 32.0,)
        dual = grid_1d.dual()
        assert dual.spacing == (1.0 / 32.0,)  # 1/(N dx) for this grid
        assert dual.half_extent == (16.0,)

    @given(
        exponent=st.integers(-3, 10),
        n=st.sampled_from([2, 6, 10, 64, 100, 1024]),
    )
    def test_dual_is_exact_involution_dyadic(self, exponent, n):
        g = GridSpec.uniform(1, float(2.0**exponent), n)
        assert g.dual().dual() == g

    @given(
        t=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
        n=st.sampled_from([2, 6, 10, 34, 100, 1024]),
    )
    def test_dual_is_exact_involution_generic(self, t, n):
        g = GridSpec.uniform(1, t, n)
        assert g.dual().dual() == g
        assert g.dual().dual().dual() == g.dual()

    def test_dual_spacing_relation(self):
        g = GridSpec(2, (3.0, 5.0), (64, 128))
        dual = g.dual()
        for dx, dxi, n in zip(g.spacing, dual.spacing, g.points_per_axis):
            assert dxi == pytest.approx(1.0 / (n * dx), rel=1e-15)

    def test_coordinates_are_zero_centered(self, grid_1d):
        x = grid_1d.axis_coordinate(0)
        assert x[0] == -16.0
        assert x[grid_1d.points_per_axis[0] // 2] == 0.0
        assert x[-1] == 16.0 - 1.0 / 32.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dimension=0, half_extent=(), points_per_axis=()),
            dict(dimension=4, half_extent=(1.0,) * 4, points_per_axis=(8,) * 4),
            dict(dimension=1, half_extent=(-1.0,), points_per_axis=(8,)),
            dict(dimension=1, half_extent=(1.0,), points_per_axis=(7,)),
            dict(dimension=1, half_extent=(1.0,), points_per_axis=(0,)),
            dict(dimension=2, half_extent=(1.0,), points_per_axis=(8, 8)),
            dict(dimension=1, half_extent=(math.inf,), points_per_axis=(8,)),
            dict(dimension=1.9, half_extent=(1.0,), points_per_axis=(8,)),
            dict(dimension="1", half_extent=(1.0,), points_per_axis=(8,)),
            dict(dimension=True, half_extent=(1.0,), points_per_axis=(8,)),
            dict(dimension=1, half_extent=(1.0,), points_per_axis=(4.7,)),
            dict(dimension=1, half_extent=(1.0,), points_per_axis=(8.0,)),
            dict(dimension=1, half_extent=(1.0,), points_per_axis=("4",)),
            dict(dimension=2, half_extent=(1.0, 1.0), points_per_axis=(True, 8)),
            dict(dimension=1, half_extent=("1.5",), points_per_axis=(8,)),
            dict(dimension=1, half_extent=(True,), points_per_axis=(8,)),
            dict(dimension=2, half_extent=(1.0, np.True_), points_per_axis=(8, 8)),
            # an integer too large for a double: float() raises OverflowError
            dict(dimension=1, half_extent=(10**400,), points_per_axis=(8,)),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError, match="dimension must|half_extent|points_per_axis"):
            GridSpec(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        grid = GridSpec(np.int64(2), (1.0, 1.0), (np.int64(8), np.int32(4)))
        assert (grid.dimension, grid.points_per_axis) == (2, (8, 4))
        assert type(grid.dimension) is int

    def test_real_extents_accepted(self):
        grid = GridSpec(3, (2, np.float32(1.5), np.int64(4)), (8, 8, 8))
        assert grid.half_extent == (2.0, 1.5, 4.0)
        assert all(type(t) is float for t in grid.half_extent)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            GridSpec(3, (1.0, 1.0, 1.0), (1024, 1024, 1024))


class TestFieldTypes:
    def test_nan_rejected(self, grid_1d):
        vals = np.ones(grid_1d.shape, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite sample"):
            SampledFunction(grid_1d, vals)

    def test_inf_rejected(self, grid_1d):
        vals = np.ones(grid_1d.shape, dtype=complex)
        vals[3] = 1j * np.inf
        with pytest.raises(ValueError, match="non-finite sample"):
            Spectrum(grid_1d.dual(), vals)

    @pytest.mark.parametrize(
        "grid, size",
        [
            pytest.param(GridSpec.uniform(1, 16.0, 1024), 17, id="wrong-size"),
            pytest.param(GridSpec.uniform(2, 8.0, 16), 256, id="flat-2d"),
        ],
    )
    def test_wrong_length_rejected(self, grid, size):
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(grid, np.ones(size, dtype=complex))

    def test_values_immutable(self, grid_1d):
        f = gaussian(grid_1d)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_grid_mismatch_in_arithmetic(self, grid_1d):
        f = gaussian(grid_1d)
        g = gaussian(GridSpec.uniform(1, 16.0, 512))
        with pytest.raises(ValueError, match="grid mismatch"):
            f - g

    def test_cross_type_arithmetic_rejected(self, grid_1d):
        f = gaussian(grid_1d)
        F = fourier_transform(f)
        with pytest.raises(TypeError):
            f + F

    def test_fields_compare_and_hash_by_identity(self, grid_1d):
        f, h = gaussian(grid_1d), gaussian(grid_1d, center=0.5)
        assert f == f and f != h and f != gaussian(grid_1d)
        assert f in [h, f] and h not in [f]
        assert len({f, h, f}) == 2


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class TestFourierTransform:
    def test_gaussian_is_self_dual(self, grid_1d):
        F = fourier_transform(gaussian(grid_1d))
        xi = F.grid.axis_coordinate(0)
        assert np.abs(F.values - np.exp(-np.pi * xi**2)).max() < 1e-8

    def test_zero_maps_to_zero(self, grid_1d):
        F = fourier_transform(SampledFunction(grid_1d, np.zeros(grid_1d.shape)))
        assert np.all(F.values == 0)

    def test_indicator_matches_direct_quadrature_and_sinc(self, grid_1d):
        # oracle: direct Riemann-sum evaluation of the transform integral
        f = indicator(grid_1d, -0.5, 0.5)
        F = fourier_transform(f)
        x = grid_1d.axis_coordinate(0)
        xi = F.grid.axis_coordinate(0)
        dx = grid_1d.spacing[0]
        direct = dx * (np.exp(-2j * np.pi * np.outer(xi, x)) @ f.values)
        assert np.abs(F.values - direct).max() < 1e-12
        sinc = np.sinc(xi)  # sin(pi xi)/(pi xi)
        quadrature_err = np.abs(direct - sinc).max()
        assert np.abs(F.values - sinc).max() <= quadrature_err * (1 + 1e-9) + 1e-12

    def test_roundtrip(self, grid_1d, rng):
        f = SampledFunction(
            grid_1d, rng.normal(size=grid_1d.shape) + 1j * rng.normal(size=grid_1d.shape)
        )
        back = inverse_transform(fourier_transform(f))
        assert back.grid == grid_1d
        rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
        assert rel < 1e-10

    def test_triangle_spectrum_inverts_to_real_even(self):
        freq = GridSpec.uniform(1, 2.0, 1024)
        xi = freq.axis_coordinate(0)
        F = Spectrum(freq, np.maximum(0.0, 1.0 - np.abs(xi)))
        f = inverse_transform(F)
        assert np.abs(f.values.imag).max() < 1e-10
        mirrored = np.roll(f.values[::-1], 1)
        assert np.abs(f.values - mirrored).max() < 1e-10

    def test_zero_spectrum_inverts_to_zero(self, grid_1d):
        f = inverse_transform(Spectrum(grid_1d.dual(), np.zeros(grid_1d.shape)))
        assert np.all(f.values == 0)

    def test_2d_gaussian_self_dual(self, grid_2d):
        F = fourier_transform(gaussian(grid_2d))
        xs = F.grid.coordinate_grids()
        expected = np.exp(-np.pi * (xs[0] ** 2 + xs[1] ** 2))
        assert np.abs(F.values - expected).max() < 1e-8

    def test_3d_roundtrip(self, rng):
        g = GridSpec.uniform(3, 4.0, 32)
        f = SampledFunction(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        back = inverse_transform(fourier_transform(f))
        rel = np.linalg.norm((back - f).values) / np.linalg.norm(f.values)
        assert rel < 1e-10

    def test_type_errors(self, grid_1d):
        f = gaussian(grid_1d)
        with pytest.raises(TypeError):
            fourier_transform(fourier_transform(f))
        with pytest.raises(TypeError):
            inverse_transform(f)


def _shifted_transforms(shape, rng):
    """(transform, fftshift reference) pairs, forward and inverse, on random data."""
    grid = GridSpec(len(shape), (1.0,) * len(shape), shape)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    F = fourier_transform(SampledFunction(grid, x)).values
    f = inverse_transform(Spectrum(grid, x)).values
    ref_F = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(x))) * grid.cell_volume
    ref_f = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(x))) * (grid.cell_volume * grid.size)
    return [(F, ref_F), (f, ref_f)]


class TestCentredTransform:
    """The sign-modulated transform against fftshift(fftn(ifftshift(x)))."""

    @pytest.mark.parametrize("shape", [(2,), (1024,), (64, 64), (32, 32, 32)])
    def test_bit_identical_on_power_of_two_axes(self, shape, rng):
        for values, reference in _shifted_transforms(shape, rng):
            assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))

    # N = 6, 10 and 1000 are 2 (mod 4), so (-1)^(N/2) = -1 on those axes
    @pytest.mark.parametrize("shape", [(6,), (10,), (1000,), (6, 10), (12, 8, 6)])
    def test_rounding_only_on_other_even_axes(self, shape, rng):
        for values, reference in _shifted_transforms(shape, rng):
            assert np.abs(values - reference).max() <= 1e-15 * np.abs(reference).max()


@st.composite
def small_fields(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    t = draw(st.floats(min_value=0.25, max_value=8.0))
    grid = GridSpec.uniform(1, t, n)
    seed = draw(st.integers(0, 2**31 - 1))
    r = np.random.default_rng(seed)
    vals = r.normal(size=n) + 1j * r.normal(size=n)
    return SampledFunction(grid, vals)


class TestTransformInvariants:
    @settings(deadline=None)
    @given(f=small_fields())
    def test_plancherel(self, f):
        nf = lp_norm(f, 2)
        nF = lp_norm(fourier_transform(f), 2)
        assert abs(nf - nF) <= 1e-10 * nf

    @settings(deadline=None)
    @given(f=small_fields())
    def test_inversion(self, f):
        back = inverse_transform(fourier_transform(f))
        assert lp_norm(back - f, 2) <= 1e-10 * lp_norm(f, 2)

    @settings(deadline=None)
    @given(
        f=small_fields(),
        alpha=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        beta=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, f, alpha, beta, seed):
        r = np.random.default_rng(seed)
        g = SampledFunction(f.grid, r.normal(size=f.grid.shape) + 1j * r.normal(size=f.grid.shape))
        lhs = fourier_transform(alpha * f + beta * g)
        rhs_vals = alpha * fourier_transform(f).values + beta * fourier_transform(g).values
        scale = max(np.abs(rhs_vals).max(), 1.0)
        assert np.abs(lhs.values - rhs_vals).max() <= 1e-12 * scale

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5])
    def test_hausdorff_young_smooth_family(self, grid_1d, p):
        q = math.inf if p == 1.0 else p / (p - 1.0)
        for width, center in [(1.0, 0.0), (0.5, 1.0), (2.0, -3.0)]:
            f = gaussian(grid_1d, center=center, width=width)
            assert lp_norm(fourier_transform(f), q) <= (1 + 1e-6) * lp_norm(f, p)


# ---------------------------------------------------------------------------
# lp_norm
# ---------------------------------------------------------------------------


class TestLpNorm:
    def test_grid_aligned_indicator_exact(self, grid_1d):
        f = indicator(grid_1d, 0.0, 1.0)
        assert lp_norm(f, 1) == 1.0
        assert lp_norm(f, 2) == 1.0

    def test_gaussian_l2_closed_form(self, grid_1d):
        # oracle: integral of exp(-2 pi x^2) is 2^(-1/2)
        assert abs(lp_norm(gaussian(grid_1d), 2) - 2.0**-0.25) < 1e-8

    def test_sup_norm(self, grid_1d):
        f = gaussian(grid_1d)
        assert lp_norm(f, math.inf) == 1.0

    @pytest.mark.parametrize("shape", [(1024,), (64, 32), (16, 8, 12)])
    def test_p1_and_p2_are_the_plain_sums(self, shape, rng):
        # numpy's array power returns the moduli for p = 1 bit for bit; p = 2
        # takes the correctly rounded math.sqrt, not libm's ** 0.5
        grid = GridSpec(len(shape), (4.0,) * len(shape), shape)
        f = SampledFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        m = np.abs(f.values)
        vol = grid.cell_volume
        assert lp_norm(f, 1.0) == (vol * float(np.sum(m))) ** 1.0
        assert lp_norm(f, 2.0) == math.sqrt(vol * float(np.sum(m * m)))

    @pytest.mark.parametrize("p", [0.5, 0.999, -1.0, math.nan])
    def test_invalid_p_rejected(self, grid_1d, p):
        with pytest.raises(ValueError):
            lp_norm(gaussian(grid_1d), p)

    def test_intermediate_p(self, grid_1d):
        # oracle: |exp(-pi x^2)|_p = p^(-1/(2p)) from the Gaussian integral
        for p in (1.0, 1.5, 3.0):
            assert lp_norm(gaussian(grid_1d), p) == pytest.approx(p ** (-1 / (2 * p)), abs=1e-10)


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def bandlimited_positive(grid, band=4.0):
    """|h|^2 for band-limited h: positive, band-limited (doubled band), smooth."""
    freq = grid.dual()
    xi = freq.axis_coordinate(0)
    envelope = np.where(np.abs(xi) <= band, np.cos(np.pi * xi / (2 * band)) ** 2, 0.0)
    h = inverse_transform(Spectrum(freq, envelope.astype(complex)))
    return SampledFunction(grid, np.abs(h.values) ** 2)


class TestShift:
    def test_zero_offset_identity(self, grid_1d):
        f = gaussian(grid_1d)
        g = shift(f, 0.0)
        assert np.abs(g.values - f.values).max() < 1e-12

    def test_aligned_offset_is_circular_roll(self, grid_1d, rng):
        # exact DFT shift theorem at lattice points, for arbitrary samples
        f = SampledFunction(
            grid_1d, rng.normal(size=grid_1d.shape) + 1j * rng.normal(size=grid_1d.shape)
        )
        dx = grid_1d.spacing[0]
        g = shift(f, dx)
        assert np.abs(g.values - np.roll(f.values, 1)).max() < 1e-10

    def test_spectral_modulus_preserved(self, grid_1d):
        f = gaussian(grid_1d, width=1.3, center=0.7)
        for eps in (0.01, 1 / 3, 2.5):
            F = fourier_transform(f)
            G = fourier_transform(shift(f, eps))
            assert np.abs(np.abs(G.values) - np.abs(F.values)).max() < 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_norms_preserved_bandlimited(self, grid_1d, p):
        # |f|^p stays band-limited for integer p <= 4 here, so the rectangle
        # rule is exact on both sides and any offset preserves the norm.
        f = bandlimited_positive(grid_1d, band=3.0)
        g = shift(f, 0.2371)
        assert abs(lp_norm(g, p) - lp_norm(f, p)) <= 1e-8 * lp_norm(f, p)

    def test_sup_norm_preserved_for_aligned_offsets(self, grid_1d):
        f = bandlimited_positive(grid_1d)
        g = shift(f, 5 * grid_1d.spacing[0])
        assert abs(lp_norm(g, math.inf) - lp_norm(f, math.inf)) <= 1e-10

    def test_2d_offsets(self, grid_2d):
        f = gaussian(grid_2d)
        g = shift(f, (0.25, -0.5))
        expected = gaussian(grid_2d, center=(0.25, -0.5))
        assert np.abs(g.values - expected.values).max() < 1e-8

    def test_bad_offset_shape(self, grid_1d):
        with pytest.raises(ValueError):
            shift(gaussian(grid_1d), (1.0, 2.0))
