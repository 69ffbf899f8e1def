import copy
import dataclasses
import functools
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasestab import experiments
from phasestab.experiments import gaussian
from phasestab.grid import (
    GridSpec,
    SampledFunction,
    Spectrum,
    fourier_transform,
    _BLOCK,
    _IN_PARTS,
    _TWO_THREADS_MIN_POINTS,
    _WIDE_BLOCK,
    _block,
    _centred,
    _centred_pair,
    _flip_signs,
    _in_stages,
    _run_parts,
    _run_slabs,
    _slabs,
    inverse_transform,
    lp_norm,
    shift,
)


_SMALL_2D = GridSpec.uniform(2, 8.0, 16)


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

    def test_three_fields_and_no_dual_extent(self):
        assert [f.name for f in dataclasses.fields(GridSpec)] == [
            "dimension", "half_extent", "points_per_axis",
        ]
        with pytest.raises(TypeError, match="_dual_extent"):
            GridSpec(1, (1.0,), (8,), _dual_extent=(99.0,))

    # an axis on each grid whose extent 0.25 N / (0.25 N / T) is not T
    NON_DYADIC = [
        GridSpec(1, (3.7,), (34,)),
        GridSpec(2, (3.7, 5.1), (64, 10)),
        GridSpec(3, (1.5, 2.3, 0.7), (8, 10, 6)),
    ]

    @pytest.mark.parametrize("g", NON_DYADIC, ids=["1d", "2d", "3d"])
    def test_dual_of_the_dual_is_the_grid(self, g):
        d = g.dual()
        assert g.dual() is d and d.dual() is g
        by_formula = tuple(0.25 * n / t for n, t in zip(d.points_per_axis, d.half_extent))
        assert by_formula != g.half_extent

    @pytest.mark.parametrize("g", NON_DYADIC, ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_dual_keeps_its_link_through_pickle_and_deepcopy(self, g, clone):
        d = clone(g.dual())
        assert d == g.dual()
        assert d.dual() == g
        assert d.dual().dual() == d

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

    @pytest.mark.parametrize(
        "args",
        [
            (1, 16.0, 1024),
            (1, (16.0,), 1024),
            (2, 8.0, (16, 16)),
            (1, np.float64(16.0), np.int64(1024)),
            (1, np.array(16.0), (1024,)),
        ],
    )
    def test_scalar_extent_or_count_names_uniform(self, args):
        # a scalar per-axis entry is not iterated into a TypeError
        with pytest.raises(ValueError, match=r"GridSpec\.uniform"):
            GridSpec(*args)

    @pytest.mark.parametrize(
        "grid",
        [GridSpec.uniform(1, 16.0, 1024), GridSpec(3, (1.5, 2.0, 0.7), (6, 10, 2))],
        ids=["1d", "3d"],
    )
    def test_coordinates_are_formed_once_and_read_only(self, grid):
        axes = [grid.axis_coordinate(axis) for axis in range(grid.dimension)]
        for axis, x in enumerate(axes):
            n = grid.points_per_axis[axis]
            assert np.array_equal(_bits((np.arange(n) - n // 2) * grid.spacing[axis]), _bits(x))
            assert grid.axis_coordinate(axis) is x
        with pytest.raises(ValueError, match="read-only"):
            grid.axis_coordinate(0)[0] = 1.0
        # the sparse grids are views of the same arrays, each along its axis
        meshgrid = np.meshgrid(*axes, indexing="ij", sparse=True)
        for xs, reference in zip(grid.coordinate_grids(), meshgrid, strict=True):
            assert xs.shape == reference.shape and np.array_equal(_bits(xs), _bits(reference))
            with pytest.raises(ValueError, match="read-only"):
                xs[...] = 0.0
        # a clone forms its own, read-only too
        for clone in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
            assert np.array_equal(_bits(clone.axis_coordinate(0)), _bits(axes[0]))
            with pytest.raises(ValueError, match="read-only"):
                clone.axis_coordinate(0)[0] = 1.0

    def test_numpy_integer_counts_accepted(self):
        grid = GridSpec(np.int64(2), (1.0, 1.0), (np.int64(8), np.int32(4)))
        assert (grid.dimension, grid.points_per_axis) == (2, (8, 4))
        assert type(grid.dimension) is int

    def test_real_extents_accepted(self):
        grid = GridSpec(3, (2, np.float32(1.5), np.int64(4)), (8, 8, 8))
        assert grid.half_extent == (2.0, 1.5, 4.0)
        assert all(type(t) is float for t in grid.half_extent)

    @pytest.mark.parametrize(
        "grid",
        [GridSpec.uniform(1, 16.0, 1024), GridSpec(3, (1.5, 2.0, 0.7), (6, 10, 2))],
        ids=["1d", "3d"],
    )
    def test_cached_spacing_and_volume_leave_the_spec_unchanged(self, grid):
        # spacing and cell_volume are cached on the instance once read; a spec
        # read first and one never read must be the same value in every way
        args = (grid.dimension, grid.half_extent, grid.points_per_axis)
        read, unread = GridSpec(*args), GridSpec(*args)
        spacing, volume = read.spacing, read.cell_volume
        assert read == unread
        assert hash(read) == hash(unread)
        assert repr(read) == repr(unread)
        assert dataclasses.replace(read) == unread
        wider = dataclasses.replace(read, half_extent=tuple(2.0 * t for t in grid.half_extent))
        assert wider.spacing == tuple(2.0 * dx for dx in spacing)
        assert wider.cell_volume == math.prod(wider.spacing)
        restored = pickle.loads(pickle.dumps(read))
        assert restored == unread
        assert hash(restored) == hash(unread)
        assert (restored.spacing, restored.cell_volume) == (spacing, volume)
        assert read.dual().dual() == read
        assert read.dual().dual() == unread
        assert (unread.spacing, unread.cell_volume) == (spacing, volume)

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


def _shifted_transforms(shape, rng, x=None):
    """(transform, fftshift reference) pairs, forward and inverse, on ``x``
    (random data when None)."""
    grid = GridSpec(len(shape), (1.0,) * len(shape), shape)
    if x is None:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    F = fourier_transform(SampledFunction(grid, x)).values
    f = inverse_transform(Spectrum(grid, x)).values
    ref_F = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(x))) * grid.cell_volume
    ref_f = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(x))) * (grid.cell_volume * grid.size)
    return [(F, ref_F), (f, ref_f)]


def _bits(a):
    return a.view(np.uint64)


def _centred_by_fftn(transform, values, scale):
    """The centred transform with numpy's n-D ``transform`` (np.fft.fftn or
    np.fft.ifftn) in place, where grid._centred runs the 1-D one per axis."""
    a = np.array(values, dtype=np.complex128)
    _flip_signs(a, 1)
    transform(a, out=a)
    a *= scale
    _flip_signs(a, (1 + sum(n // 2 for n in a.shape)) % 2)
    return a


class TestCentredTransform:
    """The sign-modulated transform against fftshift(fftn(ifftshift(x)))."""

    @pytest.mark.parametrize("shape", [(2,), (1024,), (64, 64), (32, 32, 32)])
    def test_bit_identical_on_power_of_two_axes(self, shape, rng):
        # random data, and an all -0 field: the one input on which flipping
        # the other parity at both ends, which negates input and output
        # alike, moves a bit (the sign of an exact zero)
        for x in (None, np.full(shape, -0.0 - 0.0j)):
            for values, reference in _shifted_transforms(shape, rng, x):
                assert np.array_equal(_bits(values), _bits(reference))

    # N = 6, 10 and 1000 are 2 (mod 4), so (-1)^(N/2) = -1 on those axes
    @pytest.mark.parametrize("shape", [(6,), (10,), (1000,), (6, 10), (12, 8, 6)])
    def test_rounding_only_on_other_even_axes(self, shape, rng):
        for values, reference in _shifted_transforms(shape, rng):
            assert np.abs(values - reference).max() <= 1e-15 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "shape", [(1024,), (32768,), (256, 256), (6, 10), (64, 64, 64), (2, 6, 10)]
    )
    @pytest.mark.parametrize(
        "axis_transform, n_transform",
        [(np.fft.fft, np.fft.fftn), (np.fft.ifft, np.fft.ifftn)],
        ids=["forward", "inverse"],
    )
    def test_per_axis_transforms_are_fftn_bit_for_bit(
        self, shape, axis_transform, n_transform, rng
    ):
        # random samples with a share of exact +0 and -0 parts, and an
        # all -0 field, whose output signs come from the FFT's own zeros
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x.real[rng.random(shape) < 0.25] = 0.0
        x.imag[rng.random(shape) < 0.25] = -0.0
        for values in (x, np.full(shape, -0.0 - 0.0j)):
            before = values.copy()
            result = _centred(axis_transform, values, 0.75)
            assert np.array_equal(_bits(values), _bits(before))
            assert not np.shares_memory(result, values)
            reference = _centred_by_fftn(n_transform, values, 0.75)
            assert np.array_equal(_bits(result), _bits(reference))


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

    @pytest.mark.parametrize("p", [0.5, 0.999, -1.0, math.nan, "2", True])
    def test_invalid_p_rejected(self, grid_1d, p):
        with pytest.raises(ValueError, match=f"p must satisfy p >= 1 .*, got {p!r}"):
            lp_norm(gaussian(grid_1d), p)

    def test_intermediate_p(self, grid_1d):
        # oracle: |exp(-pi x^2)|_p = p^(-1/(2p)) from the Gaussian integral
        for p in (1.0, 1.5, 3.0):
            assert lp_norm(gaussian(grid_1d), p) == pytest.approx(p ** (-1 / (2 * p)), abs=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_finite_norm_whose_integral_overflows(self, grid_1d):
        # |F|^2 of a 2^664 Gaussian's spectrum overflows, its L^2 norm does
        # not; the power-of-two scalings are exact, so the norm is 2^664 times
        # the unit Gaussian's, bit for bit
        unit = fourier_transform(gaussian(grid_1d))
        big = fourier_transform(gaussian(grid_1d, amplitude=2.0**664))
        assert np.array_equal(big.values, unit.values * 2.0**664)
        with np.errstate(over="ignore"):
            assert float(np.sum(np.abs(big.values) ** 2)) == math.inf
        assert lp_norm(big, 2.0) == 2.0**664 * lp_norm(unit, 2.0)
        assert lp_norm(big, 3.0) == pytest.approx(2.0**664 * lp_norm(unit, 3.0), rel=1e-14)
        F = fourier_transform(gaussian(grid_1d, amplitude=1e200))
        assert lp_norm(F, 2.0) == pytest.approx(1e200 * 2.0**-0.25, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_norm_that_overflows_still_raises(self, grid_1d):
        f = SampledFunction(grid_1d, np.full(grid_1d.shape, 1.7e308))
        with pytest.raises(ArithmeticError, match="^lp_norm is inf"):
            lp_norm(f, 2.0)


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

    @pytest.mark.parametrize(
        "offset",
        ["0.1", True, 0.1j, math.nan, [0.1, True], [0.1, 0.2, 0.3]],
        ids=["str", "bool", "complex", "nan", "list-with-bool", "wrong-length"],
    )
    def test_non_real_offset_refused(self, offset):
        # numpy would parse the string and take True as 1.0, also inside a list
        with pytest.raises(ValueError, match=f"offset .*got {re.escape(repr(offset))}"):
            shift(gaussian(_SMALL_2D), offset)

    @pytest.mark.parametrize(
        "grid, offset",
        [
            (GridSpec.uniform(1, 16.0, 64), 1e308),
            (GridSpec.uniform(1, 16.0, 64), -1e308),
            (_SMALL_2D, (0.25, 1e308)),
        ],
        ids=["1d", "1d-negative", "2d-last-axis"],
    )
    def test_offset_whose_phase_overflows_refused(self, grid, offset):
        # 2 pi offset xi past the double range: numpy warned, and the field's
        # scan then blamed the samples
        f = gaussian(grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"offset {re.escape(repr(offset))} is too large"):
                shift(f, offset)
        assert caught == []

    def test_largest_offset_whose_phase_is_finite_accepted(self):
        grid = GridSpec.uniform(1, 16.0, 64)
        dual = grid.dual()
        # |xi| at the dual axis's negative end, where the phase is largest
        edge = abs(float(dual.axis_coordinate(0)[0]))
        offset = sys.float_info.max / (2.0 * math.pi * edge) * (1.0 - 2.0**-40)
        assert math.isfinite(2.0 * math.pi * (offset * edge))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = shift(gaussian(grid), offset)
        assert caught == []
        assert np.isfinite(g.values).all()

    def test_real_offsets_accepted(self, rng):
        f = gaussian(_SMALL_2D)
        drawn = rng.uniform(-1.0, 1.0, 2)
        for offset, same in [
            (1, (1.0, 1.0)),
            (np.float64(0.25), (0.25, 0.25)),
            ([0.25], (0.25, 0.25)),
            (drawn, tuple(drawn.tolist())),
        ]:
            assert np.array_equal(shift(f, offset).values, shift(f, same).values)


# ---------------------------------------------------------------------------
# slabs and stages: the full-array formulas' bits, on two threads from the
# gate on
# ---------------------------------------------------------------------------


def _full_centred(transform, values, scale):
    """The centred transform as one serial in-place pass per axis."""
    a = np.array(values, dtype=np.complex128)
    _flip_signs(a, 1)
    for axis in reversed(range(a.ndim)):
        transform(a, axis=axis, out=a)
    a *= scale
    _flip_signs(a, (1 + sum(n // 2 for n in a.shape)) % 2)
    return a


def _separable(factors):
    """The first of the broadcastable per-axis ``factors`` and the product of
    the others (None in 1-D), formed as shift and gaussian form them."""
    first, *others = factors
    return first, functools.reduce(np.multiply, others) if others else None


def _full_shift(f, offsets):
    """shift as one full-size formula: the spectrum times the product of the
    other axes' phase factors, then times axis 0's, in that operand order."""
    dual = f.grid.dual()
    spectrum = _full_centred(np.fft.fft, f.values, f.grid.cell_volume)
    first, rest = _separable(
        [np.exp(-2j * np.pi * (eps * xi)) for eps, xi in zip(offsets, dual.coordinate_grids())]
    )
    if rest is not None:
        np.multiply(spectrum, rest, out=spectrum)
    np.multiply(spectrum, first, out=spectrum)
    return _full_centred(np.fft.ifft, spectrum, dual.cell_volume * dual.size)


def _full_gaussian(grid, centers, widths, amplitude):
    """experiments.gaussian as one full-size formula: the amplitude times the
    product of one 1-D Gaussian factor per axis."""
    first, rest = _separable(
        [np.exp(-np.pi * ((x - c) / w) ** 2) for c, w, x in zip(centers, widths, grid.coordinate_grids())]
    )
    product = first if rest is None else first * rest
    return np.array(amplitude * product, dtype=np.complex128)


# 1-D in one slab, up to exactly _BLOCK points, at the gate (1024x512),
# above it with rows of more than _BLOCK points (30x34x1002), the verify_3d
# grid, and the staged 3-D transform's shapes
PARITY_SHAPES = [
    (1024,), (16382,), (16384,), (6, 10), (256, 256), (1024, 512), (30, 34, 1002),
    (128, 128, 128),
]
# shapes that run the staged transform, all in steps of _WIDE_BLOCK points.
# 3-D: at the gate, with N/2 even, slabs of eight rows and runs of eight
# planes; N/2 odd on axes 0 and 1, slabs of 15 rows and runs of 7 planes, so
# slabs and runs start at odd indices and the last run is partial; slabs of
# 7 rows and runs of 9 planes on non-cubic axes with N/2 odd, odd and even;
# runs of 8 planes that leave a partial run of 6; and slabs of 15 rows and
# runs of 3 planes, whose two halves of 5 runs start at planes 0 and 15.
# 2-D, above the gate: N0/2 odd, slabs of 128 rows and runs of 63 columns
# that start at odd indices, the last a partial run of 8; slabs of 87 rows
# and runs of 93 columns, both starting at odd indices, with N/2 even and
# odd and partial last runs; and slabs of 16 rows and runs of 504 columns
# with a partial last run of 2
STAGED_SHAPES = [
    (64, 64, 128), (130, 66, 64), (70, 90, 100), (128, 70, 64), (128, 28, 150),
    (1026, 512), (700, 750), (130, 4034),
]
PARITY_SHAPES += STAGED_SHAPES
AMPLITUDES = [pytest.param(1.3, id="real"), pytest.param(1.2 * np.exp(0.7j), id="complex")]


@pytest.mark.parametrize("amplitude", AMPLITUDES)
@pytest.mark.parametrize("shape", PARITY_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_slabs_and_stages_keep_the_full_formulas_bits(shape, amplitude):
    n = len(shape)
    grid = GridSpec(n, (8.0, 6.0, 4.0)[:n], shape)
    centers, widths = (0.3, -0.2, 0.1)[:n], (1.1, 0.9, 1.2)[:n]
    offsets = (0.05, -0.013, 0.21)[:n]
    values = _full_gaussian(grid, centers, widths, amplitude)
    assert np.array_equal(_bits(gaussian(grid, centers, widths, amplitude).values), _bits(values))
    f = SampledFunction(grid, values)
    assert np.array_equal(_bits(shift(f, offsets).values), _bits(_full_shift(f, offsets)))
    assert np.array_equal(
        _bits(fourier_transform(f).values),
        _bits(_full_centred(np.fft.fft, values, grid.cell_volume)),
    )
    dual = grid.dual()
    assert np.array_equal(
        _bits(inverse_transform(Spectrum(dual, values)).values),
        _bits(_full_centred(np.fft.ifft, values, dual.cell_volume * dual.size)),
    )


@pytest.mark.parametrize("amplitude", AMPLITUDES)
@pytest.mark.parametrize(
    "shape",
    [(2,), (1024,), (16384,), (6, 10), (256, 256), (64, 32, 34), (1024, 512)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_pair_transform_keeps_each_fields_bits(shape, amplitude):
    # below the gate f and g are the rows of one batched transform, from it
    # on each is a lone one; g = -f has a negative zero in every imaginary
    # part, whose sign a flip across the rows would move
    n = len(shape)
    grid = GridSpec(n, (8.0, 6.0, 4.0)[:n], shape)
    f = _full_gaussian(grid, (0.3, -0.2, 0.1)[:n], (1.1, 0.9, 1.2)[:n], amplitude)
    for g in (-f, np.zeros(shape, dtype=np.complex128), f):
        F, G = _centred_pair(f, g, grid.cell_volume)
        assert F.shape == G.shape == (grid.size,)
        assert np.array_equal(_bits(F), _bits(_full_centred(np.fft.fft, f, grid.cell_volume).reshape(-1)))
        assert np.array_equal(_bits(G), _bits(_full_centred(np.fft.fft, g, grid.cell_volume).reshape(-1)))


@pytest.mark.parametrize("seed", range(4))
def test_row_sums_are_each_rows_sum(seed):
    # a standing rule of the blocked sums: np.sum over axis 1 of C-contiguous
    # rows of 2^14 points gives each row's own np.sum, bit for bit
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 64))
    a = rng.standard_normal((rows, _BLOCK)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
    assert np.array_equal(_bits(a.sum(axis=1)), _bits(np.array([row.sum() for row in a])))


@pytest.mark.parametrize(
    "shape",
    [(2,), (16384,), (16386,), (6, 10), (256, 256), (258, 256), (30, 34, 1002), (128, 128, 128)],
)
def test_slabs_cover_axis_0_in_order(shape):
    slabs = _slabs(shape)
    row = math.prod(shape[1:])
    starts = [s.start for s in slabs]
    stops = [min(s.stop, shape[0]) for s in slabs]
    assert starts + [shape[0]] == [0] + stops
    sizes = [(stop - start) * row for start, stop in zip(starts, stops)]
    assert all(size <= max(_block(math.prod(shape)), row) for size in sizes)


def test_steps_are_wider_from_the_gate_on():
    # below the gate every step has at most _BLOCK points, from it on
    # _WIDE_BLOCK: the blocks of a sum, the slabs and stage B's runs
    assert (_BLOCK, _WIDE_BLOCK) == (2**14, 2**16)
    below = _TWO_THREADS_MIN_POINTS - 8
    assert _block(below) == 2**14 and _block(_TWO_THREADS_MIN_POINTS) == 2**16
    assert max(s.stop - s.start for s in _slabs((below,))) == 2**14
    assert [s.stop - s.start for s in _slabs((_TWO_THREADS_MIN_POINTS,))] == [2**16] * 8
    assert len(_slabs((64, 64, 64))) == 16 and len(_slabs((1024, 256))) == 16
    shape = (128, 128, 128)
    assert [s.stop - s.start for s in _slabs((math.prod(shape),))] == [2**16] * 32
    assert [(s.start, s.stop) for s in _slabs(shape)] == [(i, i + 4) for i in range(0, 128, 4)]
    # 32 slabs of 4 rows transformed along axes 2 and 1, then 32 runs of 4
    # planes along axis 0; at 1024x512, 8 slabs of 128 rows along axis 1,
    # then 8 runs of 64 columns along axis 0.  Each stage's steps run on two
    # threads, so its calls are compared as a multiset
    for shape, stage_a, stage_b in [
        (shape, [(2, (4, 128, 128)), (1, (4, 128, 128))] * 32, [(0, (128, 4, 128))] * 32),
        ((1024, 512), [(1, (128, 512))] * 8, [(0, (1024, 64))] * 8),
    ]:
        calls = []

        def fft(a, axis, out):
            calls.append((axis, a.shape))
            return np.fft.fft(a, axis=axis, out=out)

        assert _in_stages(shape)
        _centred(fft, np.zeros(shape, dtype=np.complex128), 1.0)
        assert Counter(calls[: len(stage_a)]) == Counter(stage_a)
        assert Counter(calls[len(stage_a) :]) == Counter(stage_b)


def test_slabs_are_cached_per_shape():
    assert _slabs((256, 256)) is _slabs((256, 256))
    assert _slabs((1024,)) is _slabs((1024,))


@pytest.mark.usefixtures("no_thread_outlives_the_call")
@pytest.mark.parametrize("count", [2, 3, 33])
def test_run_parts_gives_the_worker_the_second_half(count):
    parts = tuple(range(count))
    caller = threading.current_thread()

    def step(part):
        return part, threading.current_thread()

    results = _run_parts(step, parts, _TWO_THREADS_MIN_POINTS)
    assert [part for part, _ in results] == list(parts)
    assert [part for part, thread in results if thread is not caller] == list(parts[count // 2 :])


@pytest.mark.usefixtures("no_thread_outlives_the_call")
def test_a_part_runs_its_own_parts_on_its_thread_in_order(executors):
    def inner(part):
        return part, threading.current_thread()

    def outer(start):
        parts = (start, start + 1, start + 2)
        return threading.current_thread(), _run_parts(inner, parts, _TWO_THREADS_MIN_POINTS)

    results = _run_parts(outer, (0, 10), _TWO_THREADS_MIN_POINTS)
    assert executors["opened"] == 1 and executors["most"] == 1
    assert len({thread for thread, _ in results}) == 2
    for start, (thread, inner_results) in zip((0, 10), results):
        assert inner_results == [(start + k, thread) for k in range(3)]


def test_in_parts_reads_false_after_a_call_returns_or_raises():
    assert _IN_PARTS.get() is False
    assert _run_parts(lambda _: _IN_PARTS.get(), (0, 1), _TWO_THREADS_MIN_POINTS) == [True, True]
    assert _IN_PARTS.get() is False

    def fail(part):
        raise LookupError(part)

    with pytest.raises(LookupError):
        _run_parts(fail, (0, 1), _TWO_THREADS_MIN_POINTS)
    assert _IN_PARTS.get() is False
    below = _run_parts(lambda _: _IN_PARTS.get(), (0, 1), _TWO_THREADS_MIN_POINTS - 1)
    assert below == [False, False]


@pytest.mark.usefixtures("no_thread_outlives_the_call")
def test_a_thread_started_in_a_part_keeps_its_worker(executors):
    # a new thread starts in a context of its own, where no part is running
    seen = []

    def calls():
        caller = threading.current_thread()
        first, second = _run_parts(
            lambda _: threading.current_thread(), (0, 1), _TWO_THREADS_MIN_POINTS
        )
        seen.append((first is caller, second is not caller))

    def part(_):
        thread = threading.Thread(target=calls)
        thread.start()
        thread.join()

    _run_parts(part, (None,), _TWO_THREADS_MIN_POINTS)
    assert seen == [(True, True)]
    assert executors["opened"] == 2 and executors["most"] == 2


@pytest.mark.usefixtures("no_thread_outlives_the_call")
@pytest.mark.parametrize(
    "shape", [(256, 256), (1024, 512), (30, 34, 1002)], ids=["below", "at", "above"]
)
def test_second_half_of_the_slabs_on_one_worker_from_the_gate(shape):
    seen = []
    lock = threading.Lock()

    def step(s):
        with lock:
            seen.append((s.start, threading.current_thread()))

    _run_slabs(step, shape)
    seen.sort(key=lambda start_thread: start_thread[0])
    assert [start for start, _ in seen] == [s.start for s in _slabs(shape)]
    threads = [thread for _, thread in seen]
    half = len(threads) // 2
    assert all(thread is threading.current_thread() for thread in threads[:half])
    if math.prod(shape) < _TWO_THREADS_MIN_POINTS:
        assert all(thread is threading.current_thread() for thread in threads)
    else:
        assert len(set(threads[half:])) == 1 and threads[-1] is not threading.current_thread()


# 525312 points, above the gate
ABOVE_THE_GATE = GridSpec(2, (8.0, 8.0), (1026, 512))


@pytest.mark.usefixtures("no_thread_outlives_the_call")
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f: shift(f, (0.1, -0.05)), id="shift"),
        pytest.param(lambda f: gaussian(f.grid, 0.2, 0.9, 0.5j), id="gaussian"),
        pytest.param(fourier_transform, id="fourier_transform"),
        pytest.param(
            lambda f: inverse_transform(Spectrum(f.grid, f.values)), id="inverse_transform"
        ),
    ],
)
def test_no_worker_outlives_a_lone_call_nor_nests(call, executors):
    values = _full_gaussian(ABOVE_THE_GATE, (0.1, 0.2), (1.0, 1.0), 1.0)
    call(SampledFunction(ABOVE_THE_GATE, values))
    assert executors["opened"] >= 1
    assert executors["most"] == 1 and executors["workers"] == 1


# ---------------------------------------------------------------------------
# the staged transform and fields that own their buffers
# ---------------------------------------------------------------------------


def _in_a_part(call):
    """``call()`` run as the one part of a two-thread ``_run_parts`` call, as
    the pair pass runs F and G: every ``_run_parts`` call it makes runs here."""
    return _run_parts(lambda _: call(), (None,), _TWO_THREADS_MIN_POINTS)[0]


@pytest.mark.parametrize("shape", STAGED_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("transform", [np.fft.fft, np.fft.ifft], ids=["forward", "inverse"])
@pytest.mark.parametrize("in_a_part", [True, False], ids=["one-thread", "two-threads"])
def test_staged_transform_is_the_whole_array_path_bit_for_bit(shape, transform, in_a_part, rng):
    assert _in_stages(shape) and not _in_stages((math.prod(shape),))
    assert not _in_stages((512, 512)) and not _in_stages((32, 64, 128))
    run = _in_a_part if in_a_part else (lambda call: call())
    # random samples with a share of exact +0 and -0 parts, and an all -0
    # field, whose output signs come from the FFT's own zeros
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x.real[rng.random(shape) < 0.25] = 0.0
    x.imag[rng.random(shape) < 0.25] = -0.0
    for values in (x, np.full(shape, -0.0 - 0.0j)):
        before = values.copy()
        result = run(lambda: _centred(transform, values, 0.75))
        assert np.array_equal(_bits(values), _bits(before))
        assert np.array_equal(_bits(result), _bits(_full_centred(transform, values, 0.75)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "shape",
    [(64, 64, 128), (32, 64, 128), (1024,)],
    ids=["staged", "below-the-gate", "one-dimensional"],
)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(fourier_transform, id="fourier_transform"),
        pytest.param(lambda f: inverse_transform(Spectrum(f.grid, f.values)), id="inverse_transform"),
        pytest.param(lambda f: shift(f, (0.1, 0.2, 0.3)[: f.grid.dimension]), id="shift"),
    ],
)
def test_transform_whose_spectrum_overflows_is_refused(shape, call):
    # the DC sum of 1e308 at every point overflows inside the FFT; the
    # finiteness check refuses it, and numpy warns nothing first
    grid = GridSpec(len(shape), (8.0,) * len(shape), shape)
    f = SampledFunction(grid, np.full(shape, 1e308 + 0j))
    with pytest.raises(ValueError, match="non-finite sample"):
        call(f)


class TestOwnedBuffers:
    GRID = GridSpec(2, (4.0, 4.0), (8, 6))

    @pytest.mark.parametrize("cls", [SampledFunction, Spectrum])
    def test_own_keeps_the_buffer_read_only(self, cls):
        buf = np.arange(48, dtype=np.complex128).reshape(8, 6)
        field = cls._own(self.GRID, buf)
        assert type(field) is cls and field.grid is self.GRID
        assert field.values is buf and not buf.flags.writeable

    def test_own_refuses_a_non_finite_sample(self):
        buf = np.ones((8, 6), dtype=np.complex128)
        buf[3, 2] = complex(0.0, math.inf)
        with pytest.raises(ValueError, match="non-finite sample"):
            SampledFunction._own(self.GRID, buf)

    @pytest.mark.parametrize("shape", [(6, 8), (48,), (8, 6, 1)])
    def test_own_refuses_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="does not match grid shape"):
            SampledFunction._own(self.GRID, np.ones(shape, dtype=np.complex128))

    def test_public_constructor_still_copies(self):
        arr = np.ones((8, 6), dtype=np.complex128)
        f = SampledFunction(self.GRID, arr)
        arr[0, 0] = 7.0
        assert f.values is not arr and arr.flags.writeable
        assert np.all(f.values == 1.0)

    @pytest.mark.filterwarnings("error")
    def test_arithmetic_results_are_checked(self):
        f = SampledFunction(self.GRID, np.full((8, 6), 1e308))
        with pytest.raises(ValueError, match="non-finite sample"):
            f + f
        with pytest.raises(ValueError, match="non-finite sample"):
            f - (-f)
        with pytest.raises(ValueError, match="non-finite sample"):
            f * 10.0
        with pytest.raises(ValueError, match="non-finite sample"):
            10.0 * f
        g = -f
        assert np.all(g.values == -1e308) and not g.values.flags.writeable


def test_gaussian_refuses_a_non_finite_slab(monkeypatch):
    # a NaN coordinate in the last row makes the last slab alone non-finite:
    # the field's scan must cover every slab
    grid = GridSpec.uniform(2, 8.0, 256)
    coordinate_grids = GridSpec.coordinate_grids

    def faulty(self):
        x, *rest = coordinate_grids(self)
        x = x.copy()
        x[-1] = np.nan
        return [x, *rest]

    monkeypatch.setattr(GridSpec, "coordinate_grids", faulty)
    assert len(_slabs(grid.shape)) > 1
    with pytest.raises(ValueError, match="non-finite sample"):
        gaussian(grid)


# at 64x128x128 a full-size complex array is 16 MiB; eight slab-sized complex
# arrays (8 MiB, steps of _WIDE_BLOCK points) cover the per-thread scratch of
# both stages and stay below a second full-size array
FULL_SIZE_GRID = GridSpec(3, (8.0, 8.0, 8.0), (64, 128, 128))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f: gaussian(f.grid, 0.1, 1.2, 0.5j), id="gaussian"),
        pytest.param(lambda f: shift(f, (0.01, 0.02, -0.03)), id="shift"),
        pytest.param(fourier_transform, id="fourier_transform"),
    ],
)
def test_field_producers_hold_one_full_size_buffer(call):
    f = gaussian(FULL_SIZE_GRID, width=1.1)
    full = FULL_SIZE_GRID.size * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        out = call(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.values.nbytes == full
    assert peak <= full + 8 * _block(FULL_SIZE_GRID.size) * 16
