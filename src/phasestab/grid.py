"""Uniform grids, L^p quadrature, and a unitary continuous-Fourier-transform approximation.

The transform convention is

    F(xi) = integral f(x) exp(-2 pi i x.xi) dx,

the normalization under which the transform is unitary on L^2 (Plancherel with
constant 1), the Hausdorff-Young inequality holds with constant 1, and the
Gaussian exp(-pi |x|^2) is its own transform.  Discretely this is realized by a
zero-centered FFT scaled by the grid cell volume; with that scaling Plancherel
is exact up to floating-point rounding, not just up to quadrature error.

Grids cover [-T, T) per axis with an even number of points, so every grid
contains the origin and the Nyquist frequency sits at the negative end of the
dual axis.  Frequency data is always stored in physical (monotone, zero
centered) ordering.  The centring is internal to the transforms: for an even
point count N per axis, the centred transform of x is

    (-1)^(sum N/2) * s * fftn(s * x),    s[j] = (-1)^(sum j),

which equals fftshift(fftn(ifftshift(x))) bit for bit when every axis is a
power of two, and to within rounding (a few 1e-16 relative) otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "SampledFunction",
    "Spectrum",
    "fourier_transform",
    "inverse_transform",
    "lp_norm",
    "shift",
]

# Plain product of points_per_axis must stay below this; keeps a single value
# array comfortably in memory on ordinary hardware.
MAX_TOTAL_POINTS = 2**26

# Points per block of the passes that work block by block (the pair pass and
# lemma1_gap): a block's operands (about 0.5 MB) stay in cache between the
# operations on it.  On a 2.5M-point chunk of lemma1_gap 2^12 and 2^16 were
# slower.
_BLOCK = 2**14


def _index(value) -> int | None:
    """``operator.index(value)``, or None for a bool or any other non-integer."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _real(value) -> float | None:
    """``float(value)``, or None for a bool, a string, any other non-real or an
    integer too large for a double."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _reals(value, name: str, count: int | None = None) -> tuple[float, ...]:
    """A finite real or a flat sequence of them, as floats; ``count`` per axis, or one for all."""
    reals = tuple(map(_real, value)) if np.ndim(value) else (_real(value),)
    if count is not None and len(reals) == 1:
        reals *= count
    if None in reals or not all(map(math.isfinite, reals)):
        raise ValueError(f"{name} entries must be finite reals, got {value!r}")
    if count not in (None, len(reals)):
        raise ValueError(f"{name} must be a real or one value per axis, got {value!r}")
    return reals


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling lattice on [-T, T)^n shared by space and frequency domains.

    Parameters
    ----------
    dimension:
        Number of axes, between 1 and 3.
    half_extent:
        Per-axis half width T > 0; axis i covers [-T_i, T_i).
    points_per_axis:
        Per-axis even point count N_i; spacing is 2 T_i / N_i.

    The dual grid has spacing 1/(N dx) and half extent 1/(2 dx) per axis, so a
    grid and its dual describe matched space/frequency discretizations.
    ``dual()`` carries the originating extents along (a non-comparing field),
    which makes ``g.dual().dual() == g`` hold exactly rather than up to the
    rounding of two divisions.
    """

    dimension: int
    half_extent: tuple[float, ...]
    points_per_axis: tuple[int, ...]
    _dual_extent: tuple[float, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        dimension = _index(self.dimension)
        if dimension is None or not 1 <= dimension <= 3:
            raise ValueError(f"dimension must be an integer in [1, 3], got {self.dimension!r}")
        object.__setattr__(self, "dimension", dimension)
        extents = tuple(self.half_extent)
        object.__setattr__(self, "half_extent", tuple(map(_real, extents)))
        given = tuple(self.points_per_axis)
        object.__setattr__(self, "points_per_axis", tuple(map(_index, given)))
        if len(self.half_extent) != self.dimension or len(self.points_per_axis) != self.dimension:
            raise ValueError(
                "half_extent and points_per_axis must each have one entry per axis"
            )
        for t, raw in zip(self.half_extent, extents):
            if t is None or not (math.isfinite(t) and t > 0.0):
                raise ValueError(f"half_extent entries must be positive finite, got {raw!r}")
        for n, raw in zip(self.points_per_axis, given):
            if n is None or n <= 0 or n % 2 != 0:
                raise ValueError(f"points_per_axis entries must be positive and even, got {raw!r}")
        if self.size > MAX_TOTAL_POINTS:
            raise ValueError(
                f"grid with {self.size} points exceeds the supported limit {MAX_TOTAL_POINTS}"
            )

    @classmethod
    def uniform(cls, dimension: int, half_extent: float, points: int) -> "GridSpec":
        """Grid with the same extent and point count on every axis."""
        return cls(dimension, (half_extent,) * dimension, (points,) * dimension)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_axis

    @property
    def size(self) -> int:
        return math.prod(self.points_per_axis)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * t / n for t, n in zip(self.half_extent, self.points_per_axis))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Physical coordinates along one axis: (-T, ..., T - dx) through 0."""
        n = self.points_per_axis[axis]
        return (np.arange(n) - n // 2) * self.spacing[axis]

    def coordinate_grids(self) -> list[np.ndarray]:
        """Sparse (broadcastable) coordinate arrays, one per axis."""
        axes = [self.axis_coordinate(i) for i in range(self.dimension)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    def dual(self) -> "GridSpec":
        return self._dual

    # formed once per grid: the pair pass reads the dual's cell volume on every
    # call, and building and validating a GridSpec cost about 8 us
    @functools.cached_property
    def _dual(self) -> "GridSpec":
        if self._dual_extent is not None:
            dual_he = self._dual_extent
        else:
            # dual half extent 1/(2 dx) = N / (4 T); 0.25 * N is exact.
            dual_he = tuple(
                0.25 * n / t for n, t in zip(self.points_per_axis, self.half_extent)
            )
        return GridSpec(
            self.dimension, dual_he, self.points_per_axis, _dual_extent=self.half_extent
        )


@dataclass(frozen=True, eq=False)
class _GridField:
    """Complex samples attached to a grid; immutable after construction and
    C-contiguous, so ``values.reshape(-1)`` is a view.  Fields compare and hash
    by identity: equality of two sample arrays is elementwise.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, order="C")
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite sample in values (NaN or Inf)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _binary(self, other, op):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.grid != self.grid:
            raise ValueError("grid mismatch between operands")
        return type(self)(self.grid, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return type(self)(self.grid, -self.values)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return type(self)(self.grid, self.values * scalar)

    __rmul__ = __mul__


class SampledFunction(_GridField):
    """Space-domain samples of a function on a GridSpec."""


class Spectrum(_GridField):
    """Frequency-domain samples on the dual GridSpec, physical ordering."""


def _flip_signs(a: np.ndarray, parity: int) -> None:
    """Negate in place the samples of ``a`` whose index sum has the given parity."""
    for corner in itertools.product((0, 1), repeat=a.ndim):
        if sum(corner) % 2 == parity:
            view = a[tuple(slice(c, None, 2) for c in corner)]
            # 0 - x rather than -x: an exact +0 stays +0, as in the shifted FFT
            np.subtract(0.0, view, out=view)


def _centred(transform, values: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times ``transform`` over every axis of zero-centred samples.

    Returns a new array; ``values`` is read once and never written.  The
    centring is the sign modulation of the module docstring, applied to one
    copy of ``values`` through strided views, and the FFT writes into that
    same buffer.
    """
    a = np.array(values, dtype=np.complex128)
    _flip_signs(a, 1)
    transform(a, out=a)
    a *= scale
    _flip_signs(a, (1 + sum(n // 2 for n in a.shape)) % 2)
    return a


def fourier_transform(f: SampledFunction) -> Spectrum:
    """Discrete approximation of the continuous transform of ``f``.

    Returns the spectrum on the dual grid, computed as the centered FFT scaled
    by the cell volume:

        F[k] = dx^n * sum_j f[j] exp(-2 pi i x_j . xi_k).

    The round trip with :func:`inverse_transform` is exact up to rounding, and
    the L^2 quadrature norm is preserved exactly (discrete Plancherel).
    """
    if not isinstance(f, SampledFunction):
        raise TypeError("fourier_transform expects a SampledFunction")
    return Spectrum(f.grid.dual(), _centred(np.fft.fftn, f.values, f.grid.cell_volume))


def inverse_transform(spectrum: Spectrum) -> SampledFunction:
    """Inverse of :func:`fourier_transform`; lands on the dual of the spectrum grid."""
    if not isinstance(spectrum, Spectrum):
        raise TypeError("inverse_transform expects a Spectrum")
    g = spectrum.grid
    # ifftn divides by the point count; dxi^n * N^n = 1 / dx^n restores the
    # quadrature scaling of the inverse integral.
    vals = _centred(np.fft.ifftn, spectrum.values, g.cell_volume * g.size)
    return SampledFunction(g.dual(), vals)


def _lp_integrand(mags: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """The L^p integrand of moduli ``mags`` (any real array at p = 2): mags * mags
    at p = 2, mags ** p otherwise; in ``out`` when one is given."""
    if p == 2.0:
        return np.multiply(mags, mags, out=out)
    return np.power(mags, p, out=out)


def _lp_root(total: float, volume: float, p: float) -> float:
    """The L^p quadrature norm on cells of ``volume`` whose integrand sums to ``total``."""
    if p == 2.0:
        # math.sqrt is correctly rounded, libm's ** 0.5 is not
        return math.sqrt(volume * total)
    return float((volume * total) ** (1.0 / p))


def _lp_norm(mags: np.ndarray, volume: float, p: float) -> float:
    """L^p quadrature norm of moduli ``mags`` (any real array at p = 2) on cells
    of ``volume``; max for p = inf."""
    if math.isinf(p):
        return float(mags.max())
    return _lp_root(float(_lp_integrand(mags, p).sum()), volume, p)


def lp_norm(field: SampledFunction | Spectrum, p: float) -> float:
    """Rectangle-rule L^p quadrature norm, or the max of |values| for p = inf.

    Accepts any p in [1, inf].  The quadrature weight is the cell volume of the
    field's own grid, so spectra are integrated in d(xi) and functions in dx.
    """
    if not isinstance(field, _GridField):
        raise TypeError("lp_norm expects a SampledFunction or Spectrum")
    value = _real(p)
    if value is None or not value >= 1.0:
        raise ValueError(f"p must satisfy p >= 1 (or p = inf), got {p!r}")
    return _lp_norm(np.abs(field.values), field.grid.cell_volume, value)


def shift(f: SampledFunction, offset) -> SampledFunction:
    """Translate ``f`` by ``offset`` (scalar or one value per axis).

    Implemented spectrally: the spectrum is multiplied by exp(-2 pi i xi.offset)
    and transformed back, so non-grid-aligned offsets are exact for functions
    that are band-limited on the grid.  The spectrum of the result has the same
    modulus as the spectrum of ``f`` pointwise.
    """
    if not isinstance(f, SampledFunction):
        raise TypeError("shift expects a SampledFunction")
    offsets = _reals(offset, "offset", f.grid.dimension)
    spec = fourier_transform(f)
    phase = np.zeros((), dtype=float)
    for eps, xi in zip(offsets, spec.grid.coordinate_grids()):
        phase = phase + eps * xi
    shifted = Spectrum(spec.grid, spec.values * np.exp(-2j * np.pi * phase))
    return inverse_transform(shifted)
