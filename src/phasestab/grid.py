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
power of two, and to within rounding (a few 1e-16 relative) otherwise.  The
fftn is the 1-D transform applied in place once per axis, last axis first:
the calls numpy's own fftn makes, without its per-call argument handling.
Every transform runs through one routine, ``_centred_in_place``, whose
caller's fill writes the input into the buffer: a copy of the samples, or
``shift``'s phase product.  A 1-D transform, and any below the two-thread
gate, is filled by one call and makes one whole-array pass per step on the
calling thread.  A 2-D or 3-D transform from the gate on, the pair pass's
included, runs in two cache-sized stages: each slab of axis-0 rows is
filled, sign-flipped and transformed along every other axis, then each run
of axis-1 indices is gathered, transformed along axis 0, scaled, flipped
and scattered back.  Either way every line gets the same FFT call and every
sample the same scaling and negation, so the bits are the same.  Below the
gate the pair pass's f and g are the two rows of one buffer, filled,
flipped, transformed, scaled and flipped by one such call
(``_centred_pair``): a batched FFT over rows gives each row the bits of its
own transform.

The library's elementwise passes over large arrays (the pair pass, the
spectrum helpers and lemma1_gap) run through one block runner,
``_run_blocks``: consecutive blocks of ``_block(size)`` points, the last one
partial, each with the operations of one full-size pass.  A block returns
the np.sum of its part of an integrand, and ``_sum_blocks``, the one
function that adds them, takes their ``math.fsum``: an integral is correctly
rounded over its block sums, whatever their grouping and whichever thread
summed each, and one of at most ``_BLOCK`` points is one np.sum.
experiments.gaussian builds its field in slabs of axis-0 rows
(``_run_slabs``; the blocks are the slabs of a 1-D array), and ``shift``
modulates its spectrum as the inverse transform's fill, each from one 1-D
factor per axis.  ``_block`` is the one owner of the step size of blocks,
slabs and stage B's runs of planes: ``_BLOCK`` below the two-thread gate
and four times that, ``_WIDE_BLOCK``, from it on, so two threads make fewer
numpy calls, each of which gives up the GIL and takes it back.  The
two builders, the transforms, io.load_field and the field arithmetic hand
the fresh buffer they wrote to the field they return without a copy
(``_GridField._own``), which scans it for finiteness once, as the public
constructor scans its copy: ``_GridField._take`` alone judges that.  The
transforms, ``shift`` and the field arithmetic run with numpy's overflow
warnings silenced, so a result that overflows prints no warning and is
refused by that judge alone, as a ValueError.  One
function, ``_run_parts``, runs the parts of every blocked pass, slab pass,
stage and, from the gate on, the pair pass's two transforms, and alone
decides, from the size it is given and whether it runs inside a part,
whether a worker thread takes the second half of the parts.  Each grid forms its coordinate arrays
once, read-only (``GridSpec.axis_coordinate``), as it forms its spacing and
its dual.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

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

# Most points per step of a pass below the two-thread gate (see _block): per
# block of the passes that run through _run_blocks (the pair pass, the
# spectrum helpers and lemma1_gap) and per slab.  A block's operands (about
# 0.5 MB) stay in cache between the operations on it.
# _WIDE_BLOCK at every size made a 256^2 pass's blocks full-size temporaries
# and raised cli_roundtrip_2d's peak RSS from 52.3 to 53.7 MiB.
_BLOCK = 2**14

# Most points per step from the two-thread gate on.  Every numpy call of a
# step gives up the GIL and takes it back, and a staged 128^3 transform in
# 2^14-point steps made about 1900 calls, so two threads did not use both
# CPUs: at 128^3 the pair pass's F and G took 79-93 ms on two threads
# against 59-72 ms for one staged transform on one (medians of 15 calls in
# three processes), and 70-83 ms in 2^16-point steps.  verify_3d's op took a
# median 94.6 ms in 2^16-point steps, 103.7 ms in 2^15 and 102.3 ms in 2^17.
_WIDE_BLOCK = 2**16

# From this many points on, a pass splits its work between two threads (see
# _run_parts) and takes wider steps (see _block); numpy's FFT and ufunc loops
# release the GIL.  Each split opens and closes its own one-worker executor,
# about 0.14 ms.  Time of one evaluate_theorem, two threads over one, on a
# 2-CPU host; below the gate, in 2^14-point steps (medians of 5-30 calls,
# 6-14 rounds): 1.90-2.40 at 2^14 points, 1.71-1.92 at 2^15, 1.27-1.36 at
# 256^2, 1.10-1.46 at 512 x 256, 0.88-1.38 at 512^2 and 0.54-1.25 at 64^3
# (two rounds of 28 won); from the gate on, in 2^16-point steps on both
# (medians of 5-30 calls, 6 rounds): 0.47-0.55 at 2^19 in 1-D, 0.50-0.65 at
# 1024 x 512, 0.61-0.85 at 64 x 64 x 128, 0.47-0.66 at 1024^2 and 0.53-0.78
# at 128^3, 2-D and 3-D staged on both.  Against one thread in 2^14-point
# steps, unstaged, which a higher gate would run, two threads read 0.42-0.78
# at those sizes.
_TWO_THREADS_MIN_POINTS = 2**19


def _block(size: int) -> int:
    """Most points per step of a pass over ``size`` points: ``_BLOCK`` below
    the two-thread gate, ``_WIDE_BLOCK`` from it on."""
    return _WIDE_BLOCK if size >= _TWO_THREADS_MIN_POINTS else _BLOCK


# True while the parts of a two-thread _run_parts call run, on both threads:
# a split nested inside each of the pair pass's F and G made 128^3 slower
# (97-108 ms against 81-90 ms)
_IN_PARTS = contextvars.ContextVar("phasestab_in_parts", default=False)


def _run_parts(step, parts, size: int) -> list:
    """``step(part)`` for each of ``parts``, in order; their results.  From
    ``_TWO_THREADS_MIN_POINTS`` points of work (``size``) on, the second half
    of the parts, ``parts[len(parts) // 2:]``, runs on a one-worker executor,
    opened and closed here, while this thread runs the first; below that, or
    inside a part of such a call, all run here, in order.

    The worker runs in a copy of this thread's context, taken once
    ``_IN_PARTS`` is set, so a caller's np.errstate holds there and a part's
    own calls open no second worker; its exception is raised here.  A thread
    that a part starts has a context of its own, and its calls keep their
    worker.  No thread outlives the call.
    """
    if size < _TWO_THREADS_MIN_POINTS or _IN_PARTS.get():
        return list(map(step, parts))
    # imported here: concurrent.futures adds about 5 ms to the package's
    # import, which runs that stay below the gate should not pay
    from concurrent.futures import ThreadPoolExecutor

    middle = len(parts) // 2
    token = _IN_PARTS.set(True)
    try:
        with ThreadPoolExecutor(1, thread_name_prefix="phasestab") as worker:
            second = worker.submit(contextvars.copy_context().run, list, map(step, parts[middle:]))
            return list(map(step, parts[:middle])) + second.result()
    finally:
        _IN_PARTS.reset(token)


# bounded: lemma1_gap takes arrays of any size, and a slab pass runs on
# every gaussian and shift
@functools.lru_cache(maxsize=64)
def _slabs(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Runs of axis-0 rows of an array of ``shape``, in order, each of at most
    ``_block`` points of the array (one row where a row alone has more)."""
    rows = max(1, _block(math.prod(shape)) // math.prod(shape[1:]))
    starts = range(0, shape[0], rows)
    return tuple(slice(start, min(start + rows, shape[0])) for start in starts)


def _run_slabs(step, shape: tuple[int, ...]) -> list:
    """``step(s)`` for each slab ``s`` of ``_slabs(shape)``, an index of axis
    0; their results, in slab order."""
    return _run_parts(step, _slabs(shape), math.prod(shape))


def _run_blocks(step, size: int) -> list:
    """``step(s)`` for each block ``s`` of range(size), the slabs of
    ``(size,)``: ``_block(size)`` points each but the last; their results,
    in block order."""
    return _run_slabs(step, (size,))


def _fsum(sums) -> float:
    """``math.fsum`` of the nonnegative ``sums``, or inf where their total
    overflows although each is finite (fsum raises there, and a report must
    name the field that overflowed)."""
    try:
        return math.fsum(sums)
    except OverflowError:
        return math.inf


def _sum_blocks(step, size: int):
    """The sum over range(size) of a nonnegative integrand whose np.sum over
    block ``s`` of ``_run_blocks`` is ``step(s)``: the ``math.fsum`` of the
    blocks' sums, correctly rounded over them, so it depends neither on how
    they are grouped nor on the thread that summed each.  A lone block's sum
    is returned as it is (the fsum of one value is that value).  A step that
    returns the np.sums of several integrands as one float64 array gets an
    array of their sums.  0.0 for no points."""
    sums = _run_blocks(step, size)
    if len(sums) == 1:
        return sums[0]
    if sums and np.ndim(sums[0]):
        return np.array([_fsum(column) for column in zip(*sums)])
    return _fsum(sums)


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
    grid and its dual describe matched space/frequency discretizations.  A
    dual links back to the grid it was formed from, so ``g.dual().dual() is
    g`` holds exactly rather than up to the rounding of two divisions.
    """

    dimension: int
    half_extent: tuple[float, ...]
    points_per_axis: tuple[int, ...]

    def __post_init__(self) -> None:
        dimension = _index(self.dimension)
        if dimension is None or not 1 <= dimension <= 3:
            raise ValueError(f"dimension must be an integer in [1, 3], got {self.dimension!r}")
        object.__setattr__(self, "dimension", dimension)
        try:
            extents, given = tuple(self.half_extent), tuple(self.points_per_axis)
        except TypeError:
            raise ValueError(
                "half_extent and points_per_axis must be sequences with one entry per axis, "
                f"got {self.half_extent!r} and {self.points_per_axis!r}; "
                "GridSpec.uniform takes one value for every axis"
            ) from None
        object.__setattr__(self, "half_extent", tuple(map(_real, extents)))
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

    # formed once per grid, as _dual is: every transform and norm reads them
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * t / n for t, n in zip(self.half_extent, self.points_per_axis))

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    # formed once per grid and read-only, so every caller shares them: the
    # builders, shift and the pair families read them on every field
    @functools.cached_property
    def _coordinates(self) -> tuple[np.ndarray, ...]:
        axes = tuple(
            (np.arange(n) - n // 2) * dx for n, dx in zip(self.points_per_axis, self.spacing)
        )
        for x in axes:
            x.flags.writeable = False
        return axes

    def __getstate__(self) -> dict:
        # a pickled or copied array comes back writable: a clone forms its own
        return {k: v for k, v in self.__dict__.items() if k != "_coordinates"}

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Physical coordinates along one axis: (-T, ..., T - dx) through 0.
        The grid's own read-only array."""
        return self._coordinates[axis]

    def coordinate_grids(self) -> list[np.ndarray]:
        """Sparse (broadcastable) coordinate arrays, one per axis: read-only
        views of the axis coordinates, each along its own axis."""
        ones = (1,) * self.dimension
        return [
            x.reshape(ones[:i] + (-1,) + ones[i + 1 :]) for i, x in enumerate(self._coordinates)
        ]

    def dual(self) -> "GridSpec":
        return self._dual

    # formed once per grid: the pair pass reads the dual's cell volume on every
    # call, and building and validating a GridSpec cost about 8 us
    @functools.cached_property
    def _dual(self) -> "GridSpec":
        # dual half extent 1/(2 dx) = N / (4 T); 0.25 * N is exact.
        extents = tuple(0.25 * n / t for n, t in zip(self.points_per_axis, self.half_extent))
        dual = GridSpec(self.dimension, extents, self.points_per_axis)
        dual.__dict__["_dual"] = self
        return dual


def _all_finite(a: np.ndarray) -> bool:
    """Whether every sample of the C-contiguous complex128 ``a`` is finite:
    isfinite on its float64 view, which scans twice as fast as on complex."""
    return bool(np.isfinite(a.view(np.float64)).all())


@dataclass(frozen=True, eq=False)
class _GridField:
    """Complex samples attached to a grid; immutable after construction and
    C-contiguous, so ``values.reshape(-1)`` is a view.  Fields compare and hash
    by identity: equality of two sample arrays is elementwise.

    The public constructor copies its array, which the caller may still
    write.  The library's own producers hand over a fresh buffer that no one
    else holds through ``_own``, which keeps it: at 128^3 a copy is a second
    32 MiB array.  Both check the shape and that every sample is finite
    (``_take``, the one place that judges it), and mark the array read-only.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        # the caller may still hold and write the array it passed in
        self._take(np.array(self.values, dtype=np.complex128, order="C"))

    @classmethod
    def _own(cls, grid: GridSpec, buffer: np.ndarray):
        """A field that keeps ``buffer``, a fresh array that no one else holds,
        without copying it (converted only if it is not C-contiguous
        complex128, which no producer in the library hands over)."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._take(np.asarray(buffer, dtype=np.complex128, order="C"))
        return field

    def _take(self, vals: np.ndarray) -> None:
        """Check ``vals``' shape and that every sample is finite, mark it
        read-only and keep it: the one judge of a field's finiteness."""
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not _all_finite(vals):
            raise ValueError("non-finite sample in values (NaN or Inf)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @np.errstate(over="ignore", invalid="ignore")
    def _binary(self, other, op):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.grid != self.grid:
            raise ValueError("grid mismatch between operands")
        return self._own(self.grid, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return self._own(self.grid, -self.values)

    @np.errstate(over="ignore", invalid="ignore")
    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self._own(self.grid, self.values * scalar)

    __rmul__ = __mul__


class SampledFunction(_GridField):
    """Space-domain samples of a function on a GridSpec."""


class Spectrum(_GridField):
    """Frequency-domain samples on the dual GridSpec, physical ordering."""


@functools.cache
def _corners(ndim: int, parity: int, rows: bool = False) -> tuple[tuple[slice, ...], ...]:
    """The strided index tuples, one per corner of the unit cell, that select
    the samples of an ``ndim``-axis array whose index sum has the given
    parity; with ``rows``, axis 0 indexes rows that are each selected alike,
    and the sum runs over the other axes."""
    return tuple(
        (slice(None),) * rows + tuple(slice(c, None, 2) for c in corner)
        for corner in itertools.product((0, 1), repeat=ndim - rows)
        if sum(corner) % 2 == parity
    )


def _flip_signs(a: np.ndarray, parity: int, rows: bool = False) -> None:
    """Negate in place the samples of ``a`` whose index sum has the given
    parity; with ``rows``, in each row along axis 0 (``_corners``)."""
    for corner in _corners(a.ndim, parity, rows):
        view = a[corner]
        # 0 - x rather than -x: an exact +0 stays +0, as in the shifted FFT
        np.subtract(0.0, view, out=view)


def _in_stages(shape: tuple[int, ...]) -> bool:
    """Whether a centred transform of ``shape`` runs in two stages
    (``_centred_in_place``): 2-D or 3-D, from the two-thread gate on.  Below
    the gate a lone staged transform was 12-20 % slower than the whole-array
    passes at 256^2 and 32^3, and about 3 % faster at 512^2."""
    return len(shape) > 1 and math.prod(shape) >= _TWO_THREADS_MIN_POINTS


def _centred_in_place(transform, a: np.ndarray, scale: float, fill, rows: bool = False) -> None:
    """``scale`` times the 1-D ``transform`` (np.fft.fft or np.fft.ifft) over
    every axis of the zero-centred complex128 samples that ``fill(s)`` writes
    into ``a``, written over ``a``; ``s`` is ``slice(None)`` or a slab of
    ``_slabs``, an index of axis 0.  With ``rows``, axis 0 of ``a`` indexes
    arrays of the other axes' shape, below the gate, each transformed on
    its own.

    The centring is the sign modulation of the module docstring, applied
    through strided views, and each axis's FFT writes into the same buffer,
    last axis first as in np.fft.fftn, which gives fftn's bits.  A 1-D
    array, or any below the gate, is filled by one call and then makes one
    whole-array pass per step on this thread: the input flip, one FFT per
    axis, the scaling and the output flip.  With ``rows`` each pass covers
    every row, and a batched FFT over rows gives each row the bits of its
    own transform.

    A 2-D or 3-D array from the gate on runs in two cache-sized stages.
    Stage A, for each slab ``s`` of ``_slabs``: ``fill(s)`` writes the slab,
    its input signs are flipped and the FFT runs along every axis but 0,
    last axis first, while it is in cache.  Stage B, for each run ``s`` of
    axis-1 indices (the slabs of ``a`` with axes 0 and 1 swapped, as wide as
    stage A's): ``a[:, s]`` is gathered into a contiguous scratch array,
    transformed along axis 0, scaled, its output signs flipped (a run
    starting at an odd index flips the local parity) and scattered back.
    Every line gets the FFT call of the whole-array path, in fftn's axis
    order, and every sample the same scaling and negation, so the bits are
    the same.  Each stage is one ``_run_slabs`` call, so a lone transform
    gives the second half of its parts to a worker and the pair pass's F and
    G, each already a part, run them in order.
    """
    # the index-sum parity of the samples that the output flip negates:
    # (-1)^(1 + sum N/2) of the module docstring
    shape = a.shape[rows:]
    parity = (1 + sum(n // 2 for n in shape)) % 2
    if not _in_stages(shape):
        fill(slice(None))
        _flip_signs(a, 1, rows)
        for axis in reversed(range(rows, a.ndim)):
            transform(a, axis=axis, out=a)
        a *= scale
        _flip_signs(a, parity, rows)
        return

    def slab_of_rows(s):
        fill(s)
        slab = a[s]
        # a slab starting at an odd row flips the local parity
        _flip_signs(slab, (1 + s.start) % 2)
        for axis in reversed(range(1, a.ndim)):
            transform(slab, axis=axis, out=slab)

    def planes(s):
        scratch = a[:, s].copy()
        transform(scratch, axis=0, out=scratch)
        scratch *= scale
        _flip_signs(scratch, (parity + s.start) % 2)
        a[:, s] = scratch

    _run_slabs(slab_of_rows, a.shape)
    _run_slabs(planes, (a.shape[1], a.shape[0], *a.shape[2:]))


def _centred(transform, values: np.ndarray, scale: float) -> np.ndarray:
    """``_centred_in_place`` on a fresh complex128 array whose fill copies
    ``values``, which is read once and never written: the copy.  Below the
    gate the fill is one whole-array copy, on a staged grid one slab at a
    time in stage A."""
    a = np.empty(values.shape, dtype=np.complex128)

    def copy(s):
        a[s] = values[s]

    _centred_in_place(transform, a, scale, copy)
    return a


def _centred_pair(f: np.ndarray, g: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The forward centred transforms of the same-shaped ``f`` and ``g``,
    scaled by ``scale``, flat, in fresh memory.  Below the two-thread gate
    they are the two rows of one ``(2, *shape)`` buffer, filled and
    transformed by one batched ``_centred_in_place`` call; from the gate on
    each is a ``_centred`` part of one ``_run_parts`` call, so G is a
    worker's."""
    if f.size >= _TWO_THREADS_MIN_POINTS:
        F, G = _run_parts(lambda v: _centred(np.fft.fft, v, scale).reshape(-1), (f, g), f.size)
        return F, G
    both = np.empty((2, *f.shape), dtype=np.complex128)

    def copy(s):
        both[0] = f
        both[1] = g

    _centred_in_place(np.fft.fft, both, scale, copy, rows=True)
    F, G = both.reshape(2, -1)
    return F, G


@np.errstate(over="ignore", invalid="ignore")
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
    return Spectrum._own(f.grid.dual(), _centred(np.fft.fft, f.values, f.grid.cell_volume))


@np.errstate(over="ignore", invalid="ignore")
def inverse_transform(spectrum: Spectrum) -> SampledFunction:
    """Inverse of :func:`fourier_transform`; lands on the dual of the spectrum grid."""
    if not isinstance(spectrum, Spectrum):
        raise TypeError("inverse_transform expects a Spectrum")
    g = spectrum.grid
    # ifft divides by each axis's point count; dxi^n * N^n = 1 / dx^n restores
    # the quadrature scaling of the inverse integral.
    vals = _centred(np.fft.ifft, spectrum.values, g.cell_volume * g.size)
    return SampledFunction._own(g.dual(), vals)


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
    of ``volume``; max for p = inf.

    A norm whose integral overflows although every modulus is finite is taken
    again on the moduli scaled by 2^-k, with k the exponent of the largest,
    and scaled back by 2^k.  At p = 2 both scalings are exact, so the norm has
    the bits of the unscaled formula in a wider exponent range.  Norms in
    range keep their bits: the second sum runs only on overflow.
    """
    if math.isinf(p):
        return float(mags.max())
    norm = _lp_root(float(_lp_integrand(mags, p).sum()), volume, p)
    if not math.isinf(norm):
        return norm
    peak = float(mags.max())
    if math.isinf(peak):
        return norm
    k = math.frexp(peak)[1]
    unit = _lp_root(float(_lp_integrand(np.ldexp(mags, -k), p).sum()), volume, p)
    with np.errstate(over="ignore"):
        return float(np.ldexp(unit, k))


def _finite(helper):
    """``helper``, a public function with a float result, run under
    np.errstate(over="ignore", invalid="ignore"): numpy prints no overflow
    warning, and a result that is not finite raises ArithmeticError naming
    the helper, as the reports refuse a non-finite field."""

    @functools.wraps(helper)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            value = helper(*args, **kwargs)
        if not math.isfinite(value):
            raise ArithmeticError(f"{helper.__name__} is {value} (overflow or NaN)")
        return value

    return checked


@_finite
def lp_norm(field: SampledFunction | Spectrum, p: float) -> float:
    """Rectangle-rule L^p quadrature norm, or the max of |values| for p = inf.

    Accepts any p in [1, inf].  The quadrature weight is the cell volume of the
    field's own grid, so spectra are integrated in d(xi) and functions in dx.
    A norm that overflows raises ArithmeticError.
    """
    if not isinstance(field, _GridField):
        raise TypeError("lp_norm expects a SampledFunction or Spectrum")
    value = _real(p)
    if value is None or not value >= 1.0:
        raise ValueError(f"p must satisfy p >= 1 (or p = inf), got {p!r}")
    return _lp_norm(np.abs(field.values), field.grid.cell_volume, value)


@np.errstate(over="ignore", invalid="ignore")
def shift(f: SampledFunction, offset) -> SampledFunction:
    """Translate ``f`` by ``offset`` (scalar or one value per axis).

    Implemented spectrally: the spectrum is multiplied by exp(-2 pi i xi.offset)
    and transformed back, so non-grid-aligned offsets are exact for functions
    that are band-limited on the grid.  The spectrum of the result has the same
    modulus as the spectrum of ``f`` pointwise.

    The spectrum is formed in one full-size buffer, multiplied in place by the
    phase factor and transformed back in place; that buffer becomes the
    result's samples (``_GridField._own``), so besides the input it is the
    only full-size array.  The product is the inverse transform's fill
    (``_centred_in_place``): on a staged grid each slab is modulated in stage
    A just before its first FFTs, elsewhere the whole spectrum in one call.
    The factor is separable, one 1-D exponential per axis: the factors of
    axes 1 and up are multiplied once into one array of a row's shape, and
    the spectrum takes that and its rows' axis-0 factor, so no complex
    exponential is taken per sample.  An offset whose phase 2 pi offset_i xi
    is not finite somewhere on the dual grid raises ValueError.
    """
    if not isinstance(f, SampledFunction):
        raise TypeError("shift expects a SampledFunction")
    offsets = _reals(offset, "offset", f.grid.dimension)
    dual = f.grid.dual()
    # |xi| is largest at each axis's negative end, (0 - N/2) dxi; the product
    # in the order np.exp's argument forms it
    for eps, n, dxi in zip(offsets, dual.points_per_axis, dual.spacing):
        if not math.isfinite(2.0 * math.pi * (eps * (-(n // 2) * dxi))):
            raise ValueError(
                f"offset {offset!r} is too large: its phase 2 pi offset.xi overflows on the dual grid"
            )
    spectrum = _centred(np.fft.fft, f.values, f.grid.cell_volume)
    first, *others = (
        np.exp(-2j * np.pi * (eps * xi)) for eps, xi in zip(offsets, dual.coordinate_grids())
    )
    rest = functools.reduce(np.multiply, others) if others else None

    def modulate(s):
        block = spectrum[s]
        if rest is not None:
            block *= rest
        block *= first[s]

    scale = dual.cell_volume * dual.size
    _centred_in_place(np.fft.ifft, spectrum, scale, modulate)
    return SampledFunction._own(dual.dual(), spectrum)
