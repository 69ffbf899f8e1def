"""Evaluation of the stability bound, its band-limited corollary, and the
spectral quantities both are built from.

The headline inequality bounds the L^2 distance of two functions by three
measurable terms:

    |f - g|_2  <=  2 | |F| - |G| |_2  +  h_F(|f - g|_p)  +  2 | Im(conj(F) G / |F|) |_2

with F, G the spectra of f and g, 1 <= p < 2, and

    h_F(x) = sqrt(8 * integral of |F|^2 over {|F| <= 10 x}) + (x if p > 1 else 0),

the smoothness modulus of f.  :func:`evaluate_theorem` reports every term plus
the slack, together with the slack of the squared form

    |f-g|_2^2 <= 2 | |F|-|G| |_2^2 + (6/5) | Im conj(F)|F|^{-1} G |_2^2
                 + (|f-g|_p^2 if p > 1) + 8 * integral_{|F| <= 10 eps} |F|^2,

which is the sharper inequality the un-squared form is derived from.  The
un-squared sum is reported as the headline bound (its translation term enters
linearly with constant 2); the squared form is certified alongside so both
readings are pinned down numerically.

All sub-level sets use non-strict comparison (|F| <= threshold, ties
included).  Certification tolerances are multiplicative in the right-hand
side, since the test families span several orders of magnitude in norm.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import sys
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .grid import (
    _BLOCK,
    SampledFunction,
    Spectrum,
    _centred,
    _index,
    _lp_integrand,
    _lp_norm,
    _lp_root,
    _real,
)

__all__ = [
    "BoundReport",
    "Corollary1Report",
    "TailParams",
    "CERTIFICATION_RTOL",
    "smoothness_modulus",
    "translation_term",
    "evaluate_theorem",
    "evaluate_corollary1",
    "support_measure",
    "exceptional_set",
    "spectral_tail",
    "CertificationError",
    "is_certified",
    "relative_slacks",
]

# Relative slack tolerance of every certified form; see is_certified.
CERTIFICATION_RTOL = 1e-6

# The regime factor: the per-frequency estimate holds where |F| >= 10 eps, and
# the sub-level set {|F| <= 10 x} of the smoothness modulus is where it does not.
_REGIME = 10.0


class _Report:
    """Shared by the report types: every field is a finite float."""

    def __post_init__(self) -> None:
        bad = [k for k, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise ArithmeticError(
                f"{type(self).__name__} has non-finite {', '.join(bad)} (overflow or NaN)"
            )

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}


@dataclass(frozen=True)
class BoundReport(_Report):
    """All evaluated terms of the stability bound for one (f, g, p) triple.

    ``rhs`` is exactly ``term_modulus + term_smoothness + term_translation``
    and ``slack = rhs - lhs``; ``squared_form_slack`` is the slack of the
    squared inequality.  :func:`is_certified` gives the verdict on both.  A
    non-finite field raises ArithmeticError.
    """

    p: float
    epsilon: float
    lhs: float
    term_modulus: float
    term_smoothness: float
    term_translation: float
    rhs: float
    slack: float
    squared_form_slack: float


@dataclass(frozen=True)
class Corollary1Report(_Report):
    """Terms of the band-limited form of the bound (real spectrum hypothesis).

    The smoothness term is replaced by ``30 sqrt(L) |f - g|_1`` where ``L`` is
    the measure of the numerical support of the spectrum of f, and the
    translation term by ``2 | Im G |_2``.  A non-finite field raises
    ArithmeticError.
    """

    epsilon: float
    lhs: float
    term_modulus: float
    term_bandlimit: float
    term_translation: float
    support_measure: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class TailParams:
    """Derivative order k and dimension n for the spectral-tail decay rate.

    Requires k > (n + 2)/2; under that hypothesis the sub-level mass
    integral_{|F| <= 10 eps} |F|^2 decays like eps^(2 - n/k).
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        k, n = _index(self.k), _index(self.n)
        if k is None or k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if n is None or not 1 <= n <= 3:
            raise ValueError(f"n must be an integer in [1, 3], got {self.n!r}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        if not self.k > (self.n + 2) / 2:
            raise ValueError(f"need k > (n + 2)/2, got k={self.k}, n={self.n}")

    @property
    def expected_exponent(self) -> float:
        return 2.0 - self.n / self.k


def _require_spectrum(F) -> Spectrum:
    if not isinstance(F, Spectrum):
        raise TypeError("expected a Spectrum")
    return F


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("grid mismatch between the two fields")


def _check_p(p: float) -> float:
    value = _real(p)
    if value is None or not 1.0 <= value < 2.0:
        raise ValueError(f"p must lie in [1, 2), got {p!r}")
    return value


def _check_epsilon(epsilon: float) -> float:
    value = _real(epsilon)
    if value is None or not value > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    return value


def _default_tol(mags: np.ndarray, tol: float | None, name: str, strict: bool = False) -> float:
    """``tol``, checked finite and nonnegative, or 1e-12 * max|F| when it is None.
    A non-finite default raises ArithmeticError with ``strict``; the evaluators'
    reports refuse that overflow themselves."""
    if tol is None:
        default = 1e-12 * float(mags.max(initial=0.0))
        if strict and not math.isfinite(default):
            raise ArithmeticError(
                f"default {name} 1e-12 * max|F| is {default} (the spectrum's modulus overflows)"
            )
        return default
    value = _real(tol)
    if value is None or not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a nonnegative finite real, got {tol!r}")
    return value


# From this many grid points on, the pair pass runs on two threads: G is
# transformed on a second thread while this one transforms F, and then each of
# the pass's elementwise stages is split between the two by blocks; numpy's FFT
# and ufunc loops release the GIL.  Time of one evaluate_theorem, two threads
# over one, on a 2-CPU host where two threads of numpy arithmetic ran no faster
# than one: 1.05-1.24 at 16384 points, 1.08-1.34 at 32768, 0.97-1.17 at 256^2,
# 0.92-1.12 from 2^17 to 2^20 points, and 0.57-0.61 on 3-D grids of 96^3 and
# more, where the second thread overlaps memory traffic.
_CONCURRENT_SPECTRA_MIN_POINTS = 2**16


def _steps(step, starts) -> list:
    return [step(slice(start, start + _BLOCK)) for start in starts]


def _run_blocks(step, size: int, pool=None) -> list:
    """``step(s)`` for each slice ``s`` of ``_BLOCK`` points covering range(size),
    the last one partial; their results, in block order.

    With ``pool`` (a one-worker executor), its worker takes the second half of
    the blocks while this thread takes the first.  The worker runs in a copy of
    this thread's context, so the evaluators' np.errstate holds there, and its
    exception is raised here.
    """
    starts = range(0, size, _BLOCK)
    if pool is None:
        return _steps(step, starts)
    half = len(starts) // 2
    future = pool.submit(contextvars.copy_context().run, _steps, step, starts[half:])
    return _steps(step, starts[:half]) + future.result()


def _worker_pool():
    # imported here: concurrent.futures adds about 5 ms to the package's
    # import, which runs that stay below the gate should not pay
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="phasestab-pair")


class _Pair(NamedTuple):
    """What both evaluators read of a pair.  F, G and |F| are flat and the
    pass's own; ``scratch`` is a flat full-size float array free for the
    evaluators' stages, and ``pool`` the worker they run on (None below the
    gate)."""

    epsilon: float
    lhs: float
    F: np.ndarray
    G: np.ndarray
    magF: np.ndarray
    modulus_l2: float
    volume: float
    scratch: np.ndarray
    pool: object


@contextlib.contextmanager
def _pair(f, g, p: float, caller: str):
    """The one pass over a pair: eps = |f - g|_p at a checked p, lhs = |f - g|_2,
    the spectra F and G, |F|, and | |F|-|G| |_2, with ``volume`` the dual grid's
    cell volume.  A context manager: the worker of a pair at the gate lives
    until the evaluator's stages are done, and no longer.

    |f - g| and |F| are each computed once.  On grids of
    ``_CONCURRENT_SPECTRA_MIN_POINTS`` or more, G is transformed on a second
    thread while F is, and the elementwise stages run block by block on both
    threads (``_run_blocks``).  Every block runs the same numpy operations in
    the same order as one full-size pass, and every sum is one sum over a
    full-size array, so the bits do not depend on the branch or the blocks.
    A pair with f != g whose |f - g|_2^2 underflows below the smallest normal
    double raises ArithmeticError: its reports would be checked with no
    significant digits, and at lhs = 0 they would certify vacuously.

    No array is checked for inf or NaN: overflow is the reports' to refuse.
    f and g are finite by construction, so a non-finite sample of f - g is an
    overflow and makes lhs non-finite; one of F or G makes | |F|-|G| | inf or
    NaN there, so ``modulus_l2`` and the reports' ``term_modulus`` are too.
    """
    if not isinstance(f, SampledFunction) or not isinstance(g, SampledFunction):
        raise TypeError(f"{caller} expects two SampledFunction inputs")
    _require_same_grid(f, g)
    space_volume, size = f.grid.cell_volume, f.grid.size
    concurrent = size >= _CONCURRENT_SPECTRA_MIN_POINTS
    with _worker_pool() if concurrent else contextlib.nullcontext() as pool:
        # G in a copy of this context, so the evaluators' np.errstate holds there
        future = pool and pool.submit(
            contextvars.copy_context().run, _centred, np.fft.fftn, g.values, space_volume
        )
        F = _centred(np.fft.fftn, f.values, space_volume)
        G = future.result() if future else _centred(np.fft.fftn, g.values, space_volume)
        F, G, fv, gv = (a.reshape(-1) for a in (F, G, f.values, g.values))
        # the two full-size float arrays of the pass: |F| is written over the
        # p-th powers of |f - g| once they are summed, and the evaluators'
        # stages reuse ``scratch`` in turn
        scratch, magF = np.empty(size), np.empty(size)

        def difference(s):
            absdiff = np.abs(np.subtract(fv[s], gv[s]), out=magF[s])
            _lp_integrand(absdiff, 2.0, out=scratch[s])
            _lp_integrand(absdiff, p, out=absdiff)

        _run_blocks(difference, size, pool)
        lhs = _lp_root(float(scratch.sum()), space_volume, 2.0)
        # sqrt(min) is 2^-511 exactly, so this is lhs**2 < min without the ** that
        # raises OverflowError for a large lhs
        if lhs < math.sqrt(sys.float_info.min) and np.any(fv != gv):
            raise ArithmeticError(
                f"{caller}: |f - g|_2^2 = {lhs**2!r} is below the smallest normal double "
                "although f != g (underflow), so the report has no significant digits"
            )
        epsilon = _lp_root(float(magF.sum()), space_volume, p)

        def modulus(s):
            mags, diff = np.abs(F[s], out=magF[s]), np.abs(G[s], out=scratch[s])
            np.subtract(mags, diff, out=diff)
            _lp_integrand(diff, 2.0, out=diff)

        _run_blocks(modulus, size, pool)
        volume = f.grid.dual().cell_volume
        modulus_l2 = _lp_root(float(scratch.sum()), volume, 2.0)
        yield _Pair(epsilon, lhs, F, G, magF, modulus_l2, volume, scratch, pool)


def _sublevel_masses(mags: np.ndarray, volume: float, xs, out=None, pool=None) -> list[float]:
    """integral of |F|^2 over the sub-level set {|F| <= 10 x} (ties in), for
    each x in ``xs``, in their order.

    |F|^2 is formed once, in ``out`` (flat and full size; a new array when
    None), and zeroed in place from the largest x down, block by block on
    ``pool`` when one is given.  Each zeroed set holds the one before it, so
    the array summed at x is |F|^2 zeroed where |F| > 10 x, as if it were
    formed for x alone.
    """
    mags = mags.reshape(-1)
    sq = np.empty(mags.size) if out is None else out
    masses = [0.0] * len(xs)
    order = sorted(range(len(xs)), key=xs.__getitem__, reverse=True)
    for i in order:
        # |F|^2 is formed in the pass of the largest x

        def zero(s, square=i == order[0], threshold=_REGIME * xs[i]):
            if square:
                np.multiply(mags[s], mags[s], out=sq[s])
            np.copyto(sq[s], 0.0, where=mags[s] > threshold)

        _run_blocks(zero, mags.size, pool)
        masses[i] = float(volume * sq.sum())
    return masses


def _sublevel_mass(mags: np.ndarray, volume: float, x: float, out=None, pool=None) -> float:
    """integral of |F|^2 over the sub-level set {|F| <= 10 x} (ties in)."""
    return _sublevel_masses(mags, volume, (x,), out, pool)[0]


def _support_measure(mags: np.ndarray, volume: float, tol: float, pool=None) -> float:
    """Measure of the numerical support {|F| > tol}; ``mags`` flat."""
    counts = _run_blocks(lambda s: np.count_nonzero(mags[s] > tol), mags.size, pool)
    return float(volume * sum(counts))


def _smoothness(mass: float, x: float, p: float) -> float:
    """h at x from the sub-level mass at threshold 10 x."""
    return math.sqrt(8.0 * mass) + (x if p > 1.0 else 0.0)


def smoothness_modulus(f_spectrum: Spectrum, x: float, p: float) -> float:
    """The nonlinear smoothness modulus h evaluated at x >= 0.

    sqrt(8 * sub-level mass at threshold 10 x) plus x when p > 1.  Monotone
    nondecreasing in x; at x = 0 only exact zeros of the spectrum are in the
    sub-level set, so the value is 0.
    """
    _require_spectrum(f_spectrum)
    value = _real(x)
    if value is None or not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"x must be a nonnegative finite real, got {x!r}")
    p = _check_p(p)
    mass = _sublevel_mass(np.abs(f_spectrum.values), f_spectrum.grid.cell_volume, value)
    return _smoothness(mass, value, p)


def _translation(
    F: np.ndarray, G: np.ndarray, magF: np.ndarray, tol: float, volume: float, out, pool=None
) -> float:
    """2 * L^2 norm of Im(conj(F) G / |F|), set to 0 where |F| <= tol.

    F, G, |F| and ``out`` are flat.  The squared integrand is formed in
    ``out`` block by block, on ``pool`` when one is given, and conj(F) G in a
    block temporary, so F and G are left as they were.
    """

    def square(s):
        cross = np.conjugate(F[s])
        np.multiply(cross, G[s], out=cross)
        field, mags = out[s], magF[s]
        field.fill(0.0)
        np.divide(cross.imag, mags, out=field, where=mags > tol)
        _lp_integrand(field, 2.0, out=field)

    _run_blocks(square, out.size, pool)
    return 2.0 * _lp_root(float(out.sum()), volume, 2.0)


def translation_term(
    f_spectrum: Spectrum, g_spectrum: Spectrum, zero_tol: float | None = None
) -> float:
    """2 * L^2 norm of xi -> Im(conj(F) G / |F|), the translation-symmetry term.

    The integrand is defined as 0 wherever |F| <= zero_tol (default
    1e-12 * max|F|): the term only matters where the spectrum of f is well
    away from zero, and the near-zero set belongs to the sub-level estimate.
    """
    _require_spectrum(f_spectrum)
    _require_spectrum(g_spectrum)
    _require_same_grid(f_spectrum, g_spectrum)
    F, G = f_spectrum.values.reshape(-1), g_spectrum.values.reshape(-1)
    magF = np.abs(F)
    tol = _default_tol(magF, zero_tol, "zero_tol", strict=True)
    return _translation(F, G, magF, tol, f_spectrum.grid.cell_volume, np.empty(magF.size))


@np.errstate(over="ignore", invalid="ignore")
def evaluate_theorem(
    f: SampledFunction,
    g: SampledFunction,
    p: float,
    zero_tol: float | None = None,
) -> BoundReport:
    """Evaluate every term of the stability bound for (f, g) at exponent p."""
    p = _check_p(p)
    with _pair(f, g, p, "evaluate_theorem") as pair:
        epsilon, lhs, magF, volume = pair.epsilon, pair.lhs, pair.magF, pair.volume
        tol = _default_tol(magF, zero_tol, "zero_tol")
        term_translation = _translation(pair.F, pair.G, magF, tol, volume, pair.scratch, pair.pool)
        mass = _sublevel_mass(magF, volume, epsilon, pair.scratch, pair.pool)
    term_modulus = 2.0 * pair.modulus_l2
    term_smoothness = _smoothness(mass, epsilon, p)
    rhs = term_modulus + term_smoothness + term_translation
    try:
        squared_form_slack = (
            2.0 * pair.modulus_l2**2
            + (6.0 / 5.0) * (term_translation / 2.0) ** 2
            + (epsilon**2 if p > 1.0 else 0.0)
            + 8.0 * mass
        ) - lhs**2
    except OverflowError:
        # a Python float ** past the double range; the report refuses it by name
        squared_form_slack = math.inf
    return BoundReport(
        p=p,
        epsilon=epsilon,
        lhs=lhs,
        term_modulus=term_modulus,
        term_smoothness=term_smoothness,
        term_translation=term_translation,
        rhs=rhs,
        slack=rhs - lhs,
        squared_form_slack=squared_form_slack,
    )


class CertificationError(ArithmeticError):
    """A report's inequality failed numerically beyond its tolerance."""


def _forms(report: BoundReport | Corollary1Report) -> list[tuple[float, float]]:
    """(slack, rhs) of every form a report certifies: the headline bound and,
    for a BoundReport, its squared form."""
    forms = [(report.slack, report.rhs)]
    if isinstance(report, BoundReport):
        forms.append((report.squared_form_slack, report.squared_form_slack + report.lhs**2))
    return forms


def is_certified(report: BoundReport | Corollary1Report) -> bool:
    """Whether every form of the report holds: slack >= -CERTIFICATION_RTOL * rhs."""
    return all(slack >= -CERTIFICATION_RTOL * rhs for slack, rhs in _forms(report))


def relative_slacks(report: BoundReport | Corollary1Report) -> tuple[float, ...]:
    """slack / rhs of every form of the report (0 where rhs is 0)."""
    return tuple(slack / rhs if rhs > 0 else 0.0 for slack, rhs in _forms(report))


def support_measure(F: Spectrum, support_tol: float | None = None) -> float:
    """Volume of the numerical support {|F| > support_tol} of a spectrum.

    Default tolerance is 1e-12 * max|F|.  Numerical support of a truncated
    transform is a modeling choice, so the tolerance is caller-overridable;
    note an everywhere-nonzero spectrum reports the full (finite) dual-domain
    volume.
    """
    _require_spectrum(F)
    mags = np.abs(F.values).reshape(-1)
    tol = _default_tol(mags, support_tol, "support_tol", strict=True)
    return _support_measure(mags, F.grid.cell_volume, tol)


def exceptional_set(
    f_spectrum: Spectrum, g_spectrum: Spectrum, epsilon: float
) -> tuple[float, np.ndarray]:
    """Measure and mask of {|F| >= 10 eps and |F - G| >= eps}.

    For eps = |f - g|_p with 1 < p < 2 the measure is at most 1 (Hausdorff-
    Young); for p = 1 with eps = |f - g|_1 the set is empty, since then
    |F - G| <= eps everywhere with equality only in degenerate aligned-phase
    cases.
    """
    _require_spectrum(f_spectrum)
    _require_spectrum(g_spectrum)
    _require_same_grid(f_spectrum, g_spectrum)
    epsilon = _check_epsilon(epsilon)
    magF = np.abs(f_spectrum.values)
    magdiff = np.abs(f_spectrum.values - g_spectrum.values)
    mask = (magF >= _REGIME * epsilon) & (magdiff >= epsilon)
    measure = float(f_spectrum.grid.cell_volume * np.count_nonzero(mask))
    return measure, mask


def spectral_tail(f_spectrum: Spectrum, epsilon: float) -> float:
    """Sub-level mass integral of |F|^2 over {|F| <= 10 eps}.

    Monotone nondecreasing in eps and bounded by the squared L^2 norm of the
    spectrum; for spectra decaying like (1 + |xi|^k)^{-1} it scales like
    eps^(2 - n/k).
    """
    _require_spectrum(f_spectrum)
    epsilon = _check_epsilon(epsilon)
    return _sublevel_mass(np.abs(f_spectrum.values), f_spectrum.grid.cell_volume, epsilon)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_corollary1(
    f: SampledFunction, g: SampledFunction, support_tol: float | None = None
) -> Corollary1Report:
    """Evaluate the band-limited form of the bound.

    Requires the spectrum of f to be real valued (relative imaginary part at
    most 1e-8); rejects otherwise, naming the violated hypothesis.
    """
    with _pair(f, g, 1.0, "evaluate_corollary1") as pair:
        peak = float(pair.magF.max(initial=0.0))
        im_peak = float(np.abs(pair.F.imag).max(initial=0.0))
        if im_peak > 1e-8 * peak:
            raise ValueError(
                "hypothesis violated: spectrum of f must be real-valued "
                f"(max |Im| = {im_peak:.3e} exceeds 1e-8 * max |F| = {1e-8 * peak:.3e})"
            )
        tol = _default_tol(pair.magF, support_tol, "support_tol")
        L = _support_measure(pair.magF, pair.volume, tol, pair.pool)
    epsilon, lhs = pair.epsilon, pair.lhs
    term_modulus = 2.0 * pair.modulus_l2
    term_bandlimit = 30.0 * math.sqrt(L) * epsilon
    term_translation = 2.0 * _lp_norm(pair.G.imag, pair.volume, 2.0)
    rhs = term_modulus + term_bandlimit + term_translation
    return Corollary1Report(
        epsilon=epsilon,
        lhs=lhs,
        term_modulus=term_modulus,
        term_bandlimit=term_bandlimit,
        term_translation=term_translation,
        support_measure=L,
        rhs=rhs,
        slack=rhs - lhs,
    )
