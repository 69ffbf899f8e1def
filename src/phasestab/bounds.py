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

import contextvars
import math
import sys
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .grid import SampledFunction, Spectrum, _centred, _index, _lp_norm

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
    p = float(p)
    if not (1.0 <= p < 2.0):
        raise ValueError(f"p must lie in [1, 2), got {p}")
    return p


def _default_tol(mags: np.ndarray, tol: float | None, name: str) -> float:
    """``tol``, checked finite and nonnegative, or 1e-12 * max|F| when it is None."""
    if tol is None:
        return 1e-12 * float(mags.max(initial=0.0))
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be a nonnegative finite real, got {tol}")
    return tol


# From this many grid points on, the pair pass computes G on a second thread
# while this one computes F and |F|; numpy's FFT releases the GIL.  Time of the
# two spectra, concurrent over sequential, on 2 CPUs: 1.38 at 1024 points
# (thread start-up dominates), 0.9-1.0 at 16384-32768, 0.72-0.80 at 65536 and
# 0.55-0.8 at 128^3.
_CONCURRENT_SPECTRA_MIN_POINTS = 2**16


class _Pair(NamedTuple):
    """What both evaluators read of a pair; the arrays are the pass's own."""

    epsilon: float
    lhs: float
    F: np.ndarray
    G: np.ndarray
    magF: np.ndarray
    modulus_l2: float
    volume: float


def _pair(f, g, p: float, caller: str) -> _Pair:
    """The one pass over a pair: eps = |f - g|_p at a checked p, lhs = |f - g|_2,
    the spectra F and G, |F|, and | |F|-|G| |_2, with ``volume`` the dual grid's
    cell volume.

    |f - g| and |F| are each computed once.  On grids of
    ``_CONCURRENT_SPECTRA_MIN_POINTS`` or more, G is transformed on a second
    thread while F is; each spectrum comes from the same code on the same
    input either way, so the bits do not depend on the branch.  An lhs of 0
    for f != g can only be underflow, and every other term then underflows
    too, so it raises ArithmeticError rather than certify vacuously.

    No array is checked for inf or NaN: overflow is the reports' to refuse.
    f and g are finite by construction, so a non-finite sample of f - g is an
    overflow and makes lhs non-finite; one of F or G makes | |F|-|G| | inf or
    NaN there, so ``modulus_l2`` and the reports' ``term_modulus`` are too.
    """
    if not isinstance(f, SampledFunction) or not isinstance(g, SampledFunction):
        raise TypeError(f"{caller} expects two SampledFunction inputs")
    _require_same_grid(f, g)
    space_volume = f.grid.cell_volume
    absdiff = np.abs(f.values - g.values)
    lhs = _lp_norm(absdiff, space_volume, 2.0)
    if lhs == 0.0 and np.any(absdiff):
        raise ArithmeticError(f"{caller}: |f - g|_2 is 0 although f != g (underflow)")
    epsilon = _lp_norm(absdiff, space_volume, p)
    del absdiff
    if f.grid.size < _CONCURRENT_SPECTRA_MIN_POINTS:
        F = _centred(np.fft.fftn, f.values, space_volume)
        magF = np.abs(F)
        G = _centred(np.fft.fftn, g.values, space_volume)
    else:
        # imported here: concurrent.futures adds about 5 ms to the package's
        # import, which runs that stay below the gate should not pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1, thread_name_prefix="phasestab-spectrum") as pool:
            # in a copy of this context, so the evaluators' np.errstate holds there
            future = pool.submit(
                contextvars.copy_context().run, _centred, np.fft.fftn, g.values, space_volume
            )
            F = _centred(np.fft.fftn, f.values, space_volume)
            magF = np.abs(F)
        G = future.result()
    # |G| is allocated here: on the worker, in that thread's own malloc arena,
    # it raised peak RSS
    modulus = np.abs(G)
    np.subtract(magF, modulus, out=modulus)
    volume = f.grid.dual().cell_volume
    return _Pair(epsilon, lhs, F, G, magF, _lp_norm(modulus, volume, 2.0), volume)


def _sublevel_mass(mags: np.ndarray, volume: float, x: float) -> float:
    """integral of |F|^2 over the sub-level set {|F| <= 10 x} (ties in)."""
    sq = mags * mags
    np.copyto(sq, 0.0, where=mags > _REGIME * x)
    return float(volume * np.sum(sq))


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
    x = float(x)
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be a nonnegative finite real, got {x}")
    p = _check_p(p)
    mass = _sublevel_mass(np.abs(f_spectrum.values), f_spectrum.grid.cell_volume, x)
    return _smoothness(mass, x, p)


def _translation(
    F: np.ndarray, G: np.ndarray, magF: np.ndarray, tol: float, volume: float, out=None
) -> float:
    """2 * L^2 norm of Im(conj(F) G / |F|), set to 0 where |F| <= tol.

    conj(F) G is formed in ``out`` (a new array when None; the pair pass passes
    F itself, which it no longer needs).
    """
    cross = np.conjugate(F, out=out)
    np.multiply(cross, G, out=cross)
    field = np.zeros_like(magF)
    np.divide(cross.imag, magF, out=field, where=magF > tol)
    return 2.0 * _lp_norm(field, volume, 2.0)


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
    magF = np.abs(f_spectrum.values)
    tol = _default_tol(magF, zero_tol, "zero_tol")
    return _translation(
        f_spectrum.values, g_spectrum.values, magF, tol, f_spectrum.grid.cell_volume
    )


@np.errstate(over="ignore", invalid="ignore")
def evaluate_theorem(
    f: SampledFunction,
    g: SampledFunction,
    p: float,
    zero_tol: float | None = None,
) -> BoundReport:
    """Evaluate every term of the stability bound for (f, g) at exponent p.

    A pair whose |f - g|_2^2 underflows below the smallest normal double
    raises ArithmeticError: its squared form would be checked with no
    significant digits.
    """
    p = _check_p(p)
    pair = _pair(f, g, p, "evaluate_theorem")
    epsilon, lhs, magF = pair.epsilon, pair.lhs, pair.magF
    if 0.0 < lhs and lhs**2 < sys.float_info.min:
        raise ArithmeticError(
            f"evaluate_theorem: |f - g|_2^2 = {lhs**2!r} is below the smallest normal "
            "double (underflow), so the squared form has no significant digits"
        )
    term_modulus = 2.0 * pair.modulus_l2
    tol = _default_tol(magF, zero_tol, "zero_tol")
    term_translation = _translation(pair.F, pair.G, magF, tol, pair.volume, out=pair.F)
    mass = _sublevel_mass(magF, pair.volume, epsilon)
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


def _support_measure(mags: np.ndarray, volume: float, support_tol: float | None) -> float:
    support_tol = _default_tol(mags, support_tol, "support_tol")
    return float(volume * np.count_nonzero(mags > support_tol))


def support_measure(F: Spectrum, support_tol: float | None = None) -> float:
    """Volume of the numerical support {|F| > support_tol} of a spectrum.

    Default tolerance is 1e-12 * max|F|.  Numerical support of a truncated
    transform is a modeling choice, so the tolerance is caller-overridable;
    note an everywhere-nonzero spectrum reports the full (finite) dual-domain
    volume.
    """
    _require_spectrum(F)
    return _support_measure(np.abs(F.values), F.grid.cell_volume, support_tol)


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
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
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
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    return _sublevel_mass(np.abs(f_spectrum.values), f_spectrum.grid.cell_volume, epsilon)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_corollary1(
    f: SampledFunction, g: SampledFunction, support_tol: float | None = None
) -> Corollary1Report:
    """Evaluate the band-limited form of the bound.

    Requires the spectrum of f to be real valued (relative imaginary part at
    most 1e-8); rejects otherwise, naming the violated hypothesis.
    """
    pair = _pair(f, g, 1.0, "evaluate_corollary1")
    peak = float(pair.magF.max(initial=0.0))
    im_peak = float(np.abs(pair.F.imag).max(initial=0.0))
    if im_peak > 1e-8 * peak:
        raise ValueError(
            "hypothesis violated: spectrum of f must be real-valued "
            f"(max |Im| = {im_peak:.3e} exceeds 1e-8 * max |F| = {1e-8 * peak:.3e})"
        )
    L = _support_measure(pair.magF, pair.volume, support_tol)
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
