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

Every report of a pair reads one pass over it (``_pair``): the pair is
transformed once, whatever number of exponents p or forms are read from it,
and the evaluators are one-report wrappers over that pass.  Its elementwise
stages, like those of the public spectrum helpers, run through
``grid._run_blocks``.  Each block returns the np.sum of its part of every
integral, and ``grid._sum_blocks`` adds them by ``math.fsum``, so every
integral is correctly rounded over its block sums and has the same bits
whether or not a second thread took half the blocks; on a grid of one block
it is one np.sum.

Only eps = |f - g|_p and the sub-level mass at 10 eps depend on p, so
:func:`evaluate_theorem` keeps the rest of the last pair it evaluated in one
record, ``_record``: one read-only float array of the grid's size, |F|, and
a few floats, until the next call with another pair or zero_tol.  It holds
weak references to f and g and relies on fields being immutable, so a freed
pair leaves at most that one array until the next miss, which drops it
before its own pass allocates.

The public helpers run with numpy's overflow warnings silenced, and one
whose float result is not finite raises ArithmeticError naming it
(``grid._finite``), as the reports refuse a non-finite field.

All sub-level sets use non-strict comparison (|F| <= threshold, ties
included).  Certification tolerances are multiplicative in the right-hand
side, since the test families span several orders of magnitude in norm.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .grid import (
    SampledFunction,
    Spectrum,
    _centred_pair,
    _finite,
    _index,
    _lp_integrand,
    _lp_root,
    _real,
    _run_blocks,
    _sum_blocks,
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

# The weight of Im(conj(F) G / |F|)^2 in the per-frequency estimate and the
# squared form, and the weight of the sub-level mass in h and the squared form.
_TANGENTIAL_WEIGHT = 6.0 / 5.0
_MASS_WEIGHT = 8.0


class _Report:
    """Shared by the report types: every field is a finite float."""

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, vars(self).values())):
            bad = [k for k, v in vars(self).items() if not math.isfinite(v)]
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


def _check_tol(tol, name: str) -> float | None:
    """``tol`` as a float, checked finite and nonnegative; None stays None."""
    value = None if tol is None else _real(tol)
    if tol is not None and (value is None or not (math.isfinite(value) and value >= 0.0)):
        raise ValueError(f"{name} must be a nonnegative finite real, got {tol!r}")
    return value


def _default_tol(peak: float, tol: float | None, name: str, strict: bool = False) -> float:
    """``tol``, checked (``_check_tol``), or 1e-12 * ``peak``, max|F|, when it
    is None.  A non-finite default raises ArithmeticError with ``strict``; the
    evaluators' reports refuse that overflow themselves."""
    value = _check_tol(tol, name)
    if value is None:
        value = 1e-12 * peak
        if strict and not math.isfinite(value):
            raise ArithmeticError(
                f"default {name} 1e-12 * max|F| is {value} (the spectrum's modulus overflows)"
            )
    return value


class _Pair(NamedTuple):
    """What every report of a pair reads.  ``epsilons`` holds |f - g|_p for
    each p of ``ps``, in order; F, G and |F| are flat and the pass's own, and
    ``peak`` is max|F| (NaN where |F| has a NaN)."""

    ps: tuple[float, ...]
    epsilons: tuple[float, ...]
    lhs: float
    F: np.ndarray
    G: np.ndarray
    magF: np.ndarray
    peak: float
    modulus_l2: float
    volume: float


class _Theorem(NamedTuple):
    """What the BoundReports of a pair read at one zero_tol: a ``_Pair``
    with its translation term in place of F and G."""

    ps: tuple[float, ...]
    epsilons: tuple[float, ...]
    lhs: float
    magF: np.ndarray
    modulus_l2: float
    volume: float
    term_translation: float


def _distances(f, g, exponents: tuple[float, ...]) -> list[float]:
    """|f - g|_q at each q of ``exponents``, in order, as floats.  Each block
    forms |f - g| once, in a block temporary, sums its power at every q
    but the last in a second one and writes the last power over |f - g|.
    Callers run it under np.errstate(over="ignore", invalid="ignore")."""
    fv, gv = f.values.reshape(-1), g.values.reshape(-1)
    *others, last = exponents

    def difference(s):
        absdiff = np.abs(np.subtract(fv[s], gv[s]))
        power = np.empty_like(absdiff) if others else None
        sums = [_lp_integrand(absdiff, q, out=power).sum() for q in others]
        sums.append(_lp_integrand(absdiff, last, out=absdiff).sum())
        return np.array(sums)

    sums = _sum_blocks(difference, f.grid.size)
    return [_lp_root(float(s), f.grid.cell_volume, q) for q, s in zip(exponents, sums)]


@np.errstate(over="ignore", invalid="ignore")
def _pair(f, g, ps: tuple[float, ...], caller: str) -> _Pair:
    """The one pass over a pair, for every report read from it: eps = |f - g|_p
    at each checked p of ``ps``, lhs = |f - g|_2, the spectra F and G, |F|,
    and | |F|-|G| |_2, with ``volume`` the dual grid's cell volume.

    F, G, |f - g| and |F| are each computed once, however many p there are:
    ``_distances`` sums each block of |f - g| squared and at every p, and the
    modulus stage alone writes |F| and takes each block's max, whose max is
    ``peak``.  F and G come from one ``grid._centred_pair`` call: below the
    two-thread gate one batched transform of both, from it on the two parts
    of one ``grid._run_parts`` call.  The elementwise stages run block by
    block through ``grid._run_blocks``, so from the gate on G and the second
    half of every stage's blocks are a worker's.  Every block runs the
    same numpy operations in the same order as one full-size pass and returns
    its np.sums, which ``grid._sum_blocks`` adds by ``math.fsum``, so the bits
    do not depend on the thread or the other p.  A pair with f != g whose
    |f - g|_2^2 underflows below the smallest normal double raises
    ArithmeticError: its reports would be checked with no significant digits,
    and at lhs = 0 they would certify vacuously.

    No array is checked for inf or NaN: overflow is the reports' to refuse.
    f and g are finite by construction, so a non-finite sample of f - g is an
    overflow and makes lhs non-finite, as does a sum of finite block sums
    past the double range (``grid._fsum``); one of F or G makes | |F|-|G| |
    inf or NaN there, so ``modulus_l2`` and the reports' ``term_modulus`` are
    too.
    """
    if not isinstance(f, SampledFunction) or not isinstance(g, SampledFunction):
        raise TypeError(f"{caller} expects two SampledFunction inputs")
    _require_same_grid(f, g)
    size = f.grid.size
    F, G = _centred_pair(f.values, g.values, f.grid.cell_volume)
    lhs, *epsilons = _distances(f, g, (2.0, *ps))
    # sqrt(min) is 2^-511 exactly, so this is lhs**2 < min without the ** that
    # raises OverflowError for a large lhs
    if lhs < math.sqrt(sys.float_info.min) and np.any(f.values != g.values):
        raise ArithmeticError(
            f"{caller}: |f - g|_2^2 = {lhs**2!r} is below the smallest normal double "
            "although f != g (underflow), so the report has no significant digits"
        )
    # the one full-size float array of the pass
    magF = np.empty(size)
    # appended by both threads from the gate on, in any order: their max is
    # max|F| either way, and a NaN wins in np.max
    maxima = []

    def modulus(s):
        block = np.abs(F[s], out=magF[s])
        maxima.append(block.max())
        diff = np.abs(G[s])
        np.subtract(block, diff, out=diff)
        return _lp_integrand(diff, 2.0, out=diff).sum()

    volume = f.grid.dual().cell_volume
    modulus_l2 = _lp_root(float(_sum_blocks(modulus, size)), volume, 2.0)
    peak = float(np.max(maxima))
    return _Pair(ps, tuple(epsilons), lhs, F, G, magF, peak, modulus_l2, volume)


def _sublevel_masses(mags: np.ndarray, volume: float, xs) -> list[float]:
    """integral of |F|^2 over the sub-level set {|F| <= 10 x} (ties in), for
    each x in ``xs``, in their order.

    Each block forms its |F|^2 once and zeroes it in place from the largest
    x down, summing it at each x.  Each zeroed set holds the one before it,
    so the block summed at x is |F|^2 zeroed where |F| > 10 x, as if it were
    formed for x alone.
    """
    mags = mags.reshape(-1)
    order = sorted(range(len(xs)), key=xs.__getitem__, reverse=True)
    thresholds = [(i, _REGIME * xs[i]) for i in order]

    def masses(s):
        block = mags[s]
        sq = np.multiply(block, block)
        sums = np.empty(len(xs))
        for i, threshold in thresholds:
            np.copyto(sq, 0.0, where=block > threshold)
            sums[i] = sq.sum()
        return sums

    return [float(volume * mass) for mass in _sum_blocks(masses, mags.size)]


def _support_measure(mags: np.ndarray, volume: float, tol: float) -> float:
    """Measure of the numerical support {|F| > tol}; ``mags`` flat."""
    counts = _run_blocks(lambda s: np.count_nonzero(mags[s] > tol), mags.size)
    return float(volume * sum(counts))


def _smoothness(mass: float, x: float, p: float) -> float:
    """h at x from the sub-level mass at threshold 10 x."""
    return math.sqrt(_MASS_WEIGHT * mass) + (x if p > 1.0 else 0.0)


@_finite
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
    mass = _sublevel_masses(np.abs(f_spectrum.values), f_spectrum.grid.cell_volume, (value,))[0]
    return _smoothness(mass, value, p)


def _translation(
    F: np.ndarray, G: np.ndarray, magF: np.ndarray, tol: float, volume: float
) -> float:
    """2 * L^2 norm of Im(conj(F) G / |F|), set to 0 where |F| <= tol.

    F, G and |F| are flat.  conj(F) G and the squared integrand are formed
    and summed in block temporaries, so F and G are left as they were.
    """

    def square(s):
        cross = np.conjugate(F[s])
        np.multiply(cross, G[s], out=cross)
        mags = magF[s]
        field = np.zeros(mags.size)
        np.divide(cross.imag, mags, out=field, where=mags > tol)
        return _lp_integrand(field, 2.0, out=field).sum()

    return 2.0 * _lp_root(float(_sum_blocks(square, magF.size)), volume, 2.0)


@_finite
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
    tol = _default_tol(float(magF.max()), zero_tol, "zero_tol", strict=True)
    return _translation(F, G, magF, tol, f_spectrum.grid.cell_volume)


@np.errstate(over="ignore", invalid="ignore")
def _theorem(pair: _Pair, zero_tol: float | None = None) -> _Theorem:
    """``pair`` with its translation term at ``zero_tol`` in place of F and G."""
    tol = _default_tol(pair.peak, zero_tol, "zero_tol")
    term_translation = _translation(pair.F, pair.G, pair.magF, tol, pair.volume)
    return _Theorem(
        pair.ps, pair.epsilons, pair.lhs, pair.magF, pair.modulus_l2, pair.volume, term_translation
    )


def _report(theorem: _Theorem, p: float, epsilon: float, mass: float) -> BoundReport:
    """The BoundReport of ``theorem`` at p, from eps = |f - g|_p and the
    sub-level mass at 10 eps: the one place its fields are formed."""
    lhs, term_translation = theorem.lhs, theorem.term_translation
    term_modulus = 2.0 * theorem.modulus_l2
    term_smoothness = _smoothness(mass, epsilon, p)
    rhs = term_modulus + term_smoothness + term_translation
    try:
        squared_form_slack = (
            2.0 * theorem.modulus_l2**2
            + _TANGENTIAL_WEIGHT * (term_translation / 2.0) ** 2
            + (epsilon**2 if p > 1.0 else 0.0)
            + _MASS_WEIGHT * mass
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


@np.errstate(over="ignore", invalid="ignore")
def _reports(theorem: _Theorem) -> list[BoundReport]:
    """The BoundReport of a ``_theorem`` at each of its p, in order.  The
    sub-level masses at every eps are formed in one pass over |F|."""
    masses = _sublevel_masses(theorem.magF, theorem.volume, theorem.epsilons)
    return [_report(theorem, *row) for row in zip(theorem.ps, theorem.epsilons, masses)]


def _theorems(pair: _Pair) -> list[BoundReport]:
    """The BoundReport of ``pair`` at each p of ``pair.ps``, at the default
    ``zero_tol``, in order.  The translation term, the modulus term and the
    sub-level masses at every eps are formed once for all of them."""
    return _reports(_theorem(pair))


# evaluate_theorem's record of its last pass: (weak references to its f and g,
# its checked zero_tol, None for the default, and its _theorem), or None
_record: tuple | None = None


@np.errstate(over="ignore", invalid="ignore")
def evaluate_theorem(
    f: SampledFunction,
    g: SampledFunction,
    p: float,
    zero_tol: float | None = None,
) -> BoundReport:
    """Evaluate every term of the stability bound for (f, g) at exponent p.

    Only eps = |f - g|_p and the sub-level mass at 10 eps depend on p, so the
    rest of the last pair evaluated here is kept in one record: lhs, the
    modulus and translation terms, the dual cell volume and |F|, one read-only
    float array of the grid's size, until the next call with another pair or
    zero_tol.  Fields are immutable and compare by identity, and the record
    holds only weak references to them, so a call with the same f, g and
    zero_tol forms no transform: it sums |f - g|^p at its p, with the bits of
    a fresh pass.  Any other call drops the record before its pass allocates
    and keeps its own; that is the record's one release rule, so a freed pair
    leaves at most its |F| until the next miss.  Either way the report is
    formed the same way, from the mass at its eps (``_sublevel_masses``) and
    ``_report``, under np.errstate(over="ignore", invalid="ignore").
    """
    global _record
    p, tol = _check_p(p), _check_tol(zero_tol, "zero_tol")
    # read once: a concurrent call that replaces the record changes only
    # whether this one hits.  A weak reference reads None once its field is
    # gone, so None never hits
    record = _record if f is not None and g is not None else None
    if record is not None and record[0]() is f and record[1]() is g and record[2] == tol:
        theorem = record[3]
        (epsilon,) = _distances(f, g, (p,))
    else:
        _record = record = None
        theorem = _theorem(_pair(f, g, (p,), "evaluate_theorem"), tol)
        (epsilon,) = theorem.epsilons
        theorem.magF.flags.writeable = False
        _record = (weakref.ref(f), weakref.ref(g), tol, theorem)
    (mass,) = _sublevel_masses(theorem.magF, theorem.volume, (epsilon,))
    return _report(theorem, p, epsilon, mass)


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


@_finite
def support_measure(F: Spectrum, support_tol: float | None = None) -> float:
    """Volume of the numerical support {|F| > support_tol} of a spectrum.

    Default tolerance is 1e-12 * max|F|.  Numerical support of a truncated
    transform is a modeling choice, so the tolerance is caller-overridable;
    note an everywhere-nonzero spectrum reports the full (finite) dual-domain
    volume.
    """
    _require_spectrum(F)
    mags = np.abs(F.values).reshape(-1)
    tol = _default_tol(float(mags.max()), support_tol, "support_tol", strict=True)
    return _support_measure(mags, F.grid.cell_volume, tol)


@np.errstate(over="ignore", invalid="ignore")
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


@_finite
def spectral_tail(f_spectrum: Spectrum, epsilon: float) -> float:
    """Sub-level mass integral of |F|^2 over {|F| <= 10 eps}.

    Monotone nondecreasing in eps and bounded by the squared L^2 norm of the
    spectrum; for spectra decaying like (1 + |xi|^k)^{-1} it scales like
    eps^(2 - n/k).
    """
    _require_spectrum(f_spectrum)
    epsilon = _check_epsilon(epsilon)
    return _sublevel_masses(np.abs(f_spectrum.values), f_spectrum.grid.cell_volume, (epsilon,))[0]


@np.errstate(over="ignore", invalid="ignore")
def _corollary(pair: _Pair, support_tol: float | None = None) -> Corollary1Report:
    """The Corollary1Report of ``pair``, a pass at ps = (1.0,)."""
    F, G, size, peak = pair.F, pair.G, pair.magF.size, pair.peak
    # np.max, not max: a NaN block maximum must win, as in one full-size max
    im_peak = float(
        np.max(_run_blocks(lambda s: np.abs(F[s].imag).max(initial=0.0), size), initial=0.0)
    )
    if im_peak > 1e-8 * peak:
        raise ValueError(
            "hypothesis violated: spectrum of f must be real-valued "
            f"(max |Im| = {im_peak:.3e} exceeds 1e-8 * max |F| = {1e-8 * peak:.3e})"
        )
    tol = _default_tol(peak, support_tol, "support_tol")
    L = _support_measure(pair.magF, pair.volume, tol)
    (epsilon,), lhs = pair.epsilons, pair.lhs
    term_modulus = 2.0 * pair.modulus_l2
    term_bandlimit = 30.0 * math.sqrt(L) * epsilon
    squares = _sum_blocks(lambda s: _lp_integrand(G[s].imag, 2.0).sum(), size)
    term_translation = 2.0 * _lp_root(float(squares), pair.volume, 2.0)
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


def evaluate_corollary1(
    f: SampledFunction, g: SampledFunction, support_tol: float | None = None
) -> Corollary1Report:
    """Evaluate the band-limited form of the bound.

    Requires the spectrum of f to be real valued (relative imaginary part at
    most 1e-8); rejects otherwise, naming the violated hypothesis.
    ``support_tol`` is checked before the pass, as ``evaluate_theorem``
    checks ``zero_tol``.
    """
    tol = _check_tol(support_tol, "support_tol")
    return _corollary(_pair(f, g, (1.0,), "evaluate_corollary1"), tol)
