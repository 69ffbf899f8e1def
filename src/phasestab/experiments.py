"""Parameter sweeps probing how tight the stability bound is.

Four experiments, each fitting a log-log slope against an analytically known
exponent:

* ``optimality``    - sign-flipped scaled-bump spectra; |f-g|_2 ~ L^(-1/2) and
                      |f-g|_1 ~ L^(-1) as the support size L grows, showing the
                      band-limited bound scales optimally.
* ``triangle``      - even sign-flip perturbations of the triangle spectrum
                      max(0, 1 - |xi|); the part of the L^2 distance invisible
                      to the modulus grows like |f-g|_1^(3/2) (super-linear
                      stability for even perturbations).
* ``translation``   - g = f shifted by eps; the translation term equals
                      2 | F(xi) sin(2 pi eps xi) |_2 exactly and |f-g|_2 is
                      linear in eps for small eps.
* ``tail``          - spectra (1 + |xi|^k)^(-1); the sub-level mass decays
                      like eps^(2 - n/k).

Every generated pair is certified against the main bound as a side condition
(and, where its real-spectrum hypothesis holds, against the band-limited
form); a certification failure raises CertificationError.  Sweep defaults keep
the smallest feature above 8 grid cells so discretization error cannot
masquerade as slope error.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    _REGIME,
    CertificationError,
    TailParams,
    _check_epsilon,
    _sublevel_masses,
    evaluate_theorem,
    is_certified,
)
from .bounds import _corollary, _pair, _theorems
from .grid import GridSpec, SampledFunction, Spectrum, fourier_transform, inverse_transform
from .grid import _index, _lp_norm, _real, _reals, _run_slabs, shift

__all__ = [
    "ScalingResult",
    "fit_scaling",
    "gaussian",
    "smooth_bump",
    "triangle_spectrum",
    "edge_sign_flip",
    "optimality_family",
    "optimality_experiment",
    "triangle_experiment",
    "translation_experiment",
    "tail_experiment",
    "iter_certification_pairs",
    "FAMILY_BUILDERS",
    "DEFAULT_GRID",
    "OPTIMALITY_GRID",
    "TRIANGLE_GRID",
    "TRIANGLE_QUADRATURE_GRID",
    "TAIL_GRIDS",
    "DEFAULT_SWEEPS",
]

# Default 1-D working grid: dx = 1/32, frequency extent [-16, 16).
DEFAULT_GRID = GridSpec.uniform(1, 16.0, 1024)
# Optimality needs frequency room for bump supports up to [-64, 64].
OPTIMALITY_GRID = GridSpec.uniform(1, 16.0, 16384)
# Triangle flips down to width 0.008 need frequency spacing 1/1024.
TRIANGLE_GRID = GridSpec.uniform(1, 512.0, 32768)
# Frequency grid (spacing 1/2048) for quadrature-accurate sub-level masses of
# the triangle spectrum.
TRIANGLE_QUADRATURE_GRID = GridSpec.uniform(1, 2.0, 8192)
# Frequency grids for the tail experiment, keyed by dimension.
TAIL_GRIDS = {
    1: GridSpec.uniform(1, 512.0, 32768),
    2: GridSpec.uniform(2, 64.0, 1024),
    3: GridSpec.uniform(3, 16.0, 128),
}

DEFAULT_SWEEPS = {
    "optimality": (4.0, 8.0, 16.0, 32.0, 64.0),
    "triangle": tuple(np.geomspace(0.008, 0.063, 8)),
    "translation": tuple(np.geomspace(1e-3, 1e-1, 9)),
    "tail": tuple(np.geomspace(1e-4, 1e-2, 9)),
}


@dataclass(frozen=True)
class ScalingResult:
    """Fitted log-log slope of one observable against one sweep parameter."""

    name: str
    parameter_values: tuple[float, ...]
    observable_values: tuple[float, ...]
    fitted_slope: float
    slope_stderr: float
    expected_slope: float
    slope_tolerance: float
    passed: bool

    def __post_init__(self) -> None:
        if len(self.parameter_values) != len(self.observable_values):
            raise ValueError("parameter and observable lists must have equal length")
        if len(self.parameter_values) < 4:
            raise ValueError("need at least 4 sweep points for a slope fit")
        if any(v <= 0 for v in self.parameter_values + self.observable_values):
            raise ValueError("log-log fit requires strictly positive values")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def fit_scaling(
    name: str,
    parameters: Sequence[float],
    observables: Sequence[float],
    expected_slope: float,
    slope_tolerance: float,
) -> ScalingResult:
    """Ordinary least squares on (log parameter, log observable).

    Points with a non-positive parameter or observable (e.g. the exact-zero
    observable of an unperturbed pair) are excluded before fitting.
    """
    expected, tolerance = _reals(
        (expected_slope, slope_tolerance), f"{name}: expected_slope, slope_tolerance"
    )
    if tolerance < 0.0:
        raise ValueError(f"{name}: slope_tolerance must be >= 0, got {slope_tolerance!r}")
    params, obs = [], []
    for point in zip(parameters, observables, strict=True):
        x, y = _reals(point, f"{name}: sweep point")
        if x > 0 and y > 0:
            params.append(x)
            obs.append(y)
    if len(params) < 4:
        raise ValueError(f"{name}: fewer than 4 positive sweep points remain for the fit")
    x, y = np.log(params), np.log(obs)
    if x.max() == x.min():
        raise ValueError("Cannot calculate a linear regression if all x values are identical")
    # the steps of scipy.stats.linregress, whose slope and stderr this gives bit for bit;
    # a constant y has zero residuals, so r = 0 there and the stderr is 0
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0) if ssym > 0 else 0.0
    fitted = float(ssxym / ssxm)
    return ScalingResult(
        name=name,
        parameter_values=tuple(params),
        observable_values=tuple(obs),
        fitted_slope=fitted,
        slope_stderr=float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))),
        expected_slope=expected,
        slope_tolerance=tolerance,
        passed=bool(abs(fitted - expected) <= tolerance),
    )


def _require_certified(report, context: str):
    """Return ``report``; raise CertificationError unless it is certified."""
    if not is_certified(report):
        slacks = ", ".join(f"{k}={v:.3e}" for k, v in report.to_dict().items() if k.endswith("slack"))
        raise CertificationError(
            f"{type(report).__name__} not certified{' in ' + context if context else ''}: {slacks}"
        )
    return report


def _certified_pass(f, g, context: str):
    """The BoundReport at p = 1 and the Corollary1Report of (f, g), from one
    pass, each checked by ``_require_certified``."""
    pair = _pair(f, g, (1.0,), "evaluate_theorem")
    theorem = _require_certified(_theorems(pair)[0], context)
    return theorem, _require_certified(_corollary(pair), context)


def gaussian(
    grid: GridSpec,
    center: float | Sequence[float] = 0.0,
    width: float | Sequence[float] = 1.0,
    amplitude: complex = 1.0,
) -> SampledFunction:
    """amplitude * exp(-pi sum_i ((x_i - c_i)/w_i)^2) sampled on ``grid``.

    The samples are formed slab by slab (``grid._run_slabs``) from one 1-D
    factor exp(-pi ((x_i - c_i)/w_i)^2) per axis: the factors of axes 1 and
    up are multiplied once into one array of a slab's row shape, and each
    slab takes that times its rows' axis-0 factor, and the field keeps the
    buffer (``_GridField._own``).  ``amplitude`` is a finite real or complex
    number, not a bool; every factor lies in [0, 1], so the samples are
    finite.
    """
    centers = _reals(center, "center", grid.dimension)
    widths = _reals(width, "width", grid.dimension)
    if min(widths) <= 0:
        raise ValueError("width must be positive")
    try:
        finite = isinstance(amplitude, numbers.Complex) and cmath.isfinite(amplitude)
    except OverflowError:  # an int too large for a double
        finite = False
    if isinstance(amplitude, bool) or not finite:
        raise ValueError(f"amplitude must be a finite real or complex number, got {amplitude!r}")
    # a tiny width overflows ((x - c) / w)^2 away from the centre, where the
    # factor's true value is 0, which exp(-inf) gives
    with np.errstate(over="ignore"):
        first, *others = (
            np.exp(-np.pi * ((x - c) / w) ** 2)
            for c, w, x in zip(centers, widths, grid.coordinate_grids())
        )
    rest = functools.reduce(np.multiply, others) if others else None
    values = np.empty(grid.shape, dtype=np.complex128)

    def fill(s):
        np.multiply(amplitude, first[s] if rest is None else first[s] * rest, out=values[s])

    _run_slabs(fill, grid.shape)
    return SampledFunction._own(grid, values)


def smooth_bump(t):
    """Standard compactly supported bump exp(-1/(1 - t^2)) on (-1, 1), else 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def triangle_spectrum(freq_grid: GridSpec) -> Spectrum:
    """Spectrum max(0, 1 - |xi|) on a 1-D frequency grid covering [-1, 1]."""
    if freq_grid.dimension != 1:
        raise ValueError("triangle_spectrum is one-dimensional")
    if freq_grid.half_extent[0] < 1.0:
        raise ValueError("frequency grid must cover [-1, 1]")
    xi = freq_grid.axis_coordinate(0)
    return Spectrum(freq_grid, np.maximum(0.0, 1.0 - np.abs(xi)))


def optimality_family(grid: GridSpec, L: float) -> tuple[SampledFunction, SampledFunction]:
    """The sign-flip pair with spectrum (1/L) smooth_bump(xi / L) and its negative.

    Both functions have identical spectral modulus and a real spectrum, so the
    whole L^2 distance 2 |f|_2 must be carried by the smoothness term.
    """
    if grid.dimension != 1:
        raise ValueError("optimality_family is one-dimensional")
    L, given = _real(L), L
    if L is None or not L > 0:
        raise ValueError(f"L must be a positive real, got {given!r}")
    freq = grid.dual()
    if freq.half_extent[0] < L:
        raise ValueError(
            f"frequency domain half-extent {freq.half_extent[0]} does not cover [-L, L] for L={L}"
        )
    xi = freq.axis_coordinate(0)
    fhat = Spectrum(freq, smooth_bump(xi / L) / L)
    f = inverse_transform(fhat)
    return f, -f


def optimality_experiment(
    L_values: Sequence[float] | None = None, grid: GridSpec | None = None
):
    """Sweep the support size L; fit both distance exponents.

    Returns ``(results, corollary1_reports)`` where results holds the
    ScalingResult for |f-g|_2 (expected slope -1/2) and for |f-g|_1 (expected
    slope -1).  The band-limited bound is certified on every pair; its
    rhs-to-lhs ratio is L-independent for this family, which is what "optimal
    up to constants" means (the constant itself is set by the factor 30 in the
    bound and sits near 52 for this bump, see the reports).
    """
    grid = OPTIMALITY_GRID if grid is None else grid
    L_values = _reals(DEFAULT_SWEEPS["optimality"] if L_values is None else L_values, "L_values")
    l2s, l1s, reports = [], [], []
    for L in L_values:
        f, g = optimality_family(grid, L)
        report, corollary = _certified_pass(f, g, f"optimality L={L}")
        reports.append(corollary)
        l2s.append(report.lhs)
        l1s.append(report.epsilon)
    results = [
        fit_scaling("optimality_l2", L_values, l2s, expected_slope=-0.5, slope_tolerance=0.1),
        fit_scaling("optimality_l1", L_values, l1s, expected_slope=-1.0, slope_tolerance=0.1),
    ]
    return results, reports


def _quintic_smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _check_amplitude(delta) -> float:
    """``delta`` as a float: a finite real (not a bool or a string) that is
    not negative, else ValueError."""
    value = _real(delta)
    if value is None or not math.isfinite(value):
        raise ValueError(f"triangle amplitude delta must be a finite real, got {delta!r}")
    if value < 0.0:
        raise ValueError(
            f"triangle amplitude delta={value!r} is negative: it flips no sample, so g = f"
        )
    return value


def edge_sign_flip(xi: np.ndarray, fhat: np.ndarray, delta: float) -> np.ndarray:
    """Even modulus-invisible perturbation of the triangle spectrum at amplitude delta.

    The spectrum's sign is flipped on the outer band where the triangle drops
    below delta, with a smooth transition over the inner half of the band.
    The smooth transition keeps f - g integrable-looking on the truncated grid
    (a hard flip edge would add a slowly decaying 1/x tail whose L^1 mass grows
    logarithmically and pollutes the fitted exponent).  delta = 0 flips
    nothing; a negative or non-finite delta raises ValueError.
    """
    delta = _check_amplitude(delta)
    u = 1.0 - np.abs(xi)  # height of the triangle at xi, negative outside
    inner = 0.5 * delta
    with np.errstate(divide="ignore", invalid="ignore"):  # delta = 0 never selects the ramp
        ramp = _quintic_smoothstep((delta - u) / inner)
    chi = np.where(u <= inner, 1.0, np.where(u >= delta, 0.0, ramp))
    chi = np.where(u < 0.0, 0.0, chi)
    return (1.0 - 2.0 * chi) * fhat


def triangle_experiment(
    amplitudes: Sequence[float] | None = None, grid: GridSpec | None = None
) -> ScalingResult:
    """Fit the exponent of the modulus-invisible residual for even perturbations.

    For each amplitude the residual |f-g|_2 - 2 | |F|-|G| |_2 is measured
    against |f-g|_1.  Only points in the power regime of the smoothness
    modulus (10 |f-g|_1 <= 1, sub-level band inside the triangle) enter the
    fit; expected slope 3/2.  Larger amplitudes leave the power regime and are
    covered by the linear branch of the band-limited bound, which is certified
    on every pair.  Every amplitude is checked before any is evaluated: a
    negative one raises ValueError, as it would perturb nothing.
    """
    grid = TRIANGLE_GRID if grid is None else grid
    amplitudes = DEFAULT_SWEEPS["triangle"] if amplitudes is None else amplitudes
    amplitudes = _reals(amplitudes, "amplitudes")
    for delta in amplitudes:
        _check_amplitude(delta)
    freq = grid.dual()
    fhat = triangle_spectrum(freq)
    f = inverse_transform(fhat)
    xi = freq.axis_coordinate(0)
    params, observables = [], []
    for delta in amplitudes:
        g = inverse_transform(Spectrum(freq, edge_sign_flip(xi, fhat.values, delta)))
        report, _ = _certified_pass(f, g, f"triangle delta={delta}")
        if _REGIME * report.epsilon <= 1.0:
            params.append(report.epsilon)
            observables.append(report.lhs - report.term_modulus)
    return fit_scaling("triangle", params, observables, expected_slope=1.5, slope_tolerance=0.15)


def translation_experiment(
    f: SampledFunction | None = None,
    epsilons: Sequence[float] | None = None,
    grid: GridSpec | None = None,
) -> ScalingResult:
    """Shift sweep g = f(. - eps): slope of |f-g|_2 against eps (expected 1).

    Along the way the translation term is checked against its closed form
    2 | F(xi) sin(2 pi eps xi) |_2 to 1e-8 relative, and the modulus term is
    checked to vanish (below 1e-10 |F|_2): a shift leaves |F| untouched.
    """
    grid = DEFAULT_GRID if grid is None else grid
    if f is None:
        f = gaussian(grid)
    if f.grid.dimension != 1:
        raise ValueError("translation_experiment is one-dimensional")
    epsilons = _reals(DEFAULT_SWEEPS["translation"] if epsilons is None else epsilons, "epsilons")
    F = fourier_transform(f)
    xi = F.grid.axis_coordinate(0)
    vol = F.grid.cell_volume
    mags = np.abs(F.values)
    modulus_floor = 1e-10 * _lp_norm(mags, vol, 2.0)
    observables = []
    for eps in epsilons:
        report = evaluate_theorem(f, shift(f, eps), 1.0)
        term = report.term_translation
        reference = 2.0 * _lp_norm(mags * np.sin(2.0 * np.pi * eps * xi), vol, 2.0)
        if reference > 0 and abs(term - reference) > 1e-8 * reference:
            raise ArithmeticError(
                f"translation term {term!r} deviates from closed form {reference!r} at eps={eps}"
            )
        if report.term_modulus > modulus_floor:
            raise ArithmeticError(
                f"modulus term {report.term_modulus:.3e} nonzero under a pure shift at eps={eps}"
            )
        _require_certified(report, f"translation eps={eps}")
        observables.append(report.lhs)
    return fit_scaling("translation", epsilons, observables, expected_slope=1.0, slope_tolerance=0.05)


def tail_experiment(
    k: int,
    n: int,
    epsilons: Sequence[float] | None = None,
    grid: GridSpec | None = None,
) -> ScalingResult:
    """Sub-level-mass decay for the spectrum (1 + |xi|^k)^(-1) in dimension n.

    Expected log-log slope 2 - n/k, valid under k > (n + 2)/2.  The spectrum
    is built directly on a frequency grid; no space-domain side is needed.
    A sweep point with 10 eps >= max|F| = 1 is refused with ValueError: its
    sub-level set is the whole grid, so its mass carries no decay.
    """
    tp = TailParams(k=k, n=n)
    grid = TAIL_GRIDS[tp.n] if grid is None else grid
    if grid.dimension != tp.n:
        raise ValueError(f"grid dimension {grid.dimension} does not match n={tp.n}")
    epsilons = _reals(DEFAULT_SWEEPS["tail"] if epsilons is None else epsilons, "epsilons")
    rsq = np.zeros(grid.shape, dtype=float)
    for xi in grid.coordinate_grids():
        rsq = rsq + xi * xi
    mags = 1.0 / (1.0 + np.sqrt(rsq) ** tp.k)
    peak = float(mags.max())
    for eps in epsilons:
        if _REGIME * eps >= peak:
            raise ValueError(
                f"tail sweep point eps={eps!r}: 10 eps >= max|F| = {peak!r}, "
                "so the sub-level set is the whole grid"
            )
        _check_epsilon(eps)
    # spectral_tail at each point, with |F|^2 formed once for the sweep
    observables = _sublevel_masses(mags, grid.cell_volume, epsilons)
    return fit_scaling(
        f"tail_k{tp.k}_n{tp.n}",
        epsilons,
        observables,
        expected_slope=tp.expected_exponent,
        slope_tolerance=0.1,
    )


# ---------------------------------------------------------------------------
# Randomized pair families for certification sweeps
# ---------------------------------------------------------------------------


def _random_gaussian(rng: np.random.Generator, grid: GridSpec) -> SampledFunction:
    amp = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return gaussian(
        grid,
        center=rng.uniform(-2.0, 2.0, grid.dimension),
        width=rng.uniform(0.5, 2.0, grid.dimension),
        amplitude=amp,
    )


def _gaussian_pair(rng, grid):
    return _random_gaussian(rng, grid), _random_gaussian(rng, grid)


def _shifted_gaussian_pair(rng, grid):
    f = _random_gaussian(rng, grid)
    offset = 10.0 ** rng.uniform(-3.0, -0.3) * rng.choice([-1.0, 1.0])
    return f, shift(f, (offset,) * grid.dimension)


def _signflip_bump_pair(rng, grid):
    half_extent = grid.dual().half_extent[0]
    if half_extent < 4.0:
        # L is drawn from [2, min(8, half_extent / 2)], which is then empty
        raise ValueError(
            "the signflip_bump pair family needs a dual half-extent of at least 4, "
            f"got {half_extent!r}"
        )
    return optimality_family(grid, rng.uniform(2.0, min(8.0, 0.5 * half_extent)))


def _perturbed_triangle_pair(rng, grid):
    freq = grid.dual()
    fhat = triangle_spectrum(freq)
    f = inverse_transform(fhat)
    xi = freq.axis_coordinate(0)
    if rng.uniform() < 0.5:
        ghat_vals = edge_sign_flip(xi, fhat.values, rng.uniform(0.05, 0.9))
    else:
        # additive even real bump, modulus-visible perturbation
        c = rng.uniform(0.0, 2.0)
        w = rng.uniform(0.2, 1.0)
        a = 10.0 ** rng.uniform(-2.0, 0.0)
        ghat_vals = fhat.values + a * (smooth_bump((xi - c) / w) + smooth_bump((xi + c) / w))
    return f, inverse_transform(Spectrum(freq, ghat_vals))


def _bandlimited_pair(rng, grid):
    if grid.dimension != 1:
        raise ValueError("the band-limited pair family is one-dimensional")
    freq = grid.dual()
    xi = freq.axis_coordinate(0)

    def draw():
        envelope = smooth_bump(xi / rng.uniform(2.0, 8.0))
        coeffs = rng.normal(size=xi.size) + 1j * rng.normal(size=xi.size)
        return inverse_transform(Spectrum(freq, coeffs * envelope))

    f = draw()
    if rng.uniform() < 0.5:
        return f, draw()
    scale = 10.0 ** rng.uniform(-3.0, 0.0)
    return f, f + scale * draw()


FAMILY_BUILDERS = {
    "gaussian": _gaussian_pair,
    "shifted_gaussian": _shifted_gaussian_pair,
    "signflip_bump": _signflip_bump_pair,
    "perturbed_triangle": _perturbed_triangle_pair,
    "bandlimited": _bandlimited_pair,
}


def iter_certification_pairs(
    count: int, rng: np.random.Generator | None = None, grid: GridSpec | None = None
):
    """An iterator over ``count`` random (name, f, g) pairs cycling through all families.

    Each pair is built when it is drawn, so a family that refuses ``grid``
    (``signflip_bump`` needs a dual half-extent of at least 4,
    ``bandlimited`` a 1-D grid) raises ValueError only when its turn comes.
    """
    total = _index(count)
    if total is None or total < 0:
        raise ValueError(f"count must be a nonnegative integer, got {count!r}")
    rng = np.random.default_rng(0) if rng is None else rng
    grid = DEFAULT_GRID if grid is None else grid
    names = itertools.islice(itertools.cycle(FAMILY_BUILDERS), total)
    return ((name, *FAMILY_BUILDERS[name](rng, grid)) for name in names)
