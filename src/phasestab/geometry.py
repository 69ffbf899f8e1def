"""Complex-plane inequalities behind the stability bound.

Two pointwise facts are exercised here.  The first ("lemma 1" in the library's
own naming, mirroring the CLI subcommand) is the half-radius-disk inequality

    |w - Re z|^2  <=  |w - |z||^2 + 2 |(z - w)/w| (Im z)^2

for real w > 0 and complex z with |z - w| <= w/2.  The second is the
per-frequency estimate it implies: writing a spectrum value pair (F, G) with
|F| >= 10 eps and |F - G| <= eps,

    |F - G|^2  <=  (|F| - |G|)^2 + (6/5) Im(conj(F) G / |F|)^2.

Both are checked numerically by returning the gap (right side minus left
side), which must be nonnegative on the admissible set.  Admissibility is
enforced by rejection: neither inequality is claimed outside its region, and
silently evaluating there would poison the property tests built on top.

All gap functions accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _REGIME

__all__ = [
    "Decomposition",
    "Lemma1Scan",
    "lemma1_gap",
    "lemma1_scan",
    "lemma1_reduced_polynomial",
    "decompose",
    "pointwise_first_term_check",
]

# Relative slack admitting points that land a few ulps outside an admissibility
# boundary after rounding (e.g. polar points constructed at radius exactly w/2).
_BOUNDARY_RTOL = 1e-13


def lemma1_gap(w, z):
    """Gap of the half-disk inequality: RHS - LHS, nonnegative when admissible.

    ``w`` must be positive and ``z`` must satisfy |z - w| <= w/2.  The w = 0
    case is rejected as degenerate: the ratio (z - w)/w is undefined there and
    the admissible set collapses to the single point z = 0.

    Both sides scale quadratically under (w, z) -> (lam w, lam z), so gaps for
    different w are comparable after dividing by w^2.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=complex)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be positive and finite (w = 0 is a degenerate rejection)")
    dist = np.abs(z - w)
    if np.any(dist > 0.5 * w * (1.0 + _BOUNDARY_RTOL)):
        raise ValueError("inadmissible input: need |z - w| <= w/2")
    rhs = (w - np.abs(z)) ** 2 + 2.0 * (dist / w) * z.imag**2
    lhs = (w - z.real) ** 2
    gap = rhs - lhs
    return gap if gap.ndim else float(gap)


def lemma1_reduced_polynomial(x, y):
    """Factored form (divided by y^2) of the squared half-disk inequality at w = 1.

    With z = (1 + x) + i y, the inequality reduces to the nonnegativity of

        y^2 + 8 sqrt(x^2+y^2) + 4x + 4 x^2 y^2 + 8x sqrt(x^2+y^2) + 4 y^2 sqrt(x^2+y^2)

    on the disk x^2 + y^2 <= 1/4.  Exposed so the reduction itself can be
    scanned independently of :func:`lemma1_gap`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.sqrt(x * x + y * y)
    val = y * y + 8.0 * r + 4.0 * x + 4.0 * x * x * y * y + 8.0 * x * r + 4.0 * y * y * r
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class Lemma1Scan:
    """Brute-force minimum of the half-disk gap over a polar grid at w = 1."""

    min_gap: float
    argmin_z: complex
    radius_steps: int
    angle_steps: int


def lemma1_scan(radius_steps: int, angle_steps: int) -> Lemma1Scan:
    """Evaluate the gap on z = 1 + r e^{i theta}, r in [0, 1/2], theta in [0, 2 pi).

    Returns the minimum gap and where it is attained.  A counterexample to the
    inequality would show up as a minimum below the rounding floor (about
    -1e-12); the scan is the oracle here, the claim is min >= 0.
    """
    if radius_steps < 2 or angle_steps < 2:
        raise ValueError("radius_steps and angle_steps must both be >= 2")
    r = np.linspace(0.0, 0.5, radius_steps)[:, None]
    theta = np.linspace(0.0, 2.0 * np.pi, angle_steps, endpoint=False)[None, :]
    z = 1.0 + r * np.exp(1j * theta)
    gap = lemma1_gap(1.0, z)
    flat = int(np.argmin(gap))
    return Lemma1Scan(
        min_gap=float(gap.reshape(-1)[flat]),
        argmin_z=complex(z.reshape(-1)[flat]),
        radius_steps=int(radius_steps),
        angle_steps=int(angle_steps),
    )


@dataclass(frozen=True)
class Decomposition:
    """Components of G - F in the orthonormal frame (F/|F|, iF/|F|).

    ``a`` is the radial part (visible in the modulus |G| - |F| to first
    order), ``b`` the tangential part (the direction a translation pushes the
    spectrum value).  Always sqrt(a^2 + b^2) = |F - G|.
    """

    a: float
    b: float


def decompose(fhat_val: complex, ghat_val: complex) -> Decomposition:
    """Resolve ``ghat_val - fhat_val`` along and across the direction of ``fhat_val``.

    Rejects fhat_val = 0, where the frame direction is undefined.  The result
    is invariant under a joint rotation of both arguments, and
    ``b == Im(conj(fhat_val) ghat_val / |fhat_val|)`` exactly.
    """
    fhat_val = complex(fhat_val)
    ghat_val = complex(ghat_val)
    mag = abs(fhat_val)
    if mag == 0.0:
        raise ValueError("decompose requires fhat_val != 0 (direction undefined)")
    c = (fhat_val.conjugate() / mag) * (ghat_val - fhat_val)
    return Decomposition(a=c.real, b=c.imag)


def pointwise_first_term_check(fhat_val, ghat_val, epsilon: float):
    """Gap of the per-frequency estimate in its regime; nonnegative there.

    Requires |fhat_val| >= 10 epsilon and |fhat_val - ghat_val| <= epsilon;
    outside that regime the estimate is not claimed and inputs are rejected.
    Returns RHS - LHS of

        |F - G|^2 <= (|F| - |G|)^2 + (6/5) Im(conj(F) G / |F|)^2.
    """
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    F = np.asarray(fhat_val, dtype=complex)
    G = np.asarray(ghat_val, dtype=complex)
    magF = np.abs(F)
    if np.any(magF < _REGIME * epsilon * (1.0 - _BOUNDARY_RTOL)):
        raise ValueError("regime violation: need |fhat_val| >= 10 epsilon")
    if np.any(np.abs(F - G) > epsilon * (1.0 + _BOUNDARY_RTOL)):
        raise ValueError("regime violation: need |fhat_val - ghat_val| <= epsilon")
    tangential = (np.conj(F) * G).imag / magF
    rhs = (magF - np.abs(G)) ** 2 + (6.0 / 5.0) * tangential**2
    gap = rhs - np.abs(F - G) ** 2
    return gap if gap.ndim else float(gap)
