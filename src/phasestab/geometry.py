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

from .bounds import _REGIME, _check_epsilon
from .grid import _BLOCK, MAX_TOTAL_POINTS, _index

__all__ = [
    "Lemma1Scan",
    "lemma1_gap",
    "lemma1_scan",
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

    The gap is formed in blocks of ``_BLOCK`` points, with the formula's
    elementwise operations in the order of one full-size pass, so every point
    rounds as it would there.  Every point is checked before any gap is
    formed, so an inadmissible point anywhere raises before any arithmetic
    that could overflow.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=complex)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be positive and finite (w = 0 is a degenerate rejection)")
    shape = np.broadcast_shapes(w.shape, z.shape)
    w = np.broadcast_to(w, shape).reshape(-1)
    z = np.broadcast_to(z, shape).reshape(-1)
    gap = np.empty(shape)
    out = gap.reshape(-1)
    starts = range(0, out.size, _BLOCK)
    diff = np.empty(min(out.size, _BLOCK), dtype=complex)
    for start in starts:
        s = slice(start, start + _BLOCK)
        wb, dist = w[s], out[s]
        np.abs(np.subtract(z[s], wb, out=diff[: dist.size]), out=dist)
        if not np.all(dist <= 0.5 * wb * (1.0 + _BOUNDARY_RTOL)):
            raise ValueError("inadmissible input: need |z - w| <= w/2")
    buf = np.empty_like(diff, dtype=float)
    for start in starts:
        s = slice(start, start + _BLOCK)
        wb, zb, rhs = w[s], z[s], out[s]
        tmp = buf[: rhs.size]
        # rhs = (w - |z|)^2 + 2 (dist / w) (Im z)^2, built over dist
        np.divide(rhs, wb, out=rhs)
        np.multiply(2.0, rhs, out=rhs)
        np.multiply(rhs, np.square(zb.imag, out=tmp), out=rhs)
        np.subtract(wb, np.abs(zb, out=tmp), out=tmp)
        np.add(np.square(tmp, out=tmp), rhs, out=rhs)
        # gap = rhs - (w - Re z)^2
        np.subtract(wb, zb.real, out=tmp)
        np.subtract(rhs, np.square(tmp, out=tmp), out=rhs)
    return gap if gap.ndim else float(gap)


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
    steps = _index(radius_steps), _index(angle_steps)
    if None in steps or min(steps) < 2:
        raise ValueError("radius_steps and angle_steps must both be integers >= 2")
    radius_steps, angle_steps = steps
    if radius_steps * angle_steps > MAX_TOTAL_POINTS:
        raise ValueError(f"radius_steps * angle_steps exceeds the supported limit {MAX_TOTAL_POINTS}")
    r = np.linspace(0.0, 0.5, radius_steps)[:, None]
    theta = np.linspace(0.0, 2.0 * np.pi, angle_steps, endpoint=False)[None, :]
    z = 1.0 + r * np.exp(1j * theta)
    gap = lemma1_gap(1.0, z)
    flat = int(np.argmin(gap))
    return Lemma1Scan(
        min_gap=float(gap.reshape(-1)[flat]),
        argmin_z=complex(z.reshape(-1)[flat]),
        radius_steps=radius_steps,
        angle_steps=angle_steps,
    )


def pointwise_first_term_check(fhat_val, ghat_val, epsilon: float):
    """Gap of the per-frequency estimate in its regime; nonnegative there.

    Requires |fhat_val| >= 10 epsilon and |fhat_val - ghat_val| <= epsilon;
    outside that regime the estimate is not claimed and inputs are rejected.
    Returns RHS - LHS of

        |F - G|^2 <= (|F| - |G|)^2 + (6/5) Im(conj(F) G / |F|)^2.
    """
    epsilon = _check_epsilon(epsilon)
    F = np.asarray(fhat_val, dtype=complex)
    G = np.asarray(ghat_val, dtype=complex)
    magF = np.abs(F)
    if not np.all(magF >= _REGIME * epsilon * (1.0 - _BOUNDARY_RTOL)):
        raise ValueError("regime violation: need |fhat_val| >= 10 epsilon")
    if not np.all(np.abs(F - G) <= epsilon * (1.0 + _BOUNDARY_RTOL)):
        raise ValueError("regime violation: need |fhat_val - ghat_val| <= epsilon")
    tangential = (np.conj(F) * G).imag / magF
    rhs = (magF - np.abs(G)) ** 2 + (6.0 / 5.0) * tangential**2
    gap = rhs - np.abs(F - G) ** 2
    return gap if gap.ndim else float(gap)
