"""A plain longdouble evaluation of the reports and of two field builders.

The reference that the blocked, two-thread double pass is judged by: every
field of ``BoundReport`` and ``Corollary1Report`` from ``ifftshift``/
``fftn``/``fftshift`` in ``clongdouble`` and ``np.sum`` in longdouble, with
no blocks and on one thread, and longdouble samples of ``gaussian`` and
``shift``.  Grid constants (cell volumes, spacings) are the library's
doubles, taken exactly, so the oracle evaluates the same formulas in the
wider type.  On x86-64 longdouble has eps 2^-63 (``LONGDOUBLE_EPS``), so the
oracle's own rounding is about 2000 times below a double's; where the type is
no wider than double this module fails to import, so the tests that read it
fail rather than pass vacuously.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble
LONGDOUBLE_EPS = float(np.finfo(LD).eps)
# a longdouble that is double would judge every test that reads the oracle
# by itself: fail to import instead
assert LONGDOUBLE_EPS < 1e-18, f"longdouble eps {LONGDOUBLE_EPS} is no finer than double's"
PI = 4 * np.arctan(LD(1))
# the default zero_tol and support_tol of the reports, relative to max|F|
_DEFAULT_TOL = LD(1e-12)


def _centred(values, scale):
    """The centred transform of ``values`` in clongdouble, times ``scale``."""
    a = np.asarray(values, dtype=np.clongdouble)
    return LD(scale) * np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(a)))


def _norm(total, volume, p):
    return (LD(volume) * total) ** (1 / LD(p))


class Pass:
    """The p-independent part of one pair's reports: F, G, |F|, lhs and the
    modulus term, each one full-size longdouble expression."""

    def __init__(self, f, g):
        self.volume = LD(f.grid.dual().cell_volume)
        self.space_volume = f.grid.cell_volume
        fv, gv = (np.asarray(h.values, np.clongdouble) for h in (f, g))
        self.absdiff = np.abs(fv - gv)
        self.lhs = _norm(np.sum(self.absdiff**2), self.space_volume, 2)
        self.F = _centred(f.values, self.space_volume)
        self.G = _centred(g.values, self.space_volume)
        self.magF = np.abs(self.F)
        self.modulus_l2 = np.sqrt(self.volume * np.sum((self.magF - np.abs(self.G)) ** 2))

    def epsilon(self, p):
        return _norm(np.sum(self.absdiff**p), self.space_volume, p)

    def mass(self, x):
        return self.volume * np.sum(np.where(self.magF <= 10 * x, self.magF**2, 0))

    def theorem(self, p) -> dict:
        """The BoundReport fields at ``p`` and the default zero_tol."""
        eps, lhs = self.epsilon(p), self.lhs
        tol = _DEFAULT_TOL * self.magF.max()
        kept = self.magF > tol
        field = np.where(kept, (np.conj(self.F) * self.G).imag / np.where(kept, self.magF, 1), 0)
        translation = 2 * np.sqrt(self.volume * np.sum(field**2))
        mass = self.mass(eps)
        modulus = 2 * self.modulus_l2
        smoothness = np.sqrt(8 * mass) + (eps if p > 1 else 0)
        rhs = modulus + smoothness + translation
        squared_rhs = (
            2 * self.modulus_l2**2 + LD(6) / 5 * (translation / 2) ** 2
            + (eps**2 if p > 1 else 0) + 8 * mass
        )
        return {
            "p": LD(p), "epsilon": eps, "lhs": lhs, "term_modulus": modulus,
            "term_smoothness": smoothness, "term_translation": translation, "rhs": rhs,
            "slack": rhs - lhs, "squared_form_slack": squared_rhs - lhs**2,
        }

    def corollary1(self) -> dict:
        """The Corollary1Report fields at the default support_tol."""
        eps, lhs = self.epsilon(1), self.lhs
        L = self.volume * np.count_nonzero(self.magF > _DEFAULT_TOL * self.magF.max())
        modulus = 2 * self.modulus_l2
        bandlimit = 30 * np.sqrt(L) * eps
        translation = 2 * np.sqrt(self.volume * np.sum(self.G.imag**2))
        rhs = modulus + bandlimit + translation
        return {
            "epsilon": eps, "lhs": lhs, "term_modulus": modulus, "term_bandlimit": bandlimit,
            "term_translation": translation, "support_measure": L, "rhs": rhs, "slack": rhs - lhs,
        }


def gaussian(grid, center, width, amplitude):
    """experiments.gaussian's samples in clongdouble."""
    expo = LD(0)
    for axis, (c, w) in enumerate(zip(center, width)):
        shape = [1] * grid.dimension
        shape[axis] = -1
        x = np.asarray(grid.axis_coordinate(axis), dtype=LD).reshape(shape)
        expo = expo + ((x - LD(c)) / LD(w)) ** 2
    return np.clongdouble(amplitude) * np.exp(-PI * expo)


def shift(f, offsets):
    """grid.shift's samples in clongdouble: the spectrum of ``f`` times
    exp(-2 pi i xi.offset), transformed back."""
    dual = f.grid.dual()
    phase = LD(0)
    for axis, eps in enumerate(offsets):
        shape = [1] * dual.dimension
        shape[axis] = -1
        xi = np.asarray(dual.axis_coordinate(axis), dtype=LD).reshape(shape)
        phase = phase + LD(eps) * xi
    spectrum = _centred(f.values, f.grid.cell_volume) * np.exp(-2j * PI * phase)
    scale = LD(dual.cell_volume) * dual.size
    return scale * np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spectrum)))


def field_error(values, reference) -> float:
    """max|values - reference| / max|reference|, in doubles."""
    err = np.abs(np.asarray(values, np.clongdouble) - reference).max()
    return float(err / np.abs(reference).max())
