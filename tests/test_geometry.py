import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasestab import geometry
from phasestab.geometry import (
    lemma1_gap,
    lemma1_scan,
    pointwise_first_term_check,
)
from phasestab.grid import _BLOCK, _TWO_THREADS_MIN_POINTS


def gap_oracle(w, z):
    """Direct arithmetic on both sides of the half-disk inequality."""
    rhs = abs(w - abs(z)) ** 2 + 2 * abs((z - w) / w) * z.imag**2
    lhs = (w - z.real) ** 2
    return rhs - lhs


admissible = st.tuples(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
).map(lambda t: (t[0], t[0] + t[0] * t[1] * cmath.exp(1j * t[2])))


class TestLemma1Gap:
    def test_fixed_point_has_zero_gap(self):
        assert lemma1_gap(1.0, 1.0 + 0j) == 0.0

    def test_reference_value(self):
        # oracle: direct evaluation of both sides at w=1, z=1.2+0.3i
        z = 1.2 + 0.3j
        expected = gap_oracle(1.0, z)
        got = lemma1_gap(1.0, z)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.08103656, abs=1e-6)

    def test_quadratic_scaling_example(self):
        small = lemma1_gap(1.0, 1.2 + 0.3j)
        large = lemma1_gap(2.0, 2.4 + 0.6j)
        assert large == pytest.approx(4.0 * small, rel=1e-12)

    @given(pair=admissible, lam=st.floats(min_value=0.01, max_value=100.0))
    def test_quadratic_scaling_invariance(self, pair, lam):
        w, z = pair
        base = lemma1_gap(w, z)
        scaled = lemma1_gap(lam * w, lam * z)
        assert scaled == pytest.approx(lam**2 * base, rel=1e-9, abs=1e-12 * max(1, lam**2))

    @given(pair=admissible)
    def test_nonnegative_on_admissible_set(self, pair):
        w, z = pair
        assert lemma1_gap(w, z) >= -1e-12 * max(1.0, w**2)

    @given(pair=admissible)
    def test_matches_direct_oracle(self, pair):
        # rounding scale: the two squares are O(w^2) and nearly cancel
        w, z = pair
        assert lemma1_gap(w, z) == pytest.approx(gap_oracle(w, z), abs=1e-13 * max(1.0, w**2))

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError, match="inadmissible"):
            lemma1_gap(1.0, 1.6 + 0.0j)
        with pytest.raises(ValueError, match="inadmissible"):
            lemma1_gap(1.0, 0.4 + 0.2j)

    @pytest.mark.parametrize(
        "z", [complex("nan"), np.array([1.0, np.nan])], ids=["scalar", "array"]
    )
    def test_rejects_nan_z(self, z):
        # every comparison with NaN is false, so the check must be written to fail on it
        with pytest.raises(ValueError, match="inadmissible"):
            lemma1_gap(1.0, z)

    def test_rejects_nonpositive_w(self):
        with pytest.raises(ValueError):
            lemma1_gap(0.0, 0.0 + 0j)
        with pytest.raises(ValueError):
            lemma1_gap(-1.0, -1.0 + 0j)

    def test_array_broadcast(self):
        z = np.array([1.0 + 0j, 1.2 + 0.3j, 0.9 - 0.2j])
        gaps = lemma1_gap(1.0, z)
        assert gaps.shape == (3,)
        assert np.all(gaps >= -1e-12)


def gap_unblocked(w, z):
    """lemma1_gap's formula in one full-size pass per operation, unchecked."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=complex)
    dist = np.abs(z - w)
    rhs = (w - np.abs(z)) ** 2 + 2.0 * (dist / w) * z.imag**2
    return rhs - (w - z.real) ** 2


def admissible_points(rng, size):
    """``size`` random (w, z) with |z - w| <= w/2, as the criterion-1 check draws them."""
    w = rng.uniform(0.05, 5.0, size)
    rho = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, size))
    return w, w * (1.0 + rho * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size)))


class TestLemma1GapBlocks:
    """lemma1_gap works in blocks of _BLOCK points; its bytes are the unblocked pass's."""

    @pytest.mark.usefixtures("no_thread_outlives_the_call")
    @pytest.mark.parametrize(
        "size",
        [
            0,
            1,
            _BLOCK - 1,
            _BLOCK,
            _BLOCK + 1,
            3 * _BLOCK + 7,
            _TWO_THREADS_MIN_POINTS,
            _TWO_THREADS_MIN_POINTS + 7,
        ],
    )
    def test_bytes_match_unblocked_pass(self, rng, size):
        w, z = admissible_points(rng, size)
        got = lemma1_gap(w, z)
        assert got.shape == (size,)
        assert got.tobytes() == gap_unblocked(w, z).tobytes()

    @pytest.mark.parametrize(
        "w_shape, z_shape", [((), (131, 127)), ((131, 127), ()), ((131, 1), (1, 127))]
    )
    def test_broadcast_bytes_match_unblocked_pass(self, rng, w_shape, z_shape):
        # 131 * 127 points span two blocks; w in [1, 1.5] keeps every z within w/2
        w = rng.uniform(1.0, 1.5, w_shape)
        z = 1.2 + 0.3j + 0.05 * (rng.uniform(-1, 1, z_shape) + 1j * rng.uniform(-1, 1, z_shape))
        got = lemma1_gap(w, z)
        assert got.shape == (131, 127)
        assert got.tobytes() == gap_unblocked(w, z).tobytes()

    def test_zero_dimensional_input_returns_python_float(self):
        got = lemma1_gap(np.float64(1.0), np.complex128(1.2 + 0.3j))
        assert type(got) is float
        assert got == float(gap_unblocked(1.0, 1.2 + 0.3j))

    def test_inadmissible_point_in_last_block_rejected(self, rng):
        w, z = admissible_points(rng, 2 * _BLOCK + 5)
        z[-1] = 1.6 * w[-1]
        with pytest.raises(ValueError, match="inadmissible"):
            lemma1_gap(w, z)

    @pytest.mark.usefixtures("no_thread_outlives_the_call")
    def test_inadmissible_point_in_the_workers_half_rejected(self, rng):
        # at the gate the second half of the blocks is checked on a worker
        size = _TWO_THREADS_MIN_POINTS
        w, z = admissible_points(rng, size)
        blocks = -(-size // _BLOCK)
        i = (blocks // 2) * _BLOCK + 5
        z[i] = 1.6 * w[i]
        with pytest.raises(ValueError, match=re.escape("inadmissible input: need |z - w| <= w/2")):
            lemma1_gap(w, z)

    def test_w_message_precedes_distance_violation(self, rng):
        w, z = admissible_points(rng, 2 * _BLOCK + 5)
        z[0] = 1.6 * w[0]
        w[-1] = 0.0
        with pytest.raises(ValueError, match="w must be positive"):
            lemma1_gap(w, z)

    def test_no_gap_formed_before_every_block_is_checked(self, rng):
        # the gap at w = 1e300 overflows; forming it before the NaN in a later
        # block is checked would warn (an error in this suite) instead of refusing
        w, z = admissible_points(rng, 2 * _BLOCK + 5)
        w[0], z[0] = 1e300, 1e300 * (1.2 + 0.3j)
        z[-1] = complex("nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="inadmissible"):
                lemma1_gap(w, z)

    def test_shapes_that_do_not_broadcast_rejected(self):
        with pytest.raises(ValueError):
            lemma1_gap(np.ones(3), np.ones(4, dtype=complex))


class TestLemma1Scan:
    def test_scan_500(self):
        scan = lemma1_scan(500, 500)
        assert scan.min_gap >= -1e-12

    def test_real_axis_scan_attains_zero(self):
        # theta in {0, pi}: real z, where both sides coincide
        scan = lemma1_scan(100, 2)
        assert scan.min_gap == 0.0
        assert scan.argmin_z.imag == 0.0

    def test_degenerate_scan_finite(self):
        scan = lemma1_scan(2, 2)
        assert np.isfinite(scan.min_gap)
        assert scan.min_gap >= -1e-12

    @pytest.mark.parametrize("steps", [(1, 100), (100, 1), (0, 0), (2.0, 3), (3, 2.5), (True, 3)])
    def test_invalid_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="integers >= 2"):
            lemma1_scan(*steps)

    def test_numpy_integer_steps_accepted(self):
        assert lemma1_scan(np.int64(3), np.int32(4)) == lemma1_scan(3, 4)

    @pytest.mark.parametrize("steps", [(2**13, 2**13 + 1), (100_000, 100_000), (2, 2**25 + 1)])
    def test_oversized_scan_rejected(self, steps):
        with pytest.raises(ValueError, match=f"exceeds the supported limit {2**26}"):
            lemma1_scan(*steps)

    def test_size_limit_admits_the_limit_itself(self, monkeypatch):
        # the limit is shrunk so that the scan at it stays small
        monkeypatch.setattr(geometry, "MAX_TOTAL_POINTS", 12)
        assert lemma1_scan(3, 4).angle_steps == lemma1_scan(4, 3).radius_steps == 4
        with pytest.raises(ValueError, match="supported limit 12"):
            lemma1_scan(3, 5)


class TestPointwiseFirstTerm:
    def test_equal_inputs(self):
        assert pointwise_first_term_check(1.0, 1.0, 0.05) == 0.0

    def test_reference_value_matches_oracle(self):
        # oracle: direct arithmetic on both sides
        F, G, eps = 1.0 + 0j, 0.99 + 0.04j, 0.05
        rhs = (abs(F) - abs(G)) ** 2 + 1.2 * ((F.conjugate() * G).imag / abs(F)) ** 2
        lhs = abs(F - G) ** 2
        got = pointwise_first_term_check(F, G, eps)
        assert got == pytest.approx(rhs - lhs, rel=1e-12)
        assert got >= 0.0

    def test_randomized_annulus(self, rng):
        eps = 0.03
        n = 100_000
        mag = rng.uniform(10 * eps, 1.0, n)
        F = mag * np.exp(2j * np.pi * rng.uniform(size=n))
        delta = eps * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        gaps = pointwise_first_term_check(F, F + delta, eps)
        assert gaps.min() >= -1e-12

    def test_regime_violations_rejected(self):
        with pytest.raises(ValueError, match="10 epsilon"):
            pointwise_first_term_check(0.4, 0.4, 0.05)
        with pytest.raises(ValueError, match="<= epsilon"):
            pointwise_first_term_check(1.0, 0.8, 0.05)
        with pytest.raises(ValueError, match="positive"):
            pointwise_first_term_check(1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "fhat_val, ghat_val, match",
        [
            (complex("nan"), 1.0, "10 epsilon"),
            (1.0, complex("nan"), "<= epsilon"),
            (np.array([1.0, np.nan]), 1.0, "10 epsilon"),
        ],
        ids=["nan-F", "nan-G", "nan-in-array"],
    )
    def test_nan_is_outside_the_regime(self, fhat_val, ghat_val, match):
        with pytest.raises(ValueError, match=match):
            pointwise_first_term_check(fhat_val, ghat_val, 0.05)

    @pytest.mark.parametrize(
        "eps", ["0.05", True, 0.05j, math.nan, [True], [0.05]],
        ids=["str", "bool", "complex", "nan", "list-with-bool", "list"],
    )
    def test_non_real_epsilon_refused(self, eps):
        with pytest.raises(ValueError, match=f"epsilon must be positive, got {re.escape(repr(eps))}"):
            pointwise_first_term_check(1.0, 1.0, eps)
