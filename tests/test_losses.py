import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparsemax import (
    delta_distribution,
    logistic_loss,
    logistic_loss_multi,
    sigmoid,
    softmax,
    sparsemax,
    sparsemax_loss,
    sparsemax_loss_multi,
)
from helpers import fd_gradient, huber_binary_reference, support_margin
from sparsemax.simplex import threshold_and_support

margins = st.floats(min_value=-8, max_value=8, allow_nan=False)


class TestLogisticLoss:
    def test_symmetric_pair(self):
        value, grad = logistic_loss([0.0, 0.0], 0)
        assert value == pytest.approx(np.log(2.0), abs=1e-15)
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_wide_margin_value(self):
        # Oracle: mpmath evaluation of log(1 + e^-10).  The max-subtracted
        # computation re-adds the shift of 10, so the result carries its ulp.
        expected = float(mpmath.log(1 + mpmath.exp(-10)))
        value, _ = logistic_loss([10.0, 0.0], 0)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_gradient_is_softmax_minus_delta(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(size=5) * 3
            k = int(rng.integers(5))
            _, grad = logistic_loss(z, k)
            np.testing.assert_allclose(grad, softmax(z) - delta_distribution(k, 5), atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(size=4) * 2
            k = int(rng.integers(4))
            _, grad = logistic_loss(z, k)
            np.testing.assert_allclose(grad, fd_gradient(lambda u: logistic_loss(u, k).value, z), atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            logistic_loss([0.0, 0.0], 2)
        with pytest.raises(ValueError):
            logistic_loss([0.0, 0.0], -1)


class TestSparsemaxLoss:
    def test_symmetric_pair(self):
        value, grad = sparsemax_loss([0.0, 0.0], 0)
        assert value == 0.25
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_losing_by_two(self):
        value, _ = sparsemax_loss([-2.0, 0.0], 0)
        assert value == 2.0

    def test_exact_zero_at_unit_margin(self):
        # Past the margin, an expanded formula would cancel
        # z_k^2 - (z_k - 1)^2 to an ulp below zero on the second and third
        # inputs.  On the last, an unshifted threshold z_k - 1 rounds so that
        # sparsemax(z)_k misses 1 by an ulp.
        for z in (
            [1.0, 0.0],
            [3.2016220405656206, 0.0],
            [4.4271114742790765, 0.0],
            [-3.642285196613671, -4.823791287851915],
        ):
            value, grad = sparsemax_loss(z, 0)
            assert value == 0.0
            assert np.array_equal(grad, [0.0, 0.0])

    def test_gradient_is_sparsemax_minus_delta(self):
        # Before clamping, the rounded threshold here is 0.0, below the third
        # score, which sparsemax sets to 0.0; the gradient must not leak there.
        z = np.array([0.5, 0.5, 3.16e-111])
        for k in range(3):
            _, grad = sparsemax_loss(z, k)
            assert np.array_equal(grad, sparsemax(z) - delta_distribution(k, 3))

    def test_equals_modified_huber_in_two_dims(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            z = rng.uniform(-4, 4, size=2)
            value, _ = sparsemax_loss(z, 0)
            assert value == pytest.approx(huber_binary_reference(z[0] - z[1]), abs=1e-12)

    def test_continuous_when_support_shrinks(self):
        # The support size changes exactly at a score gap of 1; the loss
        # must not jump there.
        for base in ([0.0, 0.0], [2.0, 1.0, -1.0, -3.0]):
            base = np.array(base)
            for k in range(base.size):
                lo = base.copy()
                hi = base.copy()
                lo[0] = base[1] + 1.0 - 1e-9
                hi[0] = base[1] + 1.0 + 1e-9
                assert sparsemax_loss(lo, k).value == pytest.approx(
                    sparsemax_loss(hi, k).value, abs=1e-8
                )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 50:
            z = rng.normal(size=5) * 2
            if support_margin(z, threshold_and_support(z)) < 1e-3:
                continue
            k = int(rng.integers(5))
            _, grad = sparsemax_loss(z, k)
            np.testing.assert_allclose(grad, fd_gradient(lambda u: sparsemax_loss(u, k).value, z), atol=1e-6)
            done += 1

    @given(st.lists(margins, min_size=2, max_size=8), st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_shift_invariance(self, scores, shift):
        z = np.array(scores)
        a = sparsemax_loss(z, 0).value
        b = sparsemax_loss(z + shift, 0).value
        assert abs(a - b) <= 1e-10

    @given(st.lists(margins, min_size=2, max_size=8))
    @example(scores=[3.2016220405656206, 0.0])
    @example(scores=[4.4271114742790765, 0.0])
    def test_nonnegative(self, scores):
        assert sparsemax_loss(np.array(scores), 0).value >= 0.0

    def test_convexity_probe(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z1 = rng.normal(size=4) * 3
            z2 = rng.normal(size=4) * 3
            k = int(rng.integers(4))
            alpha = rng.uniform(0.1, 0.9)
            mid = sparsemax_loss(alpha * z1 + (1 - alpha) * z2, k).value
            assert mid <= alpha * sparsemax_loss(z1, k).value + (1 - alpha) * sparsemax_loss(z2, k).value + 1e-10


class TestMultiTargetLosses:
    def test_logistic_zero_when_target_is_softmax(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=6)
        value, grad = logistic_loss_multi(z, softmax(z))
        assert abs(value) <= 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_logistic_reduces_to_single_label(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.normal(size=5) * 2
            k = int(rng.integers(5))
            single = logistic_loss(z, k)
            multi = logistic_loss_multi(z, delta_distribution(k, 5))
            assert single.value == multi.value
            assert np.array_equal(single.gradient, multi.gradient)

    def test_sparsemax_reduces_to_single_label(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.normal(size=5) * 2
            k = int(rng.integers(5))
            single = sparsemax_loss(z, k)
            multi = sparsemax_loss_multi(z, delta_distribution(k, 5))
            assert single.value == multi.value
            assert np.array_equal(single.gradient, multi.gradient)

    def test_sparsemax_half_mass_pair(self):
        # By hand: tau = -1/4, support {0, 1}, so the value is
        # -<q, z> + ((0.25 - 0.0625) + (0 - 0.0625))/2 + (0.25 + 0.25)/2 = 1/16.
        value, grad = sparsemax_loss_multi([0.5, 0.0], [0.5, 0.5])
        assert value == pytest.approx(0.0625, abs=1e-15)
        np.testing.assert_allclose(grad, [0.25, -0.25], atol=1e-15)

    def test_sparsemax_gradient_vanishes_at_projection(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=6)
        value, grad = sparsemax_loss_multi(z, sparsemax(z))
        assert np.array_equal(grad, np.zeros(6))
        assert abs(value) <= 1e-12

    def test_sparsemax_equals_projection_gap(self):
        # Independent identity: (||q - z||^2 - ||sparsemax(z) - z||^2) / 2.
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = rng.normal(size=5) * 2
            q = rng.dirichlet(np.ones(5))
            expected = 0.5 * (np.sum((q - z) ** 2) - np.sum((sparsemax(z) - z) ** 2))
            assert sparsemax_loss_multi(z, q).value == pytest.approx(expected, abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        done = 0
        while done < 30:
            z = rng.normal(size=4) * 2
            if support_margin(z, threshold_and_support(z)) < 1e-3:
                continue
            q = rng.dirichlet(np.ones(4))
            for fn in (logistic_loss_multi, sparsemax_loss_multi):
                _, grad = fn(z, q)
                np.testing.assert_allclose(grad, fd_gradient(lambda u: fn(u, q).value, z), atol=1e-6)
            done += 1

    def test_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            logistic_loss_multi([0.0, 0.0], [0.9, 0.3])
        with pytest.raises(ValueError):
            sparsemax_loss_multi([0.0, 0.0], [1.5, -0.5])
        with pytest.raises(ValueError):
            sparsemax_loss_multi([0.0, 0.0], [0.5, 0.25, 0.25])


def two_branch_sigmoid(z):
    """1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere, each
    branch on its own entries, so that neither exponential overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


SIGMOID_EDGES = [0.0, 1e-300, 5e-324, 36.0, 709.0, 745.0, 746.0, 1e308]


class TestSigmoid:
    """sigmoid computes both branches from e^-|z| and picks one per entry;
    it must give the two-branch formula bit for bit, with no warning."""

    @staticmethod
    def assert_matches_two_branch(z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(z)
        assert np.array_equal(got.view(np.int64), two_branch_sigmoid(z).view(np.int64))

    def test_edges(self):
        # Signed zeros and subnormals, where e^-|z| rounds to 1; 36, past
        # which 1 + e^-z rounds to 1; and 709, 745, 746 and 1e308, around
        # where e^z overflows and e^-z underflows to a subnormal, then to 0.
        z = np.array(SIGMOID_EDGES + [-x for x in SIGMOID_EDGES])
        self.assert_matches_two_branch(z)
        assert sigmoid(np.array([0.0, -0.0]))[0] == sigmoid(np.array([0.0, -0.0]))[1] == 0.5

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20).map(np.array))
    def test_matches_two_branch_formula(self, z):
        self.assert_matches_two_branch(z)


class TestHuberReference:
    @pytest.mark.parametrize(
        "t,expected",
        [(2.0, 0.0), (1.0, 0.0), (0.0, 0.25), (-1.0, 1.0), (-3.0, 3.0), (0.5, 0.0625)],
    )
    def test_pinned_values(self, t, expected):
        assert huber_binary_reference(t) == expected

    @given(margins)
    def test_nonnegative_and_continuous_at_kinks(self, t):
        assert huber_binary_reference(t) >= 0.0

    def test_kink_continuity(self):
        assert huber_binary_reference(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-8)
        assert huber_binary_reference(-1.0 + 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            huber_binary_reference(float("nan"))
