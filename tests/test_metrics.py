import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsemax import (
    js_divergence,
    js_divergence_rows,
    micro_macro_f1,
    micro_macro_f1_rows,
    mse,
    mse_rows,
)

weights = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=2, max_size=8
)


def normalize(values):
    arr = np.array(values)
    return arr / arr.sum()


def js_oracle(q, p):
    """High-precision JS divergence via mpmath."""
    with mpmath.workdps(50):
        q = [mpmath.mpf(v) for v in q]
        p = [mpmath.mpf(v) for v in p]
        m = [(a + b) / 2 for a, b in zip(q, p)]

        def kl(a, mix):
            return sum(x * mpmath.log(x / y) for x, y in zip(a, mix) if x > 0)

        return float(kl(q, m) / 2 + kl(p, m) / 2)


class TestMse:
    def test_identical(self):
        assert mse([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_opposite_corners(self):
        assert mse([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0, 0.0], [1.0, 0.0, 0.0])


class TestJsDivergence:
    def test_identical_is_exactly_zero(self):
        assert js_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_supports_hit_log_two(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_half_vs_corner(self):
        expected = js_oracle([0.5, 0.5], [1.0, 0.0])
        assert expected == pytest.approx(0.21576155433883565, abs=1e-12)
        assert js_divergence([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected, abs=1e-15)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.dirichlet(np.ones(5))
            p = rng.dirichlet(np.ones(5))
            assert js_divergence(q, p) == pytest.approx(js_oracle(q, p), abs=1e-12)

    @given(weights, weights)
    def test_symmetric_bounded_nonnegative(self, a, b):
        size = min(len(a), len(b))
        q = normalize(a[:size])
        p = normalize(b[:size])
        forward = js_divergence(q, p)
        backward = js_divergence(p, q)
        assert forward == pytest.approx(backward, abs=1e-12)
        assert -1e-15 <= forward <= np.log(2.0) + 1e-12

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            js_divergence([1.2, -0.2], [0.5, 0.5])


class TestF1:
    def test_perfect_prediction(self):
        gold = [{0, 1}, {2}, {0}]
        micro, macro = micro_macro_f1(gold, gold, 3)
        assert micro == 1.0
        assert macro == 1.0

    def test_one_perfect_label_two_absent(self):
        # Label 0 predicted perfectly; labels 1 and 2 never appear and are
        # never predicted, so they contribute macro terms of 0 while micro
        # pools only label 0's counts.
        predicted = [{0}, {0}, set()]
        gold = [{0}, {0}, set()]
        micro, macro = micro_macro_f1(predicted, gold, 3)
        assert micro == 1.0
        assert macro == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_hand_computed_counts(self):
        # Label 0: tp=1 fp=1 fn=0 -> f1 = 2/3.  Label 1: tp=1 fp=0 fn=1 ->
        # f1 = 2/3.  Micro: 2*2/(2*2+1+1) = 2/3.
        predicted = [{0, 1}, {0}]
        gold = [{0, 1}, {1}]
        micro, macro = micro_macro_f1(predicted, gold, 2)
        assert micro == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert macro == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_empty_predictions_allowed(self):
        micro, macro = micro_macro_f1([set(), set()], [{0}, {1}], 2)
        assert micro == 0.0
        assert macro == 0.0

    def test_everything_empty_is_zero_not_nan(self):
        micro, macro = micro_macro_f1([set()], [set()], 2)
        assert micro == 0.0
        assert macro == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            micro_macro_f1([{0}], [{0}, {1}], 2)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            micro_macro_f1([{5}], [{0}], 2)


class TestRows:
    """The row forms over a split must equal the per-example functions."""

    def pairs(self):
        rng = np.random.default_rng(1)
        Q = rng.dirichlet(np.ones(6), size=40)
        P = rng.dirichlet(np.ones(6), size=40)
        # Sparse rows: zeros in q, in p, in both, and disjoint supports.
        Q[:10, :3] = 0.0
        P[5:15, 2:5] = 0.0
        Q[20] = [1.0, 0, 0, 0, 0, 0]
        P[20] = [0, 1.0, 0, 0, 0, 0]
        Q[21] = P[21]
        Q /= Q.sum(axis=1, keepdims=True)
        P /= P.sum(axis=1, keepdims=True)
        return Q, P

    def test_mse_rows_match_per_example(self):
        Q, P = self.pairs()
        rows = mse_rows(Q, P)
        assert rows.shape == (40,)
        assert rows.tolist() == [mse(q, p) for q, p in zip(Q, P)]

    def test_js_rows_match_per_example(self):
        Q, P = self.pairs()
        rows = js_divergence_rows(Q, P)
        assert rows.shape == (40,)
        assert rows.tolist() == [js_divergence(q, p) for q, p in zip(Q, P)]
        assert rows[21] == 0.0
        assert rows[20] == pytest.approx(np.log(2.0), abs=1e-15)

    @staticmethod
    def f1_by_set_counting(predicted, gold, n_labels):
        """Reference: count per label over the label sets, one example at a time."""
        tp, fp, fn = np.zeros(n_labels), np.zeros(n_labels), np.zeros(n_labels)
        for pred, actual in zip(predicted, gold):
            for k in pred:
                if k in actual:
                    tp[k] += 1
                else:
                    fp[k] += 1
            for k in actual - pred:
                fn[k] += 1
        micro_denom = 2 * tp.sum() + fp.sum() + fn.sum()
        micro = float(2 * tp.sum() / micro_denom) if micro_denom > 0 else 0.0
        per_label = [2 * t / (2 * t + a + b) if 2 * t + a + b > 0 else 0.0 for t, a, b in zip(tp, fp, fn)]
        return micro, float(np.mean(per_label))

    def test_f1_rows_equal_set_based(self):
        rng = np.random.default_rng(2)
        for n_labels in (1, 3, 7):
            for _ in range(20):
                n = int(rng.integers(1, 15))
                predicted = rng.random((n, n_labels)) < rng.random()
                gold = rng.random((n, n_labels)) < rng.random()
                sets = lambda on: [set(np.flatnonzero(row).tolist()) for row in on]
                expected = self.f1_by_set_counting(sets(predicted), sets(gold), n_labels)
                assert micro_macro_f1_rows(predicted, gold) == expected
                assert micro_macro_f1(sets(predicted), sets(gold), n_labels) == expected
