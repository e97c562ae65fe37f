import numpy as np
import pytest

from sparsemax import (
    OpCounter,
    SupportSet,
    softmax,
    softmax_rows,
    softmax_jacobian,
    softmax_jacobian_rows,
    softmax_jvp,
    sparsemax,
    sparsemax_rows,
    sparsemax_jacobian,
    sparsemax_jacobian_rows,
    sparsemax_jvp,
    jvp_rows,
    sigmoid,
    threshold_and_support,
)
from helpers import fd_jacobian, support_margin


class TestSoftmaxJacobian:
    def test_uniform_two(self):
        jac = softmax_jacobian([0.5, 0.5])
        assert np.array_equal(jac, [[0.25, -0.25], [-0.25, 0.25]])

    def test_saturated_limit_is_zero(self):
        assert np.array_equal(softmax_jacobian([1.0, 0.0]), np.zeros((2, 2)))

    def test_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = softmax(rng.normal(size=5) * 2)
            jac = softmax_jacobian(p)
            assert np.array_equal(jac, jac.T)
            np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)
            eigenvalues = np.linalg.eigvalsh(jac)
            assert eigenvalues.min() >= -1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=4) * 2
            approx = fd_jacobian(softmax, z)
            np.testing.assert_allclose(softmax_jacobian(softmax(z)), approx, atol=1e-6)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            softmax_jacobian([0.9, 0.3])
        with pytest.raises(ValueError):
            softmax_jacobian([1.5, -0.5])


class TestSparsemaxJacobian:
    def test_two_point_support(self):
        support = threshold_and_support([0.5, 0.0])
        jac = sparsemax_jacobian(support, 2)
        assert np.array_equal(jac, [[0.5, -0.5], [-0.5, 0.5]])

    def test_full_support_is_scaled_clique_laplacian(self):
        support = threshold_and_support([0.3, 0.3, 0.3])
        jac = sparsemax_jacobian(support, 3)
        laplacian = 3 * np.eye(3) - np.ones((3, 3))
        np.testing.assert_allclose(jac, laplacian / 3.0, atol=1e-15)

    def test_off_support_rows_and_columns_vanish(self):
        support = threshold_and_support([2.0, 0.0, -1.0])
        jac = sparsemax_jacobian(support, 3)
        assert np.array_equal(jac[1:], np.zeros((2, 3)))
        assert np.array_equal(jac[:, 1:], np.zeros((3, 2)))

    def test_matches_finite_differences_away_from_boundaries(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 20:
            z = rng.normal(size=5) * 2
            support = threshold_and_support(z)
            if support_margin(z, support) < 1e-3:
                continue
            approx = fd_jacobian(sparsemax, z)
            np.testing.assert_allclose(sparsemax_jacobian(support, 5), approx, atol=1e-6)
            done += 1

    def test_nullspace_contains_support_indicator(self):
        support = threshold_and_support([1.2, 1.0, -3.0])
        jac = sparsemax_jacobian(support, 3)
        indicator = np.zeros(3)
        indicator[support.indices] = 1.0
        np.testing.assert_allclose(jac @ indicator, 0.0, atol=1e-15)

    def test_rejects_out_of_range_indices(self):
        support = threshold_and_support([1.2, 1.0, -3.0])
        with pytest.raises(ValueError):
            sparsemax_jacobian(support, 1)

    @pytest.mark.parametrize(
        "indices",
        (
            [0, 0, 1],  # a repeated index would count twice in the support mean
            [1, 0],
            [0.0, 1.0],
            [[0, 1]],
        ),
        ids=("repeated", "descending", "float", "two-dim"),
    )
    def test_rejects_malformed_support(self, indices):
        support = SupportSet(indices=np.array(indices), tau=0.0)
        with pytest.raises(ValueError):
            sparsemax_jvp(support, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sparsemax_jacobian(support, 3)


class TestJvps:
    def test_softmax_jvp_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = softmax(rng.normal(size=6) * 2)
            v = rng.normal(size=6)
            np.testing.assert_allclose(softmax_jvp(p, v), softmax_jacobian(p) @ v, atol=1e-12)

    def test_sparsemax_jvp_matches_dense(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            z = rng.normal(size=6) * 2
            support = threshold_and_support(z)
            v = rng.normal(size=6)
            dense = sparsemax_jacobian(support, 6) @ v
            np.testing.assert_allclose(sparsemax_jvp(support, v), dense, atol=1e-12)

    def test_sparsemax_jvp_constant_vector_maps_to_zero(self):
        support = threshold_and_support([0.4, 0.2, 0.1])
        np.testing.assert_allclose(sparsemax_jvp(support, np.ones(3)), 0.0, atol=1e-15)

    def test_counter_is_independent_of_length(self):
        v_small = np.arange(20.0)
        v_large = np.arange(5000.0)
        support_small = threshold_and_support(np.concatenate([np.full(4, 9.0), np.zeros(16)]))
        support_large = threshold_and_support(np.concatenate([np.full(4, 9.0), np.zeros(4996)]))
        assert support_small.k == support_large.k == 4
        c_small, c_large = OpCounter(), OpCounter()
        sparsemax_jvp(support_small, v_small, counter=c_small)
        sparsemax_jvp(support_large, v_large, counter=c_large)
        assert c_small.count == c_large.count > 0

    def test_dimension_mismatch_rejected(self):
        support = threshold_and_support([0.0, 0.0, 5.0])
        assert support.indices.tolist() == [2]
        with pytest.raises(ValueError):
            softmax_jvp([0.5, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sparsemax_jvp(support, [1.0, 2.0])


class TestJacobianRows:
    """The row factors (w, c) of Diag(w) - c w w^T against the dense 1-D Jacobians."""

    def test_softmax_factors_match_dense(self):
        rng = np.random.default_rng(5)
        P = softmax_rows(rng.normal(scale=2.0, size=(30, 6)))
        w, c = softmax_jacobian_rows(P)
        for row, p in zip(w, P):
            np.testing.assert_allclose(np.diag(row) - c * np.outer(row, row), softmax_jacobian(p), atol=1e-15)

    def test_sparsemax_factors_match_dense(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(scale=2.0, size=(30, 6))
        Z[0] = [3.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # a singleton support
        Z[1] = 0.0  # every score in the support
        w, c = sparsemax_jacobian_rows(sparsemax_rows(Z))
        assert c.shape == (30, 1)
        for row, col, z in zip(w, c[:, 0], Z):
            dense = np.diag(row) - col * np.outer(row, row)
            assert np.array_equal(dense, sparsemax_jacobian(threshold_and_support(z), 6))

    @pytest.mark.parametrize("order", ("C", "F"))
    @pytest.mark.parametrize("kind", ("softmax", "sparsemax", "binary"))
    def test_products_match_dense(self, kind, order):
        # The three factor kinds of fit's Hessian: softmax (p, 1), sparsemax
        # (s, 1/|S|) with c a column, and the binary loss's (sigma(1 - sigma), 0).
        rng = np.random.default_rng(7)
        Z = rng.normal(scale=2.0, size=(40, 6))
        Z[0] = [3.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # a singleton support
        if kind == "softmax":
            w, c = softmax_jacobian_rows(softmax_rows(Z))
        elif kind == "sparsemax":
            w, c = sparsemax_jacobian_rows(sparsemax_rows(Z))
            assert c.shape == (40, 1)
        else:
            w, c = sigmoid(Z) * sigmoid(-Z), 0.0
        w = np.asarray(w, order=order)
        V = np.asarray(rng.normal(size=Z.shape), order=order)
        out = jvp_rows(w, c, V)
        assert out.shape == V.shape
        # Every entry is w_j v_j - c w_j sum_k w_k v_k with 0 <= w, c <= 1: at
        # most K + 2 roundings, each within eps of the largest |v|.
        bound = (6 + 2) * np.finfo(float).eps * np.abs(V).max()
        for row, w_row, c_row, v in zip(out, w, np.broadcast_to(c, (40, 1))[:, 0], V):
            dense = np.diag(w_row) - c_row * np.outer(w_row, w_row)
            np.testing.assert_allclose(row, dense @ v, rtol=0.0, atol=bound)
