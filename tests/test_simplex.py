import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import BRUTE_FORCE_MAX_DIM, brute_force_projection
from sparsemax import check_distribution, softmax, sparsemax, threshold_and_support

# Magnitudes are capped so that the unit-sum resolution of float64 is not
# exceeded; near 1e16 the spacing between adjacent doubles passes 1.
score_entries = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
score_vectors = st.lists(score_entries, min_size=1, max_size=12).map(np.array)


class TestSoftmax:
    def test_uniform_at_zero(self):
        assert np.array_equal(softmax([0.0, 0.0]), [0.5, 0.5])
        assert np.allclose(softmax(np.zeros(7)), np.full(7, 1.0 / 7), atol=1e-15)

    def test_log_two(self):
        np.testing.assert_allclose(softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-15)

    def test_large_scores_do_not_overflow(self):
        # Extended-precision value: 1/(1+e^-1000) rounds to 1.0 in float64
        # and the complement e^-1000/(1+e^-1000) ~ 5e-435 rounds to 0.0.
        with np.errstate(over="raise", invalid="raise"):
            p = softmax([1000.0, 0.0])
        assert p[0] == 1.0
        assert p[1] == 0.0

    def test_single_entry(self):
        assert np.array_equal(softmax([123.0]), [1.0])

    @given(score_vectors)
    def test_simplex_membership(self, z):
        p = softmax(z)
        # Entries a few hundred below the max underflow to an exact zero, so
        # only nonnegativity can be promised here.
        assert np.all(p >= 0)
        assert p.max() > 0
        assert abs(p.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 1.0], []])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            softmax(bad)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((2, 2)))


class TestCheckDistribution:
    def test_accepts_a_simplex_point(self):
        assert np.array_equal(check_distribution([0.25, 0.75]), [0.25, 0.75])
        assert np.array_equal(check_distribution([1.0, 0.0, 0.0], 3), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "bad", [[], [[0.5, 0.5]], [np.nan, 1.0], [1.5, -0.5], [0.5, 0.25], [0.5, 0.5 + 2e-9]]
    )
    def test_rejects_points_off_the_simplex(self, bad):
        with pytest.raises(ValueError):
            check_distribution(bad)

    def test_rejects_a_length_other_than_dim(self):
        with pytest.raises(ValueError):
            check_distribution([0.5, 0.5], 3)


class TestThresholdAndSupport:
    def test_two_dim_interior(self):
        s = threshold_and_support([0.5, 0.0])
        assert s.k == 2
        assert s.tau == -0.25
        assert s.indices.tolist() == [0, 1]

    def test_two_dim_saturated(self):
        s = threshold_and_support([2.0, 0.0])
        assert s.k == 1
        assert s.tau == 1.0
        assert s.indices.tolist() == [0]

    def test_uniform_three(self):
        s = threshold_and_support([0.3, 0.3, 0.3])
        assert s.k == 3
        assert abs(s.tau - (-1.0 / 30.0)) <= 1e-15
        assert s.indices.tolist() == [0, 1, 2]

    def test_exact_tie_never_splits(self):
        s = threshold_and_support([0.5, 0.5, 0.0])
        assert s.indices.tolist() == [0, 1]

    @given(score_vectors)
    @example(z=np.array([0.5, 0.5, 3.16e-111]))
    @example(z=np.array([1.0, 2.090196097115521e-59]))
    @example(z=np.array([9999.0, 9999.999999999998]))
    def test_support_invariants(self, z):
        s = threshold_and_support(z)
        assert 1 <= s.k <= z.size
        assert s.k == len(s.indices)
        assert np.array_equal(s.indices, np.sort(s.indices))
        assert np.array_equal(s.indices, np.nonzero(z > s.tau)[0])
        assert abs(np.sum(z[s.indices] - s.tau) - 1.0) <= 1e-9


class TestSparsemax:
    def test_interior_pair(self):
        assert np.array_equal(sparsemax([0.5, 0.0]), [0.75, 0.25])

    def test_saturated_pair(self):
        p = sparsemax([2.0, 0.0])
        assert np.array_equal(p, [1.0, 0.0])
        assert p[1] == 0.0

    def test_truncates_third_coordinate(self):
        p = sparsemax([1.1, 1.0, 0.2])
        np.testing.assert_allclose(p, [0.55, 0.45, 0.0], atol=1e-12)
        assert p[2] == 0.0
        np.testing.assert_allclose(p, brute_force_projection([1.1, 1.0, 0.2]), atol=1e-15)

    def test_uniform_at_zero(self):
        assert np.array_equal(sparsemax(np.zeros(4)), np.full(4, 0.25))

    def test_single_entry(self):
        assert np.array_equal(sparsemax([-5.0]), [1.0])

    def test_off_support_is_literal_zero(self):
        p = sparsemax([3.0, 1.0, 0.5, -2.0])
        assert p[1] == 0.0 and p[2] == 0.0 and p[3] == 0.0

    @given(score_vectors)
    def test_simplex_membership(self, z):
        p = sparsemax(z)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-9

    @given(score_vectors, st.floats(min_value=-10, max_value=10, allow_nan=False))
    @example(z=np.array([8195.0, 8194.5, 8194.5]), c=-1.7659683695469859)
    @example(
        z=np.array([10000.3, 10000.5, 10000.1, 9999.7, 10000.4, 9999.7, 10000.2, 10000.5, 10000.5, 9999.9, 9999.9]),
        c=2.8516578455773924,
    )
    def test_shift_invariance(self, z, c):
        # The input z + c is itself rounded: it equals z + c + delta, with
        # delta exact by TwoSum.  Sparsemax ignores the uniform part of the
        # shift and is 1-Lipschitz in l2, so in exact arithmetic the outputs
        # differ by at most ||delta - mean(delta)||_2.  The 1e-12 is left for
        # the program's own rounding.
        shifted = z + c
        back = shifted - z
        delta = -((z - (shifted - back)) + (c - back))
        bound = 1e-12 + np.linalg.norm(delta - delta.mean())
        assert np.max(np.abs(sparsemax(shifted) - sparsemax(z))) <= bound

    @given(score_vectors, st.integers(min_value=0, max_value=2**32 - 1))
    def test_permutation_equivariance(self, z, seed):
        perm = np.random.default_rng(seed).permutation(z.size)
        assert np.max(np.abs(sparsemax(z[perm]) - sparsemax(z)[perm])) <= 1e-12

    @given(score_vectors)
    @example(z=np.array([9999.0, 9999.999999999998]))
    def test_monotone_and_lipschitz(self, z):
        p = sparsemax(z)
        q = softmax(z)
        order = np.argsort(z)
        for a, b in zip(order, order[1:]):
            gap = z[b] - z[a]
            assert p[b] - p[a] >= -1e-12
            assert p[b] - p[a] <= gap + 1e-12
            assert q[b] - q[a] >= -1e-12
            assert q[b] - q[a] <= 0.5 * gap + 1e-12

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_projection_is_closest_simplex_point(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=6) * 2
        p = sparsemax(z)
        best = np.sum((p - z) ** 2)
        for _ in range(100):
            candidate = rng.dirichlet(np.ones(6))
            assert best <= np.sum((candidate - z) ** 2) + 1e-12

    def test_saturation_with_tied_maxima(self):
        z = np.array([1.5, 1.5, 0.3, -0.2])
        gamma = 1.5 - 0.3
        eps = gamma * 2  # largest scale that still saturates for |A| = 2
        p = sparsemax(z / eps)
        assert p[0] == p[1] == 0.5
        assert p[2] == 0.0 and p[3] == 0.0

    @pytest.mark.parametrize(
        "dim, w", ((16, 1.0 + 5 * 2.0**-52), (300, 1.0 + 3 * 2.0**-46), (100_000, 1.0 + 3 * 2.0**-46))
    )
    def test_one_hot_when_the_rest_lie_just_below_minus_one(self, dim, w):
        # The rounded partial sums of [0, -w, ..., -w] drift below the exact
        # ones, so a threshold search over every score passes its test at
        # k = dim and gives all dim scores a share; the projection is one-hot.
        z = np.full(dim, -w)
        z[0] = 0.0
        expected = np.zeros(dim)
        expected[0] = 1.0
        assert np.array_equal(sparsemax(z), expected)
        assert threshold_and_support(z).indices.tolist() == [0]


def assert_projection(z):
    """sparsemax(z) and threshold_and_support(z) meet the projection's
    optimality conditions at the rounding level: p lies on the simplex,
    p = z - tau on the support, and the support is exactly {i : z_i > tau}
    and {i : p_i > 0}, with p a literal 0.0 elsewhere."""
    p = sparsemax(z)
    s = threshold_and_support(z)
    eps = np.finfo(np.float64).eps
    assert np.array_equal(s.indices, np.flatnonzero(z > s.tau))
    assert np.array_equal(s.indices, np.flatnonzero(p))
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 4 * eps * s.k
    scale = max(1.0, np.abs(z).max())
    assert np.all(np.abs(p[s.indices] - (z[s.indices] - s.tau)) <= 4 * eps * scale)


class TestSortFreeThreshold:
    """The 1-D threshold sorts no score, and its fixed point holds on rows
    that take many passes."""

    @pytest.mark.parametrize("regime, k", (("sparse", 2), ("dense", 100_000), ("gaussian", 10)))
    def test_sorts_no_score(self, monkeypatch, regime, k):
        rng = np.random.default_rng(7)
        if regime == "sparse":
            z = rng.uniform(-3.0, 0.0, 100_000)
            z[[10, 5_000, 99_999]] = [1.2, 1.1, 0.5]
        elif regime == "dense":
            z = rng.uniform(0.0, 1e-5, 100_000)
        else:
            z = rng.normal(size=100_000)
        sizes = []
        numpy_sort = np.sort

        def counting_sort(a, *args, **kwargs):
            sizes.append(np.size(a))
            return numpy_sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        p = sparsemax(z)
        s = threshold_and_support(z)
        monkeypatch.undo()
        assert sizes == []
        assert np.array_equal(np.flatnonzero(p > 0), s.indices)
        assert s.k == k

    @pytest.mark.parametrize("regime", ("linspace", "square", "uniform", "gaussian", "dense"))
    def test_rows_of_many_passes(self, regime):
        # Passes of the fixed point at this seed: 12, 10, 11, 4 and 1, also
        # on the rows shifted by 8192; each pass of the first three drops
        # about half the candidates left.
        K = 100_000
        rng = np.random.default_rng(12)
        z = {
            "linspace": lambda: -np.linspace(0.0, 0.999, K),
            "square": lambda: -rng.random(K) ** 2,
            "uniform": lambda: rng.uniform(-1.0, 0.0, K),
            "gaussian": lambda: rng.normal(size=K),
            "dense": lambda: rng.uniform(0.0, 1.0 / K, K),
        }[regime]()
        assert_projection(z)
        assert_projection(z + 8192.0)


class TestBruteForce:
    def test_matches_closed_forms(self):
        assert np.array_equal(brute_force_projection([0.5, 0.0]), [0.75, 0.25])
        assert np.array_equal(brute_force_projection([5.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_agreement_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            z = rng.normal(size=6) * 3
            diff = np.abs(sparsemax(z) - brute_force_projection(z)).max()
            assert diff <= 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            brute_force_projection(np.zeros(BRUTE_FORCE_MAX_DIM + 1))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            brute_force_projection([np.nan, 0.0])
