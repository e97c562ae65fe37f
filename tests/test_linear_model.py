import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from helpers import BRUTE_FORCE_MAX_DIM, brute_force_projection, fd_gradient, fd_jacobian
from sparsemax import (
    LOSS_BINARY_LOGISTIC,
    LOSS_LOGISTIC,
    LOSS_SPARSEMAX,
    RULE_LOGISTIC_THRESHOLD,
    RULE_SOFTMAX_THRESHOLD,
    RULE_SPARSEMAX_SCALE,
    DecisionRule,
    LabeledDataset,
    LinearModel,
    SyntheticConfig,
    TrainConfig,
    cross_validate,
    curvature_rows,
    decide_rows,
    fit,
    generate_synthetic,
    logistic_loss_multi,
    loss_rows,
    predict_labels,
    predict_scores,
    shifted_threshold,
    softmax,
    softmax_rows,
    sparsemax,
    sparsemax_loss_multi,
    sparsemax_rows,
    standardize_features,
    threshold_and_support,
)
from sparsemax import linear_model
from sparsemax.linear_model import _HESSIAN_RIDGE, _block_inverse, _hessian_product, _newton_decrement, _objective, _scores

ALL_LOSSES = (LOSS_LOGISTIC, LOSS_SPARSEMAX, LOSS_BINARY_LOGISTIC)

# Rows on which the rounded threshold falls outside [z_(k+1), z_(k)) before
# clamping, so that a sorted-prefix support would disagree with scores > tau.
EDGE_ROWS = np.array(
    [
        [0.5, 0.5, 3.16e-111, -5.0, -5.0, -5.0],
        [1.0, 2.090196097115521e-59, -5.0, -5.0, -5.0, -5.0],
        [9999.0, 9999.999999999998, -5.0, -5.0, -5.0, -5.0],
    ]
)


def wide_threshold_rows(rng, width):
    """Score rows of the given width whose candidates, the scores within 1
    of the maximum, are few, many, tied at the boundary or all in the support."""
    rows = []
    for s in (1, 2, 3):
        row = rng.uniform(-3.0, 0.0, width)
        row[rng.choice(width, s, replace=False)] = 1.0 + rng.uniform(0.0, 0.5 / s, s)
        rows.append(row)
    tied = rng.uniform(-3.0, -1.0, width)
    tied[:4] = [2.5, 1.5, 1.5, 2.1]
    rows.append(tied)
    third = rng.uniform(-3.0, 0.0, width)
    third[rng.random(width) < 1 / 3] = -1.0
    third[0] = 0.0
    rows.append(third)
    few = rng.uniform(-3.0, -1.0, width)
    few[:5] = rng.uniform(-0.05, 0.0, 5)
    rows.append(few)
    rows.append(rng.uniform(0.0, 1.0 / width, width))
    for m in ((width - 1) // 2, (width + 1) // 2):
        half = rng.uniform(-3.0, -1.0, width)
        half[:m] = rng.uniform(-0.9, 0.0, m)
        rows.append(half)
    rows.append(rng.normal(size=width))
    rows += [8192.0 + row for row in rows[:6]]
    # Rounded sums of a search over every score pass the test at a score
    # below -1 here, and would put all of them in the support.
    below = np.full(width, -(1.0 + 3 * 2.0**-46))
    below[0] = 0.0
    rows.append(below)
    return np.array(rows)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_row_threshold_matches_scalar(scores):
    """The row and 1-D threshold kernels are separate code: a sorted search
    and a fixed point over unsorted candidates.  They must give the same
    shifted scores bit for bit.  tau is a mean over the support, added in
    another order, so the two taus, and the projections, may differ by
    2 * k * eps for a support of k scores.  Each support is exactly
    shifted > tau, so the two supports can differ only on scores between
    the two taus, and threshold_and_support has the 1-D kernel's.  Rows
    short enough for brute_force_projection must match it, each kernel on
    its own, within the slack with which it accepts a support."""
    eps = np.finfo(np.float64).eps
    shifted, tau = shifted_threshold(scores)
    assert tau.shape == (scores.shape[0], 1)
    projected = sparsemax_rows(scores)
    for i, row in enumerate(scores):
        row_shifted, row_tau = shifted_threshold(row)
        s = threshold_and_support(row)
        assert np.array_equal(bits(shifted[i]), bits(row_shifted))
        on = shifted[i] > tau[i, 0]
        row_on = row_shifted > row_tau
        assert np.array_equal(np.flatnonzero(row_on), s.indices)
        low, high = sorted((tau[i, 0], row_tau))
        assert np.all((on == row_on) | ((low < row_shifted) & (row_shifted <= high)))
        bound = 2 * max(np.count_nonzero(on), s.k) * eps
        assert high - low <= bound
        p = sparsemax(row)
        assert np.all(np.abs(projected[i] - p) <= bound)
        if row.size <= BRUTE_FORCE_MAX_DIM:
            exact = brute_force_projection(row)
            tol = 1e-9 * max(1.0, np.abs(row).max())
            assert np.all(np.abs(projected[i] - exact) <= tol)
            assert np.all(np.abs(p - exact) <= tol)


# Score entries with many ties, signed zeros among them.
tied_score_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
)


def random_problem(rng, n=5, d=3, k=4):
    X = rng.normal(size=(n, d))
    Q = rng.dirichlet(np.ones(k), size=n)
    return LabeledDataset(X=X, Q=Q)


def document_problem():
    """A small standardized bag-of-words problem: sparse targets, so that
    every loss, the binary one included, has a finite optimum at small lam."""
    cfg = SyntheticConfig(n_labels=4, n_train=80, n_test=10, mean_doc_length=300.0, seed=2)
    train, _ = generate_synthetic(cfg)
    return standardize_features(train, train)[0]


def raw_count_column_problem():
    """Counts times 1e4 beside an N(0, 1) column, unstandardized, with dense targets."""
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.poisson(5.0, 200) * 1e4, rng.normal(size=200)])
    return LabeledDataset(X=X, Q=rng.dirichlet(np.ones(3), size=200))


def pack(W, b):
    """fit's flat parameters theta = [W b].ravel(), label-major."""
    return np.column_stack([W, b]).ravel()


def design(data, lam):
    """fit's [X 1], its transpose and its regulariser (lam on the weights, 0 on the bias)."""
    X = np.column_stack([data.X, np.ones(data.n_examples)])
    reg = np.tile(np.append(np.full(data.n_features, lam), 0.0), data.n_labels)
    return X, np.ascontiguousarray(X.T), reg


def flat_objective(theta, data, lam, loss_kind):
    """J and its gradient at flat parameters theta = [W b].ravel()."""
    X, XT, reg = design(data, lam)
    return _objective(theta, X, XT, data.Q, reg, loss_kind)


def objective(W, b, data, lam, loss_kind):
    """fit's objective at (W, b): the value, the gradient in W and in b.

    The targets go in label-major, as fit passes them, so the value
    matches fit's history bit for bit.
    """
    X, XT, reg = design(data, lam)
    value, grad = _objective(pack(W, b), X, XT, np.ascontiguousarray(data.Q.T).T, reg, loss_kind)
    grad = grad.reshape(np.shape(W)[0], -1)
    return value, grad[:, :-1], grad[:, -1]


def objective_at(model, data, lam, loss_kind):
    return objective(model.W, model.b, data, lam, loss_kind)


def scipy_optimum(data, lam, loss_kind):
    """The objective's minimum by scipy's L-BFGS-B, run to its rounding floor."""

    def fun(theta):
        return flat_objective(theta, data, lam, loss_kind)

    options = {"maxiter": 100_000, "maxfun": 200_000, "maxcor": 30, "ftol": 0.0, "gtol": 1e-12}
    size = data.n_labels * (data.n_features + 1)
    return minimize(fun, np.zeros(size), jac=True, method="L-BFGS-B", options=options).fun


def separable_line():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    Q = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return LabeledDataset(X=X, Q=Q)


class TestConfigs:
    def test_train_config_validation(self):
        TrainConfig()
        with pytest.raises(ValueError):
            TrainConfig(lam=-1e-9)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(convergence_tol=0.0)
        for name in ("lam", "learning_rate", "convergence_tol"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match="finite"):
                    TrainConfig(**{name: value})

    def test_decision_rule_validation(self):
        DecisionRule(RULE_LOGISTIC_THRESHOLD, 0.0)
        DecisionRule(RULE_SOFTMAX_THRESHOLD, 1.0)
        DecisionRule(RULE_SPARSEMAX_SCALE, 1.0)
        with pytest.raises(ValueError):
            DecisionRule(RULE_LOGISTIC_THRESHOLD, 1.5)
        with pytest.raises(ValueError):
            DecisionRule(RULE_SOFTMAX_THRESHOLD, -0.1)
        with pytest.raises(ValueError):
            DecisionRule(RULE_SPARSEMAX_SCALE, 0.99)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                DecisionRule(RULE_SPARSEMAX_SCALE, value)
        with pytest.raises(ValueError):
            DecisionRule("argmax", 0.5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinearModel(W=np.zeros((2, 3)), b=np.zeros(3))
        with pytest.raises(ValueError):
            LinearModel(W=np.zeros(3), b=np.zeros(3))
        with pytest.raises(ValueError):
            LinearModel(W=np.full((2, 2), np.inf), b=np.zeros(2))


class TestBatchedOps:
    """The row kernels must agree with the 1-D public functions."""

    @given(st.lists(tied_score_entries, min_size=1, max_size=12).map(np.array))
    @example(row=np.array([0.0, 0.3, 0.7]))
    @example(row=np.array([0.0, -0.0, -0.5]))
    @example(row=np.array([-0.0, -0.0, -0.0]))
    @example(row=np.array([1.0, 1.0, 0.0]))
    @example(row=np.array([1.0, 1.0, 2.00001, -3334.0]))
    @example(row=np.array([0.5, -0.0, 0.5]))
    @example(row=np.array([0.0, -0.0, -0.5, -0.5]))
    def test_row_threshold_matches_scalar(self, row):
        # The row kernel reads each row's maximum from its sort and the 1-D
        # kernel from max(), which may pick the other of two tied zeros (it
        # does on the last example), so a signed zero or a tie at the
        # maximum must not change the shifted scores.  On the first example
        # the score 0.0 lies exactly at the threshold 0: the row kernel's
        # tau rounds an ulp below it and keeps it with a share of 1e-16,
        # the 1-D kernel's does not.  The row with -3334 needs the oracle's
        # tolerance scaled by each support's own scores (tests/helpers.py).
        scores = np.vstack([row, row[::-1]])
        assert_row_threshold_matches_scalar(scores)
        assert_row_threshold_matches_scalar(np.asfortranarray(scores))

    def test_edge_and_wide_row_thresholds_match_scalar(self):
        # The wide rows hold few, many or all of their scores within 1 of the
        # maximum, so the 1-D kernel's fixed point starts from few or many
        # candidates and drops none, some or most of them.
        rng = np.random.default_rng(4)
        assert_row_threshold_matches_scalar(np.vstack([rng.normal(scale=3.0, size=(64, 6)), EDGE_ROWS]))
        for width in (257, 1000, 20_000):
            assert_row_threshold_matches_scalar(wide_threshold_rows(rng, width))

    @pytest.mark.parametrize("width", (1, 3, 10, 37))
    def test_row_kernels_do_not_depend_on_layout(self, width):
        # fit hands the kernels the transposed view of label-major scores, a
        # Fortran-ordered (N, K) matrix.  At 10 and 37 labels numpy sums a
        # C-ordered row pairwise and a Fortran-ordered one in sequence, so
        # sums may differ in the last bits; nothing else may.
        rng = np.random.default_rng(width)
        scores = rng.normal(scale=3.0, size=(64, width))
        scores[:8] += 1e4
        scores[8:12] = 0.0
        targets = rng.dirichlet(np.full(width, 0.3), size=64)
        targets[targets < 0.05] = 0.0
        targets /= targets.sum(axis=1, keepdims=True)
        fortran = np.ascontiguousarray(scores.T).T
        fortran_targets = np.ascontiguousarray(targets.T).T
        assert fortran.flags.f_contiguous and np.array_equal(fortran, scores)
        eps = np.finfo(np.float64).eps
        # A loss value sums K terms of at most max |z| + log K each, and
        # the order of the sum moves it by a few ulps of that magnitude.
        value_tol = 4 * eps * width * (np.abs(scores).max(axis=1) + np.log(width) + 1.0)

        shifted, tau = shifted_threshold(fortran)
        c_shifted, c_tau = shifted_threshold(scores)
        assert np.array_equal(bits(shifted), bits(c_shifted))
        assert np.array_equal(bits(tau), bits(c_tau))
        assert np.array_equal(shifted > tau, c_shifted > c_tau)
        assert np.array_equal(bits(sparsemax_rows(fortran)), bits(sparsemax_rows(scores)))
        assert np.all(np.abs(softmax_rows(fortran) - softmax_rows(scores)) <= 4 * eps)
        for loss_kind in ALL_LOSSES:
            values, grads = loss_rows(fortran, fortran_targets, loss_kind)
            c_values, c_grads = loss_rows(scores, targets, loss_kind)
            assert np.all(np.abs(values - c_values) <= value_tol)
            if loss_kind == LOSS_LOGISTIC:
                assert np.all(np.abs(grads - c_grads) <= 4 * eps)
            else:
                assert np.array_equal(bits(grads), bits(c_grads))

    def test_sparsemax_rows_match_scalar(self):
        rng = np.random.default_rng(5)
        scores = np.vstack([rng.normal(scale=3.0, size=(64, 6)), EDGE_ROWS])
        batched = sparsemax_rows(scores)
        for i, row in enumerate(scores):
            assert np.array_equal(batched[i], sparsemax(row))

    def test_softmax_rows_match_scalar(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(scale=3.0, size=(64, 6))
        batched = softmax_rows(scores)
        for i, row in enumerate(scores):
            assert np.array_equal(batched[i], softmax(row))

    @pytest.mark.parametrize("loss_kind", (LOSS_LOGISTIC, LOSS_SPARSEMAX))
    def test_loss_rows_match_scalar(self, loss_kind):
        rng = np.random.default_rng(7)
        scores = rng.normal(scale=2.0, size=(40, 5))
        targets = rng.dirichlet(np.ones(5), size=40)
        # Rows whose one-hot label wins by a margin over 1, where the loss is
        # zero and an expanded formula cancels to an ulp below it.  The first
        # two pad falsifying two-class inputs of the scalar loss.
        wide = rng.normal(scale=2.0, size=(40, 5))
        labels = rng.integers(5, size=40)
        rows = np.arange(40)
        wide[rows, labels] = wide.max(axis=1) + rng.uniform(1.0, 4.0, size=40)
        wide[0] = [3.2016220405656206, 0.0, -5.0, -5.0, -5.0]
        wide[1] = [4.4271114742790765, 0.0, -5.0, -5.0, -5.0]
        labels[:2] = 0
        one_hot = np.eye(5)[labels]
        scores = np.vstack([scores, wide])
        targets = np.vstack([targets, one_hot])
        values, grads = loss_rows(scores, targets, loss_kind)
        scalar = logistic_loss_multi if loss_kind == LOSS_LOGISTIC else sparsemax_loss_multi
        for i in range(scores.shape[0]):
            ref = scalar(scores[i], targets[i])
            assert values[i] == pytest.approx(ref.value, abs=1e-12)
            np.testing.assert_allclose(grads[i], ref.gradient, atol=1e-13)
        assert np.all(values[40:] >= 0.0)

    def test_binary_rows_match_direct_formula(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(scale=2.0, size=(40, 5))
        targets = rng.dirichlet(np.ones(5), size=40)
        values, grads = loss_rows(scores, targets, LOSS_BINARY_LOGISTIC)
        for i in range(scores.shape[0]):
            on = (targets[i] > 0).astype(float)
            ref_value = np.sum(np.logaddexp(0.0, scores[i]) - on * scores[i])
            ref_grad = 1.0 / (1.0 + np.exp(-scores[i])) - on
            assert values[i] == pytest.approx(ref_value, abs=1e-12)
            np.testing.assert_allclose(grads[i], ref_grad, atol=1e-13)

    def test_unknown_loss_kind(self):
        with pytest.raises(ValueError):
            loss_rows(np.zeros((1, 2)), np.full((1, 2), 0.5), "hinge")


class TestObjective:
    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_gradient_matches_finite_differences(self, loss_kind):
        rng = np.random.default_rng(0)
        data = random_problem(rng)
        W = rng.normal(scale=0.5, size=(4, 3))
        b = rng.normal(size=4)
        lam = 0.3
        # The sparsemax objective is only piecewise smooth; keep every score
        # row comfortably away from a support change so central differences
        # see a single quadratic piece.
        if loss_kind == LOSS_SPARSEMAX:
            scores = data.X @ W.T + b
            for row in scores:
                s = threshold_and_support(row)
                gaps = np.abs(row - s.tau)
                assert gaps[gaps > 0].min() > 1e-3

        theta = pack(W, b)
        fd = fd_gradient(lambda t: flat_objective(t, data, lam, loss_kind)[0], theta)
        np.testing.assert_allclose(flat_objective(theta, data, lam, loss_kind)[1], fd, atol=1e-6)

    def test_bias_is_not_regularized(self):
        rng = np.random.default_rng(1)
        data = random_problem(rng)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        v0, gw0, gb0 = objective(W, b, data, 0.0, LOSS_LOGISTIC)
        v1, gw1, gb1 = objective(W, b, data, 10.0, LOSS_LOGISTIC)
        assert np.array_equal(gb0, gb1)
        np.testing.assert_allclose(gw1 - gw0, 10.0 * W, atol=1e-12)
        assert v1 - v0 == pytest.approx(5.0 * np.sum(W * W), rel=1e-12)


def dense_hessian(theta, data, lam, loss_kind):
    """The matrix of fit's Hessian-vector product, one column per unit vector."""
    X, XT, reg = design(data, lam)
    product = _hessian_product(*curvature_rows(_scores(theta, XT), loss_kind), X, XT, reg)
    return np.column_stack([product(e) for e in np.eye(theta.size)])


def exact_decrement(model, data, lam, loss_kind):
    """J at the model and its Newton decrement g^T H^+ g / 2 from a dense pseudo-inverse."""
    value, grad_W, grad_b = objective_at(model, data, lam, loss_kind)
    grad = pack(grad_W, grad_b)
    H = dense_hessian(pack(model.W, model.b), data, lam, loss_kind)
    return value, 0.5 * grad @ np.linalg.pinv(0.5 * (H + H.T), rcond=1e-8, hermitian=True) @ grad


def decrement_at(theta, data, lam, loss_kind, tol, target):
    """fit's decrement check at theta, on the objective's own gradient: (its value, its CG
    iterate x of H x = g, the gradient)."""
    X, XT, reg = design(data, lam)
    grad = _objective(theta, X, XT, data.Q, reg, loss_kind)[1]
    return (*_newton_decrement(theta, grad, X, XT, reg, loss_kind, tol, target), grad)


def assert_check_brackets(theta, data, lam, loss_kind, tol, exact, slack=1e-2):
    """fit's check at theta certifies a target of (1 + slack) times the exact decrement, refutes
    one of (1 - slack) times it, and never returns more than it, up to rounding."""
    for factor in (1.0 + slack, 1.0 - slack):
        decrement = decrement_at(theta, data, lam, loss_kind, tol, factor * exact)[0]
        assert (decrement <= factor * exact) == (factor > 1.0)
        assert decrement <= (1.0 + 1e-12) * exact


class TestHessian:
    """fit's exact Hessian products against the test's own finite differences."""

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_matches_finite_differences_of_the_gradient(self, loss_kind):
        rng = np.random.default_rng(0)
        data = random_problem(rng, n=12)
        W = rng.normal(scale=0.5, size=(4, 3))
        b = rng.normal(size=4)
        lam = 0.3
        # As in the gradient test, the sparse rows keep away from a support
        # change, so that central differences see a single quadratic piece.
        if loss_kind == LOSS_SPARSEMAX:
            for row in data.X @ W.T + b:
                gaps = np.abs(row - threshold_and_support(row).tau)
                assert gaps[gaps > 0].min() > 1e-3
        theta = pack(W, b)
        fd = fd_jacobian(lambda t: flat_objective(t, data, lam, loss_kind)[1], theta)
        H = dense_hessian(theta, data, lam, loss_kind)
        np.testing.assert_allclose(H, H.T, atol=1e-15)
        np.testing.assert_allclose(H, fd, atol=1e-6)

    @pytest.mark.parametrize("loss_kind", (LOSS_LOGISTIC, LOSS_SPARSEMAX))
    def test_bias_shift_is_flat(self, loss_kind):
        # Adding one constant to every score changes neither loss, so the
        # Hessian maps [0; 1_K] to zero; only the preconditioner has a ridge.
        rng = np.random.default_rng(1)
        data = random_problem(rng, n=30, d=3, k=4)
        theta = rng.normal(size=4 * 4)
        shift = np.tile([0.0, 0.0, 0.0, 1.0], 4)
        H = dense_hessian(theta, data, 0.5, loss_kind)
        np.testing.assert_allclose(H @ shift, 0.0, atol=1e-15)
        assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() >= -1e-14

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_decrement_matches_a_dense_solve(self, loss_kind):
        # Conjugate gradients sum up to g^T H^-1 g / 2 from below: with an
        # unreachable target they return it to the fit's tolerance, so a
        # target 1% or 1e-6 above the decrement is certified and one below
        # it is refuted.  Past a small target they go on until a step adds
        # at most 1% of the sum's excess over it, on a value that is still
        # at most the decrement, up to rounding: for the binary loss the
        # first preconditioned step is exact, so that value is the decrement
        # itself.  The coupled losses' H is singular along the bias shift,
        # which g has no part in: there the solve's answer is rounding, and
        # g^T x is a pseudo-inverse's within 1e-14.
        rng = np.random.default_rng(2)
        data = random_problem(rng, n=40, d=5, k=6)
        theta = rng.normal(scale=0.5, size=6 * 6)
        decrement, _, grad = decrement_at(theta, data, 1e-2, loss_kind, 1e-8, np.inf)
        H = dense_hessian(theta, data, 1e-2, loss_kind)
        exact = 0.5 * grad @ np.linalg.solve(0.5 * (H + H.T), grad)
        assert decrement == pytest.approx(exact, rel=1e-6)
        assert_check_brackets(theta, data, 1e-2, loss_kind, 1e-8, exact)
        assert_check_brackets(theta, data, 1e-2, loss_kind, 1e-8, exact, slack=1e-6)
        early = decrement_at(theta, data, 1e-2, loss_kind, 1e-8, 0.1 * exact)[0]
        assert 0.1 * exact < early <= (1.0 + 1e-12) * exact

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_one_preconditioned_step_is_exact_for_the_binary_loss(self, loss_kind):
        # The binary loss's Hessian is its K diagonal blocks (c = 0), so the
        # preconditioner is its inverse and the first step solves H x = g:
        # its iterate is the Newton step, up to the ridge, 1e-8 of the
        # smallest curvature lam here.  tol = 1 stops CG after that step;
        # the coupled losses need more.
        rng = np.random.default_rng(2)
        data = random_problem(rng, n=40, d=5, k=6)
        theta = rng.normal(scale=0.5, size=6 * 6)
        one_step, x, grad = decrement_at(theta, data, 1e-2, loss_kind, 1.0, np.inf)
        H = dense_hessian(theta, data, 1e-2, loss_kind)
        newton = np.linalg.solve(0.5 * (H + H.T), grad)
        exact = 0.5 * grad @ newton
        assert_check_brackets(theta, data, 1e-2, loss_kind, 1e-8, exact)
        if loss_kind == LOSS_BINARY_LOGISTIC:
            assert one_step == pytest.approx(exact, rel=1e-12)
            np.testing.assert_allclose(x, newton, rtol=1e-7)
        else:
            assert one_step < (1.0 - 1e-3) * exact

    @pytest.mark.parametrize(
        "case, loss_kind, lam",
        [
            ("ridge-only block", LOSS_SPARSEMAX, 0.0),
            ("duplicated feature", LOSS_LOGISTIC, 0.0),
            ("duplicated feature", LOSS_BINARY_LOGISTIC, 0.0),
            ("bias shift", LOSS_LOGISTIC, 1e-2),
            ("bias shift", LOSS_SPARSEMAX, 1e-2),
        ],
    )
    def test_decrement_on_degenerate_blocks_matches_a_pseudo_inverse(self, case, loss_kind, lam):
        # H, and for the first two cases a block of H, is singular in some
        # direction the gradient has no part in; only the preconditioner's
        # ridge makes its blocks invertible.  Preconditioned CG must still sum
        # to the decrement on the gradient's range, which a pseudo-inverse
        # gives, and not stop at 0.  Scores within 0.5 of each other give every
        # sparse support 4 or 5 labels: a label in singleton supports only
        # would have no curvature but a gradient, and so no finite decrement.
        rng = np.random.default_rng(5)
        data = random_problem(rng, n=40, d=4, k=5)
        theta = rng.normal(scale=0.05, size=(5, 5))
        if case == "ridge-only block":
            # Label 4 has no target mass and scores far below the others, so
            # it is in no support: its Hessian block is 0, its preconditioner
            # block the ridge alone.
            Q = data.Q.copy()
            Q[:, 4] = 0.0
            data = LabeledDataset(X=data.X, Q=Q / Q.sum(axis=1, keepdims=True))
            theta[4, -1] = -50.0
        elif case == "duplicated feature":
            X = data.X.copy()
            X[:, 1] = X[:, 0]
            data = LabeledDataset(X=X, Q=data.Q)
        theta = theta.ravel()
        decrement, _, grad = decrement_at(theta, data, lam, loss_kind, 1e-10, np.inf)
        H = dense_hessian(theta, data, lam, loss_kind)
        exact = 0.5 * grad @ np.linalg.pinv(0.5 * (H + H.T), rcond=1e-8, hermitian=True) @ grad
        assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() < 1e-9
        assert grad.any() and decrement > 0.0
        assert decrement == pytest.approx(exact, rel=1e-6)
        assert_check_brackets(theta, data, lam, loss_kind, 1e-10, exact)
        assert_check_brackets(theta, data, lam, loss_kind, 1e-10, exact, slack=1e-6)
        if case == "ridge-only block":
            X, XT, reg = design(data, lam)
            inverse = _block_inverse(*curvature_rows(_scores(theta, XT), loss_kind), XT, reg)
            ridge = _HESSIAN_RIDGE * (XT * XT).mean(axis=1).max()
            np.testing.assert_allclose(inverse[4], np.eye(5) / ridge, rtol=1e-12)

    def test_decrement_of_a_zero_gradient_is_zero(self):
        rng = np.random.default_rng(3)
        data = random_problem(rng, n=10, d=2, k=3)
        theta = rng.normal(size=3 * 3)
        X, XT, reg = design(data, 0.0)
        decrement, x = _newton_decrement(theta, np.zeros(9), X, XT, reg, LOSS_SPARSEMAX, 1e-6, 0.0)
        assert decrement == 0.0 and not x.any()


class TestFit:
    def test_separable_problem_driven_to_zero_loss(self):
        data = separable_line()
        cfg = TrainConfig(lam=0.0, max_epochs=300, learning_rate=1.0, convergence_tol=1e-12)
        model = fit(data, cfg, LOSS_SPARSEMAX)
        final = objective_at(model, data, 0.0, LOSS_SPARSEMAX)[0]
        assert final < 1e-6
        rule = DecisionRule(RULE_SPARSEMAX_SCALE, 1.0)
        for x, row in zip(data.X, data.Q):
            assert predict_labels(model, x, rule) == set(np.flatnonzero(row > 0))

    def test_zero_gradient_stops_converged_at_once(self, monkeypatch, caplog):
        # The first step puts every margin of this line beyond the sparse
        # loss's kink, so J = 0 with a zero gradient.  J is convex, so that is
        # its minimum: fit stops there, with no futile line search and no
        # warning, after the start's evaluation and the step's.
        calls = []
        real_objective = linear_model._objective

        def counting_objective(*args):
            calls.append(None)
            return real_objective(*args)

        monkeypatch.setattr(linear_model, "_objective", counting_objective)
        history = []
        with caplog.at_level(logging.DEBUG, logger="sparsemax.linear_model"):
            fit(separable_line(), TrainConfig(lam=0.0), LOSS_SPARSEMAX, history=history)
        assert history == [0.25, 0.0]
        assert len(calls) == 2
        assert caplog.records == []

    def test_history_is_monotone_and_starts_at_zero_init(self):
        data = separable_line()
        cfg = TrainConfig(max_epochs=50, convergence_tol=1e-12)
        history = []
        fit(data, cfg, LOSS_LOGISTIC, history=history)
        start = objective(np.zeros((2, 1)), np.zeros(2), data, 0.0, LOSS_LOGISTIC)[0]
        assert history[0] == start
        assert len(history) <= cfg.max_epochs + 1
        assert all(later < earlier for earlier, later in zip(history, history[1:]))

    def test_one_evaluation_per_trial_step(self, monkeypatch):
        # On this problem the small first step and every unit L-BFGS step
        # of the first 8 iterations decrease the objective enough, so each
        # iteration accepts its first trial and none converges yet; the
        # accepted trial's value and gradient are reused, making one
        # evaluation per history entry.
        calls = []
        real_loss_rows = linear_model.loss_rows

        def counting_loss_rows(*args):
            calls.append(None)
            return real_loss_rows(*args)

        monkeypatch.setattr(linear_model, "loss_rows", counting_loss_rows)
        data = random_problem(np.random.default_rng(4), n=20, d=3, k=3)
        cfg = TrainConfig(lam=0.1, max_epochs=8, learning_rate=0.05, convergence_tol=1e-12)
        history = []
        fit(data, cfg, LOSS_LOGISTIC, history=history)
        assert len(history) == cfg.max_epochs + 1
        assert len(calls) == len(history)

    @pytest.mark.parametrize("lam", (1e-6, 1e-3, 1e-1))
    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_converges_to_the_optimum(self, loss_kind, lam):
        data = document_problem()
        # The binary loss at lam = 1e-6 takes about 315 iterations here (702
        # when fit stopped on the gradient norm).
        cfg = TrainConfig(lam=lam, max_epochs=1000, convergence_tol=1e-7)
        history = []
        model = fit(data, cfg, loss_kind, history=history)
        value, grad_W, grad_b = objective_at(model, data, lam, loss_kind)
        assert len(history) - 1 < cfg.max_epochs
        assert history[-1] == value
        # Both halves of the stopping rule hold where it stopped: the last
        # step's change, and the Newton decrement g^T H^-1 g / 2, here from
        # central differences of the gradient.  The pseudo-inverse drops the
        # flat directions (the bias shift, eigenvalues ~1e-11 from rounding),
        # and the differences' error, ~1e-9 against curvatures of at least
        # lam, leaves a slack of 1% of the target.
        before, after = history[-2:]
        assert abs(before - after) < cfg.convergence_tol * max(1.0, abs(before))
        theta = pack(model.W, model.b)
        grad = pack(grad_W, grad_b)
        hessian = fd_jacobian(lambda t: flat_objective(t, data, lam, loss_kind)[1], theta)
        decrement = 0.5 * grad @ np.linalg.pinv(0.5 * (hessian + hessian.T), rcond=1e-8, hermitian=True) @ grad
        assert decrement <= 1.01 * cfg.convergence_tol * abs(value)
        optimum = scipy_optimum(data, lam, loss_kind)
        assert abs(value - optimum) <= 1e-6 * abs(optimum)

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_warm_start_reaches_the_optimum_sooner(self, loss_kind):
        # Small lam, where fits are long: a warm start saves 40-70% of the
        # iterations here (at lam = 1e-1 it saves little or nothing).
        data = document_problem()
        neighbour = fit(data, TrainConfig(lam=1e-6, max_epochs=1000), loss_kind)
        cfg = TrainConfig(lam=1e-5, max_epochs=1000)
        cold_history, warm_history = [], []
        cold = fit(data, cfg, loss_kind, history=cold_history)
        warm = fit(data, cfg, loss_kind, init=(neighbour.W, neighbour.b), history=warm_history)
        cold_value = objective_at(cold, data, cfg.lam, loss_kind)[0]
        warm_value = objective_at(warm, data, cfg.lam, loss_kind)[0]
        assert abs(warm_value - cold_value) <= 1e-6 * abs(cold_value)
        assert len(warm_history) < len(cold_history)

    def test_warns_when_stopped_unconverged(self, caplog):
        data = document_problem()
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            model = fit(data, TrainConfig(lam=1e-3, max_epochs=2, convergence_tol=1e-6), LOSS_SPARSEMAX)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        for part in ("sparsemax loss", "lam 0.001", "after 2 iterations", "max_epochs", "no Newton decrement computed"):
            assert part in message
        # The message gives |grad J| at the returned model.
        _, grad_W, grad_b = objective_at(model, data, 1e-3, LOSS_SPARSEMAX)
        reported = float(message.split("|grad J| ")[1].split(",")[0])
        assert reported == pytest.approx(np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2)), rel=1e-2)
        # Cut after a decrement was computed but before one passed (at this
        # tolerance the first comes at iteration 20 and fails, and the fit
        # converges at 21 on its Newton step), it reports the last, a lower
        # bound that failed the target.
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            model = fit(data, TrainConfig(lam=1e-3, max_epochs=20, convergence_tol=1e-6), LOSS_SPARSEMAX)
        (record,) = caplog.records
        decrement = float(record.getMessage().split("last Newton decrement at least ")[1])
        assert decrement > 1e-6 * objective_at(model, data, 1e-3, LOSS_SPARSEMAX)[0]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sparsemax.linear_model"):
            fit(data, TrainConfig(lam=1e-3, max_epochs=500, convergence_tol=1e-6), LOSS_SPARSEMAX)
        assert caplog.records == []

    def test_warm_started_path_work_stays_bounded(self, monkeypatch):
        # A warm-started lam path like the experiments' cross-validation, at a
        # tolerance of 1e-6, over all three losses.  Each decrement check
        # builds one set of blocks, and the free L-BFGS estimate gates the
        # checks, so there are few of either; a failed check's Newton step
        # ends most fits.  The bounds are about 10% above the 431 iterations,
        # 30 checks, 121 products and 30 block builds this path takes.
        checks = []
        products = []
        blocks = []

        def counting_product(*args):
            product = _hessian_product(*args)
            checks.append(None)

            def counted(v):
                products.append(None)
                return product(v)

            return counted

        def counting_blocks(*args):
            blocks.append(None)
            return _block_inverse(*args)

        monkeypatch.setattr(linear_model, "_hessian_product", counting_product)
        monkeypatch.setattr(linear_model, "_block_inverse", counting_blocks)
        data = document_problem()
        iterations = 0
        for loss_kind in ALL_LOSSES:
            init = None
            for lam in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
                history = []
                model = fit(data, TrainConfig(lam=lam, max_epochs=1000, convergence_tol=1e-6), loss_kind, init=init, history=history)
                init = (model.W, model.b)
                iterations += len(history) - 1
        assert iterations <= 474
        assert len(checks) <= 33
        assert len(products) <= 133
        assert len(blocks) <= 33

    def test_underflowing_gradient_change_is_not_stored(self, monkeypatch, caplog):
        # The two-loop scaling divides by y^T y of the newest pair, so a step
        # whose y = g_new - g has s^T y > 0 but y^T y rounding to 0 must not
        # be stored.  fit minimizes J = a theta_0 + h theta_1^2 / 2 here in
        # place of its loss, from theta_1 = 1 with a first trial step of
        # 1 / (2 h): s_1 = -1/2 and y_1 = -h/2, so s^T y = h/4 and y^T y =
        # h^2/4, which underflows at h = 1e-170.  The linear term, a = 1e-85,
        # keeps the slope -g^T g from underflowing and has y_0 = 0.
        a, h = 1e-85, 1e-170
        points, pairs_seen = [], []
        real_two_loop = linear_model._two_loop

        def objective(theta, *args):
            grad = np.zeros_like(theta)
            grad[0], grad[1] = a, h * theta[1]
            points.append((theta.copy(), grad))
            return a * theta[0] + 0.5 * h * theta[1] ** 2, grad

        def spying_two_loop(grad, pairs):
            pairs_seen.append(len(pairs))
            return real_two_loop(grad, pairs)

        monkeypatch.setattr(linear_model, "_objective", objective)
        monkeypatch.setattr(linear_model, "_two_loop", spying_two_loop)
        cfg = TrainConfig(max_epochs=1, learning_rate=0.5 / h)
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            fit(separable_line(), cfg, LOSS_BINARY_LOGISTIC, init=(np.zeros((2, 1)), [1.0, 0.0]))
        (start, g), (end, g_new) = points
        s, y = end - start, g_new - g
        assert s.dot(y) > 0.0 and y.dot(y) == 0.0
        assert pairs_seen == [0]
        (record,) = caplog.records
        assert "after 1 iterations: reached max_epochs" in record.getMessage()

    def test_warning_gives_a_gradient_norm_whose_square_underflows(self, monkeypatch, caplog):
        # fit minimizes J = exp(-theta_0) here in place of its loss, and its
        # one step, of 400, leaves g = -exp(-400) = -1.9e-174, whose square
        # underflows to 0.  The logged |grad J| must not.
        def objective(theta, *args):
            grad = np.zeros_like(theta)
            grad[0] = -np.exp(-theta[0])
            return float(np.exp(-theta[0])), grad

        monkeypatch.setattr(linear_model, "_objective", objective)
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            fit(separable_line(), TrainConfig(max_epochs=1, learning_rate=400.0), LOSS_BINARY_LOGISTIC)
        (record,) = caplog.records
        assert "after 1 iterations: reached max_epochs" in record.getMessage()
        reported = float(record.getMessage().split("|grad J| ")[1].split(",")[0])
        assert reported > 0.0
        assert reported == pytest.approx(np.exp(-400.0), rel=1e-2)

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_duplicated_raw_columns_fit_at_any_scale(self, loss_kind, caplog):
        # Two equal unstandardized count columns at lam = 0: H is singular
        # along their difference, and its blocks hold entries of about 3e7,
        # below whose rounding an absolute ridge of 1e-10 would vanish.  The
        # preconditioner's ridge scales with the largest column mean square
        # of [X 1].
        rng = np.random.default_rng(0)
        column = rng.poisson(5.0, size=40) * 1e3
        Q = rng.dirichlet(np.ones(3), size=40)
        Q[np.arange(40), rng.integers(0, 3, size=40)] = 0.0
        data = LabeledDataset(X=np.column_stack([column, column]), Q=Q / Q.sum(axis=1, keepdims=True))
        history = []
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            model = fit(data, TrainConfig(lam=0.0), loss_kind, history=history)
        assert caplog.records == []
        assert history[-1] < history[0]
        assert np.all(np.isfinite(model.W)) and np.all(np.isfinite(model.b))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(5, 40),
        d=st.integers(1, 4),
        k=st.integers(2, 5),
        scale=st.sampled_from([0.1, 1.0, 3.0]),
        lam=st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0]),
        loss_kind=st.sampled_from(ALL_LOSSES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=6, d=3, k=5, scale=1.0, lam=1e-6, loss_kind=LOSS_SPARSEMAX, seed=3226449450)
    @example(n=8, d=3, k=4, scale=3.0, lam=1e-6, loss_kind=LOSS_LOGISTIC, seed=4062525584)
    @example(n=5, d=2, k=5, scale=1.0, lam=1e-7, loss_kind=LOSS_SPARSEMAX, seed=3266202593)
    @example(n=8, d=2, k=2, scale=3.0, lam=1e-8, loss_kind=LOSS_BINARY_LOGISTIC, seed=1705752033)
    @example(n=6, d=3, k=2, scale=3.0, lam=1e-8, loss_kind=LOSS_BINARY_LOGISTIC, seed=3222654597)
    @example(n=12, d=4, k=10, scale=1.0, lam=1e-7, loss_kind=LOSS_SPARSEMAX, seed=3500845400)
    @example(n=7, d=2, k=17, scale=1.0, lam=1e-8, loss_kind=LOSS_BINARY_LOGISTIC, seed=4180427636)
    @example(n=6, d=4, k=2, scale=1.0, lam=0.0, loss_kind=LOSS_SPARSEMAX, seed=2459356917)
    def test_a_converged_fit_is_certified_by_the_exact_decrement(self, n, d, k, scale, lam, loss_kind, seed):
        # A fit that returns without a warning has a Newton decrement of at
        # most the target: g^T H^+ g / 2 of the exact Hessian, with 1% slack
        # for the dense solve.  Targets are sparse: each row puts Dirichlet
        # mass on about half of the labels, one at least.
        # All but the last explicit example are draws on which a check whose
        # CG also stopped below the target once a step added at most 1% of
        # target - sum passed a fit at 1.1 to 2.9e5 x its target: its steps
        # added a little and then much more (two have 10 and 17 labels,
        # outside the drawn range).  Below the target CG now stops only once
        # a step adds at most tol of the sum.  In the last, J is about 2e-34
        # and H is rounding: CG met curvatures that were not positive, and
        # summed them below the target (README.md, Stopping rule).
        rng = np.random.default_rng(seed)
        on = rng.random((n, k)) < 0.5
        on[np.arange(n), rng.integers(0, k, size=n)] = True
        Q = rng.dirichlet(np.ones(k), size=n) * on
        data = LabeledDataset(X=scale * rng.normal(size=(n, d)), Q=Q / Q.sum(axis=1, keepdims=True))
        cfg = TrainConfig(lam=lam)
        with mock.patch.object(linear_model.logger, "warning") as warning:
            model = fit(data, cfg, loss_kind)
        if warning.called:
            return
        value, decrement = exact_decrement(model, data, lam, loss_kind)
        assert decrement <= 1.01 * cfg.convergence_tol * abs(value)

    def test_a_saturating_binary_bias_is_certified_by_the_exact_decrement(self):
        # Label 0 is on in all 6 rows, so its bias runs to about 24 and H's
        # smallest eigenvalue falls to about 3e-11.  A ridge of 1e-10 in the
        # check's H, not only in its preconditioner, summed g_i^2 / 2 over that
        # curvature plus the ridge and passed a decrement of 1.42 x target.
        rng = np.random.default_rng(1407527686)
        X = rng.normal(size=(6, 3))
        on = rng.random((6, 2)) < 0.5
        on[np.arange(6), rng.integers(0, 2, 6)] = True
        Q = rng.dirichlet(np.ones(2), 6) * on
        data = LabeledDataset(X=X, Q=Q / Q.sum(axis=1, keepdims=True))
        cfg = TrainConfig(lam=1e-6)
        with mock.patch.object(linear_model.logger, "warning") as warning:
            model = fit(data, cfg, LOSS_BINARY_LOGISTIC)
        assert not warning.called
        value, decrement = exact_decrement(model, data, cfg.lam, LOSS_BINARY_LOGISTIC)
        assert decrement <= 1.01 * cfg.convergence_tol * abs(value)

    def test_sparse_fit_on_a_raw_count_column_reaches_the_optimum(self, caplog):
        # Counts times 1e4 beside an N(0, 1) column: a unit step along -g
        # takes J from 0.087 to 8e7, and after 30 halvings J is still above
        # its start (a cap of 30 gave up at iteration 0 with W = 0).  The line
        # search halves for as long as J can still show the predicted fall.
        data = raw_count_column_problem()
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            model = fit(data, TrainConfig(lam=1e-3), LOSS_SPARSEMAX)
        assert caplog.records == []
        value = objective_at(model, data, 1e-3, LOSS_SPARSEMAX)[0]
        assert abs(value - scipy_optimum(data, 1e-3, LOSS_SPARSEMAX)) <= 1e-6

    def test_logistic_fit_on_a_raw_count_column_reaches_the_optimum(self, caplog):
        # On the same data L-BFGS alone crawls: it stopped at the cap of 100
        # iterations with |grad J| 0.136.  The failed checks' Newton steps
        # end the fit in 10.
        data = raw_count_column_problem()
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            model = fit(data, TrainConfig(lam=1e-3), LOSS_LOGISTIC)
        assert caplog.records == []
        value = objective_at(model, data, 1e-3, LOSS_LOGISTIC)[0]
        assert abs(value - scipy_optimum(data, 1e-3, LOSS_LOGISTIC)) <= 1e-6

    def test_binary_fit_on_a_raw_count_column_reaches_the_optimum(self, caplog):
        # On the same data the binary fit falls to J ~ 6e-17.  Written as
        # logaddexp(0, s) - s, the on-label term lost its digits past s ~ 30,
        # so the fit stopped at J ~ 2e-14 with no trial step that decreased
        # J and a decrement of 1.04e-15 against a target of 2.2e-21.
        data = raw_count_column_problem()
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            model = fit(data, TrainConfig(lam=1e-3), LOSS_BINARY_LOGISTIC)
        assert caplog.records == []
        value, decrement = exact_decrement(model, data, 1e-3, LOSS_BINARY_LOGISTIC)
        assert abs(value - scipy_optimum(data, 1e-3, LOSS_BINARY_LOGISTIC)) <= 1e-6
        assert decrement <= 1.01 * 1e-7 * value

    def test_regularization_shrinks_weights(self):
        data = separable_line()
        cfg_free = TrainConfig(lam=0.0, max_epochs=200)
        cfg_reg = TrainConfig(lam=1e3, max_epochs=200)
        free = fit(data, cfg_free, LOSS_LOGISTIC)
        reg = fit(data, cfg_reg, LOSS_LOGISTIC)
        assert np.linalg.norm(free.W) > 0.1
        assert np.linalg.norm(reg.W) < 1e-2

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_restarts_reach_the_same_objective(self, loss_kind):
        rng = np.random.default_rng(3)
        data = random_problem(rng, n=30, d=2, k=3)
        cfg = TrainConfig(lam=0.1, max_epochs=3000, convergence_tol=1e-13)
        finals = []
        inits = [None] + [
            (rng.normal(scale=2.0, size=(3, 2)), rng.normal(scale=2.0, size=3)) for _ in range(2)
        ]
        for init in inits:
            model = fit(data, cfg, loss_kind, init=init)
            finals.append(objective_at(model, data, cfg.lam, loss_kind)[0])
        assert max(finals) - min(finals) < 1e-4

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(9)
        data = random_problem(rng, n=20, d=3, k=3)
        cfg = TrainConfig(lam=0.01, max_epochs=80)
        a = fit(data, cfg, LOSS_SPARSEMAX)
        b = fit(data, cfg, LOSS_SPARSEMAX)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)

    def test_rejects_unknown_loss_and_bad_init(self):
        data = separable_line()
        cfg = TrainConfig(max_epochs=5)
        with pytest.raises(ValueError):
            fit(data, cfg, "hinge")
        with pytest.raises(ValueError):
            fit(data, cfg, LOSS_LOGISTIC, init=(np.zeros((3, 1)), np.zeros(3)))

    def test_non_finite_start_is_an_error(self):
        data = separable_line()
        cfg = TrainConfig(max_epochs=5)
        huge = (np.full((2, 1), 1e200), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            fit(data, cfg, LOSS_SPARSEMAX, init=huge)


class TestPredict:
    def test_scores_match_naive_loops(self):
        rng = np.random.default_rng(10)
        model = LinearModel(W=rng.normal(size=(4, 6)), b=rng.normal(size=4))
        x = rng.normal(size=6)
        z = predict_scores(model, x)
        for k in range(4):
            expected = sum(model.W[k, j] * x[j] for j in range(6)) + model.b[k]
            assert z[k] == pytest.approx(expected, abs=1e-12)

    def test_score_rows_match_naive_loops(self):
        rng = np.random.default_rng(10)
        model = LinearModel(W=rng.normal(size=(4, 6)), b=rng.normal(size=4))
        X = rng.normal(size=(5, 6))
        Z = predict_scores(model, X)
        assert Z.shape == (5, 4)
        for i in range(5):
            for k in range(4):
                expected = sum(model.W[k, j] * X[i, j] for j in range(6)) + model.b[k]
                assert Z[i, k] == pytest.approx(expected, abs=1e-12)

    def test_scores_reject_wrong_length(self):
        model = LinearModel(W=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ValueError):
            predict_scores(model, np.zeros(4))

    def test_sparsemax_scale_support(self):
        model = LinearModel(W=np.eye(3), b=np.zeros(3))
        rule = DecisionRule(RULE_SPARSEMAX_SCALE, 1.0)
        assert predict_labels(model, [2.0, 0.0, 0.0], rule) == {0}
        assert predict_labels(model, [0.0, 0.0, 0.0], rule) == {0, 1, 2}

    def test_logistic_threshold_is_strict(self):
        model = LinearModel(W=np.eye(2), b=np.zeros(2))
        x = [0.0, 0.0]
        assert predict_labels(model, x, DecisionRule(RULE_LOGISTIC_THRESHOLD, 0.4)) == {0, 1}
        assert predict_labels(model, x, DecisionRule(RULE_LOGISTIC_THRESHOLD, 0.5)) == set()

    def test_softmax_threshold_can_be_empty(self):
        model = LinearModel(W=np.eye(3), b=np.zeros(3))
        rule = DecisionRule(RULE_SOFTMAX_THRESHOLD, 1.0 / 3.0)
        assert predict_labels(model, [0.0, 0.0, 0.0], rule) == set()

    def test_scale_sweep_shrinks_support(self):
        rng = np.random.default_rng(11)
        model = LinearModel(W=np.eye(5), b=np.zeros(5))
        for _ in range(20):
            x = rng.normal(size=5)
            sizes = [
                len(predict_labels(model, x, DecisionRule(RULE_SPARSEMAX_SCALE, t)))
                for t in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
            ]
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] >= 1


class TestDecideRows:
    """decide_rows on a score matrix must switch on what predict_labels does per example."""

    # Rows with exact ties at the threshold: sigmoid(0) == 0.5, a uniform
    # softmax of exactly 1/4, and sparsemax([1, 0, 0, -1]) whose threshold is
    # exactly 0 on two scores.  Very negative rows give empty sets.
    TIE_ROWS = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, -1.0],
            [2.0, 2.0, 1.0, 1.0],
            [-40.0, -40.0, -40.0, -40.0],
            [-40.0, -41.0, -42.0, -43.0],
        ]
    )
    PARAMS = {
        RULE_LOGISTIC_THRESHOLD: (0.0, 0.05, 0.25, 0.5, 0.75, 1.0),
        RULE_SOFTMAX_THRESHOLD: (0.0, 0.1, 0.25, 0.5, 1.0),
        RULE_SPARSEMAX_SCALE: (1.0, 1.5, 2.0, 5.0),
    }

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_rows_match_predict_labels(self, kind):
        rng = np.random.default_rng(13)
        scores = np.vstack([rng.normal(scale=2.0, size=(60, 4)), self.TIE_ROWS])
        # W = I and b = 0 make predict_scores return each row exactly.
        model = LinearModel(W=np.eye(4), b=np.zeros(4))
        seen_empty = seen_full = False
        for param in self.PARAMS[kind]:
            rule = DecisionRule(kind, param)
            on = decide_rows(scores, rule)
            assert on.shape == scores.shape and on.dtype == bool
            for z, row in zip(scores, on):
                labels = predict_labels(model, z, rule)
                assert set(np.flatnonzero(row).tolist()) == labels
                seen_empty |= not labels
                seen_full |= len(labels) == 4
        assert seen_empty or kind == RULE_SPARSEMAX_SCALE
        assert seen_full

    def test_ties_stay_off(self):
        ties = self.TIE_ROWS[:2]
        assert not decide_rows(ties[:1], DecisionRule(RULE_LOGISTIC_THRESHOLD, 0.5)).any()
        assert not decide_rows(ties[:1], DecisionRule(RULE_SOFTMAX_THRESHOLD, 0.25)).any()
        on = decide_rows(ties[1:], DecisionRule(RULE_SPARSEMAX_SCALE, 1.0))
        assert on.tolist() == [[True, False, False, False]]


class TestCrossValidate:
    def make_data(self, n=12):
        rng = np.random.default_rng(2)
        return random_problem(rng, n=n, d=2, k=2)

    def test_single_candidate_skips_training(self):
        def boom(*args):
            raise AssertionError("evaluate must not run for a singleton grid")

        assert cross_validate(self.make_data(), [(0.5, None)], 3, boom) == (0.5, None)

    def test_picks_highest_mean_score(self):
        table = {(1e-3, 0.1): 0.2, (1e-2, 0.2): 0.9, (1e-1, 0.3): 0.5}

        def evaluate(fold, train_split, val_split, lam, param):
            return table[(lam, param)]

        best = cross_validate(self.make_data(), list(table), 3, evaluate)
        assert best == (1e-2, 0.2)

    def test_ties_go_to_smallest_lambda_then_param(self):
        grid = [(1e-1, 0.3), (1e-3, 0.2), (1e-2, 0.1), (1e-3, 0.1)]
        best = cross_validate(self.make_data(), grid, 3, lambda *a: 1.0)
        assert best == (1e-3, 0.1)

    def test_folds_partition_the_data(self):
        data = self.make_data(n=11)
        seen = []

        def evaluate(fold, train_split, val_split, lam, param):
            seen.append((fold, train_split.n_examples, val_split.n_examples))
            return 0.0

        cross_validate(data, [(0.1, None), (0.2, None)], 3, evaluate)
        first_pass = seen[:3]
        assert [f for f, _, _ in first_pass] == [0, 1, 2]
        assert all(tr + va == 11 for _, tr, va in first_pass)
        assert sum(va for _, _, va in first_pass) == 11
        # The second candidate sees the exact same folds.
        assert seen[3:] == first_pass

    def test_fold_assignment_depends_only_on_seed(self):
        data = self.make_data(n=10)

        def collect(seed):
            rows = []
            cross_validate(
                data,
                [(0.1, None), (0.2, None)],
                2,
                lambda fold, tr, va, lam, p: rows.append(va.X.sum()) or 0.0,
                seed=seed,
            )
            return rows

        assert collect(7) == collect(7)
        assert collect(7) != collect(8)

    def test_input_validation(self):
        data = self.make_data(n=4)
        with pytest.raises(ValueError):
            cross_validate(data, [], 2, lambda *a: 0.0)
        with pytest.raises(ValueError):
            cross_validate(data, [(0.1, None), (0.2, None)], 1, lambda *a: 0.0)
        with pytest.raises(ValueError):
            cross_validate(data, [(0.1, None), (0.2, None)], 5, lambda *a: 0.0)
