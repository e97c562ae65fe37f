import logging

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import minimize

from helpers import fd_gradient
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
from sparsemax.linear_model import _objective

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
    """The row and 1-D threshold kernels are separate code, so they must
    give the same shifted scores, tau and projection bit for bit, and the
    support of threshold_and_support."""
    shifted, tau = shifted_threshold(scores)
    assert tau.shape == (scores.shape[0], 1)
    projected = sparsemax_rows(scores)
    for i, row in enumerate(scores):
        row_shifted, row_tau = shifted_threshold(row)
        s = threshold_and_support(row)
        assert np.array_equal(bits(shifted[i]), bits(row_shifted))
        assert bits(tau[i, 0]) == bits(row_tau)
        assert np.array_equal(bits(projected[i]), bits(sparsemax(row)))
        assert np.array_equal(np.flatnonzero(shifted[i] > tau[i]), s.indices)
        assert s.k == s.indices.size


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


def objective(W, b, data, lam, loss_kind):
    """fit's objective at (W, b): the value, the gradient in W and in b.

    The targets go in label-major, as fit passes them, so the value
    matches fit's history bit for bit.
    """
    theta = np.concatenate([np.ravel(W), b])
    value, grad = _objective(theta, data.X, np.ascontiguousarray(data.Q.T).T, lam, loss_kind)
    return value, grad[: np.size(W)].reshape(np.shape(W)), grad[np.size(W) :]


def objective_at(model, data, lam):
    return objective(model.W, model.b, data, lam, model.loss_kind)


def scipy_optimum(data, lam, loss_kind):
    """The objective's minimum by scipy's L-BFGS-B, run to its rounding floor."""

    def fun(theta):
        return _objective(theta, data.X, data.Q, lam, loss_kind)

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
        with pytest.raises(ValueError):
            DecisionRule("argmax", 0.5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinearModel(W=np.zeros((2, 3)), b=np.zeros(3), loss_kind=LOSS_LOGISTIC)
        with pytest.raises(ValueError):
            LinearModel(W=np.zeros(3), b=np.zeros(3), loss_kind=LOSS_LOGISTIC)
        with pytest.raises(ValueError):
            LinearModel(W=np.full((2, 2), np.inf), b=np.zeros(2), loss_kind=LOSS_LOGISTIC)
        with pytest.raises(ValueError):
            LinearModel(W=np.zeros((2, 2)), b=np.zeros(2), loss_kind="hinge")


class TestBatchedOps:
    """The row kernels must agree with the 1-D public functions."""

    @given(st.lists(tied_score_entries, min_size=1, max_size=12).map(np.array))
    @example(row=np.array([0.0, -0.0, -0.5]))
    @example(row=np.array([-0.0, -0.0, -0.0]))
    @example(row=np.array([1.0, 1.0, 0.0]))
    @example(row=np.array([0.5, -0.0, 0.5]))
    @example(row=np.array([0.0, -0.0, -0.5, -0.5]))
    def test_row_threshold_matches_scalar(self, row):
        # The row kernel reads each row's maximum from its sort and the 1-D
        # kernel from max(), which may pick the other of two tied zeros (it
        # does on the last example), so a signed zero or a tie at the
        # maximum must not change tau, the shifted scores or the projection.
        scores = np.vstack([row, row[::-1]])
        assert_row_threshold_matches_scalar(scores)
        assert_row_threshold_matches_scalar(np.asfortranarray(scores))

    def test_edge_and_wide_row_thresholds_match_scalar(self):
        # Past 256 scores the 1-D kernel sorts only the scores within 1 of the
        # maximum when fewer than half are, so the wide rows take both paths.
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

        def objective_flat(theta):
            return _objective(theta, data.X, data.Q, lam, loss_kind)

        theta = np.concatenate([W.ravel(), b])
        fd = fd_gradient(lambda t: objective_flat(t)[0], theta)
        np.testing.assert_allclose(objective_flat(theta)[1], fd, atol=1e-6)

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


class TestFit:
    def test_separable_problem_driven_to_zero_loss(self):
        data = separable_line()
        cfg = TrainConfig(lam=0.0, max_epochs=300, learning_rate=1.0, convergence_tol=1e-12)
        model = fit(data, cfg, LOSS_SPARSEMAX)
        final = objective_at(model, data, 0.0)[0]
        assert final < 1e-6
        rule = DecisionRule(RULE_SPARSEMAX_SCALE, 1.0)
        for x, row in zip(data.X, data.Q):
            assert predict_labels(model, x, rule) == set(np.flatnonzero(row > 0))

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
        # The binary loss at lam = 1e-6 takes about 570 iterations here.
        cfg = TrainConfig(lam=lam, max_epochs=1000, convergence_tol=1e-7)
        history = []
        model = fit(data, cfg, loss_kind, history=history)
        value, grad_W, grad_b = objective_at(model, data, lam)
        assert len(history) - 1 < cfg.max_epochs
        assert history[-1] == value
        # Both halves of the stopping rule hold where it stopped.
        before, after = history[-2:]
        assert abs(before - after) < cfg.convergence_tol * max(1.0, abs(before))
        grad_norm = np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2))
        assert grad_norm <= cfg.convergence_tol * max(1.0, abs(value))
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
        cold_value = objective_at(cold, data, cfg.lam)[0]
        warm_value = objective_at(warm, data, cfg.lam)[0]
        assert abs(warm_value - cold_value) <= 1e-6 * abs(cold_value)
        assert len(warm_history) < len(cold_history)

    def test_warns_when_stopped_unconverged(self, caplog):
        data = document_problem()
        with caplog.at_level(logging.WARNING, logger="sparsemax.linear_model"):
            fit(data, TrainConfig(lam=1e-3, max_epochs=2), LOSS_SPARSEMAX)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        for part in ("sparsemax loss", "lam 0.001", "after 2 iterations", "max_epochs"):
            assert part in message
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sparsemax.linear_model"):
            fit(data, TrainConfig(lam=1e-3, max_epochs=500), LOSS_SPARSEMAX)
        assert caplog.records == []

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
            finals.append(objective_at(model, data, cfg.lam)[0])
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
        model = LinearModel(W=rng.normal(size=(4, 6)), b=rng.normal(size=4), loss_kind=LOSS_LOGISTIC)
        x = rng.normal(size=6)
        z = predict_scores(model, x)
        for k in range(4):
            expected = sum(model.W[k, j] * x[j] for j in range(6)) + model.b[k]
            assert z[k] == pytest.approx(expected, abs=1e-12)

    def test_score_rows_match_naive_loops(self):
        rng = np.random.default_rng(10)
        model = LinearModel(W=rng.normal(size=(4, 6)), b=rng.normal(size=4), loss_kind=LOSS_LOGISTIC)
        X = rng.normal(size=(5, 6))
        Z = predict_scores(model, X)
        assert Z.shape == (5, 4)
        for i in range(5):
            for k in range(4):
                expected = sum(model.W[k, j] * X[i, j] for j in range(6)) + model.b[k]
                assert Z[i, k] == pytest.approx(expected, abs=1e-12)

    def test_scores_reject_wrong_length(self):
        model = LinearModel(W=np.zeros((2, 3)), b=np.zeros(2), loss_kind=LOSS_LOGISTIC)
        with pytest.raises(ValueError):
            predict_scores(model, np.zeros(4))

    def test_sparsemax_scale_support(self):
        model = LinearModel(W=np.eye(3), b=np.zeros(3), loss_kind=LOSS_SPARSEMAX)
        rule = DecisionRule(RULE_SPARSEMAX_SCALE, 1.0)
        assert predict_labels(model, [2.0, 0.0, 0.0], rule) == {0}
        assert predict_labels(model, [0.0, 0.0, 0.0], rule) == {0, 1, 2}

    def test_logistic_threshold_is_strict(self):
        model = LinearModel(W=np.eye(2), b=np.zeros(2), loss_kind=LOSS_BINARY_LOGISTIC)
        x = [0.0, 0.0]
        assert predict_labels(model, x, DecisionRule(RULE_LOGISTIC_THRESHOLD, 0.4)) == {0, 1}
        assert predict_labels(model, x, DecisionRule(RULE_LOGISTIC_THRESHOLD, 0.5)) == set()

    def test_softmax_threshold_can_be_empty(self):
        model = LinearModel(W=np.eye(3), b=np.zeros(3), loss_kind=LOSS_LOGISTIC)
        rule = DecisionRule(RULE_SOFTMAX_THRESHOLD, 1.0 / 3.0)
        assert predict_labels(model, [0.0, 0.0, 0.0], rule) == set()

    def test_scale_sweep_shrinks_support(self):
        rng = np.random.default_rng(11)
        model = LinearModel(W=np.eye(5), b=np.zeros(5), loss_kind=LOSS_SPARSEMAX)
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
        model = LinearModel(W=np.eye(4), b=np.zeros(4), loss_kind=LOSS_LOGISTIC)
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
