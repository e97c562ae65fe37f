import numpy as np
import pytest

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
    TrainConfig,
    cross_validate,
    decide_rows,
    fit,
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


def random_problem(rng, n=5, d=3, k=4):
    X = rng.normal(size=(n, d))
    Q = rng.dirichlet(np.ones(k), size=n)
    return LabeledDataset(X=X, Q=Q)


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

    def test_row_threshold_matches_scalar(self):
        # The row and 1-D threshold kernels are separate code, so they must
        # give the same tau bit for bit and the support of threshold_and_support.
        rng = np.random.default_rng(4)
        scores = np.vstack([rng.normal(scale=3.0, size=(64, 6)), EDGE_ROWS])
        shifted, tau = shifted_threshold(scores)
        assert tau.shape == (scores.shape[0], 1)
        for i, row in enumerate(scores):
            row_shifted, row_tau = shifted_threshold(row)
            s = threshold_and_support(row)
            assert np.array_equal(shifted[i], row_shifted)
            assert tau[i, 0] == row_tau
            assert np.array_equal(np.flatnonzero(shifted[i] > tau[i]), s.indices)
            assert s.k == s.indices.size

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
            W_ = theta[:12].reshape(4, 3)
            b_ = theta[12:]
            return _objective(W_, b_, data.X, data.Q, lam, loss_kind)[0]

        value, grad_W, grad_b = _objective(W, b, data.X, data.Q, lam, loss_kind)
        theta = np.concatenate([W.ravel(), b])
        fd = fd_gradient(objective_flat, theta)
        analytic = np.concatenate([grad_W.ravel(), grad_b])
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_bias_is_not_regularized(self):
        rng = np.random.default_rng(1)
        data = random_problem(rng)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        v0, gw0, gb0 = _objective(W, b, data.X, data.Q, 0.0, LOSS_LOGISTIC)
        v1, gw1, gb1 = _objective(W, b, data.X, data.Q, 10.0, LOSS_LOGISTIC)
        assert np.array_equal(gb0, gb1)
        np.testing.assert_allclose(gw1 - gw0, 10.0 * W, atol=1e-12)
        assert v1 - v0 == pytest.approx(5.0 * np.sum(W * W), rel=1e-12)


class TestFit:
    def test_separable_problem_driven_to_zero_loss(self):
        data = separable_line()
        cfg = TrainConfig(lam=0.0, max_epochs=300, learning_rate=1.0, convergence_tol=1e-12)
        model = fit(data, cfg, LOSS_SPARSEMAX)
        final = _objective(model.W, model.b, data.X, data.Q, 0.0, LOSS_SPARSEMAX)[0]
        assert final < 1e-6
        rule = DecisionRule(RULE_SPARSEMAX_SCALE, 1.0)
        for x, row in zip(data.X, data.Q):
            assert predict_labels(model, x, rule) == set(np.flatnonzero(row > 0))

    def test_history_is_monotone_and_starts_at_zero_init(self):
        data = separable_line()
        cfg = TrainConfig(max_epochs=50, convergence_tol=1e-12)
        history = []
        fit(data, cfg, LOSS_LOGISTIC, history=history)
        start = _objective(np.zeros((2, 1)), np.zeros(2), data.X, data.Q, 0.0, LOSS_LOGISTIC)[0]
        assert history[0] == start
        assert len(history) <= cfg.max_epochs + 1
        assert all(later < earlier for earlier, later in zip(history, history[1:]))

    def test_one_evaluation_per_trial_step(self, monkeypatch):
        # A step this small always decreases this objective, so every epoch
        # accepts its first trial; the accepted trial's value and gradient
        # are reused, making one evaluation per history entry.
        calls = []
        real_loss_rows = linear_model.loss_rows

        def counting_loss_rows(*args):
            calls.append(None)
            return real_loss_rows(*args)

        monkeypatch.setattr(linear_model, "loss_rows", counting_loss_rows)
        data = random_problem(np.random.default_rng(4), n=20, d=3, k=3)
        cfg = TrainConfig(lam=0.1, max_epochs=25, learning_rate=0.05, convergence_tol=1e-15)
        history = []
        fit(data, cfg, LOSS_LOGISTIC, history=history)
        assert len(history) == cfg.max_epochs + 1
        assert len(calls) == len(history)

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
            finals.append(_objective(model.W, model.b, data.X, data.Q, cfg.lam, loss_kind)[0])
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
