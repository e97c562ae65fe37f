"""Each of the benchmark's checks rejects a corrupted output and accepts its own reference.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import projection_inputs  # noqa: E402


def reference_rows(Z, V, Q):
    """Projection outputs computed with the checks' own code, in check order."""
    P, tau = checks.project_rows(Z)
    M = P > 0.0
    supports = [np.flatnonzero(row) for row in M]
    ks = M.sum(axis=1)
    v_mean = np.where(M, V, 0.0).sum(axis=1) / ks
    J = np.where(M, V - v_mean[:, None], 0.0)
    losses = 0.5 * ((Q - P) * (Q + P - 2.0 * Z)).sum(axis=1)
    return [P, tau, supports, ks, J, 3 * ks, losses, P - Q]


SPARSE = [("sparse", 10), ("sparse", 1000)]
ALL_REGIMES = SPARSE + [("dense", 10), ("dense", 1000)]


@pytest.fixture
def rows(request):
    regime, K = request.param
    Z, V, Q = projection_inputs(np.random.default_rng(7), K, 20, regime)
    return Z, V, Q, reference_rows(Z, V, Q)


@pytest.mark.parametrize("rows", ALL_REGIMES, indirect=True)
def test_projection_check_accepts_reference(rows):
    Z, V, Q, out = rows
    assert checks.check_projection_rows(Z, V, Q, *out).all()


@pytest.mark.parametrize("rows", ALL_REGIMES, indirect=True)
def test_projection_check_accepts_program_outputs(rows):
    import sparsemax

    Z, V, Q, _ = rows
    out = [[] for _ in range(8)]
    for z, v, q in zip(Z, V, Q):
        support = sparsemax.threshold_and_support(z)
        counter = sparsemax.OpCounter()
        jvp = sparsemax.sparsemax_jvp(support, v, counter)
        loss = sparsemax.sparsemax_loss_multi(z, q)
        for slot, value in zip(out, (sparsemax.sparsemax(z), support.tau, support.indices, support.k, jvp, counter.count, loss.value, loss.gradient)):
            slot.append(value)
    assert checks.check_projection_rows(Z, V, Q, *out).all()


@pytest.mark.parametrize("rows", ALL_REGIMES, indirect=True)
def test_projection_off_simplex_is_rejected(rows):
    Z, V, Q, out = rows
    out[0] = out[0].copy()
    out[0][0, out[2][0][0]] += 1e-6
    oks = checks.check_projection_rows(Z, V, Q, *out)
    assert not oks[0] and oks[1:].all()


@pytest.mark.parametrize("rows", SPARSE, indirect=True)
def test_support_with_one_coordinate_too_many_is_rejected(rows):
    Z, V, Q, out = rows
    extra = next(j for j in range(Z.shape[1]) if j not in set(out[2][0].tolist()))
    out[2] = list(out[2])
    out[2][0] = np.sort(np.append(out[2][0], extra))
    out[3] = out[3].copy()
    out[3][0] += 1
    oks = checks.check_projection_rows(Z, V, Q, *out)
    assert not oks[0] and oks[1:].all()


@pytest.mark.parametrize("rows", ALL_REGIMES, indirect=True)
def test_loss_with_flipped_sign_is_rejected(rows):
    Z, V, Q, out = rows
    row = int(np.argmax(out[6] > 0.0))
    assert out[6][row] > 0.0
    out[6] = out[6].copy()
    out[6][row] = -out[6][row]
    oks = checks.check_projection_rows(Z, V, Q, *out)
    assert not oks[row] and np.delete(oks, row).all()


def _labelprop_case(loss):
    rng = np.random.default_rng(3)
    W, b = rng.normal(size=(5, 8)), rng.normal(size=5)
    X = rng.normal(size=(40, 8))
    Q = rng.dirichlet(np.ones(5), size=40) * (rng.random((40, 5)) < 0.6)
    Q[Q.sum(axis=1) == 0, 0] = 1.0
    Q /= Q.sum(axis=1, keepdims=True)
    S = X @ W.T + b
    P = checks.project_rows(S)[0] if loss == "sparsemax" else checks.softmax_rows(S)
    cell = {
        "cell_index": 0, "mixture": "uniform", "doc_length": 200, "loss": loss, "lambda": 1e-3,
        "mse": float(((Q - P) ** 2).sum(axis=1).mean()), "js_divergence": float(checks.js_rows(Q, P).mean()),
    }
    return cell, W, b, X, Q


@pytest.mark.parametrize("loss", ["logistic", "sparsemax"])
def test_js_divergence_off_by_one_percent_is_rejected(loss):
    cell, W, b, X, Q = _labelprop_case(loss)
    assert checks.check_labelprop_cell(cell, W, b, X, Q, [1e-3]).ok
    assert not checks.check_labelprop_cell({**cell, "js_divergence": cell["js_divergence"] * 1.01}, W, b, X, Q, [1e-3]).ok
    assert not checks.check_labelprop_cell(cell, W, b, X, Q, [1e-2]).ok


def test_f1_check_accepts_reference_and_rejects_a_changed_score():
    rng = np.random.default_rng(5)
    W, b, X = rng.normal(size=(6, 6)), rng.normal(size=6), rng.normal(size=(50, 6))
    Q = (rng.random((50, 6)) < 0.3).astype(float)
    Q[Q.sum(axis=1) == 0, 0] = 1.0
    Q /= Q.sum(axis=1, keepdims=True)
    micro, macro = checks.f1_scores(checks.predict_sets("sparsemax_scale", 2.0, W, b, X), Q > 0)
    cell = {"method": "sparsemax", "rule_param": 2.0, "lambda": 1e-3, "micro_f1": micro, "macro_f1": macro}
    assert checks.check_multilabel_cell(cell, W, b, X, Q, [1e-3], [2.0]).ok
    assert not checks.check_multilabel_cell({**cell, "micro_f1": micro + 1e-6}, W, b, X, Q, [1e-3], [2.0]).ok


TRAINING = {"folds": 3, "max_epochs": 200, "learning_rate": 1.0, "convergence_tol": 1e-7}


def _training_data():
    import sparsemax

    train, _ = sparsemax.generate_synthetic(sparsemax.SyntheticConfig(n_labels=4, n_train=80, n_test=10, mean_doc_length=300.0, seed=2))
    return sparsemax.standardize_features(train, train)[0]


def _fit(train, lam, loss, **settings):
    """The program's fit, and its FitRecord as the benchmark's recorder makes it."""
    import sparsemax

    cfg = sparsemax.TrainConfig(lam=lam, **{k: v for k, v in TRAINING.items() if k != "folds"} | settings)
    history = []
    model = sparsemax.fit(train, cfg, loss, history=history)
    record = checks.FitRecord(
        model.W, model.b, lam, loss, cfg.max_epochs, cfg.learning_rate, cfg.convergence_tol, len(history) - 1, tuple(history[-2:])
    )
    return model, record


@pytest.mark.parametrize("loss", ["logistic", "sparsemax", "independent-binary-logistic"])
def test_fit_cut_at_five_epochs_is_rejected(loss):
    train = _training_data()
    X, Q, lam = train.X, train.Q, 1e-3
    tol = TRAINING["convergence_tol"]
    cut, cut_record = _fit(train, lam, loss, max_epochs=5)
    optimum = checks.reference_optimum(X, Q, lam, loss, cut.W, cut.b)
    assert optimum.grad_norm < 1e-8
    descent = checks.capped_descent(X, Q, lam, loss, TRAINING["max_epochs"], TRAINING["learning_rate"], tol)
    outcome = checks.check_final_fit("cut", cut.W, cut.b, X, Q, lam, loss, optimum, descent, tol)
    assert not outcome.ok and not outcome.known_fault  # below what its training rule reaches
    assert checks.fit_problems(cut_record, X, Q, lam, TRAINING)  # trained with another epoch cap
    assert checks.check_final_fit("reference", optimum.W, optimum.b, X, Q, lam, loss, optimum, descent, tol).ok
    # The program's own fit at the full settings is either converged or the
    # known epoch-cap fault, and stopped by its rule.
    full, full_record = _fit(train, lam, loss)
    outcome = checks.check_final_fit("full", full.W, full.b, X, Q, lam, loss, optimum, descent, tol)
    assert outcome.ok or outcome.known_fault
    assert checks.fit_problems(full_record, X, Q, lam, TRAINING) == []


def test_fit_stopped_on_a_looser_rule_is_rejected():
    train = _training_data()
    _, record = _fit(train, 1e-3, "logistic", convergence_tol=1e-3)
    assert record.epochs < TRAINING["max_epochs"]
    assert checks.fit_problems(record._replace(convergence_tol=1e-7), train.X, train.Q, 1e-3, TRAINING)


def _recorded_cross_validation():
    """A small cross-validation and final fit through the benchmark's recorder."""
    from types import SimpleNamespace

    import sparsemax
    from workloads import FinalFitRecorder

    train = _training_data()
    cli = SimpleNamespace(standardize_features=sparsemax.standardize_features, cross_validate=sparsemax.cross_validate, fit=sparsemax.fit)
    recorder = FinalFitRecorder(cli)
    recorder.record = True
    cfg = {k: v for k, v in TRAINING.items() if k != "folds"} | {"max_epochs": 30}
    training = {**TRAINING, "max_epochs": 30}

    def evaluate(i, tr, va, lam, param):
        model = cli.fit(tr, sparsemax.TrainConfig(lam=lam, **cfg), "sparsemax")
        return -checks.proportion_metrics(model.W, model.b, va.X, va.Q, "sparsemax")[1]

    grid = [(1e-3, None), (1e-1, None)]
    choice = cli.cross_validate(train, grid, training["folds"], evaluate, seed=4)
    cli.fit(train, sparsemax.TrainConfig(lam=choice[0], **cfg), "sparsemax")
    (final,) = recorder.take()
    score = lambda W, b, X, Q, param: -checks.proportion_metrics(W, b, X, Q, "sparsemax")[1]
    return final, grid, training, score, choice


def test_cross_validation_check_accepts_the_program_and_rejects_corruptions():
    import workloads

    final, grid, training, score, choice = _recorded_cross_validation()
    check = lambda: workloads.check_training(final, grid, training, score, checks.METRIC_RTOL, choice)
    assert check() == []
    cv = final.cv
    # a skipped fit
    fits = dict(cv.fits)
    cv.fits.pop((0, 1e-1))
    cv.n_fits -= 1
    assert check()
    cv.fits, cv.n_fits = fits, cv.n_fits + 1
    # a validation score off by 1%
    scores = dict(cv.scores)
    cv.scores[(1, 1e-3, None)] *= 1.01
    assert check()
    cv.scores = scores
    # another choice than the scores give
    other = next(c for c in grid if c != tuple(choice))
    assert workloads.check_training(final, grid, training, score, checks.METRIC_RTOL, other)
    assert check() == []


@pytest.mark.parametrize("loss", ["logistic", "sparsemax", "independent-binary-logistic"])
def test_objective_gradient_matches_finite_differences(loss):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 4))
    Q = rng.dirichlet(np.ones(3), size=30)
    W, b = rng.normal(size=(3, 4)), rng.normal(size=3)
    _, gW, gb = checks.objective(W, b, X, Q, 0.1, loss)
    step = 1e-6
    for i, j in [(0, 0), (1, 2), (2, 3)]:
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += step
        Wm[i, j] -= step
        fd = (checks.objective(Wp, b, X, Q, 0.1, loss)[0] - checks.objective(Wm, b, X, Q, 0.1, loss)[0]) / (2 * step)
        assert abs(fd - gW[i, j]) < 1e-6
    bp, bm = b.copy(), b.copy()
    bp[1] += step
    bm[1] -= step
    fd = (checks.objective(W, bp, X, Q, 0.1, loss)[0] - checks.objective(W, bm, X, Q, 0.1, loss)[0]) / (2 * step)
    assert abs(fd - gb[1]) < 1e-6
