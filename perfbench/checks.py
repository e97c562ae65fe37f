"""Checks of the program's outputs, computed apart from the program.

Nothing here imports the package under test.  Projection outputs are
checked against properties the Euclidean projection onto the simplex must
have; metrics, decision rules and training objectives are recomputed with
this file's own numpy code.  Every tolerance scales with the data; the
README gives the reason for each.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# A rounding bound is this many unit roundoffs per term of the longest sum
# involved, at the magnitude of the operands.
ROUNDING_FACTOR = 16.0
# Test MSE and JS divergence: a mean of a few hundred terms evaluated in
# another order differs by ~1e-13 relative; a real defect moves it by far
# more than 1e-9.
METRIC_RTOL = 1e-9
# Micro and macro F1 are ratios of label counts; only the last ulp may
# differ between two evaluations of the same counts.
F1_RTOL = 1e-12
# A final fit counts as converged when its objective is within this share
# of the optimum.  It is far below anything that moves the reported
# metrics in their fourth digit, and far above the rounding of the
# objective (a mean of a few hundred terms).
OBJECTIVE_RTOL = 1e-6
# Two runs of the same capped descent whose rounding differs take the same
# steps until a step changes the objective by about a rounding error, and
# the stopping rule ends both before that; they can stop one step apart,
# and such a step changes the objective by less than the stopping
# tolerance (relative to max(1, |J|)).  A fit may lie this many stopping
# tolerances above the benchmark's own descent.
DESCENT_TOL_FACTOR = 10.0


class Outcome(NamedTuple):
    """One checked operation.  A failure with known_fault set is the
    epoch-cap fault and leaves the run correct."""

    name: str
    ok: bool
    detail: str
    known_fault: bool = False


class FitRecord(NamedTuple):
    """A model the program's fit returned, with its training settings and
    what its ``history`` list showed: the accepted epochs and the last two
    objective values (one when no epoch was accepted)."""

    W: np.ndarray
    b: np.ndarray
    lam: float
    loss: str
    max_epochs: int
    learning_rate: float
    convergence_tol: float
    epochs: int
    last_values: tuple


class CVRecord:
    """One cross_validate call: its arguments, the score of every
    (fold, lam, rule_param), every fit keyed by (fold, lam), and its choice."""

    def __init__(self, data, grid, folds, seed) -> None:
        self.data, self.grid, self.folds, self.seed = data, list(grid), folds, seed
        self.scores: dict = {}
        self.fits: dict = {}
        self.n_fits = 0
        self.choice = None


# ---------------------------------------------------------------------------
# projection rows


def check_projection_rows(Z, V, Q, P, taus, supports, ks, jvps, counts, losses, grads):
    """One bool per row: True when the row's outputs pass every check.

    Z, V, Q are the scores, JVP vectors and targets (n, K).  P is
    sparsemax(z) per row; taus, supports and ks come from
    threshold_and_support; jvps and counts from sparsemax_jvp with an
    OpCounter; losses and grads from sparsemax_loss_multi.
    """
    Z, V, Q, P, J, G = (np.asarray(a, dtype=np.float64) for a in (Z, V, Q, P, jvps, grads))
    n, K = Z.shape
    taus = np.asarray(taus, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    ks = np.asarray(ks)
    M = np.zeros((n, K), dtype=bool)
    indices_ok = np.empty(n, dtype=bool)
    for r, idx in enumerate(supports):
        idx = np.asarray(idx)
        indices_ok[r] = (
            idx.ndim == 1
            and idx.size == ks[r]
            and idx.size > 0
            and np.all(np.diff(idx) > 0)
            and idx[0] >= 0
            and idx[-1] < K
        )
        if indices_ok[r]:
            M[r, idx] = True
    size = M.sum(axis=1)
    scale = np.maximum(1.0, np.abs(Z).max(axis=1))
    tol = ROUNDING_FACTOR * EPS * np.maximum(size, 1) * scale

    on_simplex = np.all(P >= 0.0, axis=1) & (np.abs(P.sum(axis=1) - 1.0) <= tol)
    support_ok = indices_ok & np.all(M == (Z > taus[:, None]), axis=1) & np.all(M == (P > 0.0), axis=1)
    # KKT: p_i = z_i - tau on S; z_j <= tau off S holds once M == (z > tau).
    kkt_ok = np.all(np.where(M, np.abs(P - (Z - taus[:, None])), 0.0) <= tol[:, None], axis=1)

    # The loss equals (||q - z||^2 - ||p - z||^2) / 2.  Term by term the
    # difference is (q - p)(q + p - 2z) / 2, exactly zero where p = q = 0,
    # so only the union of the two supports enters the sum.
    union = M | (Q > 0.0)
    loss_ref = 0.5 * ((Q - P) * (Q + P - 2.0 * Z)).sum(axis=1)
    loss_scale = np.where(union, np.abs(Z) + 1.0, 0.0).max(axis=1) ** 2
    loss_tol = ROUNDING_FACTOR * EPS * np.maximum(union.sum(axis=1), 1) * np.maximum(1.0, loss_scale)
    loss_ok = (losses >= 0.0) & (np.abs(losses - loss_ref) <= loss_tol)
    grad_ok = np.all(np.abs(G - (P - Q)) <= tol[:, None], axis=1)

    v_mean = np.where(M, V, 0.0).sum(axis=1) / np.maximum(size, 1)
    jvp_ref = np.where(M, V - v_mean[:, None], 0.0)
    jvp_tol = ROUNDING_FACTOR * EPS * np.maximum(size, 1) * np.maximum(1.0, np.abs(np.where(M, V, 0.0)).max(axis=1))
    jvp_ok = np.all(np.where(M, np.abs(J - jvp_ref) <= jvp_tol[:, None], J == 0.0), axis=1)
    count_ok = np.asarray(counts) == 3 * size

    return on_simplex & support_ok & kkt_ok & loss_ok & grad_ok & jvp_ok & count_ok


# ---------------------------------------------------------------------------
# the benchmark's own transforms, losses and metrics


def project_rows(S):
    """Euclidean projection of each row onto the simplex, and its threshold.

    The sort-based method: tau is set by the largest rho with
    s_(rho) > (s_(1) + ... + s_(rho) - 1) / rho.
    """
    S = np.asarray(S, dtype=np.float64)
    n, K = S.shape
    srt = -np.sort(-S, axis=1)
    excess = np.cumsum(srt, axis=1) - 1.0
    rho = (srt * np.arange(1, K + 1) > excess).sum(axis=1)
    tau = excess[np.arange(n), rho - 1] / rho
    return np.maximum(S - tau[:, None], 0.0), tau


def softmax_rows(S):
    E = np.exp(S - S.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def sigmoid(S):
    e = np.exp(-np.abs(S))
    return np.where(S >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _kl_rows(A, M):
    safe = np.where(A > 0.0, A, 1.0)
    return np.where(A > 0.0, A * np.log(safe / np.where(A > 0.0, M, 1.0)), 0.0).sum(axis=1)


def js_rows(Q, P):
    """Jensen-Shannon divergence in nats per row, 0 log 0 = 0."""
    M = 0.5 * (Q + P)
    return 0.5 * _kl_rows(Q, M) + 0.5 * _kl_rows(P, M)


def _close(reported, expected, rtol):
    return bool(np.isfinite(reported) and abs(reported - expected) <= rtol * max(abs(expected), 1e-300))


def proportion_metrics(W, b, X, Q, loss):
    """Mean squared error and mean JS divergence of predicted proportions."""
    S = X @ W.T + b
    P = project_rows(S)[0] if loss == "sparsemax" else softmax_rows(S)
    return float(((Q - P) ** 2).sum(axis=1).mean()), float(js_rows(Q, P).mean())


def check_labelprop_cell(cell, W, b, X_test, Q_test, lambdas):
    """Recompute a labelprop cell's test MSE and JS from its final model."""
    mse, js = proportion_metrics(W, b, X_test, Q_test, cell["loss"])
    ok = (
        _close(cell["mse"], mse, METRIC_RTOL)
        and _close(cell["js_divergence"], js, METRIC_RTOL)
        and cell["lambda"] in lambdas
    )
    detail = f"mse {cell['mse']!r} vs {mse!r}, js {cell['js_divergence']!r} vs {js!r}, lambda {cell['lambda']!r}"
    return Outcome(f"labelprop cell {cell['cell_index']} ({cell['mixture']}, {cell['doc_length']}, {cell['loss']})", ok, detail)


def predict_sets(rule, param, W, b, X):
    """Boolean (n, K) label predictions of a decision rule."""
    S = np.stack([W @ x + b for x in X])
    if rule == "logistic_threshold":
        return sigmoid(S) > param
    if rule == "softmax_threshold":
        return softmax_rows(S) > param
    if rule == "sparsemax_scale":
        return project_rows(param * S)[0] > 0.0
    raise ValueError(f"unknown decision rule {rule!r}")


def f1_scores(pred, gold):
    """Micro and macro F1 of boolean (n, K) predictions; 0 where undefined."""
    tp = (pred & gold).sum(axis=0).astype(np.float64)
    fp = (pred & ~gold).sum(axis=0).astype(np.float64)
    fn = (~pred & gold).sum(axis=0).astype(np.float64)
    micro_den = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2 * tp.sum() / micro_den if micro_den > 0 else 0.0
    den = 2 * tp + fp + fn
    macro = np.where(den > 0, 2 * tp / np.where(den > 0, den, 1.0), 0.0).mean()
    return float(micro), float(macro)


MULTILABEL_RULES = {
    "logistic": "logistic_threshold",
    "softmax": "softmax_threshold",
    "sparsemax": "sparsemax_scale",
}


def multilabel_f1(method, param, W, b, X, Q):
    """Micro and macro F1 of a method's decision rule at one parameter."""
    return f1_scores(predict_sets(MULTILABEL_RULES[method], param, W, b, X), Q > 0.0)


def check_multilabel_cell(cell, W, b, X_test, Q_test, lambdas, rule_params):
    """Recompute a multilabel method's test micro/macro F1 from its final model."""
    micro, macro = multilabel_f1(cell["method"], cell["rule_param"], W, b, X_test, Q_test)
    ok = (
        _close(cell["micro_f1"], micro, F1_RTOL)
        and _close(cell["macro_f1"], macro, F1_RTOL)
        and cell["lambda"] in lambdas
        and cell["rule_param"] in rule_params
    )
    detail = (
        f"micro {cell['micro_f1']!r} vs {micro!r}, macro {cell['macro_f1']!r} vs {macro!r}, "
        f"lambda {cell['lambda']!r}, rule param {cell['rule_param']!r}"
    )
    return Outcome(f"multilabel {cell['method']}", ok, detail)


# ---------------------------------------------------------------------------
# training objective and its optimum


def objective(W, b, X, Q, lam, loss):
    """lam/2 ||W||^2 + mean_i L(W x_i + b; q_i) and its gradient (W, b)."""
    S = X @ W.T + b
    if loss == "logistic":
        m = S.max(axis=1)
        lse = m + np.log(np.exp(S - m[:, None]).sum(axis=1))
        neg_entropy = np.where(Q > 0.0, Q * np.log(np.where(Q > 0.0, Q, 1.0)), 0.0).sum(axis=1)
        values = neg_entropy - (Q * S).sum(axis=1) + lse
        G = softmax_rows(S) - Q
    elif loss == "sparsemax":
        P = project_rows(S)[0]
        values = 0.5 * ((Q - P) * (Q + P - 2.0 * S)).sum(axis=1)
        G = P - Q
    elif loss == "independent-binary-logistic":
        Y = (Q > 0.0).astype(np.float64)
        values = (np.logaddexp(0.0, S) - Y * S).sum(axis=1)
        G = sigmoid(S) - Y
    else:
        raise ValueError(f"unknown loss {loss!r}")
    n = X.shape[0]
    value = 0.5 * lam * float((W * W).sum()) + float(values.mean())
    return value, lam * W + G.T @ X / n, G.mean(axis=0)


class Optimum(NamedTuple):
    value: float
    grad_norm: float
    W: np.ndarray
    b: np.ndarray


def reference_optimum(X, Q, lam, loss, start_W, start_b) -> Optimum:
    """Minimise :func:`objective` with scipy's L-BFGS-B from a start point."""
    from scipy.optimize import minimize

    K, D = start_W.shape

    def fun(theta):
        value, gW, gb = objective(theta[: K * D].reshape(K, D), theta[K * D :], X, Q, lam, loss)
        return value, np.concatenate([gW.ravel(), gb])

    start = np.concatenate([np.asarray(start_W, dtype=np.float64).ravel(), start_b])
    res = minimize(
        fun, start, jac=True, method="L-BFGS-B",
        options={"maxiter": 100_000, "maxfun": 200_000, "maxcor": 30, "ftol": 0.0, "gtol": 1e-12},
    )
    theta = res.x if res.fun <= fun(start)[0] else start
    value, grad = fun(theta)
    return Optimum(value, float(np.linalg.norm(grad)), theta[: K * D].reshape(K, D), theta[K * D :])


def capped_descent(X, Q, lam, loss, max_epochs, learning_rate, convergence_tol):
    """The training rule ``fit`` documents, on this file's objective, from W = 0, b = 0.

    Each epoch steps along the negative gradient, trying the last accepted
    step doubled (at most learning_rate, which is also the first try) and
    halving it up to 30 times until the objective strictly decreases.  It
    stops after max_epochs, when no step decreases the objective, or when
    the accepted step changed the objective by less than convergence_tol
    relative to max(1, |J|).  Returns the final objective.
    """
    K, D = Q.shape[1], X.shape[1]
    W, b = np.zeros((K, D)), np.zeros(K)
    value, gW, gb = objective(W, b, X, Q, lam, loss)
    step = learning_rate
    for _ in range(max_epochs):
        trial = step
        for _ in range(31):
            W_new, b_new = W - trial * gW, b - trial * gb
            value_new = objective(W_new, b_new, X, Q, lam, loss)[0]
            if np.isfinite(value_new) and value_new < value:
                break
            trial *= 0.5
        else:
            break
        change = abs(value - value_new) / max(1.0, abs(value))
        W, b = W_new, b_new
        value, gW, gb = objective(W, b, X, Q, lam, loss)
        step = min(learning_rate, 2.0 * trial)
        if change < convergence_tol:
            break
    return value


def fit_problems(fit: FitRecord, X, Q, lam, training) -> list:
    """What is wrong with how a fit was trained and where it stopped.

    Its settings must be ``training``'s (max_epochs, learning_rate,
    convergence_tol) at ``lam``; the last value of its history must be this
    file's objective at the returned model; and it must have stopped by
    its rule: at max_epochs, or on an accepted step that changed the
    objective by less than convergence_tol relative to max(1, |J|).
    """
    problems = []
    settings = (fit.lam, fit.max_epochs, fit.learning_rate, fit.convergence_tol)
    wanted = (lam, training["max_epochs"], training["learning_rate"], training["convergence_tol"])
    if settings != wanted:
        problems.append(f"trained with (lam, max_epochs, learning_rate, convergence_tol) = {settings}, not {wanted}")
    value = objective(fit.W, fit.b, X, Q, lam, fit.loss)[0]
    if not _close(fit.last_values[-1], value, METRIC_RTOL):
        problems.append(f"history ends at {fit.last_values[-1]!r}, objective of the model {value!r}")
    if fit.epochs > fit.max_epochs:
        problems.append(f"{fit.epochs} epochs, over the cap {fit.max_epochs}")
    elif fit.epochs < fit.max_epochs:
        if len(fit.last_values) < 2:
            problems.append("no epoch accepted")
        else:
            before, after = fit.last_values
            change = abs(before - after) / max(1.0, abs(before))
            if not change < fit.convergence_tol:
                problems.append(f"stopped after {fit.epochs} epochs on a relative change of {change:.3e}")
    return problems


def fold_splits(n, folds, seed):
    """(train rows, validation rows) per fold: a seeded permutation cut into
    near-equal consecutive parts, each part validating once."""
    parts = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    return [(np.concatenate(parts[:i] + parts[i + 1 :]), part) for i, part in enumerate(parts)]


def choose(grid, scores, folds):
    """The (lam, rule_param) of highest mean fold score; ties go to the
    smaller lam, then the smaller rule parameter."""
    best, best_score = None, -np.inf
    for lam, param in sorted(grid, key=lambda c: (c[0], 0.0 if c[1] is None else c[1])):
        mean = float(np.mean([scores[(i, lam, param)] for i in range(folds)]))
        if mean > best_score:
            best, best_score = (lam, param), mean
    return best


def cv_problems(cv: CVRecord, grid, training, score, rtol) -> list:
    """What is wrong with one cross-validation.

    It must run ``training["folds"]`` folds over ``grid``, fit once per
    (fold, lam) with the training settings and stop by the rule, report
    for every (fold, lam, rule_param) the validation score that ``score``
    recomputes from that fold's model, and choose by :func:`choose`.
    """
    problems = []
    grid = [tuple(c) for c in grid]
    folds = training["folds"]
    if [tuple(c) for c in cv.grid] != grid or cv.folds != folds:
        return [f"{cv.folds} folds over a grid of {len(cv.grid)}, not {folds} over {len(grid)}"]
    lambdas = sorted({lam for lam, _ in grid})
    keys = {(i, lam) for i in range(folds) for lam in lambdas}
    if cv.n_fits != len(keys) or set(cv.fits) != keys:
        problems.append(f"{cv.n_fits} fits, not one per fold and lambda ({len(keys)})")
    if set(cv.scores) != {(i, lam, param) for i in range(folds) for lam, param in grid}:
        return problems + [f"{len(cv.scores)} validation scores for {folds * len(grid)} (fold, candidate) pairs"]
    X, Q = cv.data.X, cv.data.Q
    splits = fold_splits(X.shape[0], folds, cv.seed)
    for (i, lam), fit in sorted(cv.fits.items()):
        rows = splits[i][0]
        problems += [f"fold {i} lambda {lam:g}: {p}" for p in fit_problems(fit, X[rows], Q[rows], lam, training)]
    for (i, lam, param), reported in sorted(cv.scores.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or 0.0)):
        fit = cv.fits.get((i, lam))
        rows = splits[i][1]
        own = score(fit.W, fit.b, X[rows], Q[rows], param) if fit is not None else np.nan
        if not _close(reported, own, rtol):
            problems.append(f"fold {i} lambda {lam:g} param {param}: validation score {reported!r}, recomputed {own!r}")
    chosen = choose(grid, cv.scores, folds)
    if cv.choice is None or tuple(cv.choice) != chosen:
        problems.append(f"chose {cv.choice}, the scores choose {chosen}")
    return problems


def check_final_fit(name, W, b, X, Q, lam, loss, optimum: Optimum, descent_value: float, convergence_tol: float):
    """A final fit passes when its objective is within OBJECTIVE_RTOL of the optimum.

    A fit that fails but lies no more than DESCENT_TOL_FACTOR times
    ``convergence_tol`` above ``descent_value``, what the documented capped
    descent reaches, fails on the known epoch-cap fault; one above that
    did less than its training rule asks.
    """
    value = objective(W, b, X, Q, lam, loss)[0]
    gap = value - optimum.value
    # The rounding floor: a mean of n terms at the scale of the objective.
    floor = ROUNDING_FACTOR * EPS * X.shape[0] * max(abs(optimum.value), 1.0)
    ok = bool(np.isfinite(value) and gap <= OBJECTIVE_RTOL * abs(optimum.value) + floor)
    descent_tol = DESCENT_TOL_FACTOR * convergence_tol * max(1.0, abs(descent_value)) + floor
    known = bool(np.isfinite(value) and value <= descent_value + descent_tol)
    detail = (
        f"objective {value!r}, optimum {optimum.value!r}, relative gap "
        f"{gap / max(abs(optimum.value), 1e-300):.3e}, reference gradient norm {optimum.grad_norm:.3e}, "
        f"capped descent {descent_value!r}"
    )
    return Outcome(f"final fit: {name}", ok, detail, known_fault=known and not ok)
