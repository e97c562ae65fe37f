"""Regularized linear models for distribution targets.

Trains W, b to minimize  lam/2 * ||W||_F^2 + mean_i L(W x_i + b; q_i)
by full-batch L-BFGS and Newton steps with a backtracking line search, on
the flat parameters [W b].ravel() against [X 1]; the bias is never regularized.
Three loss kinds are supported: the multinomial logistic loss, its sparse
analogue, and a bank of independent binary logistic losses (one per
label, with targets q_i > 0).

Set-valued prediction is done by a :class:`DecisionRule`: thresholding the
per-label sigmoid, thresholding the softmax, or taking the support of
sparsemax applied to scaled scores.  :func:`decide_rows` applies a rule to
a whole (N, K) score matrix; :func:`predict_labels` to one example.

This module holds training, prediction and cross-validation only; models
are not saved or loaded, and it names no loss kind: each loss's values,
gradients and score-Hessian factors come from ``losses`` (``loss_rows``,
``curvature_rows``), their product from ``jacobians``, and softmax and
sparsemax from ``simplex``.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .jacobians import jvp_rows
from .losses import curvature_rows, loss_rows, sigmoid
from .simplex import check_scores, softmax_rows, sparsemax_rows

__all__ = [
    "RULE_LOGISTIC_THRESHOLD",
    "RULE_SOFTMAX_THRESHOLD",
    "RULE_SPARSEMAX_SCALE",
    "LinearModel",
    "TrainConfig",
    "DecisionRule",
    "fit",
    "predict_scores",
    "predict_labels",
    "decide_rows",
    "cross_validate",
]

RULE_LOGISTIC_THRESHOLD = "logistic_threshold"
RULE_SOFTMAX_THRESHOLD = "softmax_threshold"
RULE_SPARSEMAX_SCALE = "sparsemax_scale"

_MEMORY = 10
_ARMIJO_C1 = 1e-4
# Times the largest column mean square of [X 1] (at least 1, the bias column's; 1 for
# standardized features), added to the blocks of _block_inverse only, so that each inverts at
# any feature scale in H's flat directions (the bias shift; at lam = 0 a label outside every
# support, a repeated feature).  1e-16 to 1e-6 give acceptance 07 and 08 the same results.
_HESSIAN_RIDGE = 1e-10

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LinearModel:
    W: np.ndarray  # (K, D)
    b: np.ndarray  # (K,)

    def __post_init__(self) -> None:
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("W must be (K, D) and b must be (K,)")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("model parameters must be finite")


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.0  # weight of the penalty lam/2 * ||W||_F^2
    max_epochs: int = 100  # cap on the iterations
    learning_rate: float = 1.0  # the first iteration's trial step; later ones try 1
    convergence_tol: float = 1e-7  # on a step's change in J, times max(1, |J|); on the Newton decrement, times |J|

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError("regularization strength must be finite and nonnegative")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and positive")


@dataclass(frozen=True)
class DecisionRule:
    """A set-valued prediction rule with one scalar parameter.

    logistic_threshold: labels with sigmoid(z_k) > param, param in [0, 1]
    softmax_threshold:  labels with softmax_k(z) > param, param in [0, 1]
    sparsemax_scale:    support of sparsemax(param * z), finite param >= 1

    Ties at the threshold stay off (strict comparison) and the predicted
    set may be empty.
    """

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind in (RULE_LOGISTIC_THRESHOLD, RULE_SOFTMAX_THRESHOLD):
            if not 0.0 <= self.param <= 1.0:
                raise ValueError(f"{self.kind} threshold must lie in [0, 1]")
        elif self.kind == RULE_SPARSEMAX_SCALE:
            if not 1.0 <= self.param < math.inf:
                raise ValueError("sparsemax_scale factor must be finite and >= 1")
        else:
            raise ValueError(f"unknown decision rule {self.kind!r}")


def _scores(theta, XT):
    """Scores at theta = [W b].ravel(), XT = [X 1]^T: one product, label-major (K, N), returned
    as the (N, K) view, on which row kernels reduce over K contiguous rows of N."""
    return theta.reshape(-1, len(XT)).dot(XT).T


def _pullback(R, X, reg, theta):
    """R^T X / n + reg * theta, X = [X 1], flat like theta: the gradient of the mean over rows
    whose score derivatives are R (N, K), plus theta^T Diag(reg) theta / 2."""
    out = R.T.dot(X).ravel()
    out /= len(X)
    out += reg * theta
    return out


def _objective(theta, X, XT, Q, reg, loss_kind):
    """J and its gradient at theta; reg is lam on the weights and 0 on the bias, and Q is
    label-major like the scores (README.md, Row kernels)."""
    values, grads = loss_rows(_scores(theta, XT), Q, loss_kind)
    value = 0.5 * float(reg.dot(theta * theta)) + float(values.sum() / len(X))
    return value, _pullback(grads, X, reg, theta)


def _two_loop(grad, pairs):
    """The L-BFGS direction -H grad from the (s, y, 1 / s'y) pairs, oldest first
    (Nocedal & Wright, Alg. 7.4); H starts as s'y / y'y of the newest pair times I.
    Run on -grad, which negates each step exactly; .dot is @ with less overhead."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * s.dot(q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * y.dot(y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def _hessian_product(w, c, X, XT, reg):
    """v -> (1/n) sum_i (J_i kron x'_i x'_i^T) v + reg * v, x' = [x, 1], J_i = Diag(w_i) - c_i w_i w_i^T:
    H v for J's exact Hessian H when reg is lam on W and 0 on b; no (P, P) array."""
    return lambda v: _pullback(jvp_rows(w, c, _scores(v, XT)), X, reg, v)


def _block_inverse(w, c, XT, reg):
    """The K diagonal (D + 1)^2 blocks [X 1]^T Diag(w_k - c w_k^2) [X 1] / n + Diag(reg_k) of H plus
    the ridge, inverted and symmetrized; built label by label, no (K, D + 1, N) array."""
    diag = (w - c * w * w).T
    blocks = np.stack([(XT * d).dot(XT.T) for d in diag])
    blocks /= diag.shape[1]
    ridge = _HESSIAN_RIDGE * (XT * XT).mean(axis=1).max()
    blocks.reshape(len(diag), -1)[:, :: len(XT) + 1] += reg.reshape(len(diag), -1) + ridge
    inverse = np.linalg.inv(blocks)
    return 0.5 * (inverse + inverse.transpose(0, 2, 1))


def _newton_decrement(theta, grad, X, XT, reg, loss_kind, tol, target):
    """A lower bound on the Newton decrement g^T H^+ g / 2 at theta (reg as in _hessian_product),
    and the CG iterate x of H x = g it comes from.

    CG from 0 on H x = g, preconditioned by M^-1 (_block_inverse plus a shift term), adds
    alpha_j r_j^T M^-1 r_j / 2 to g^T x / 2 at step j, so the sum rises to the decrement: M is SPD,
    H is PSD and g lies in its range.  A zero gradient gives 0 before any product.  It returns once
    a step adds at most tol times a sum at or below target, or 1% of a sum's excess over target (so
    that x is a usable Newton step), after theta.size steps, or at a curvature p^T H p that rounding
    made nonpositive (README.md, Stopping rule).
    """
    w, c = curvature_rows(_scores(theta, XT), loss_kind)
    product = _hessian_product(w, c, X, XT, reg)
    inverse = _block_inverse(w, c, XT, reg)
    # For the shift-invariant links (c > 0: J_i 1 = 0), M^-1 adds the inverse of K lam on the weights along
    # the shift of every label's row of [W b] by one u, which only the penalty curves (README.md).
    shift = np.divide(1.0, len(inverse) * reg[: len(XT)], out=np.zeros(len(XT)), where=reg[: len(XT)] > 0.0) * np.any(c)
    def precondition(r):
        r = r.reshape(len(inverse), -1)
        return (np.matmul(inverse, r[:, :, None])[:, :, 0] + shift * r.sum(axis=0)).ravel()
    x, r, p = np.zeros_like(grad), grad.copy(), precondition(grad)
    rz = r.dot(p)
    decrement = 0.0
    for _ in range(theta.size):
        if not rz > 0.0:
            break
        Hp = product(p)
        curvature = p.dot(Hp)
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        x += alpha * p
        added = 0.5 * alpha * rz
        decrement += added
        if added <= (tol * decrement if decrement <= target else 1e-2 * (decrement - target)):
            break
        r -= alpha * Hp
        z = precondition(r)
        rz_next = r.dot(z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return decrement, x


def fit(data: LabeledDataset, cfg: TrainConfig, loss_kind: str, init=None, history=None) -> LinearModel:
    """Train a linear model by L-BFGS with a backtracking line search, finished by Newton steps.

    Each iteration takes the two-loop L-BFGS direction d over the last
    _MEMORY steps (Liu & Nocedal 1989), or -g when d is not a descent
    direction, and tries a step t of cfg.learning_rate in the first
    iteration and of 1 later, halved until J strictly decreases and meets
    the Armijo condition, while J + t g^T d < J (J can show the predicted
    fall).  Training stops once an accepted step changed J by less than
    cfg.convergence_tol * max(1, |J|) and the Newton decrement g^T H^+ g / 2
    of the exact Hessian H, an estimate of J - J* (Boyd & Vandenberghe 9.5),
    is at most cfg.convergence_tol * |J|, or at once at a zero gradient.  A
    failed check's CG iterate x of H x = g makes the next direction -x.
    Where no trial step decreases J, a check at theta decides: a pass stops
    the fit converged; else it stops unconverged, as after cfg.max_epochs
    iterations, and logs a warning with the gradient norm and the last
    decrement.

    The default start is W = 0, b = 0, which makes the whole procedure
    deterministic; pass init=(W0, b0) to start elsewhere, e.g. from the
    model of a neighbouring lam.  If a `history` list is given, the
    objective value at the start and after every accepted iteration is
    appended to it.

    Cost: one objective and gradient, a product with [X 1] (built once) each
    way, at the start and per trial step.  A decrement check builds the
    Jacobian factors, O(N K), and inverts the blocks, O(K (D + 1)^2 (N + D)),
    then makes a Hessian-vector product, O(N K (D + 1)), and a block multiply
    per CG step, in O(N K + K (D + 1)^2) memory.
    """
    n_labels, n_features = data.n_labels, data.n_features
    if init is None:
        W = np.zeros((n_labels, n_features))
        b = np.zeros(n_labels)
    else:
        W, b = (np.array(init[0], dtype=np.float64), np.array(init[1], dtype=np.float64))
        if W.shape != (n_labels, n_features) or b.shape != (n_labels,):
            raise ValueError("init shapes do not match the data dimensions")
    X = np.column_stack([data.X, np.ones(data.n_examples)])
    XT, Q = np.ascontiguousarray(X.T), np.ascontiguousarray(data.Q.T).T
    reg = np.tile(np.append(np.full(n_features, cfg.lam), 0.0), n_labels)

    theta = np.column_stack([W, b]).ravel()
    value, grad = _objective(theta, X, XT, Q, reg, loss_kind)
    if not np.isfinite(value):
        raise FloatingPointError("objective is not finite at the starting point")
    history = [] if history is None else history
    history.append(value)
    pairs = deque(maxlen=_MEMORY)
    iterations = 0
    direction = -grad
    decrement = None  # the last Newton decrement computed
    ratio = 1.0  # that decrement over the free estimate at the same point
    unconverged = "reached max_epochs"
    while iterations < cfg.max_epochs:
        if not grad.any():  # J is convex, so this is its minimum, and no step decreases J
            unconverged = None
            break
        slope = grad.dot(direction)
        if not -math.inf < slope < 0.0:
            pairs.clear()
            direction = -grad
            slope = -grad.dot(grad)
        trial = cfg.learning_rate if iterations == 0 else 1.0
        while value + trial * slope < value:
            theta_new = theta + trial * direction
            value_new, grad_new = _objective(theta_new, X, XT, Q, reg, loss_kind)
            if value_new < value and value_new <= value + _ARMIJO_C1 * trial * slope:
                break
            trial *= 0.5
        else:  # a Newton step can land on J's minimum, where no step shows a fall: check there
            target = cfg.convergence_tol * abs(value)
            decrement = _newton_decrement(theta, grad, X, XT, reg, loss_kind, cfg.convergence_tol, target)[0]
            unconverged = None if decrement <= target else "no trial step passes the line search"
            break
        s, y = theta_new - theta, grad_new - grad
        sy = s.dot(y)
        if sy > 0.0 and y.dot(y) > 0.0:  # _two_loop divides by y'y of the newest pair
            pairs.append((s, y, 1.0 / sy))
        change = abs(value - value_new) / max(1.0, abs(value))
        theta, value, grad = theta_new, value_new, grad_new
        iterations += 1
        history.append(value)
        direction = _two_loop(grad, pairs)
        estimate = -0.5 * grad.dot(direction)
        target = cfg.convergence_tol * abs(value)
        # Check only where the last decrement, scaled by the fall of the free estimate since, would pass.
        # Ungated, the J -> 0 crawl of test_underflowing_gradient_change_is_not_stored makes 1,973 checks,
        # and Newton steps end perfbench's multilabel lam = 100 fits on a change above tol (README.md).
        if change < cfg.convergence_tol and ratio * estimate <= target:
            decrement, step = _newton_decrement(theta, grad, X, XT, reg, loss_kind, cfg.convergence_tol, target)
            ratio = decrement / estimate if estimate > 0.0 else ratio
            if decrement <= target:
                unconverged = None
                break
            direction = -step  # the truncated Newton step the failed check solved for (Nash 2000)
    if unconverged:
        logger.warning(
            "fit (%s loss, lam %g) stopped unconverged after %d iterations: %s; |grad J| %.3g, %s",
            loss_kind, cfg.lam, iterations, unconverged, math.hypot(*grad),
            "no Newton decrement computed" if decrement is None else f"last Newton decrement at least {decrement:.3g}",
        )
    # The model gets arrays of its own, not views of the search's last
    # vector: a process holding three labelprop sweeps' models peaked
    # 0.15 MB lower (2 of 2 runs).
    theta = theta.reshape(n_labels, -1)
    return LinearModel(W=theta[:, :-1].copy(), b=theta[:, -1].copy())


def predict_scores(model: LinearModel, X) -> np.ndarray:
    """Label scores X W^T + b: (K,) for one feature vector, (N, K) for rows (N, D)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2) or X.shape[-1] != model.W.shape[1]:
        raise ValueError(f"expected feature vectors of length {model.W.shape[1]}")
    return X @ model.W.T + model.b


def decide_rows(scores: np.ndarray, rule: DecisionRule) -> np.ndarray:
    """Boolean indicators of the labels the rule switches on, per row of scores.

    scores is (N, K), or one (K,) row; the result has the same shape.
    """
    if rule.kind == RULE_LOGISTIC_THRESHOLD:
        return sigmoid(scores) > rule.param
    if rule.kind == RULE_SOFTMAX_THRESHOLD:
        return softmax_rows(scores) > rule.param
    return sparsemax_rows(rule.param * scores) > 0.0


def predict_labels(model: LinearModel, x, rule: DecisionRule) -> set[int]:
    """Set of 0-based labels switched on by the decision rule (may be empty)."""
    on = decide_rows(check_scores(predict_scores(model, x)), rule)
    return set(np.flatnonzero(on).tolist())


def cross_validate(data: LabeledDataset, grid, folds: int, evaluate, seed: int = 0):
    """Pick the best (lam, rule_param) pair by mean validation score.

    `grid` is a sequence of (lam, rule_param) pairs; rule_param may be
    None when only lam is swept.  `evaluate(fold_index, train_split,
    val_split, lam, rule_param)` must return a score where higher is
    better.  Candidates are visited in ascending order of lam, then of
    rule_param, each over all folds in order, so a callback may keep each
    fold's last model as the warm start of its next lam.  Folds are a
    seeded permutation split into near-equal parts, so the assignment is
    reproducible.  Exact score ties go to the
    smaller lam, then the smaller rule parameter.  A single-candidate
    grid is returned immediately without training.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    if len(grid) == 1:
        return grid[0]
    if folds < 2:
        raise ValueError("need at least two folds")
    if data.n_examples < folds:
        raise ValueError("fewer examples than folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_examples)
    parts = np.array_split(order, folds)
    splits = []
    for i, part in enumerate(parts):
        rest = np.concatenate([p for j, p in enumerate(parts) if j != i])
        splits.append((data.subset(rest), data.subset(part)))
    best = None
    best_score = -np.inf
    key = lambda cand: (cand[0], cand[1] if cand[1] is not None else 0.0)
    for lam, param in sorted(grid, key=key):
        scores = [
            evaluate(i, train_split, val_split, lam, param)
            for i, (train_split, val_split) in enumerate(splits)
        ]
        mean_score = float(np.mean(scores))
        if mean_score > best_score:
            best = (lam, param)
            best_score = mean_score
    return best
