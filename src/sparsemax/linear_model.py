"""Regularized linear models for distribution targets.

Trains W, b to minimize  lam/2 * ||W||_F^2 + mean_i L(W x_i + b; q_i)
by full-batch L-BFGS with a backtracking line search.  The bias is never
regularized.  Three loss kinds are supported: the multinomial
logistic loss, its sparse analogue, and a bank of independent binary
logistic losses (one per label, with targets q_i > 0).

Set-valued prediction is done by a :class:`DecisionRule`: thresholding the
per-label sigmoid, thresholding the softmax, or taking the support of
sparsemax applied to scaled scores.  :func:`decide_rows` applies a rule to
a whole (N, K) score matrix; :func:`predict_labels` to one example.

This module holds training, prediction and cross-validation only; models
are not saved or loaded.  The formulas it uses
live with their math: the loss values and gradients in
``losses.loss_rows`` (with the ``LOSS_*`` kinds), softmax, sparsemax and
the threshold in ``simplex``, and the sigmoid in ``losses``.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .losses import LOSS_KINDS, loss_rows, sigmoid
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

_MAX_HALVINGS = 30
_MEMORY = 10
_ARMIJO_C1 = 1e-4

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LinearModel:
    W: np.ndarray  # (K, D)
    b: np.ndarray  # (K,)
    loss_kind: str

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("W must be (K, D) and b must be (K,)")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("model parameters must be finite")

    @property
    def n_labels(self) -> int:
        return self.W.shape[0]

    @property
    def n_features(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.0  # weight of the penalty lam/2 * ||W||_F^2
    max_epochs: int = 100  # cap on the L-BFGS iterations
    learning_rate: float = 1.0  # the first iteration's trial step; later ones try 1
    convergence_tol: float = 1e-6  # on a step's objective change and the gradient norm, times max(1, |J|)

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("regularization strength must be nonnegative")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class DecisionRule:
    """A set-valued prediction rule with one scalar parameter.

    logistic_threshold: labels with sigmoid(z_k) > param, param in [0, 1]
    softmax_threshold:  labels with softmax_k(z) > param, param in [0, 1]
    sparsemax_scale:    support of sparsemax(param * z), param >= 1

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
            if not self.param >= 1.0:
                raise ValueError("sparsemax_scale factor must be >= 1")
        else:
            raise ValueError(f"unknown decision rule {self.kind!r}")


def _objective(theta, X, Q, lam, loss_kind):
    """J and its gradient at fit's flat parameters theta = [W.ravel(), b].

    The scores are formed label-major, (K, N), and loss_rows gets their
    (N, K) transposed view, so its reductions over the labels run over K
    contiguous rows of N, not N rows of K.  fit lays Q out alike, once.
    At 240 rows, 10 labels and 10 features a call takes about 52 us
    (logistic) and 113 us (sparsemax), down from 134 and 158 (README.md).
    """
    n, n_labels = Q.shape
    n_weights = theta.size - n_labels
    W, b = theta[:n_weights].reshape(n_labels, -1), theta[n_weights:]
    values, grads = loss_rows((W.dot(X.T) + b[:, None]).T, Q, loss_kind)
    value = 0.5 * lam * float((W * W).sum()) + float(values.sum() / n)
    grad = np.empty(theta.size)
    np.add(lam * W, grads.T.dot(X) / n, out=grad[:n_weights].reshape(W.shape))
    np.divide(grads.sum(axis=0), n, out=grad[n_weights:])
    return value, grad


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


def fit(data: LabeledDataset, cfg: TrainConfig, loss_kind: str, init=None, history=None) -> LinearModel:
    """Train a linear model by L-BFGS with a backtracking line search.

    Each iteration takes the two-loop L-BFGS direction over the last
    _MEMORY steps (Liu & Nocedal 1989), or the steepest-descent direction
    when that is not a descent direction.  It tries a step of
    cfg.learning_rate in the first iteration and of 1 later, halved up to
    _MAX_HALVINGS times until the objective strictly decreases and meets
    the Armijo condition, so accepted objective values decrease
    monotonically.  Training stops once an accepted step changed the
    objective J by less than cfg.convergence_tol * max(1, |J|) and the
    gradient norm is at most that; it stops unconverged, and logs a
    warning, after cfg.max_epochs iterations or when no step decreases J.

    The default start is W = 0, b = 0, which makes the whole procedure
    deterministic; pass init=(W0, b0) to start elsewhere, e.g. from the
    model of a neighbouring lam.  If a `history` list is given, the
    objective value at the start and after every accepted iteration is
    appended to it.

    Cost: one objective-and-gradient evaluation (_objective, label-major)
    at the start and one per trial step; an accepted trial's value and
    gradient are kept, not recomputed.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    n_labels, n_features = data.n_labels, data.n_features
    if init is None:
        W = np.zeros((n_labels, n_features))
        b = np.zeros(n_labels)
    else:
        W, b = (np.array(init[0], dtype=np.float64), np.array(init[1], dtype=np.float64))
        if W.shape != (n_labels, n_features) or b.shape != (n_labels,):
            raise ValueError("init shapes do not match the data dimensions")
    X, Q = data.X, np.ascontiguousarray(data.Q.T).T
    n_weights = W.size

    theta = np.concatenate([W.ravel(), b])
    value, grad = _objective(theta, X, Q, cfg.lam, loss_kind)
    if not np.isfinite(value):
        raise FloatingPointError("objective is not finite at the starting point")
    if history is not None:
        history.append(value)
    pairs = deque(maxlen=_MEMORY)
    step = cfg.learning_rate
    iterations = 0
    unconverged = "reached max_epochs"
    while iterations < cfg.max_epochs:
        direction = _two_loop(grad, pairs)
        slope = grad.dot(direction)
        if not slope < 0.0:
            pairs.clear()
            direction = -grad
            slope = -grad.dot(grad)
        trial = step
        for _ in range(_MAX_HALVINGS + 1):
            theta_new = theta + trial * direction
            value_new, grad_new = _objective(theta_new, X, Q, cfg.lam, loss_kind)
            if math.isfinite(value_new) and value_new < value and value_new <= value + _ARMIJO_C1 * trial * slope:
                break
            trial *= 0.5
        else:
            unconverged = "no trial step passes the line search"
            break
        s, y = theta_new - theta, grad_new - grad
        sy = s.dot(y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        change = abs(value - value_new) / max(1.0, abs(value))
        theta, value, grad = theta_new, value_new, grad_new
        iterations += 1
        if history is not None:
            history.append(value)
        step = 1.0
        if change < cfg.convergence_tol and math.sqrt(grad.dot(grad)) <= cfg.convergence_tol * max(1.0, abs(value)):
            unconverged = None
            break
    if unconverged:
        logger.warning(
            "fit (%s loss, lam %g) stopped unconverged after %d iterations: %s",
            loss_kind, cfg.lam, iterations, unconverged,
        )
    # The model gets arrays of its own, not views of the search's last
    # vector: a process holding three labelprop sweeps' models peaked
    # 0.15 MB lower (2 of 2 runs).
    W = theta[:n_weights].reshape(n_labels, n_features).copy()
    return LinearModel(W=W, b=theta[n_weights:].copy(), loss_kind=loss_kind)


def predict_scores(model: LinearModel, X) -> np.ndarray:
    """Label scores X W^T + b: (K,) for one feature vector, (N, K) for rows (N, D)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2) or X.shape[-1] != model.n_features:
        raise ValueError(f"expected feature vectors of length {model.n_features}")
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
    if any(part.size == 0 for part in parts):
        raise ValueError("fold assignment produced an empty fold")
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
