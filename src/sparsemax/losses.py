"""Loss functions whose gradients move probability mass toward a target.

Each loss returns its value together with the exact gradient in a single
call, so one threshold computation is shared between the two.  Labels are
0-based.  The ``_multi`` variants accept an arbitrary target distribution
q on the simplex and reduce exactly to the single-label forms when q is a
one-hot vector.

Every loss formula lives once, in :func:`loss_rows`, which evaluates a
whole batch of score rows against their targets in either memory layout.
The training objective of ``linear_model`` calls it directly, on the
transposed view of label-major scores and targets, and builds its
Hessian from :func:`curvature_rows`.  The 1-D functions
validate one score vector and target with ``simplex`` and call it on
that row.  Softmax, the sparsemax threshold and the projection come from
``simplex``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .jacobians import softmax_jacobian_rows, sparsemax_jacobian_rows
from .simplex import check_distribution, check_scores, project_shifted, shifted_threshold, softmax_logsumexp_rows

__all__ = [
    "LOSS_LOGISTIC",
    "LOSS_SPARSEMAX",
    "LOSS_BINARY_LOGISTIC",
    "LossValue",
    "delta_distribution",
    "loss_rows",
    "curvature_rows",
    "sigmoid",
    "logistic_loss",
    "sparsemax_loss",
    "logistic_loss_multi",
    "sparsemax_loss_multi",
]

LOSS_LOGISTIC = "logistic"
LOSS_SPARSEMAX = "sparsemax"
LOSS_BINARY_LOGISTIC = "independent-binary-logistic"


class LossValue(NamedTuple):
    value: float
    gradient: np.ndarray


def delta_distribution(k: int, dim: int) -> np.ndarray:
    """One-hot target distribution for the single label k."""
    if not 0 <= k < dim:
        raise ValueError(f"label {k} out of range for {dim} classes")
    q = np.zeros(dim)
    q[k] = 1.0
    return q


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, without overflow for scores of either sign."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def loss_rows(scores: np.ndarray, targets: np.ndarray, loss_kind: str):
    """Loss values and score gradients of rows of scores against their targets.

    scores and targets are (N, K), or one (K,) row each; returns values
    (N,) and gradients (N, K), or a scalar and a (K,) vector.  Inputs are
    trusted, as in training; the 1-D losses validate before calling.

    logistic:  KL(q || softmax(z)) = -H(q) - <q, z> + logsumexp(z), with
               0 log 0 = 0; gradient softmax(z) - q.
    sparsemax: the Fenchel-Young form (Blondel, Martins & Niculae 2020)

                   ||p - q||^2 / 2 + sum_j q_j * max(tau - z_j, 0),

               p = sparsemax(z), on the max-shifted scores and threshold
               of simplex.shifted_threshold; gradient p - q.  It equals
               (||q - z||^2 - ||p - z||^2) / 2, so it vanishes exactly
               when p == q.  Each term is nonnegative, so rounding cannot
               push the value below zero.  The max is zero on the support,
               and off it z_j <= tau by the optimality conditions of the
               projection, so in exact arithmetic it changes nothing.  The
               expanded form -<q, z> + sum_S (z_j^2 - tau^2) / 2 +
               ||q||^2 / 2 would cancel catastrophically once one score
               wins by a margin over 1 and can land an ulp below zero.
    independent-binary-logistic: sum_k log(1 + e^-z_k) where q_k > 0, else
               log(1 + e^z_k), nonnegative at any |z|; gradient sigmoid(z) - [q > 0].
    """
    if loss_kind == LOSS_LOGISTIC:
        p, lse = softmax_logsumexp_rows(scores)
        logq = np.log(np.where(targets > 0, targets, 1.0))
        neg_entropy = (targets * logq).sum(axis=-1)
        values = neg_entropy - (targets * scores).sum(axis=-1) + lse
        grads = p - targets
    elif loss_kind == LOSS_SPARSEMAX:
        shifted, tau = shifted_threshold(scores)
        grads = project_shifted(shifted, tau) - targets
        below = np.maximum(tau - shifted, 0.0)
        values = 0.5 * (grads * grads).sum(axis=-1) + (targets * below).sum(axis=-1)
    elif loss_kind == LOSS_BINARY_LOGISTIC:
        on = targets > 0
        values = np.logaddexp(0.0, np.where(on, -scores, scores)).sum(axis=-1)
        grads = sigmoid(scores) - on
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return values, grads


def curvature_rows(scores: np.ndarray, loss_kind: str):
    """Factors (w, c) of each row's score Hessian Diag(w) - c w w^T for loss_rows: the Jacobian
    of the loss's link, softmax or sparsemax (jacobians), or sigmoid' with c = 0 (binary)."""
    if loss_kind == LOSS_LOGISTIC:
        return softmax_jacobian_rows(softmax_logsumexp_rows(scores)[0])
    if loss_kind == LOSS_SPARSEMAX:
        return sparsemax_jacobian_rows(project_shifted(*shifted_threshold(scores)))
    if loss_kind == LOSS_BINARY_LOGISTIC:
        return sigmoid(scores) * sigmoid(-scores), 0.0
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def _loss_value(z, q, loss_kind: str) -> LossValue:
    value, grad = loss_rows(z, q, loss_kind)
    return LossValue(float(value), grad)


def logistic_loss(z, k: int) -> LossValue:
    """Negative log-likelihood of label k under softmax scores.

    The same evaluation as :func:`logistic_loss_multi` against the one-hot
    target; the gradient is softmax(z) minus that target.
    """
    z = check_scores(z)
    return _loss_value(z, delta_distribution(int(k), z.size), LOSS_LOGISTIC)


def sparsemax_loss(z, k: int) -> LossValue:
    """Sparse analogue of the logistic loss for a single label k.

    The same evaluation as :func:`sparsemax_loss_multi` against the one-hot
    target, so the two agree bit for bit.  The gradient is sparsemax(z)
    minus the one-hot target.  Once z_k beats every other score by a
    margin of 1 the support is {k}; on the max-shifted scores the
    threshold is exactly -1 and sparsemax(z)_k exactly 1, so the value and
    the gradient are a literal 0.0.
    """
    z = check_scores(z)
    return _loss_value(z, delta_distribution(int(k), z.size), LOSS_SPARSEMAX)


def logistic_loss_multi(z, q) -> LossValue:
    """KL divergence from softmax(z) to the target q; see :func:`loss_rows`."""
    z = check_scores(z)
    return _loss_value(z, check_distribution(q, z.size), LOSS_LOGISTIC)


def sparsemax_loss_multi(z, q) -> LossValue:
    """Sparse loss against a full target distribution q; see :func:`loss_rows`.

    Nonnegative, and zero exactly when sparsemax(z) == q.  The gradient is
    sparsemax(z) - q, exactly zero off the supports of sparsemax(z) and q.
    """
    z = check_scores(z)
    return _loss_value(z, check_distribution(q, z.size), LOSS_SPARSEMAX)
