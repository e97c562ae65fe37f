"""Evaluation metrics for distribution targets and label sets.

Each metric is computed once, by a row form over a whole split: ``mse_rows``
and ``js_divergence_rows`` on (N, K) target and prediction rows, and
``micro_macro_f1_rows`` on (N, K) label indicator matrices.  Row forms
trust their input; the per-example functions validate and call them.
"""

from __future__ import annotations

import numpy as np

from .simplex import check_distribution

__all__ = [
    "mse",
    "mse_rows",
    "js_divergence",
    "js_divergence_rows",
    "micro_macro_f1",
    "micro_macro_f1_rows",
]


def mse_rows(Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance ||q - p||^2 per row, (N, K) or (K,)."""
    d = Q - P
    return (d * d).sum(axis=-1)


def mse(q, p) -> float:
    """Squared Euclidean distance ||q - p||^2 for one example."""
    q = check_distribution(q)
    return float(mse_rows(q, check_distribution(p, q.size)))


def _kl_rows(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    pos = A > 0.0
    return (A * np.log(np.where(pos, A, 1.0) / np.where(pos, M, 1.0))).sum(axis=-1)


def js_divergence_rows(Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence per row in nats, with 0 log 0 = 0.

    Symmetric and bounded by log 2, and finite even when the supports of q
    and p are disjoint, because both are compared against their mixture.
    """
    M = 0.5 * (Q + P)
    return 0.5 * _kl_rows(Q, M) + 0.5 * _kl_rows(P, M)


def js_divergence(q, p) -> float:
    """Jensen-Shannon divergence of one example; see js_divergence_rows."""
    q = check_distribution(q)
    return float(js_divergence_rows(q, check_distribution(p, q.size)))


def micro_macro_f1_rows(predicted: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Micro and macro F1 between (N, K) boolean label indicator matrices.

    Micro pools true/false positives and false negatives over all labels;
    macro averages per-label F1 with equal weight.  Any zero denominator
    (a label never predicted and never present, or nothing predicted and
    nothing gold at all) contributes F1 = 0.  Empty predicted rows are
    legitimate and simply produce false negatives.
    """
    tp = (predicted & gold).sum(axis=0).astype(np.float64)
    fp = (predicted & ~gold).sum(axis=0).astype(np.float64)
    fn = (~predicted & gold).sum(axis=0).astype(np.float64)
    micro_denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2 * tp.sum() / micro_denom) if micro_denom > 0 else 0.0
    denom = 2 * tp + fp + fn
    per_label = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return micro, float(per_label.mean())


def _indicators(label_sets, n_labels: int) -> np.ndarray:
    on = np.zeros((len(label_sets), n_labels), dtype=bool)
    for row, labels in enumerate(label_sets):
        for k in labels:
            if not 0 <= k < n_labels:
                raise ValueError(f"label {k} out of range for {n_labels} labels")
            on[row, k] = True
    return on


def micro_macro_f1(predicted, gold, n_labels: int) -> tuple[float, float]:
    """Micro and macro F1 between two aligned sequences of label sets.

    The sets become indicator matrices for :func:`micro_macro_f1_rows`.
    """
    predicted = list(predicted)
    gold = list(gold)
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold sequences must have equal length")
    return micro_macro_f1_rows(_indicators(predicted, n_labels), _indicators(gold, n_labels))
