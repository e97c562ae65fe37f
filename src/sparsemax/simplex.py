"""Softmax and sparsemax transformations of score vectors.

Both transforms map a real score vector onto the probability simplex.
Softmax is dense: every coordinate stays strictly positive.  Sparsemax is
the Euclidean projection onto the simplex and routinely assigns exact
literal zeros, so downstream support logic can rely on ``p > 0`` with no
epsilon fuzz.

The row kernels ``softmax_rows``, ``sparsemax_rows`` and
``shifted_threshold`` work along the last axis: on an (N, K) matrix of
score rows, or on one (K,) row.  They trust their input; the 1-D public
functions validate a score vector and call them.  The threshold search
has two kernels, one per shape, because on a single row the row kernel's
set-up costs more than its sort: 32 against 21 us at K = 10 (README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SupportSet",
    "check_scores",
    "softmax",
    "softmax_rows",
    "sparsemax",
    "sparsemax_rows",
    "shifted_threshold",
    "project_shifted",
    "threshold_and_support",
    "brute_force_projection",
    "BRUTE_FORCE_MAX_DIM",
]

# Exhaustive support enumeration costs 2^K - 1 candidates per call.
BRUTE_FORCE_MAX_DIM = 20


def check_scores(z) -> np.ndarray:
    """z as a float64 score vector; ValueError unless it is 1-D, non-empty and finite."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("score vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(z)):
        raise ValueError("score vector must contain only finite values")
    return z


@dataclass(frozen=True)
class SupportSet:
    """Support of a sparsemax output.

    indices : ascending positions of the coordinates with z_i > tau
    tau     : threshold subtracted by sparsemax; sum(z[indices] - tau) == 1
    k       : support size, equal to len(indices)
    """

    indices: np.ndarray
    tau: float
    k: int


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax of each row of scores, (N, K) or (K,).

    The row maximum is subtracted before exponentiation.  That shift is a
    mathematical no-op but keeps exp() from overflowing, so arbitrarily
    large scores are handled without warnings.
    """
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(z) -> np.ndarray:
    """Exponentiate and normalise the score vector z; see softmax_rows."""
    return softmax_rows(check_scores(z))


def _shifted_threshold(z: np.ndarray):
    """Max-shifted scores z - max(z) and the threshold of their projection.

    Sorts the shifted scores in descending order, takes the largest k
    satisfying

        1 + k * z_(k) > z_(1) + ... + z_(k)

    with a strict comparison and no epsilon slack, and sets
    tau = (z_(1) + ... + z_(k) - 1) / k.  Shifting is a no-op in exact
    arithmetic, but it keeps the sums and z - tau at the scale of the
    unit simplex, so their rounding error no longer grows with |z|: a
    singleton support gives tau = -1 and a projection of exactly 1.  In
    exact arithmetic tau lies in [z_(k+1), z_(k)); rounding can land it a
    hair outside, so it is clamped back into that interval.
    """
    shifted = z - z.max()
    z_sorted = -np.sort(-shifted)
    cssv = np.cumsum(z_sorted)
    ks = np.arange(1, z.size + 1)
    feasible = np.nonzero(1.0 + ks * z_sorted > cssv)[0]
    k = int(feasible[-1]) + 1
    tau = (cssv[k - 1] - 1.0) / k
    below = z_sorted[k] if k < z.size else -np.inf
    tau = float(min(max(tau, below), np.nextafter(z_sorted[k - 1], -np.inf)))
    return shifted, tau


def _shifted_threshold_rows(scores: np.ndarray):
    """Row by row the computation of :func:`_shifted_threshold`, clamp included.

    tau comes back as an (N, 1) column, so it broadcasts against the rows.
    """
    shifted = scores - scores.max(axis=1, keepdims=True)
    z_sorted = -np.sort(-shifted, axis=1)
    cssv = np.cumsum(z_sorted, axis=1)
    n_rows, n_cols = scores.shape
    ks = np.arange(1, n_cols + 1)
    feasible = 1.0 + ks * z_sorted > cssv
    k = n_cols - np.argmax(feasible[:, ::-1], axis=1)
    rows = np.arange(n_rows)
    tau = (cssv[rows, k - 1] - 1.0) / k
    below = np.where(k < n_cols, z_sorted[rows, np.minimum(k, n_cols - 1)], -np.inf)
    tau = np.minimum(np.maximum(tau, below), np.nextafter(z_sorted[rows, k - 1], -np.inf))
    return shifted, tau[:, None]


def shifted_threshold(scores: np.ndarray):
    """Max-shifted scores and the threshold tau of their projection.

    One row (K,) gives tau as a float, from the 1-D kernel; rows (N, K)
    give tau as an (N, 1) column, from the row kernel.  Both kernels make
    the same computation, so a row gets the same tau bit for bit either
    way, and its support is exactly shifted > tau.
    """
    if scores.ndim == 1:
        return _shifted_threshold(scores)
    return _shifted_threshold_rows(scores)


def project_shifted(shifted: np.ndarray, tau) -> np.ndarray:
    """The projection max(shifted - tau, 0) from :func:`shifted_threshold`'s output."""
    return np.maximum(shifted - tau, 0.0)


def sparsemax_rows(scores: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of scores, (N, K) or (K,), onto the simplex."""
    return project_shifted(*shifted_threshold(scores))


def threshold_and_support(z) -> SupportSet:
    """Threshold tau and support of the simplex projection of z.

    The support is every coordinate whose max-shifted score exceeds the
    threshold of :func:`_shifted_threshold`.  An exact tie at the boundary
    never splits, because tied values compare alike against tau, so the
    support holds the k largest scores and z_(k) > z_(k+1).  tau is the
    shifted threshold moved back by max(z) and clamped into
    [z_(k+1), z_(k)), so the support is also exactly {i : z_i > tau}.
    """
    z = check_scores(z)
    shifted, tau_shifted = _shifted_threshold(z)
    on = shifted > tau_shifted
    below = z[~on].max() if not on.all() else -np.inf
    tau = min(max(tau_shifted + z.max(), below), np.nextafter(z[on].min(), -np.inf))
    indices = np.flatnonzero(on)
    return SupportSet(indices=indices, tau=float(tau), k=indices.size)


def sparsemax(z) -> np.ndarray:
    """Euclidean projection of z onto the probability simplex.

    Returns max(z - tau, 0), evaluated on the max-shifted scores with the
    threshold of :func:`shifted_threshold`.  It is positive exactly on
    the support of :func:`threshold_and_support` and a literal 0.0
    elsewhere.
    """
    return sparsemax_rows(check_scores(z))


@lru_cache(maxsize=8)
def _support_masks(dim: int) -> np.ndarray:
    # Rows enumerate every nonempty subset of {0, ..., dim-1} as 0/1 flags.
    bits = np.arange(1, 2**dim, dtype=np.uint32)
    return ((bits[:, None] >> np.arange(dim)) & 1).astype(np.int8)


def brute_force_projection(z) -> np.ndarray:
    """Simplex projection by exhaustive support enumeration.

    For every nonempty candidate support S the projection restricted to S
    must equal z_i - (sum_S z - 1) / |S|, zero elsewhere.  The candidate
    that is nonnegative on S and satisfies z_i <= threshold off S meets the
    optimality conditions of the projection problem, which identify the
    projection uniquely.  Feasibility uses a hairline tolerance: at an
    exact splitting point the rounded threshold can violate both the
    including and the excluding support by one ulp, which would otherwise
    leave no candidate at all.  Among the near-feasible candidates the one
    closest to z wins.  Cost grows as 2^K; intended as an independent
    cross-check for :func:`sparsemax`, not for production use.
    """
    z = check_scores(z)
    dim = z.size
    if dim > BRUTE_FORCE_MAX_DIM:
        raise ValueError(
            f"enumeration is limited to K <= {BRUTE_FORCE_MAX_DIM}, got K = {dim}"
        )
    masks = _support_masks(dim).astype(np.float64)
    sizes = masks.sum(axis=1)
    taus = (masks @ z - 1.0) / sizes
    gaps = z[None, :] - taus[:, None]
    candidates = gaps * masks
    slack = 1e-9 * max(1.0, float(np.abs(z).max()))
    ok_on = np.all(candidates >= -slack, axis=1)
    ok_off = np.all(gaps * (1.0 - masks) <= slack, axis=1)
    hits = np.nonzero(ok_on & ok_off)[0]
    if hits.size == 0:
        raise RuntimeError("no support satisfied the optimality conditions")
    # Clipping removes ulp-sized negatives; adding 0.0 turns the negative
    # zeros produced by gap * 0 into plain zeros.
    feasible = np.maximum(candidates[hits], 0.0) + 0.0
    distances = ((feasible - z) ** 2).sum(axis=1)
    return feasible[np.argmin(distances)]
