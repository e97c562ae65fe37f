"""Softmax and sparsemax transformations of score vectors.

Both transforms map a real score vector onto the probability simplex.
Softmax is dense: every coordinate stays strictly positive.  Sparsemax is
the Euclidean projection onto the simplex and routinely assigns exact
literal zeros, so downstream support logic can rely on ``p > 0`` with no
epsilon fuzz.

The row kernels ``softmax_rows``, ``softmax_logsumexp_rows``,
``sparsemax_rows`` and ``shifted_threshold`` work along the last axis: on
an (N, K) matrix of score rows, C- or Fortran-ordered, or on one (K,)
row.  ``linear_model.fit`` passes the transposed view of label-major
scores, on which a max over K = 10 labels of 240 rows takes 1.9 against
12.7 us.  Only sums over K >= 8 depend on the layout, in their last
bits: numpy adds a C-ordered row pairwise.  The kernels trust their
input; the 1-D public functions validate a score vector and call them.
The threshold search has two kernels, one per shape, because on a single
row the row kernel's set-up costs more than its sort: 32 against 21 us at
K = 10.  Both search only the candidates, the scores within 1 of the
maximum.  The 1-D kernel also sorts only those when they are fewer than
half of more than 256 scores: at K = 10^5 with 1-3 scores in the support,
``sparsemax`` went from 401 to 1,913 rows/s (README.md).  ``check_scores``
and ``check_distribution`` validate the 1-D inputs of this module,
``losses`` and ``jacobians``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportSet",
    "check_scores",
    "check_distribution",
    "softmax",
    "softmax_rows",
    "softmax_logsumexp_rows",
    "sparsemax",
    "sparsemax_rows",
    "shifted_threshold",
    "project_shifted",
    "threshold_and_support",
]


def check_scores(z) -> np.ndarray:
    """z as a float64 score vector; ValueError unless it is 1-D, non-empty and finite."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("score vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(z)):
        raise ValueError("score vector must contain only finite values")
    return z


def check_distribution(p, dim: int | None = None) -> np.ndarray:
    """p as a float64 point of the simplex; ValueError unless it is one.

    p must be 1-D and non-empty, of length dim when dim is given, finite,
    nonnegative, and sum to 1 within 1e-9.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be one-dimensional and non-empty")
    if dim is not None and p.size != dim:
        raise ValueError(f"distribution length {p.size} does not match {dim} scores")
    if not np.all(np.isfinite(p)):
        raise ValueError("distribution must contain only finite values")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must be nonnegative and sum to 1")
    return p


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


def softmax_logsumexp_rows(scores: np.ndarray):
    """Softmax of each row of scores, (N, K) or (K,), and its log-sum-exp,
    (N,) or a scalar, from one exp pass.  The row maximum is subtracted
    first: a no-op in exact arithmetic that keeps exp() from overflowing."""
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    total = e.sum(axis=-1, keepdims=True)
    e /= total
    return e, m[..., 0] + np.log(total[..., 0])


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax of each row of scores, (N, K) or (K,); see softmax_logsumexp_rows."""
    return softmax_logsumexp_rows(scores)[0]


def softmax(z) -> np.ndarray:
    """Exponentiate and normalise the score vector z; see softmax_rows."""
    return softmax_rows(check_scores(z))


# Rows of more scores than this sort only their candidates when fewer than
# half qualify.  Below it the copy of the candidates costs about what it
# saves in the sort.  On a sparse row the filtered and the full sort tied
# at K = 256 (17.8 us each), the filter lost at K = 128 (15.1 against
# 13.1 us) and won at K = 1024 (16.6 against 17.8 us); best of 9 x 3,000
# calls, 2 shared cores, Python 3.11.7, numpy 2.4.6.
_FILTER_MIN_SIZE = 256


def _shifted_threshold(z: np.ndarray):
    """Max-shifted scores z - max(z) and the threshold of their projection.

    Sorts the candidates, the shifted scores above -1, in descending
    order, takes the largest k satisfying

        1 + k * z_(k) > z_(1) + ... + z_(k)

    with a strict comparison and no epsilon slack, and sets
    tau = (z_(1) + ... + z_(k) - 1) / k.  Shifting is a no-op in exact
    arithmetic, but it keeps the sums and z - tau at the scale of the
    unit simplex, so their rounding error no longer grows with |z|: a
    singleton support gives tau = -1 and a projection of exactly 1.  In
    exact arithmetic tau lies in [z_(k+1), z_(k)); rounding can land it a
    hair outside, so it is clamped back into that interval.

    Only candidates can be in the support: the largest projected value
    is -tau <= 1, so tau >= -1.  In exact arithmetic the test above
    already forces z_(k) > -1, since z_(1) = 0 and the other k - 1 terms
    are at least z_(k).  In floating point it does not: on
    [0, -w, ..., -w] with w = 1 + 5 * 2**-52 and 16 scores, the rounded
    sums of a full search pass the test at k = 16 and give a projection
    whose largest value exceeds 1.  The search therefore runs over the
    candidates only.  Every candidate is > -1 and the first is 0, so each
    rounded partial sum is >= -(j - 1): rounding is monotone and the
    integers are representable.  Hence the computed tau >= -1 >= every
    other score, and when k takes all the candidates the clamp needs no
    lower bound from the scores left out.

    This is the filter step of Condat (2016).  The candidates are found
    with one pass over the row.  A row of more than _FILTER_MIN_SIZE
    scores of which fewer than half are candidates sorts the candidates
    alone.  Any other row sorts all its scores and keeps the candidates
    at its head: on a short row the copy costs what it saves, and on a
    dense row, whose support can hold every score, it saves little.
    """
    shifted = z - (z.max() or 0.0)
    candidates = shifted > -1.0
    m = np.count_nonzero(candidates)
    if z.size > _FILTER_MIN_SIZE and 2 * m < z.size:
        z_sorted = -np.sort(-shifted[candidates])
    else:
        z_sorted = -np.sort(-shifted)[:m]
    cssv = np.cumsum(z_sorted)
    ks = np.arange(1, m + 1)
    feasible = np.nonzero(1.0 + ks * z_sorted > cssv)[0]
    k = int(feasible[-1]) + 1
    tau = (cssv[k - 1] - 1.0) / k
    below = z_sorted[k] if k < m else -np.inf
    tau = float(min(max(tau, below), np.nextafter(z_sorted[k - 1], -np.inf)))
    return shifted, tau


def _shifted_threshold_rows(scores: np.ndarray):
    """Row by row the computation of :func:`_shifted_threshold`, clamp included.

    Every row sorts all its scores once and reads its maximum from the
    sort; the test is masked to the candidates, the sorted scores above
    -1.  tau comes back as an (N, 1) column, so it broadcasts against the
    rows.
    """
    z_sorted = np.sort(scores, axis=1)[:, ::-1]
    top = z_sorted[:, :1] + 0.0
    shifted = scores - top
    z_sorted = z_sorted - top
    cssv = np.cumsum(z_sorted, axis=1)
    n_rows, n_cols = scores.shape
    ks = np.arange(1, n_cols + 1)
    feasible = (1.0 + ks * z_sorted > cssv) & (z_sorted > -1.0)
    k = (feasible * ks).max(axis=1)
    rows, last = np.arange(n_rows), k - 1
    tau = (cssv[rows, last] - 1.0) / k
    below = np.where(k < n_cols, z_sorted[rows, np.minimum(k, n_cols - 1)], -np.inf)
    tau = np.minimum(np.maximum(tau, below), np.nextafter(z_sorted[rows, last], -np.inf))
    return shifted, tau[:, None]


def shifted_threshold(scores: np.ndarray):
    """Max-shifted scores and the threshold tau of their projection.

    One row (K,) gives tau as a float, from the 1-D kernel; rows (N, K)
    give tau as an (N, 1) column, from the row kernel.  Both kernels search
    the same candidates with the same sums, so a row gets the same tau bit
    for bit either way, and its support is exactly shifted > tau.  Both
    shift by 0.0 where the maximum is a zero, whichever sign max() or the
    sort picks from tied zeros, so the shifted scores agree bit for bit too.
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
