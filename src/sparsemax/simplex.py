"""Softmax and sparsemax transformations of score vectors.

Both transforms map a real score vector onto the probability simplex.
Softmax is dense: every coordinate stays strictly positive.  Sparsemax is
the Euclidean projection onto the simplex and routinely assigns exact
literal zeros, so downstream support logic can rely on ``p > 0`` with no
epsilon fuzz.

The row kernels ``softmax_rows``, ``softmax_logsumexp_rows``,
``sparsemax_rows`` and ``shifted_threshold`` work along the last axis: on
an (N, K) matrix of score rows, C- or Fortran-ordered (timed in
README.md, Row kernels), or on one (K,) row.  The kernels trust their
input; the 1-D public functions validate a score vector and call them.
The threshold search has two kernels, one per shape.  Both search only
the candidates, the scores within 1 of the maximum.  The row kernel sorts
each row; the 1-D kernel sorts nothing and runs Michelot's fixed point on
the candidates.  On one row of K = 10 the row kernel takes 38 against
11 us (README.md).
``check_scores`` and ``check_distribution`` validate the 1-D inputs of
this module, ``losses``, ``jacobians`` and ``metrics``, and
``check_distribution_rows``, its row form, the targets of ``datasets``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportSet",
    "check_scores",
    "check_distribution",
    "check_distribution_rows",
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


def check_distribution_rows(P, dim: int | None = None) -> np.ndarray:
    """P as float64 rows of the simplex, (N, K) or one (K,); ValueError unless each row is
    non-empty, of length dim when dim is given, finite, nonnegative and sums to 1 within 1e-9."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim == 0 or P.shape[-1] == 0:
        raise ValueError("distribution must be non-empty")
    if dim is not None and P.shape[-1] != dim:
        raise ValueError(f"distribution length {P.shape[-1]} does not match length {dim}")
    if not np.isfinite(P).all():
        raise ValueError("distribution must contain only finite values")
    if (P < 0.0).any() or (abs(P.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("distribution must be nonnegative and sum to 1")
    return P


def check_distribution(p, dim: int | None = None) -> np.ndarray:
    """p as a float64 point of the simplex: one 1-D row of :func:`check_distribution_rows`."""
    if np.ndim(p) != 1:
        raise ValueError("distribution must be one-dimensional")
    return check_distribution_rows(p, dim)


@dataclass(frozen=True)
class SupportSet:
    """Support of a sparsemax output.

    indices : ascending positions of the coordinates with z_i > tau
    tau     : threshold subtracted by sparsemax; sum(z[indices] - tau) == 1
    k       : support size, the property indices.size
    """

    indices: np.ndarray
    tau: float

    @property
    def k(self) -> int:
        return self.indices.size


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


def _shifted_threshold(z: np.ndarray):
    """Max-shifted scores z - max(z) and the threshold of their projection.

    Michelot's (1986) fixed point on the candidates, the shifted scores
    above -1 (the filter step of Condat 2016): each pass sets
    tau = (sum(c) - 1) / |c| over the candidates c left and drops those at
    or below it, until none drops.  Nothing is sorted.  Shifting is a
    no-op in exact arithmetic, but it keeps the sums and z - tau at the
    scale of the unit simplex, so their rounding error no longer grows
    with |z|: a singleton support gives tau = -1 and a projection of
    exactly 1.

    Only candidates can be in the support: the largest projected value
    is -tau <= 1, so tau >= -1.  A search over every score can misfire:
    on [0, -w, ..., -w] with w = 1 + 5 * 2**-52 and 16 scores, rounded
    sorted sums pass the support test at k = 16 and give a projection
    whose largest value exceeds 1.  Over the candidates the bound holds
    in any order of summation.  Each of j candidates is > -1 and one is
    0, so their exact sum is > -(j - 1); rounding is monotone and keeps
    the integer -(j - 1), so any addition tree gives at least -(j - 1),
    and every computed tau is >= -1 >= every score left out.

    The loop ends within m passes for m candidates: the 0 always
    survives, since the candidates sum to at most 0 and tau is negative,
    and every pass but the last drops a candidate.  A pass keeps only
    scores above its tau and drops the rest, so every survivor exceeds
    every dropped score.  In exact arithmetic tau lies between the
    largest dropped score and the smallest survivor; rounding can land it
    a hair outside, so it is clamped back into [largest dropped,
    nextafter(smallest survivor, -inf)], never empty by the above.  The
    support is then exactly shifted > tau.
    """
    shifted = z - (z.max() or 0.0)
    c = shifted[shifted > -1.0]
    below = -np.inf
    while True:
        tau = (c.sum() - 1.0) / c.size
        smallest = c.min()
        if smallest > tau:
            break
        keep = c > tau
        below = c[~keep].max()
        c = c[keep]
    return shifted, float(min(max(tau, below), np.nextafter(smallest, -np.inf)))


def _shifted_threshold_rows(scores: np.ndarray):
    """Row by row the threshold of :func:`_shifted_threshold`, by a sorted search.

    Every row sorts all its scores once, reads its maximum from the sort
    and takes the largest k with 1 + k * z_(k) > z_(1) + ... + z_(k)
    among its candidates, the sorted shifted scores above -1; then
    tau = (z_(1) + ... + z_(k) - 1) / k, clamped into [z_(k+1), z_(k)).
    The prefix sums are one addition tree over the candidates, so the
    1-D kernel's bound tau >= -1 holds here too.  A masked version of the
    1-D loop took 3-4 passes on 240 x 10 Gaussian scores, the shape of the
    label-proportion fits, and did not beat the sort there even with its
    clamp left out (77 against 76 us; 2 cores, numpy 2.4.6).  tau comes
    back as an (N, 1) column, so it broadcasts against the rows.
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
    give tau as an (N, 1) column, from the row kernel.  Both shift by 0.0
    where the maximum is a zero, whichever sign max() or the sort picks
    from tied zeros, so a row gets the same shifted scores bit for bit
    either way.  tau is the same mean over a support of k scores, with
    the terms added in another order: in sequence by the row kernel,
    pairwise by numpy in the 1-D kernel.  The shifted scores lie in
    [-1, 0] on the support, so the two differ by at most 2 * k * eps, and
    so do the projections.  Each support is exactly shifted > tau, so a
    score at the exact threshold can fall in one and not the other: on
    [0, 0.3, 0.7] the row kernel gives 0.0 a share of 1.1e-16.
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
    The two bounds are read from z, not moved back from the kernel's
    shifted ones: z - max(z) can round distinct scores to one value.  On
    [0.5, 0.5, 3.16e-111] the last score shifts to -0.5, which moves back
    to 0.0, and a clamp to that would leave it above tau.
    """
    z = check_scores(z)
    shifted, tau_shifted = _shifted_threshold(z)
    on = shifted > tau_shifted
    below = np.maximum.reduce(z, where=~on, initial=-np.inf)
    lowest_on = np.minimum.reduce(z, where=on, initial=np.inf)
    tau = min(max(tau_shifted + z.max(), below), np.nextafter(lowest_on, -np.inf))
    return SupportSet(indices=np.flatnonzero(on), tau=float(tau))


def sparsemax(z) -> np.ndarray:
    """Euclidean projection of z onto the probability simplex.

    Returns max(z - tau, 0), evaluated on the max-shifted scores with the
    threshold of :func:`shifted_threshold`.  It is positive exactly on
    the support of :func:`threshold_and_support` and a literal 0.0
    elsewhere.
    """
    return sparsemax_rows(check_scores(z))
