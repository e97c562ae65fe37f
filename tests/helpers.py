"""Shared numerical oracles for the test suite.

Kept deliberately independent of the package internals: finite differences,
exhaustive enumeration and plain dense algebra only, so they can serve as
cross-checks.  Only input validation comes from the package.
"""

from functools import lru_cache

import numpy as np

from sparsemax import check_scores

# Exhaustive support enumeration costs 2^K - 1 candidates per call.
BRUTE_FORCE_MAX_DIM = 20


def fd_gradient(fn, z, step=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += step
        zm[i] -= step
        grad[i] = (fn(zp) - fn(zm)) / (2.0 * step)
    return grad


def fd_jacobian(fn, z, step=1e-5):
    """Central-difference Jacobian of a vector function of a vector."""
    z = np.asarray(z, dtype=np.float64)
    cols = []
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += step
        zm[i] -= step
        cols.append((fn(zp) - fn(zm)) / (2.0 * step))
    return np.stack(cols, axis=1)


def support_margin(z, support):
    """Smallest distance from any coordinate of z to the threshold.

    Used to reject sample points too close to a support boundary, where
    sparsemax is not differentiable and finite differences are meaningless.
    """
    z = np.asarray(z, dtype=np.float64)
    on = np.zeros(z.size, dtype=bool)
    on[support.indices] = True
    margins = [np.min(z[on] - support.tau)]
    if np.any(~on):
        margins.append(np.min(support.tau - z[~on]))
    return min(margins)


def random_simplex_point(rng, dim):
    return rng.dirichlet(np.ones(dim))


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
    leave no candidate at all.  The threshold is rounded at the scale of
    the candidate's own scores, so its tolerance is 1e-9 times the largest
    |z_i| on that support (at least 1).  A far score off the support must
    not widen it: on [1, 1, 2.00001, -3334], 1e-9 * 3334 would admit the
    support {0, 1, 2}, whose threshold lies 3.3e-6 above the scores 1.
    Among the near-feasible candidates the one closest to z wins.  Cost
    grows as 2^K; intended as an independent cross-check for
    :func:`sparsemax`, not for production use.
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
    slack = 1e-9 * np.maximum(1.0, (masks * np.abs(z)).max(axis=1, keepdims=True))
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


def huber_binary_reference(t: float) -> float:
    """Modified Huber margin loss of a two-class score difference t.

    Zero past a unit margin, linear for t <= -1, quadratic in between.
    The two-class sparsemax loss with the first label correct equals this
    function of t = z_1 - z_2.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("margin must be finite")
    if t >= 1.0:
        return 0.0
    if t <= -1.0:
        return -t
    return (t - 1.0) * (t - 1.0) / 4.0
