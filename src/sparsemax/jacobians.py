"""Jacobians and Jacobian-vector products of the simplex transforms.

The softmax Jacobian at output p is Diag(p) - p p^T.  The sparsemax
Jacobian depends on z only through the support S: with s the 0/1 indicator
of S it is Diag(s) - s s^T / |S|, i.e. the graph Laplacian of a clique on
S scaled by 1 / |S|.  At support boundaries, where the map is not
differentiable, the convention here is to use the Jacobian of the region
the forward pass actually selected.  Both are Diag(w) - c w w^T, with row
factors (w, c) from the ``*_jacobian_rows`` kernels and products from
``jvp_rows``; probability vectors are validated by ``check_distribution``.
"""

from __future__ import annotations

import numpy as np

from .simplex import SupportSet, check_distribution

__all__ = [
    "OpCounter",
    "softmax_jacobian_rows",
    "sparsemax_jacobian_rows",
    "jvp_rows",
    "softmax_jacobian",
    "sparsemax_jacobian",
    "softmax_jvp",
    "sparsemax_jvp",
]


class OpCounter:
    """Running tally of coordinate reads and writes in instrumented kernels."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def _check_support(support: SupportSet, dim: int) -> np.ndarray:
    """support.indices, in O(|S|); ValueError unless they are a valid support.

    Valid means strictly ascending integers in [0, dim), at least one.  A
    repeated index would be counted twice in the support mean.
    """
    idx = np.asarray(support.indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("support indices must be a one-dimensional integer array")
    if idx.size == 0:
        raise ValueError("support must contain at least one index")
    if np.any(idx[1:] <= idx[:-1]):
        raise ValueError("support indices must be strictly ascending")
    if idx[0] < 0 or idx[-1] >= dim:
        raise ValueError(f"support indices out of range for dimension {dim}")
    return idx


def softmax_jacobian_rows(P):
    """Factors (w, c) = (P, 1) of the softmax Jacobians Diag(w) - c w w^T at outputs P, (N, K) or (K,)."""
    return P, 1.0


def sparsemax_jacobian_rows(P):
    """Factors (s, 1 / |S|) of Diag(w) - c w w^T at sparsemax outputs P, s = [P > 0]; c is (N, 1) for rows."""
    s = (P > 0.0).astype(np.float64)
    return s, 1.0 / s.sum(axis=-1, keepdims=P.ndim > 1)


def jvp_rows(w, c, V):
    """w * v - c <w, v> w = (Diag(w) - c w w^T) v for each row v of V, either layout; (w, c) from *_jacobian_rows."""
    wV = w * V
    wV -= w * (c * wV.sum(axis=-1, keepdims=True))
    return wV


def softmax_jacobian(p) -> np.ndarray:
    """Dense softmax Jacobian Diag(p) - p p^T at output p.

    Symmetric, positive semidefinite, rows summing to zero.
    """
    w, c = softmax_jacobian_rows(check_distribution(p))
    return jvp_rows(w, c, np.eye(w.size))


def sparsemax_jacobian(support: SupportSet, dim: int) -> np.ndarray:
    """Dense sparsemax Jacobian for the given support, as a dim x dim matrix.

    Equals Diag(s) - s s^T / |S| with s the support indicator; every row
    and column off the support is identically zero.
    """
    w, c = sparsemax_jacobian_rows(np.bincount(_check_support(support, dim), minlength=dim))
    return jvp_rows(w, c, np.eye(dim))


def softmax_jvp(p, v) -> np.ndarray:
    """Softmax Jacobian-vector product p * (v - <p, v>) without forming the matrix."""
    p = check_distribution(p)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != p.shape:
        raise ValueError("vector length must match the probability vector")
    return jvp_rows(*softmax_jacobian_rows(p), v)


def sparsemax_jvp(support: SupportSet, v, counter: OpCounter | None = None) -> np.ndarray:
    """Sparsemax Jacobian-vector product: center v on its support mean.

    On the support the result is v minus the mean of v over the support;
    every other coordinate is zero.  Only the |S| support coordinates are
    read and written, so the work is O(|S|) regardless of the full length
    of v.  Pass an :class:`OpCounter` to tally those coordinate touches and
    verify the sublinear cost.  The returned vector is full length with
    explicit zeros off the support.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("vector must be one-dimensional and non-empty")
    idx = _check_support(support, v.size)
    out = np.zeros(v.size)
    picked = v[idx]
    out[idx] = picked - picked.sum() / idx.size
    if counter is not None:
        # One read per support coordinate, one add into the mean, one write.
        counter.add(3 * idx.size)
    return out
