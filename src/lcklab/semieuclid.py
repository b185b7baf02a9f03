"""Indefinite (semi-Euclidean) linear algebra at a point.

Inner products, orthogonal complements and signatures of subspaces of
a real coordinate space carrying a nondegenerate symmetric bilinear form
of arbitrary index.  Everything here is exact pointwise linear algebra;
a subspace is the array of its basis rows (..., k, N), an explicit
(non-canonical) basis, and subspaces are compared by mutual span
containment.  Its restricted Gram is computed where it is read
(restricted_gram).

Stacks: the leading axes of an array are its stack, and a point is a
stack with no leading axes.  A form may carry one Gram matrix per point,
gram of shape (..., N, N), and then a subspace carries one basis per
point, rows (..., k, N), with k the same at every point.  The form
validation, _full_rank, _kernel, _complement_within, inner,
independent_rows, restricted_gram, orthogonal_complement, signature_of,
contains_span and same_span work per point of such a stack, through
numpy's stacked linear algebra (one QR projection for a stack in
contains_span), which gives each point the bits of a single-point call,
and return one value per point, an array of the stack's shape; no
least-squares solve is taken, so no point is solved alone.  _full_rank
answers for the whole stack, and a stack whose points disagree on a
rank raises ValueError.

Rank checks: the rows of a subspace come from independent_rows, which
proves by one SVD that the rows a caller gives are independent, or from
_kernel or _complement_within, whose rows are orthonormal from an SVD,
hence independent; so orthogonal_complement takes its rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SemiEuclideanForm",
    "independent_rows",
    "restricted_gram",
    "inner",
    "orthogonal_complement",
    "signature_of",
    "same_span",
    "contains_span",
]

# Rank / kernel cutoff relative to the largest singular value.
_RANK_RTOL = 1e-10


class DegenerateSubspaceError(ValueError):
    """Raised when an operation requires a (sub)space it cannot degrade on."""


@dataclass(frozen=True)
class SemiEuclideanForm:
    """Symmetric bilinear form of signature (dim - index, index) on R^dim."""

    dim: int
    index: int
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"gram must be {self.dim}x{self.dim}, got {g.shape}")
        if not _self_adjoint(g, g.swapaxes(-1, -2)).all():
            raise ValueError("gram matrix is not symmetric")
        evals = np.linalg.eigvalsh(g)
        tol = 1e-12 * np.maximum(1.0, np.abs(evals).max(axis=-1, initial=0.0))[..., None]
        neg = np.sum(evals < -tol, axis=-1)
        pos = np.sum(evals > tol, axis=-1)
        bad = (neg != self.index) | (pos != self.dim - self.index)
        if bad.any():
            first = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise ValueError(
                f"gram has signature ({pos[first]},{neg[first]}), expected "
                f"({self.dim - self.index},{self.index})"
            )
        object.__setattr__(self, "gram", g)

    @classmethod
    def standard(cls, index: int, dim: int) -> "SemiEuclideanForm":
        """Canonical diagonal form: `index` entries -1 followed by +1."""
        d = np.ones(dim)
        d[:index] = -1.0
        return cls(dim=dim, index=index, gram=np.diag(d))


def _self_adjoint(g: np.ndarray, gT: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, |g - gT| <= 1e-12 * max(1, max |g|) entrywise
    for gT its (conjugate) transpose: the symmetry rule of a Gram matrix
    and of a chart's Hermitian metric components."""
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1), initial=0.0))[..., None, None]
    return (np.abs(g - gT) <= 1e-12 * scale).all(axis=(-2, -1))


def inner(form: SemiEuclideanForm, u: np.ndarray, v: np.ndarray):
    """Evaluate the bilinear form on a pair of vectors, per point of a
    stack."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (form.dim,) or v.shape[-1:] != (form.dim,):
        raise ValueError(f"vectors must have length {form.dim}")
    # u @ gram @ v, rounded per point as the single-point product
    return np.vecdot(np.matvec(form.gram.swapaxes(-1, -2), u), v)


def independent_rows(form: SemiEuclideanForm, vectors) -> np.ndarray:
    """Spanning vectors (..., k, N) as the rows of a subspace, checked by
    one SVD to be independent."""
    b = np.asarray(vectors, dtype=float)
    if b.shape[-1] != form.dim:
        raise ValueError(f"vectors must have length {form.dim}")
    if not _full_rank(b):
        raise DegenerateSubspaceError("basis vectors are not linearly independent")
    return b


def restricted_gram(form: SemiEuclideanForm, W: np.ndarray) -> np.ndarray:
    """Pairwise inner products (..., k, k) of the rows of W (..., k, N)."""
    return W @ form.gram @ W.swapaxes(-1, -2)


def _ranks(sv: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix of a stack from its singular values
    (..., k), largest first: the count above _RANK_RTOL * max(largest, 1),
    an array of the stack's shape (0 where k = 0)."""
    return (sv > _RANK_RTOL * np.maximum(sv[..., :1], 1.0)).sum(axis=-1)


def _full_rank(rows: np.ndarray) -> bool:
    """True if the rows are linearly independent (no rows trivially are),
    in every matrix of a stack (..., k, N)."""
    k, ncols = rows.shape[-2:]
    if k > ncols or k == 0:
        return k == 0
    return bool((_ranks(np.linalg.svd(rows, compute_uv=False)) == k).all())


def _uniform_rank(sv: np.ndarray) -> int:
    """Numerical rank from singular values (..., k), the same at every point
    of a stack."""
    ranks = _ranks(sv).ravel()
    if not ranks.size:
        return 0
    if (ranks != ranks[0]).any():   # not np.unique, which imports numpy.ma
        raise ValueError("rank varies across the stack")
    return int(ranks[0])


def _kernel(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the right null space of the rows
    (k, ncols) via SVD; a stack of row matrices (..., k, ncols) gives one
    kernel per matrix."""
    ncols = rows.shape[-1]
    if rows.shape[-2] == 0:
        return np.broadcast_to(np.eye(ncols), rows.shape[:-2] + (ncols, ncols)).copy()
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[..., _uniform_rank(sv):, :]


def _complement_within(space: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Basis of the Euclidean orthocomplement of span(space) inside
    span(inside); both inputs are row bases (stacks alike)."""
    if space.shape[-2] == 0:
        return inside
    q, _ = np.linalg.qr(space.swapaxes(-1, -2))
    proj = inside - (inside @ q) @ q.swapaxes(-1, -2)
    _, sv, vt = np.linalg.svd(proj, full_matrices=False)
    return vt[..., :_uniform_rank(sv), :]


def orthogonal_complement(form: SemiEuclideanForm, W: np.ndarray) -> np.ndarray:
    """Orthogonal complement of the subspace W (rows) with respect to the
    ambient form.

    Since the ambient form is nondegenerate, dim(W-perp) = N - dim(W).
    Computed as the kernel of the constraint matrix (W @ gram), which
    is rank revealing through the SVD even when W is close to null.
    """
    if W.shape[-1] != form.dim:
        raise ValueError("ambient dimension mismatch")
    return _kernel(W @ form.gram)


def signature_of(form: SemiEuclideanForm,
                 W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalue sign counts (pos, neg, null) of the restricted Gram
    matrix of the subspace W (rows), per point of a stack; neg is the
    index and null the dimension of the radical W cap W-perp.

    The zero threshold is scale invariant: tau = 1e-9 * max |eigenvalue|
    (or 1 if the Gram vanishes).
    """
    k = W.shape[-2]
    if k == 0:
        zero = np.zeros(W.shape[:-2], dtype=int)
        return zero, zero, zero
    evals = np.linalg.eigvalsh(restricted_gram(form, W))
    largest = np.abs(evals).max(axis=-1, keepdims=True)
    tau = 1e-9 * np.where(largest > 0.0, largest, 1.0)
    pos = (evals > tau).sum(axis=-1)
    neg = (evals < -tau).sum(axis=-1)
    null = k - pos - neg
    return pos, neg, null


def contains_span(big: np.ndarray, small: np.ndarray, tol: float):
    """True if span(small) lies inside span(big), both given by their
    rows, by the residual of its projection onto span(big), one stacked
    QR (in exact arithmetic the least-squares residual), per point of a
    stack."""
    lead = small.shape[:-2]
    if small.shape[-2] == 0:
        return np.ones(lead, dtype=bool)
    size = np.abs(small).max(axis=(-2, -1))
    if big.shape[-2] == 0:
        return size <= tol
    q, _ = np.linalg.qr(big.swapaxes(-1, -2))
    smallT = small.swapaxes(-1, -2)
    resid = smallT - q @ (q.swapaxes(-1, -2) @ smallT)
    return np.abs(resid).max(axis=(-2, -1)) <= tol * np.maximum(size, 1.0)


def same_span(a: np.ndarray, b: np.ndarray, tol: float):
    """Subspace equality by mutual containment (bases are non-canonical),
    per point of a stack."""
    if a.shape[-2] != b.shape[-2]:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(lead, dtype=bool)
    return np.logical_and(contains_span(a, b, tol), contains_span(b, a, tol))
