"""Indefinite (semi-Euclidean) linear algebra at a single point.

Inner products, orthogonal complements, radicals and signatures of
subspaces of a real coordinate space carrying a nondegenerate symmetric
bilinear form of arbitrary index.  Everything here is exact pointwise
linear algebra; subspaces are represented by explicit (non-canonical)
bases and compared by mutual span containment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SemiEuclideanForm",
    "FrameSubspace",
    "Signature",
    "inner",
    "orthogonal_complement",
    "radical",
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
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"gram must be {self.dim}x{self.dim}, got {g.shape}")
        if not np.allclose(g, g.T, atol=1e-12 * max(1.0, np.abs(g).max())):
            raise ValueError("gram matrix is not symmetric")
        evals = np.linalg.eigvalsh(g)
        tol = 1e-12 * max(1.0, np.abs(evals).max())
        neg = int(np.sum(evals < -tol))
        pos = int(np.sum(evals > tol))
        if neg != self.index or pos != self.dim - self.index:
            raise ValueError(
                f"gram has signature ({pos},{neg}), expected "
                f"({self.dim - self.index},{self.index})"
            )
        object.__setattr__(self, "gram", g)

    @classmethod
    def standard(cls, index: int, dim: int) -> "SemiEuclideanForm":
        """Canonical diagonal form: `index` entries -1 followed by +1."""
        d = np.ones(dim)
        d[:index] = -1.0
        return cls(dim=dim, index=index, gram=np.diag(d))


def inner(form: SemiEuclideanForm, u: np.ndarray, v: np.ndarray) -> float:
    """Evaluate the bilinear form on a pair of vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (form.dim,) or v.shape != (form.dim,):
        raise ValueError(f"vectors must have length {form.dim}")
    return float(u @ form.gram @ v)


@dataclass(frozen=True)
class FrameSubspace:
    """A subspace given by an ordered basis (rows of `basis`) of R^N."""

    ambient_dim: int
    basis: np.ndarray            # shape (k, N), rows linearly independent
    gram_restricted: np.ndarray  # shape (k, k), pairwise inner products

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_vectors(cls, form: SemiEuclideanForm, vectors) -> "FrameSubspace":
        """Build a subspace from spanning vectors, checking independence."""
        b = np.atleast_2d(np.asarray(vectors, dtype=float))
        if b.size == 0:
            b = b.reshape(0, form.dim)
        if b.shape[1] != form.dim:
            raise ValueError(f"vectors must have length {form.dim}")
        if not _full_rank(b):
            raise DegenerateSubspaceError("basis vectors are not linearly independent")
        gram = b @ form.gram @ b.T
        return cls(ambient_dim=form.dim, basis=b, gram_restricted=gram)

    @classmethod
    def zero(cls, form: SemiEuclideanForm) -> "FrameSubspace":
        return cls(ambient_dim=form.dim,
                   basis=np.zeros((0, form.dim)),
                   gram_restricted=np.zeros((0, 0)))


@dataclass(frozen=True)
class Signature:
    """Eigenvalue sign counts (pos, neg, null) of a restricted Gram matrix."""

    pos: int
    neg: int
    null: int
    ill_conditioned: bool = field(default=False, compare=False)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.neg, self.null)

    @property
    def index(self) -> int:
        return self.neg


def _full_rank(rows: np.ndarray) -> bool:
    """True if the rows are linearly independent (no rows trivially are)."""
    if rows.shape[0] > rows.shape[1]:
        return False
    if rows.shape[0] == 0:
        return True
    sv = np.linalg.svd(rows, compute_uv=False)
    return bool(sv[-1] > _RANK_RTOL * max(sv[0], 1.0))


def _kernel(rows: np.ndarray, ncols: int) -> np.ndarray:
    """Orthonormal basis (rows) of the right null space of `rows` via SVD;
    a single row may be given as a vector of length `ncols`."""
    rows = rows.reshape(-1, ncols)
    if rows.size == 0:
        return np.eye(ncols)
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sv > _RANK_RTOL * max(sv[0], 1.0)))
    return vt[rank:]


def _complement_within(space: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Basis of the Euclidean orthocomplement of span(space) inside
    span(inside); both inputs are row bases."""
    if space.size == 0:
        return inside
    q, _ = np.linalg.qr(space.T)
    proj = inside - (inside @ q) @ q.T
    _, sv, vt = np.linalg.svd(proj, full_matrices=False)
    rank = int(np.sum(sv > _RANK_RTOL * max(sv[0] if sv.size else 0.0, 1.0)))
    return vt[:rank]


def orthogonal_complement(form: SemiEuclideanForm, W: FrameSubspace) -> FrameSubspace:
    """Orthogonal complement of W with respect to the ambient form.

    Since the ambient form is nondegenerate, dim(W-perp) = N - dim(W).
    Computed as the kernel of the constraint matrix (basis @ gram), which
    is rank revealing through the SVD even when W is close to null.
    """
    if W.ambient_dim != form.dim:
        raise ValueError("ambient dimension mismatch")
    if not _full_rank(W.basis):
        raise DegenerateSubspaceError("rank-deficient subspace basis")
    constraints = W.basis @ form.gram
    ker = _kernel(constraints, form.dim)
    return FrameSubspace.from_vectors(form, ker) if ker.shape[0] else FrameSubspace.zero(form)


def radical(form: SemiEuclideanForm, W: FrameSubspace) -> FrameSubspace:
    """Radical W cap W-perp; W is nondegenerate iff this is zero."""
    if W.dim == 0:
        return FrameSubspace.zero(form)
    scale = max(float(np.abs(W.gram_restricted).max()), 1.0)
    ker = _kernel(W.gram_restricted / scale, W.dim)
    if ker.shape[0] == 0:
        return FrameSubspace.zero(form)
    return FrameSubspace.from_vectors(form, ker @ W.basis)


def signature_of(form: SemiEuclideanForm, W: FrameSubspace) -> Signature:
    """Sign counts of the restricted Gram matrix.

    The zero threshold is scale invariant: tau = 1e-9 * max |eigenvalue|
    (or 1 if the Gram vanishes).  Eigenvalues in the shoulder region
    (tau/10, 10*tau) around zero set the ill_conditioned flag.
    """
    if W.dim == 0:
        return Signature(0, 0, 0)
    evals = np.linalg.eigvalsh(W.gram_restricted)
    largest = float(np.abs(evals).max())
    tau = 1e-9 * (largest if largest > 0.0 else 1.0)
    pos = int(np.sum(evals > tau))
    neg = int(np.sum(evals < -tau))
    null = W.dim - pos - neg
    shoulder = (np.abs(evals) > tau / 10.0) & (np.abs(evals) < 10.0 * tau)
    return Signature(pos, neg, null, ill_conditioned=bool(shoulder.any()))


def contains_span(big: FrameSubspace, small: FrameSubspace, tol: float = 1e-10) -> bool:
    """True if span(small) lies inside span(big), by least-squares residual."""
    if small.dim == 0:
        return True
    if big.dim == 0:
        return bool(np.abs(small.basis).max() <= tol)
    sol, *_ = np.linalg.lstsq(big.basis.T, small.basis.T, rcond=None)
    resid = big.basis.T @ sol - small.basis.T
    scale = max(float(np.abs(small.basis).max()), 1.0)
    return bool(np.abs(resid).max() <= tol * scale)


def same_span(a: FrameSubspace, b: FrameSubspace, tol: float = 1e-10) -> bool:
    """Subspace equality by mutual containment (bases are non-canonical)."""
    return a.dim == b.dim and contains_span(a, b, tol) and contains_span(b, a, tol)
