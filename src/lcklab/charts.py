"""Metric charts on complex coordinate domains.

A chart carries the Hermitian component matrix g_{j kbar}(z) of a
semi-Riemannian metric in the complexified coordinate frame
{Z_1..Z_n, Zbar_1..Zbar_n} (Z_j = d/dz^j).  Levi-Civita connection
coefficients are solved from the Koszul identity

    2 g_{AD} Gamma^A_{BC} = Z_B(g_{CD}) + Z_C(g_{BD}) - Z_D(g_{BC})

with indices A,B,C,D running over both holomorphic and antiholomorphic
slots, and metric derivatives from Richardson-extrapolated central
differences.  christoffel has two routes: a chart's closed-form
coefficients when it carries them, otherwise this Koszul solve.
koszul_christoffel is the solve alone, the finite-difference oracle
against which every closed form is checked.

Conventions
-----------
* A complexified tangent vector is the complex array of its 2n frame
  components, holomorphic then antiholomorphic, shape (..., 2n) for a
  stack; real vectors have antihol = conj(hol) (real_vector).
* Real coordinates interleave: (x_1, y_1, ..., x_n, y_n) with
  z^j = x_j + i y_j, so d/dx_j = Z_j + Zbar_j and d/dy_j = i(Z_j - Zbar_j).
* Index order in Gamma[A, B, C] and all frame-indexed arrays:
  0..n-1 holomorphic, n..2n-1 antiholomorphic.
* The metric is its n x n components H = MetricChart.hermitian(z): no
  2n x 2n Gram is built.  _lower(H, v) is the covector g(., v), _g(H, u, v)
  the pairing g(u, v), and _solve_gram raises by one n x n solve of H.
* Stacked callables: wirtinger_derivative evaluates its whole stencil,
  the 8n points z + t e_l and z + i t e_l for t = +-h, +-h/2 with the
  one step h = fd_step(z) that every derivative here uses, as one
  (8n, n) array in a single call, after one domain_pred call has kept
  the point and its stencil on the chart's domain, and requires a
  result whose leading axis has length 8n.  So every callable that gets
  differentiated takes points of shape (..., n) and returns one value
  per point: a chart's metric_eval ((..., n, n)) and domain_pred ((...)
  booleans), a Lee form, a scalar or matrix function, and vector fields,
  which return frame components of shape (..., 2n).
  Constant evaluators broadcast over the stack.  lck.lee_data memoizes
  per stack, keyed by its shape and bytes, so the derivatives taken at
  one base point share one stacked evaluation.
* One stencil and one stack per check: a check differentiates all its
  fields on one stencil, _field_derivatives taking fields of any widths
  (each returns (..., w) values per point, a scalar as w = 1, and gets
  its own derivatives back), and evaluates its point sets (a point and
  its image, or two lines) as one stack.
* One route through the connection: a vector is always an array, and
  only _field_derivatives differentiates a field (a callable); then
  covariant_derivative(gamma, X, Y(z), dY) adds X(Y) to Gamma(X, Y).
* Stacks of base points: the leading axes of an array are its stack,
  and a point z (n,) is a stack with no leading axes.  christoffel (and
  a chart's closed form), koszul_christoffel, lie_bracket and
  wirtinger_derivative take a stack (..., n) of base points, with one
  step fd_step per point; the stencil of a stack (m, n) is (8n, m, n),
  so per-point parameters of shape (m, ...) broadcast against it, and
  derivatives come back indexed [m, l, ...].  Fixed vectors may carry
  one vector per point.  A per-point result is an array of the stack's
  shape.  Domain faults name the first failing point in row order.
* Stacked evaluators give each row the bits of a single-point call:
  they use elementwise arithmetic, np.vecdot, np.matvec, einsum and
  numpy's stacked linear algebra, which round per row as at a single
  point, and never a 2-D matrix product such as stack @ vector, which
  rounds differently; operands of a dot product are made contiguous, as
  a strided operand rounds differently too.  A real row vector times a
  matrix, c @ M, is np.vecmat(c, M); a complex u @ M @ v is _bilinear,
  through np.matvec(M^T, u), since np.vecmat conjugates its vector and
  rounds a complex product differently from u @ M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .semieuclid import SemiEuclideanForm, _self_adjoint

__all__ = [
    "MetricChart",
    "real_vector",
    "apply_j",
    "real_coords",
    "hol_from_real_coords",
    "ChartDomainError",
    "fd_step",
    "wirtinger_derivative",
    "christoffel",
    "koszul_christoffel",
    "covariant_derivative",
    "lie_bracket",
    "exterior_derivative_1form",
    "exterior_derivative_2form",
    "conformal_connection_shift",
    "kahler_form",
]

FD_STEP_BASE = 1e-5  # relative central-difference step
# Metric components H of larger condition number count as singular (the
# real and the complexified Gram have the condition number of H).
GRAM_COND_MAX = 1e12
# |antihol - conj(hol)| up to this, relative to max(1, max |component|),
# counts as a real vector
REAL_VECTOR_TOL = 1e-12


class ChartDomainError(ValueError):
    """Point (or its difference stencil) leaves the chart domain."""


class SingularMetricError(np.linalg.LinAlgError):
    """Metric Gram matrix is singular at the evaluation point."""


# ---------------------------------------------------------------------------
# tangent vectors
# ---------------------------------------------------------------------------

def real_vector(hol) -> np.ndarray:
    """Frame components (hol, conj(hol)) of the real vector whose
    holomorphic components are hol, shape (..., n) -> (..., 2n)."""
    h = np.asarray(hol, dtype=complex)
    return np.concatenate([h, h.conj()], axis=-1)


def apply_j(v: np.ndarray) -> np.ndarray:
    """The standard complex structure on frame components: J Z_j = i Z_j."""
    n = v.shape[-1] // 2
    return np.concatenate([1j * v[..., :n], -1j * v[..., n:]], axis=-1)


def real_coords(v) -> np.ndarray:
    """Interleaved real coordinates (x_1, y_1, ...) of a real vector (per
    point of a stack); a vector whose antiholomorphic half differs from
    conj(hol) by more than REAL_VECTOR_TOL times max(1, max |component|),
    each point of a stack against its own scale, raises ValueError."""
    v = np.asarray(v)
    n = v.shape[-1] // 2
    hol = v[..., :n]
    err = np.abs(v[..., n:] - hol.conj())
    if not err.max() <= REAL_VECTOR_TOL:   # else every point passes: each scale is >= 1
        scale = np.abs(v).max(axis=-1, initial=1.0)   # max(1, max |component|) per point
        if not (err.max(axis=-1) <= REAL_VECTOR_TOL * scale).all():
            raise ValueError("vector is not real")
    out = np.empty(v.shape[:-1] + (2 * n,))
    out[..., 0::2] = hol.real
    out[..., 1::2] = hol.imag
    return out


def hol_from_real_coords(x) -> np.ndarray:
    """Holomorphic components x_j + i y_j of interleaved real coordinates
    (..., 2n); real_vector of them is the vector."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricChart:
    """Hermitian metric chart on a domain in C^n.

    metric_eval(z) returns the n x n Hermitian matrix H with
    H[j, k] = g(Z_j, Zbar_k), and domain_pred(z) whether z lies in the
    domain; both take a stack of points, shape (..., n), and return one
    value per point.  A domain may differ per point of a stack (m, n), as
    a Hopf chart's with one region per point does: domain_pred then takes
    stacks (..., m, n), point i judged by domain i.  christoffel_analytic(z),
    when present, returns the closed-form coefficient array in the
    frame-index convention of this module, (2n, 2n, 2n) at a point and
    (..., 2n, 2n, 2n) for a stack of points (..., n); christoffel then
    returns it in place of the Koszul solve.
    """

    n: int
    s: int
    metric_eval: Callable[[np.ndarray], np.ndarray]
    domain_pred: Callable[[np.ndarray], bool]
    christoffel_analytic: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "chart"

    def hermitian(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.metric_eval(np.asarray(z, dtype=complex)), dtype=complex)

    def real_form(self, z: np.ndarray) -> SemiEuclideanForm:
        """Pointwise SemiEuclideanForm of signature (2(n-s), 2s), validated
        on every call: use it at base points, not inside stencils."""
        return SemiEuclideanForm(dim=2 * self.n, index=2 * self.s,
                                 gram=_real_gram(self.hermitian(z)))


def _real_gram(H: np.ndarray) -> np.ndarray:
    """Real Gram in interleaved coordinates of the Hermitian matrix H
    (or of each matrix of a stack)."""
    n = H.shape[-1]
    G = np.empty(H.shape[:-2] + (2 * n, 2 * n))
    re, im = 2.0 * H.real, 2.0 * H.imag
    G[..., 0::2, 0::2] = re
    G[..., 1::2, 1::2] = re
    G[..., 0::2, 1::2] = im
    G[..., 1::2, 0::2] = -im
    return G


def _require_conditioned(H: np.ndarray, z: np.ndarray) -> None:
    """Refuse metric components H at z, or the first point of a stack of
    them at the points z (leading axes alike), that are not Hermitian (by
    SemiEuclideanForm's symmetry rule) or are singular: not finite, or of
    condition number above GRAM_COND_MAX by one eigvalsh of H."""
    finite = np.isfinite(H).all(axis=(-2, -1))
    if not finite.all():   # LAPACK would stop on, or print about, a NaN or inf
        H = np.where(finite[..., None, None], H, 0.0)
    HT = H.conj().swapaxes(-1, -2)
    hermitian = (H == HT).all(axis=(-2, -1))   # as chart metrics are: the rule's cheap case
    if not hermitian.all():
        hermitian = _self_adjoint(H, HT)
    lam = np.abs(np.linalg.eigvalsh(H))
    smallest = lam.min(axis=-1)
    bad = _first_fault(hermitian & (smallest > 0.0)
                       & (lam.max(axis=-1) <= GRAM_COND_MAX * smallest))
    if bad is not None:
        why = "Gram singular" if hermitian[bad] else "not Hermitian"
        raise SingularMetricError(f"metric {why} at {np.asarray(z)[bad]}")


def _solve_gram(H: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The x with g(., x) = rhs, frame components per point of a stack
    (rhs (..., 2n, k)), refusing H singular at z (_require_conditioned).
    g(., x) is (H x_antihol, conj(H) x_hol), so one n x n solve of H
    against [rhs_hol | conj(rhs_antihol)] gives x."""
    _require_conditioned(H, z)
    n, k = H.shape[-1], rhs.shape[-1]
    x = np.linalg.solve(H, np.concatenate([rhs[..., :n, :], rhs[..., n:, :].conj()], axis=-1))
    return np.concatenate([x[..., k:].conj(), x[..., :k]], axis=-2)


def _lower(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The covector g(., v): (H v_antihol, conj(H) v_hol) per point of a stack."""
    n = H.shape[-1]
    return np.concatenate([np.matvec(H, v[..., n:]), np.matvec(H.conj(), v[..., :n])], axis=-1)


def _g(H: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(u, v), complex bilinear, per point of a stack."""
    return np.vecdot(_lower(H, u).conj(), v)


def _bilinear(u: np.ndarray, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ M @ v per point of a stack, rounded as the single-point product."""
    return np.vecdot(np.matvec(M.swapaxes(-1, -2), u).conj(), v)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _norms(z: np.ndarray):
    """np.linalg.norm of each point of a stack (..., n), or of a point
    (a scalar), summed as np.linalg.norm sums.  A real stack skips the
    zero imaginary part: adding +0.0 to vecdot(x, x) >= 0 is exact."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.sqrt(np.vecdot(z, z))
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def fd_step(z: np.ndarray):
    """Central-difference step of a point z (n,), or one per point of a
    stack (..., n)."""
    return FD_STEP_BASE * np.maximum(1.0, _norms(z))


def _steps(h):
    """Offsets of the two central differences that _richardson combines."""
    return (h, -h, h / 2.0, -h / 2.0)


def _richardson(f, h) -> np.ndarray:
    """4th-order derivative at 0 from the values f[k] at t = _steps(h)[k]
    (a sequence, or an array with those four rows on its leading axis)."""
    d1 = (f[0] - f[1]) / (2.0 * h)
    d2 = (f[2] - f[3]) / h
    return (4.0 * d2 - d1) / 3.0


def _stencil(z: np.ndarray, h) -> np.ndarray:
    """The points z + t e_l and z + i t e_l for t in _steps(h), indexed
    [step, real/imaginary direction, l, ..., coordinate]: for a stack z of
    shape (..., n), with one step h per point, the stack axes come after l."""
    n = z.shape[-1]
    lead = z.shape[:-1]
    steps = np.multiply.outer(np.array(_steps(h)), (1.0, 1j))   # t and i t
    steps = np.moveaxis(steps, -1, 1)                 # [step, re/im, ...]
    eye = np.eye(n).reshape((n,) + (1,) * len(lead) + (n,))
    return z + steps[:, :, None, ..., None] * eye


def wirtinger_derivative(fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray, *,
                         chart: MetricChart) -> tuple[np.ndarray, np.ndarray]:
    """(d fn/dz^l, d fn/dzbar^l) for an array-valued function of z, at
    every point of a stack z (..., n), with the step fd_step(z), one per
    point.

    fn is called once, on the whole stencil: an (8n, n) array for a point
    and an (8n, ..., n) array for a stack, which keeps the stack axes so
    that per-point parameters of shape (..., k) broadcast against it.  It
    must return its values with those leading axes (see the module
    docstring).  A point or stencil off the domain of chart (keyword
    only) raises ChartDomainError before fn is called.  Returns arrays
    indexed [..., l, value axes].
    """
    z = np.asarray(z, dtype=complex)
    h = fd_step(z)
    n, lead = z.shape[-1], z.shape[:-1]
    head = (8 * n,) + lead
    stencil = _stencil(z, h).reshape(head + (n,))
    _require_stencil_domain(chart, z, stencil)
    f = np.asarray(fn(stencil), dtype=complex)
    if f.shape[:len(head)] != head:
        raise ValueError(f"fn must return one value per stencil point: leading axes "
                         f"{head} for an {head + (n,)} stack, got shape {f.shape}")
    hh = np.reshape(h, lead + (1,) * (f.ndim - len(head)))
    # l after the stack axes, contiguous as at a single point: a strided
    # operand can change how a later dot product rounds
    dx, dy = (np.ascontiguousarray(np.moveaxis(d, 0, len(lead)))
              for d in _richardson(f.reshape((4, 2, n) + f.shape[1:]), hh))
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def _first_fault(ok) -> Optional[tuple]:
    """Index of the first False of a per-point boolean array, in draw
    (row-major) order, or None when every point is fine."""
    ok = np.asarray(ok)
    if ok.all():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(ok.ravel())), ok.shape))


def _require_domain(chart: MetricChart, z: np.ndarray) -> None:
    """Refuse a point, or the first point of a stack, off the chart domain."""
    bad = _first_fault(np.broadcast_to(chart.domain_pred(z), z.shape[:-1]))
    if bad is not None:
        raise ChartDomainError(f"point {z[bad]} outside domain of {chart.name}")


def _require_stencil_domain(chart: MetricChart, z: np.ndarray, stencil: np.ndarray) -> None:
    """One domain_pred call on z and its stencil (8n, ..., n), a point or a
    stack; the error names the first point in draw order whose own
    position or stencil leaves the domain."""
    pts = np.concatenate([z[None], stencil])
    ok = np.broadcast_to(chart.domain_pred(pts), pts.shape[:-1])
    bad = _first_fault(ok.all(axis=0))
    if bad is not None:
        if not ok[(0,) + bad]:
            raise ChartDomainError(f"point {z[bad]} outside domain of {chart.name}")
        raise ChartDomainError(f"stencil around {z[bad]} leaves domain of {chart.name}")


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------

def _max_abs(x: np.ndarray, core: int):
    """max |x| over the last `core` axes, per point of a stack."""
    return np.abs(x).max(axis=tuple(range(-core, 0)))


def _metric_derivative_tensor(chart: MetricChart, z: np.ndarray) -> np.ndarray:
    """T[..., E, C, D] = Z_E(g_{CD}) over full frame indices E, C, D, by
    central differences on a stencil that must stay in the domain."""
    n = chart.n
    dH_dz, dH_dzb = wirtinger_derivative(chart.hermitian, z, chart=chart)
    T = np.zeros(z.shape[:-1] + (2 * n, 2 * n, 2 * n), dtype=complex)
    # g(Z_j, Zbar_k) = g(Zbar_k, Z_j) = H[j, k]; pure blocks vanish.
    T[..., :n, :n, n:] = dH_dz
    T[..., :n, n:, :n] = dH_dz.swapaxes(-1, -2)   # T[l, n+k, j] = dH[j,k]/dz^l
    T[..., n:, :n, n:] = dH_dzb
    T[..., n:, n:, :n] = dH_dzb.swapaxes(-1, -2)
    return T


def koszul_christoffel(chart: MetricChart, z: np.ndarray) -> np.ndarray:
    """Gamma^A_{BC} at z, (..., 2n, 2n, 2n) for a point or a stack, solved
    from the Koszul identity with finite-difference metric derivatives:
    the oracle for closed forms.  A stack solves its Gram matrices in one
    stacked call."""
    z = np.asarray(z, dtype=complex)
    n = chart.n
    T = _metric_derivative_tensor(chart, z)
    # rhs[D, B, C] = Z_B g_{CD} + Z_C g_{BD} - Z_D g_{BC}
    TB = np.moveaxis(T, -1, -3)                  # TB[D, B, C] = T[B, C, D]
    rhs = TB + TB.swapaxes(-1, -2) - T
    lead = z.shape[:-1]
    solved = _solve_gram(chart.hermitian(z), rhs.reshape(lead + (2 * n, -1)), z)
    return 0.5 * solved.reshape(lead + (2 * n, 2 * n, 2 * n))


def christoffel(chart: MetricChart, z: np.ndarray) -> np.ndarray:
    """Gamma^A_{BC}, indexed [..., A, B, C], at a point z (n,) or at each
    point of a stack (..., n): the chart's closed form when it carries
    one, otherwise koszul_christoffel."""
    z = np.asarray(z, dtype=complex)
    _require_domain(chart, z)
    if chart.christoffel_analytic is None:
        return koszul_christoffel(chart, z)
    return np.asarray(chart.christoffel_analytic(z), dtype=complex)


def _field_derivatives(fields, z: np.ndarray, *,
                       chart: MetricChart) -> list[tuple[np.ndarray, np.ndarray]]:
    """(d Y^A/dz^l, d Y^A/dzbar^l) of each field Y, indexed [..., l, A],
    from one stencil evaluation of all of them on the chart's domain.  A
    field returns (..., w) values per point, its own width w: a vector
    field's 2n frame components, or a scalar as width 1."""
    z = np.asarray(z, dtype=complex)
    widths = []

    def stacked(p):
        values = [Y(p) for Y in fields]
        widths[:] = [v.shape[-1] for v in values]
        return np.concatenate(values, axis=-1)

    d_dz, d_dzb = wirtinger_derivative(stacked, z, chart=chart)
    cuts = np.cumsum(widths)[:-1]
    return [(np.ascontiguousarray(a), np.ascontiguousarray(b))
            for a, b in zip(np.split(d_dz, cuts, axis=-1), np.split(d_dzb, cuts, axis=-1))]


def _along(X: np.ndarray, dY: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """X(Y^A) for a possibly complexified direction X, from the Wirtinger
    derivatives dY of Y."""
    d_dz, d_dzb = dY
    n = d_dz.shape[-2]
    return np.einsum("...l,...la->...a", np.ascontiguousarray(X[..., :n]), d_dz) \
        + np.einsum("...l,...la->...a", np.ascontiguousarray(X[..., n:]), d_dzb)


def covariant_derivative(gamma: np.ndarray, X: np.ndarray, Y: np.ndarray,
                         dY: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """(nabla_X Y)^A = X(Y^A) + Gamma^A_{BC} X^B Y^C, per point of a stack,
    from the coefficients gamma = christoffel(chart, z), the direction X,
    the value Y of the field at z and its derivatives dY there (as
    _field_derivatives returns them; None for a constant field): one
    derivative of Y serves every direction X.  X and Y are frame
    components, and may carry one vector per point or broadcast."""
    out = np.einsum("...abc,...b,...c->...a", gamma, X, Y)
    return out if dY is None else _along(X, dY) + out


def lie_bracket(X, Y, z: np.ndarray, *, chart: MetricChart) -> np.ndarray:
    """[X, Y]^A = X(Y^A) - Y(X^A) of two vector fields at a point or a
    stack; metric independent.  Both fields share one stencil evaluation
    on the chart's domain."""
    z = np.asarray(z, dtype=complex)
    dY, dX = _field_derivatives([Y, X], z, chart=chart)
    return _along(X(z), dY) - _along(Y(z), dX)


def exterior_derivative_1form(alpha: Callable[[np.ndarray], np.ndarray],
                              z: np.ndarray, *, chart: MetricChart) -> np.ndarray:
    """(d alpha)_{AB} = Z_A(alpha_B) - Z_B(alpha_A) on frame pairs, at a
    point or at each point of a stack, from a stencil on the chart's
    domain.

    alpha(z) returns the 2n frame components (alpha(Z_A))_A.
    """
    d_dz, d_dzb = wirtinger_derivative(alpha, z, chart=chart)
    grad = np.concatenate([d_dz, d_dzb], axis=-2)  # grad[A, B] = Z_A(alpha_B)
    return grad - grad.swapaxes(-1, -2)


def exterior_derivative_2form(omega: Callable[[np.ndarray], np.ndarray],
                              z: np.ndarray, *, chart: MetricChart) -> np.ndarray:
    """(d Omega)_{ABC} by the alternating sum over coordinate triples, at a
    point or at each point of a stack, from a stencil on the chart's
    domain.

    omega(z) returns the antisymmetric 2n x 2n frame component matrix.
    Coordinate frame fields commute, so no bracket terms appear.
    """
    d_dz, d_dzb = wirtinger_derivative(omega, z, chart=chart)
    grad = np.concatenate([d_dz, d_dzb], axis=-3)  # grad[E, A, B] = Z_E(Omega_AB)
    # (d Omega)_{ABC} = grad[A,B,C] - grad[B,A,C] + grad[C,A,B]
    return grad - grad.swapaxes(-3, -2) + np.moveaxis(grad, -3, -1)


def kahler_form(H: np.ndarray) -> np.ndarray:
    """Frame components of Omega(X, Y) = g(X, JY) from the metric
    components H = MetricChart.hermitian(z), per matrix of a stack."""
    # Omega_{j kbar} = -i g_{j kbar}, Omega_{jbar k} = i conj(g_{j kbar})
    zero = np.zeros_like(H)
    return np.block([[zero, -1j * H], [1j * H.conj(), zero]])


def conformal_connection_shift(chart: MetricChart, f, X, Y, z: np.ndarray) -> np.ndarray:
    """Levi-Civita connection of the rescaled metric exp(-f) g on the
    vectors X and Y (arrays), at a point or at each point of a stack.

    Returns nabla_X Y - (1/2){X(f) Y + Y(f) X - g(X,Y) grad f}, the
    conformal-change law written with the base metric's gradient.
    """
    z = np.asarray(z, dtype=complex)
    base = covariant_derivative(christoffel(chart, z), X, Y)
    d_dz, d_dzb = wirtinger_derivative(f, z, chart=chart)
    df = np.concatenate([d_dz, d_dzb], axis=-1)
    Xf = np.vecdot(df.conj(), X)[..., None]   # X(f) = df @ X
    Yf = np.vecdot(df.conj(), Y)[..., None]
    H = chart.hermitian(z)
    gXY = _g(H, X, Y)[..., None]
    gradf = _solve_gram(H, df[..., None], z)[..., 0]   # grad f: g(grad f, X) = X(f)
    shift = Xf * Y + Yf * X - gXY * gradf
    return base - 0.5 * shift
