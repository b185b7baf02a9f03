"""CR structures on leaves of the Lee-form foliation.

Each leaf is a real hypersurface; its CR bundle is the intersection of
the holomorphic tangent bundle with the complexified leaf tangent.  This
module computes that bundle pointwise, evaluates the tangential CR
operator on ambient functions, values the Levi form through the
anti-Lee form, detects Levi-flatness, and implements the
explicit leaf bookkeeping on the positive Hopf region: leaf labels on
the unit circle, chart-image radii inside the fundamental annulus, and
the Cayley picture of the leaves as Siegel-domain boundaries with their
Levi signature.

Stacks: the CR functions take a stack of points (..., n), a point (n,)
being a stack with no leading axes, and return arrays with the stack's
axes first: cr_fibre the CR basis (..., n, n-1), tangential_cr_residual
one value per point and levi_form one (k, k) matrix per point of k
vectors (..., k, n).  What derives from those arrays is a function of
them, called where it is read: levi_distribution(t10) gives the Levi
rows (..., 2n-2, 2n) and levi_flat_detector(L) one verdict per Levi
matrix.  A leaf's label is its w, one per point from leaf_label, read
by same_leaf and chart_radius; leaf_chart_image_check takes one w and
one set of samples (..., k, n) per point, and cayley_cr_residual gives
one residual per point.
Each row carries the bits of the single-point call.  The Siegel-boundary
Levi data are constants of (n, s).
"""

from __future__ import annotations

import numpy as np

from .charts import ChartDomainError, apply_j, real_coords, real_vector, wirtinger_derivative
from .lck import LCKStructure, _nonsingular, lee_data
from .models import HopfModel, cayley, eps_signs, hopf_diffeo
from .semieuclid import _kernel

__all__ = [
    "cr_fibre", "levi_distribution", "tangential_cr_residual",
    "levi_form", "levi_flat_detector", "leaf_label", "chart_radius", "same_leaf",
    "leaf_chart_image_check", "siegel_levi_matrix", "siegel_levi_signature",
    "cayley_cr_residual", "leaf_extension_hypothesis",
]

LEVI_FLAT_TOL = 1e-6      # Levi form values below this count as zero
SAME_LEAF_TOL = 1e-9      # labels this close on the unit circle name one leaf
EXCLUDED_LEAF_TOL = 1e-9  # chart index a this close to 0 or 1 is excluded
UNIT_CIRCLE_TOL = 1e-9    # leaf labels w lie this close to the unit circle
CAYLEY_SPHERE_TOL = 1e-8  # cayley_cr_residual's points lie this close to b(z, z) = r^2


def _t10_basis(omega_hol: np.ndarray) -> np.ndarray:
    """Orthonormal (Euclidean) basis of {v : omega_hol . v = 0} as columns,
    one (n, n-1) basis per point of a stack of covectors (..., n)."""
    return _kernel(omega_hol[..., None, :]).conj().swapaxes(-1, -2)


def cr_fibre(lck: LCKStructure, z) -> np.ndarray:
    """Basis (..., n, n-1) of the CR bundle of the leaf through z, a point
    or a stack of points: its columns are the holomorphic components of
    n-1 type-(1,0) vectors, orthonormal in the Euclidean product.  A
    vanishing Lee field raises SingularLeeError."""
    z = np.asarray(z, dtype=complex)
    _nonsingular(lee_data(lck, z))
    return _t10_basis(lck.lee_hol(z))


def levi_distribution(t10: np.ndarray) -> np.ndarray:
    """Row basis (..., 2n-2, 2n) of the real maximal complex distribution
    spanned by a CR basis t10 (..., n, n-1) and its J-images."""
    cr = real_vector(t10.swapaxes(-1, -2))    # one row per CR vector
    rows = np.stack([real_coords(cr), real_coords(apply_j(cr))], axis=-2)   # V_k, J V_k, ...
    return rows.reshape(t10.shape[:-2] + (-1, 2 * t10.shape[-2]))


def tangential_cr_residual(lck: LCKStructure, z, f):
    """max |Zbar(f)| over a basis of the conjugate CR bundle at z, per
    point of a stack.

    f is an ambient scalar function near z, taking a stack of points (see
    the charts module docstring), or k such functions at once, returning
    (..., k) values per point: all k are differentiated on one stencil,
    and the residual is the max over them.  A function's restriction to
    the leaf is CR at z iff its residual vanishes.  The derivative's
    stencil must stay on the chart's domain.
    """
    z = np.asarray(z, dtype=complex)
    t10 = cr_fibre(lck, z)
    _, d_dzb = wirtinger_derivative(f, z, chart=lck.chart)
    if d_dzb.ndim == z.ndim:   # one scalar function: k = 1
        d_dzb = d_dzb[..., None]
    d_dzb = np.ascontiguousarray(np.moveaxis(d_dzb, -1, -2))   # a row [..., k, l] per function
    # T01 = conj(T10): Zbar(f) contracts conj components with dzbar
    vals = np.matvec(t10.conj().swapaxes(-1, -2)[..., None, :, :], d_dzb)
    return np.abs(vals).max(axis=(-2, -1), initial=0.0)


def levi_form(lck: LCKStructure, z, V):
    """Levi matrix L(V_a, conj V_b) = i theta([V_a, conj V_b]) / c of k
    type-(1,0) vectors V (..., k, n) in the CR bundle of lck at z, shape
    (..., k, k): one matrix per point of a stack.

    theta = g(., A) annihilates the Levi distribution and theta(A) = c, so
    this is the bracket's component along the anti-Lee field A (Boggess,
    CR Manifolds and the Tangential Cauchy-Riemann Complex, 1991).  At a
    null point (c = 0) it is read against a leaf direction X transverse to
    the Levi distribution with theta(X) = 1.  Each V_a is extended as a
    CR section by Euclidean projection onto ker(omega_hol) pointwise; the
    bracket of a (1,0) field with a (0,1) field reads only their dzbar
    derivatives, taken for all k fields on one stencil on the chart's
    domain.  A vanishing Lee field raises SingularLeeError.
    """
    z = np.asarray(z, dtype=complex)
    V = np.asarray(V, dtype=complex)
    data = _nonsingular(lee_data(lck, z))

    def field(p):
        w = lck.lee_hol(p)[..., None, :]
        denom = np.vecdot(w, w).real[..., None]
        return V - np.vecdot(w.conj(), V)[..., None] * w.conj() / denom

    _, d_dzb = wirtinger_derivative(field, z, chart=lck.chart)   # [..., l, a, j]
    # T[a, b] = theta((conj V_b)(V_a)), contracted over j, then over l; theta
    # is real, so theta(V_a(conj V_b)) = conj(T[b, a]) and
    # theta([V_a, conj V_b]) = conj(T[b, a]) - T[a, b]
    dtheta = np.ascontiguousarray(
        np.matvec(d_dzb, data.theta[..., None, :V.shape[-1]]).swapaxes(-1, -2))   # [..., a, l]
    T = np.vecdot(field(z)[..., None, :, :], dtheta[..., :, None, :])
    c = np.where(data.non_null, data.c, 1.0)[..., None, None]
    return 1j * (T.conj().swapaxes(-1, -2) - T) / c


def levi_flat_detector(L):
    """True iff a Levi matrix L (..., k, k) on a full CR basis stays below
    LEVI_FLAT_TOL, per point of a stack."""
    return np.abs(L).max(axis=(-2, -1)) < LEVI_FLAT_TOL


# ---------------------------------------------------------------------------
# leaf space of the positive Hopf region
# ---------------------------------------------------------------------------

def leaf_label(model: HopfModel, z):
    """Label w of the leaf through z, per point of a stack: the phase
    w = exp(2 pi i log|z|_{s,n} / log lambda) of models.hopf_diffeo, on
    the unit circle.  Labels are deck invariant: two points lie on one
    leaf iff their labels agree (same_leaf).
    """
    z = np.asarray(z, dtype=complex)
    b = model.b(z)
    if np.any(b <= 0.0):
        raise ChartDomainError("leaf labels require b(z, z) > 0")
    return hopf_diffeo(model, z)[1]


def same_leaf(w, w2):
    """True iff the labels w and w2 name one leaf, |w - w2| <= SAME_LEAF_TOL,
    per point of stacked labels."""
    d = w - w2
    return np.hypot(d.real, d.imag) <= SAME_LEAF_TOL


def _chart_index(w):
    """Chart index a = arg(w) / (2 pi) in [0, 1) of labels w."""
    return (np.angle(w) % (2.0 * np.pi)) / (2.0 * np.pi)


def chart_radius(model: HopfModel, w):
    """Chart radius lambda^a of the leaves labelled w, one per point of a
    stack, a being the chart index arg(w) / (2 pi) in [0, 1).

    This is the deck-reduced |z|_{s,n} of the leaf's points: the radius
    of the pseudosphere the leaf traces inside the fundamental annulus
    chart.  Rounding can put the unit pseudosphere's leaf at either end,
    a near 0 or near 1, which leaf_chart_image_check excludes.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(np.hypot(w.real, w.imag) - 1.0) > UNIT_CIRCLE_TOL):
        raise ValueError("leaf labels lie on the unit circle")
    return np.float_power(model.lam, _chart_index(w))


def leaf_chart_image_check(model: HopfModel, w, samples):
    """Max residual of the chart-image radius over pseudosphere samples,
    per point of a stack of w (...) with samples (..., k, n).

    For each unit-pseudosphere sample zeta, the representative
    (chart_radius * zeta) must have |.|_{s,n} equal to the radius and lie
    strictly inside the fundamental annulus lambda < |.|_{s,n} < 1.
    Labels with a within EXCLUDED_LEAF_TOL of 0 or 1 (the leaf of the
    unit pseudosphere itself) are excluded: that leaf needs the
    shifted-annulus chart instead.
    """
    w = np.asarray(w, dtype=complex)
    radius, a = chart_radius(model, w), _chart_index(w)
    if np.any(np.minimum(a, 1.0 - a) <= EXCLUDED_LEAF_TOL):
        raise ValueError("excluded leaf: use the shifted annulus chart "
                         "(chart index at 0 or 1)")
    samples = np.asarray(samples, dtype=complex)
    norms = model.norm_sn(radius[..., None, None] * samples)
    worst = np.abs(norms - radius[..., None]).max(axis=-1)
    inside = (model.lam < norms) & (norms < 1.0)
    return np.where(inside.all(axis=-1), worst, np.maximum(worst, 1.0))


def leaf_extension_hypothesis(n: int, s: int) -> bool:
    """Parameter gate for the full-leaf CR extension statement.

    Requires n >= 2, 0 < s < n and excludes n = 2s + 1, where the Cayley
    pole set can swallow a whole null direction of the leaf.  Pointwise
    constructions (labels, radii, Cayley residuals, Levi signatures) do
    not need this hypothesis.
    """
    return n >= 2 and 0 < s < n and n != 2 * s + 1


# ---------------------------------------------------------------------------
# Siegel-domain boundary
# ---------------------------------------------------------------------------

def siegel_levi_matrix(n: int, s: int) -> np.ndarray:
    """Levi form of the Siegel-domain boundary in its CR frame.

    The CR bundle of the boundary Im(zeta_n) = sum eps_a |zeta_a|^2 is
    spanned by L_a = d/dzeta^a + 2 i eps_a conj(zeta_a) d/dzeta^n; the
    brackets [L_a, conj(L_b)] = -2 i eps_a delta_ab d/d(Re zeta_n) are
    exact, so the Levi matrix against the generator d/d(Re zeta_n) is
    the constant diagonal 2 eps_a (a < n).
    """
    if not 0 < s < n:
        raise ValueError("need 0 < s < n")
    return np.diag(2.0 * eps_signs(n, s)[:-1]).astype(complex)


def siegel_levi_signature(n: int, s: int) -> tuple[int, int]:
    """(negative, positive) eigenvalue counts of the boundary Levi form."""
    evals = np.linalg.eigvalsh(siegel_levi_matrix(n, s))
    return int(np.sum(evals < 0)), int(np.sum(evals > 0))


def cayley_cr_residual(model: HopfModel, r: float, z):
    """CR compatibility of the Cayley transform, per point of a stack of
    pseudosphere points.

    Pushes every CR-fibre generator at z through the holomorphic
    Jacobian of the transform and measures how far the image is from
    annihilating the holomorphic differential of the Siegel boundary
    defining function.
    """
    z = np.asarray(z, dtype=complex)
    n = model.n
    if np.any(np.abs(model.b(z) - r * r) > CAYLEY_SPHERE_TOL):
        raise ValueError("point must lie on the pseudosphere of radius r")
    lck_omega = eps_signs(n, model.s) * z.conj()   # proportional to the Lee form
    t10 = _t10_basis(lck_omega)
    zeta, _ = cayley(model.s, r, z)   # raises at the pole z_n + r = 0
    denom = r + z[..., -1]
    # np.power, not **: an array's ** 2 squares, which rounds otherwise
    denom2 = np.power(denom, 2)[..., None]
    jac = np.zeros(z.shape + (n,), dtype=complex)
    diag = np.arange(n - 1)
    jac[..., diag, diag] = (1.0 / denom)[..., None]
    jac[..., diag, -1] = -z[..., :-1] / denom2
    jac[..., -1, -1] = -2j * r / denom2[..., 0]
    eps = eps_signs(n, model.s)
    # d rho in holomorphic components: rho = Im(zeta_n) - sum eps_a |zeta_a|^2
    drho = np.empty(z.shape, dtype=complex)
    drho[..., :-1] = -eps[:-1] * zeta[..., :-1].conj()
    drho[..., -1] = -0.5j
    worst = np.zeros(z.shape[:-1])
    for k in range(n - 1):   # one generator at a time: a product over all
        # of them at once sums in another order
        val = np.vecdot(drho.conj(), np.matvec(jac, t10[..., k]))
        worst = np.maximum(worst, np.hypot(val.real, val.imag))   # abs() of a Python complex
    return worst
