"""Canonical foliations and their extrinsic geometry.

First foliation: kernel of the Lee form (a hyperplane distribution),
with the nondegenerate splitting when c != 0 and the screen/lightlike
transversal construction when the Lee field is null.  Second foliation:
the plane spanned by the Lee and anti-Lee fields, its integrability,
the isotropic transversal pair for null Lee data, and the vanishing of
second fundamental forms.  Also the complex-submanifold second
fundamental form law and the mean curvature it forces, on complex affine
subspaces, where it takes no finite difference.

Tangent/transversal decompositions at a point are done against the real
interleaved coordinates of the chart, a subspace being the array of its
basis rows (see semieuclid); vector fields entering covariant
derivatives are extended off the fibre by pointwise projection, which is
legitimate because second fundamental forms are tensorial in their
arguments.

Stacks: the fibres, h_P_residual, integrability_residual and
complex_submanifold_mean_curvature take a stack of points (..., n), a
point (n,) being a stack with no leading axes, and gauss_weingarten
reads its points from its fibre.  Every member of the result carries the stack's axes first
(FoliationFibre holds stacked row bases over a stacked form, and a
residual is an array of the stack's shape), and each row carries the
bits of the single-point call.  The points of one stack must share a Lee branch:
all non-null or all null; a mixed stack raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import (
    _bilinear,
    _field_derivatives,
    _g,
    _max_abs,
    _norms,
    apply_j,
    christoffel,
    covariant_derivative,
    hol_from_real_coords,
    lie_bracket,
    real_coords,
    real_vector,
)
from .lck import LCKStructure, LeeData, _nonsingular, lee_data
from .semieuclid import (
    SemiEuclideanForm,
    _complement_within,
    _full_rank,
    _kernel,
    independent_rows,
    inner,
    orthogonal_complement,
)

__all__ = [
    "FoliationFibre", "first_foliation_fibre", "lightlike_transversal", "gauss_weingarten",
    "second_foliation_fibre", "integrability_residual",
    "isotropic_transversal_pair", "h_P_residual", "complex_submanifold_mean_curvature",
]

# Relative tolerance of the checks that caller-supplied vectors are
# g-orthogonal to a screen.
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class FoliationFibre:
    """Pointwise data of a foliation: tangent fibre and its splitting,
    each subspace a row basis (..., k, 2n)."""

    point: np.ndarray
    c: np.ndarray       # g(B, B), per point of the stack
    tangent: np.ndarray
    radical: np.ndarray
    screen: np.ndarray
    transversal: np.ndarray
    form: SemiEuclideanForm


def _lck_point(lck: LCKStructure, z: np.ndarray) -> tuple[LeeData, SemiEuclideanForm]:
    data = _nonsingular(lee_data(lck, z))
    return data, data.form


def _lee_branch(data: LeeData) -> bool:
    """True when the Lee field is non-null at every point of the stack,
    False when it is null at every point."""
    if data.non_null.all():
        return True
    if data.non_null.any():
        raise ValueError("stack mixes null and non-null Lee fields")
    return False


def _rows(*vectors: np.ndarray) -> np.ndarray:
    """Vectors (..., N) as the rows of a basis (..., k, N)."""
    return np.concatenate([v[..., None, :] for v in vectors], axis=-2)


def _screen_split(form: SemiEuclideanForm, radical: np.ndarray,
                  space: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Screen of a degenerate space (Duggal-Bejancu): row bases of the
    Euclidean complement of its radical inside it, and of the screen's
    g-orthocomplement, which contains the radical.  Both inputs are row
    bases, the radical's rows lying in span(space)."""
    screen = _complement_within(radical, space)
    return screen, _kernel(screen @ form.gram)


def first_foliation_fibre(lck: LCKStructure, z) -> FoliationFibre:
    """Fibre of the hyperplane foliation omega = 0 at z (a point or a stack).

    c != 0: the fibre is nondegenerate, the Lee line is transversal and
    the screen is the whole fibre.  c = 0: the Lee line is the radical,
    the screen is its Euclidean orthocomplement inside the fibre, and the
    transversal is the canonical null line normalized against omega.
    """
    z = np.asarray(z, dtype=complex)
    data, form = _lck_point(lck, z)
    omega, Breal = data.omega_real, data.B_real
    tangent = _kernel(_rows(omega))
    lee_line = independent_rows(form, _rows(Breal))
    if _lee_branch(data):
        return FoliationFibre(point=z, c=data.c, tangent=tangent,
                              radical=tangent[..., :0, :], screen=tangent,
                              transversal=lee_line, form=form)
    screen, screen_perp = _screen_split(form, lee_line, tangent)
    V_rows = _complement_within(lee_line, screen_perp)
    if V_rows.shape[-2] != 1:
        raise ValueError("could not isolate a complement of the Lee line")
    N = lightlike_transversal(form, omega, Breal, screen, V_rows[..., 0, :])
    return FoliationFibre(point=z, c=data.c, tangent=tangent, radical=lee_line,
                          screen=screen,
                          transversal=independent_rows(form, _rows(N)),
                          form=form)


def lightlike_transversal(form: SemiEuclideanForm, omega: np.ndarray,
                          B: np.ndarray, screen: np.ndarray,
                          V: np.ndarray) -> np.ndarray:
    """Canonical null transversal N_V = (1/omega(V)) {V - g(V,V)/(2 omega(V)) B}.

    V must span a complement of the Lee line inside the orthocomplement
    of the screen (rows): it is checked to be g-orthogonal to the screen and
    independent of B.  omega(V) != 0 then holds automatically for valid
    inputs; a vanishing value signals an invalid complement.  The output
    satisfies g(N_V, N_V) = 0 and omega(N_V) = 1 and does not depend on
    the choice of V.  All inputs may carry a stack axis, checked per point.
    """
    V = np.asarray(V, dtype=float)
    B = np.asarray(B, dtype=float)
    omega = np.asarray(omega, dtype=float)
    vmax = np.abs(V).max(axis=-1)
    if screen.shape[-2]:
        cross = np.abs(np.matvec(screen @ form.gram, V)).max(axis=-1)
        if (cross > ORTHO_TOL * np.maximum(1.0, vmax)).any():
            raise ValueError("V is not orthogonal to the screen")
    if not _full_rank(_rows(B, V)):
        raise ValueError("V lies on the Lee line")
    wV = np.vecdot(omega, V)
    if (np.abs(wV) <= 1e-12 * np.maximum(1.0, np.abs(omega).max(axis=-1) * vmax)).any():
        raise ValueError("omega(V) = 0: V does not span a valid complement")
    gVV = inner(form, V, V)
    return (V - (gVV / (2.0 * wV))[..., None] * B) / wV[..., None]


def _tangential_extension(lck: LCKStructure, vec: np.ndarray) -> Callable:
    """Extend a tangent vector (one per point of a stack) to a section of
    ker(omega) by projecting a coordinate-constant field pointwise
    (g-projection along the Lee line where c != 0, Euclidean kernel
    projection where c = 0)."""
    def field(p):
        data = lee_data(lck, p)
        omega = data.omega_real
        non_null = data.non_null
        along = np.where(non_null[..., None], data.B_real, omega)
        denom = np.where(non_null, data.c, np.vecdot(omega, omega))
        proj = vec - (np.vecdot(omega, vec) / denom)[..., None] * along
        return real_vector(hol_from_real_coords(proj))
    return field


def _transversal_part(data: LeeData, fibre: FoliationFibre, w: np.ndarray) -> np.ndarray:
    """The transversal part of a real vector against tangent + transversal
    of the first foliation at data's point, using the omega-normalization
    of the transversal (omega(N_V) = 1 where c = 0)."""
    coeff = np.vecdot(data.omega_real, w) / np.where(data.non_null, fibre.c, 1.0)
    return coeff[..., None] * fibre.transversal[..., 0, :]


def gauss_weingarten(lck: LCKStructure, fibre: FoliationFibre, X,
                     Y) -> tuple[np.ndarray, np.ndarray]:
    """(h, h_symmetry_residual): the transversal part h = tra(nabla_X Y)
    against the fibre decomposition, and max |h(X, Y) - h(Y, X)| relative
    to the transversal's size, per point of the stack.

    X, Y are tangent vectors at z = fibre.point in real interleaved
    coordinates, extended as sections of the tangent distribution by
    pointwise projection.  z may be a stack, with one X and Y per point;
    the two fields share one stencil evaluation.
    """
    z = fibre.point
    chart = lck.chart
    gamma = christoffel(chart, z)
    data = lee_data(lck, z)

    scale = np.maximum(1.0, np.abs(fibre.transversal).max(axis=(-2, -1)))
    Xfield = _tangential_extension(lck, np.asarray(X, dtype=float))
    Yfield = _tangential_extension(lck, np.asarray(Y, dtype=float))
    dX, dY = _field_derivatives([Xfield, Yfield], z, chart=chart)
    Xv, Yv = Xfield(z), Yfield(z)
    traXY = _transversal_part(data, fibre, real_coords(covariant_derivative(gamma, Xv, Yv, dY)))
    traYX = _transversal_part(data, fibre, real_coords(covariant_derivative(gamma, Yv, Xv, dX)))
    return traXY, _max_abs(traXY - traYX, 1) / scale


def second_foliation_fibre(lck: LCKStructure, z) -> FoliationFibre:
    """Fibre of the Lee/anti-Lee plane foliation at z (a point or a stack).

    c != 0: a definite plane (sign c) with the orthocomplement as
    transversal.  c = 0: the plane is its own radical (isotropic for
    n >= 3, totally lightlike for n = 2); the transversal combines the
    isotropic pair with the screen of the orthocomplement when n >= 3
    and falls back to a Euclidean complement for n = 2.
    """
    z = np.asarray(z, dtype=complex)
    data, form = _lck_point(lck, z)
    A, B = data.A_real, data.B_real
    tangent = independent_rows(form, _rows(A, B))
    perp = orthogonal_complement(form, tangent)
    if _lee_branch(data):
        return FoliationFibre(point=z, c=data.c, tangent=tangent,
                              radical=tangent[..., :0, :], screen=tangent,
                              transversal=perp, form=form)
    screen, sperp = _screen_split(form, tangent, perp)
    if lck.chart.n >= 3:
        E_rows = _complement_within(tangent, sperp)
        N1, N2 = isotropic_transversal_pair(form, data.omega_real, data.theta_real,
                                            A, B, screen, E_rows[..., 0, :], E_rows[..., 1, :])
        trans_rows = np.concatenate([_rows(N1, N2), screen], axis=-2)
    else:
        eye = np.broadcast_to(np.eye(form.dim), tangent.shape[:-2] + (form.dim,) * 2)
        trans_rows = _complement_within(tangent, eye)
    return FoliationFibre(point=z, c=data.c, tangent=tangent, radical=tangent,
                          screen=tangent[..., :0, :],
                          transversal=independent_rows(form, trans_rows),
                          form=form)


def _plane_projection_residual(plane: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v minus its Euclidean projection onto the span of the two plane rows."""
    q, _ = np.linalg.qr(plane.swapaxes(-1, -2))
    return v - np.matvec(q, np.matvec(q.swapaxes(-1, -2), v))


def integrability_residual(lck: LCKStructure, z):
    """Euclidean norm of [A, B] after projecting out span{A, B}, per point
    of a stack, from a stencil on the chart's domain."""
    z = np.asarray(z, dtype=complex)
    data = _nonsingular(lee_data(lck, z))
    Afield, Bfield = (lambda p: lee_data(lck, p).A), (lambda p: lee_data(lck, p).B)
    br = real_coords(lie_bracket(Afield, Bfield, z, chart=lck.chart))
    return _norms(_plane_projection_residual(_rows(data.A_real, data.B_real), br))


def isotropic_transversal_pair(form: SemiEuclideanForm, omega: np.ndarray,
                               theta: np.ndarray, A: np.ndarray, B: np.ndarray,
                               screen: np.ndarray, V1, V2) -> tuple[np.ndarray, np.ndarray]:
    """The null transversal pair (N1, N2) normalized by theta(N1) =
    omega(N2) = 1.

    {V1, V2} must frame a complement of span{A, B} inside the
    orthocomplement of the screen's orthocomplement... i.e. inside
    S-perp-perp; validity is certified by D = theta(V1) omega(V2) -
    omega(V1) theta(V2) being nonzero.  The lambda coefficients are
    derived from the isotropy constraints g(N_i, N_j) = 0 with
    lam12 = lam21, giving lam11 = -g(W1,W1)/2, lam22 = -g(W2,W2)/2,
    lam12 = -g(W1,W2)/2.  The pair is invariant under frame changes of
    {V1, V2}.  All inputs may carry a stack axis, checked per point.
    """
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    V12 = _rows(V1, V2)
    vmax = np.abs(V12).max(axis=-1)
    if screen.shape[-2]:
        cross = np.abs(screen @ form.gram @ V12.swapaxes(-1, -2)).max(axis=(-2, -1))
        if (cross > ORTHO_TOL * np.maximum(1.0, vmax.max(axis=-1))).any():
            raise ValueError("V1, V2 must be orthogonal to the screen")
    w = np.vecdot(V12, omega[..., None, :])      # omega(V1), omega(V2)
    t = np.vecdot(V12, theta[..., None, :])
    D = t[..., 0] * w[..., 1] - w[..., 0] * t[..., 1]
    scale = np.maximum(np.maximum(1.0, np.abs(omega).max(axis=-1) * vmax[..., 0]),
                       np.abs(theta).max(axis=-1) * vmax[..., 1])
    if (np.abs(D) < 1e-10 * scale).any():
        raise ValueError("D = 0: {V1, V2} do not frame a valid complement")
    w, t, D = w[..., None], t[..., None], D[..., None]
    W1 = (w[..., 1, :] * V1 - w[..., 0, :] * V2) / D
    W2 = -(t[..., 1, :] * V1 - t[..., 0, :] * V2) / D
    lam11, lam22, lam12 = ((-0.5 * inner(form, U, V))[..., None]
                           for U, V in ((W1, W1), (W2, W2), (W1, W2)))
    N1 = lam11 * A + lam12 * B + W1
    N2 = lam12 * A + lam22 * B + W2
    return N1, N2


def _lee_plane_connection(lck: LCKStructure, z: np.ndarray, gamma: np.ndarray) -> dict:
    """nabla_X Y at z for X, Y in the Lee/anti-Lee pair, keyed "AA", "AB",
    "BA", "BB": each of the fields A and B is differentiated once, both
    in one stencil evaluation."""
    Afield, Bfield = (lambda p: lee_data(lck, p).A), (lambda p: lee_data(lck, p).B)
    derivs = dict(zip("AB", _field_derivatives([Afield, Bfield], z, chart=lck.chart)))
    data = lee_data(lck, z)
    at = {"A": data.A, "B": data.B}
    return {X + Y: covariant_derivative(gamma, at[X], at[Y], derivs[Y])
            for X in "AB" for Y in "AB"}


def h_P_residual(lck: LCKStructure, z) -> tuple[np.ndarray, np.ndarray]:
    """(h, nabla_AA), per point of a stack: h is the max transversal
    component of nabla_X Y over X, Y in {A, B}, and nabla_AA is max
    |nabla_A A|.

    On parallel-Lee charts with c != 0, h is the second fundamental form
    of the Lee/anti-Lee plane and must vanish.  h reads only transversal
    parts, so it does not see nabla_A A, which the proof also needs to
    vanish: nabla_AA reads it in full.  On a Tricerri chart h vanishes
    and nabla_AA does not.
    """
    z = np.asarray(z, dtype=complex)
    nabla = _lee_plane_connection(lck, z, christoffel(lck.chart, z))
    data, form = _lck_point(lck, z)     # the plane is the second foliation's fibre
    e0, e1 = data.A_real, data.B_real
    non_null = _lee_branch(data)
    worst = None
    for nXY in (real_coords(nabla[k]) for k in ("AA", "AB", "BA", "BB")):
        if non_null:
            # g-projection onto the plane, remainder is transversal
            coeffA = (inner(form, nXY, e0) / data.c)[..., None]
            coeffB = (inner(form, nXY, e1) / data.c)[..., None]
            resid = nXY - coeffA * e0 - coeffB * e1
        else:
            resid = _plane_projection_residual(_rows(e0, e1), nXY)
        r = np.abs(resid).max(axis=-1)
        worst = r if worst is None else np.maximum(worst, r)
    return worst, np.abs(nabla["AA"]).max(axis=-1)


# ---------------------------------------------------------------------------
# complex submanifolds
# ---------------------------------------------------------------------------

def _hermitian_orthonormal_frame(H: np.ndarray, cols: np.ndarray):
    """Gram-Schmidt for the (indefinite) Hermitian pairing 2 v^T H conj(w),
    per point of a stack (H (..., n, n), cols (..., n, m)).

    Returns (frame columns, signs); raises if a pivot degenerates.
    """
    m = cols.shape[-1]
    frame = []
    signs = []

    def pair(v, w):
        return 2.0 * _bilinear(v, H, w.conj())

    for a in range(m):
        v = cols[..., a].astype(complex)
        for f, sgn in zip(frame, signs):
            v = v - (sgn * pair(v, f))[..., None] * f
        nrm = pair(v, v).real
        if np.any(np.abs(nrm) < 1e-10 * np.maximum(1.0, np.abs(v).max(axis=-1) ** 2)):
            raise ValueError("degenerate induced metric on the submanifold")
        frame.append(v / np.sqrt(np.abs(nrm))[..., None])
        signs.append(np.where(nrm > 0, 1.0, -1.0))
    return np.stack(frame, axis=-1), np.stack(signs, axis=-1)


def complex_submanifold_mean_curvature(lck: LCKStructure, z, jac):
    """Second-fundamental-form law and mean curvature of the complex
    affine subspace through z spanned by the columns of jac (n, m), per
    point of a stack z (..., n).

    Returns (eq_residual, mean_offset): the first is the worst residual
    of h(JX, JY) + h(X, Y) + g(X, Y) Bperp over frame pairs, the second
    is |H + Bperp/2| for the mean curvature vector H.  Both vanish for
    complex submanifolds of an l.c.K. ambient space; H = 0 exactly when
    the submanifold is tangent to the Lee field.  Frame fields with
    constant coefficients have no ambient derivative along an affine
    subspace, so h(X, Y) is the normal part of Gamma(X, Y); each is
    evaluated once, the law's diagonal pairs feeding the mean curvature.
    """
    z = np.asarray(z, dtype=complex)
    jac = np.asarray(jac, dtype=complex)
    gamma = christoffel(lck.chart, z)
    data = lee_data(lck, z)
    frame_cols, signs = _hermitian_orthonormal_frame(
        data.H, np.broadcast_to(jac, z.shape[:-1] + jac.shape))
    m = jac.shape[-1]

    # real orthonormal tangent frame {X_a, J X_a}
    reals = []
    for a in range(m):
        E = real_vector(frame_cols[..., a])
        reals.extend([E, apply_j(E)])

    def nor(vcomp: np.ndarray) -> np.ndarray:
        tan = np.zeros_like(vcomp)
        for a in range(m):
            for Xa in (reals[2 * a], reals[2 * a + 1]):
                coeff = _g(data.H, vcomp, Xa) * signs[..., a]
                tan = tan + coeff[..., None] * Xa
        return vcomp - tan

    def h_of(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return nor(covariant_derivative(gamma, X, Y))

    Bperp = nor(data.B)
    eq_residual = 0.0
    diagonal = []   # h(X_a, X_a) + h(J X_a, J X_a)
    for a in range(m):
        Ea, JEa = reals[2 * a], reals[2 * a + 1]
        for b in range(m):
            Eb, JEb = reals[2 * b], reals[2 * b + 1]
            hXY = h_of(Ea, Eb)
            hJXJY = h_of(JEa, JEb)
            if a == b:
                diagonal.append(hXY + hJXJY)
            gXY = _g(data.H, Ea, Eb).real[..., None]
            resid = hJXJY + hXY + gXY * Bperp
            eq_residual = np.maximum(eq_residual, np.abs(resid).max(axis=-1))
            # mixed pairs: substituting (X, JY) into the law and using
            # J^2 = -1 gives h(X, JY) - h(JX, Y) + g(X, JY) Bperp = 0
            hXJY = h_of(Ea, JEb)
            hJXY = h_of(JEa, Eb)
            gXJY = _g(data.H, Ea, JEb).real[..., None]
            resid = hXJY - hJXY + gXJY * Bperp
            eq_residual = np.maximum(eq_residual, np.abs(resid).max(axis=-1))

    Hmean = np.zeros(Bperp.shape, dtype=complex)
    for a in range(m):
        Hmean = Hmean + signs[..., a, None] * diagonal[a]
    Hmean = Hmean / (2.0 * m)
    mean_offset = np.abs(Hmean + 0.5 * Bperp).max(axis=-1)
    return eq_residual, mean_offset
