"""Model geometries and maps.

* the indefinite Hermitian form b_{s,n} and its null cone,
* the indefinite Hopf chart (deck-invariant metric on the quotient of
  the off-cone region by z -> lambda z), with closed-form connection
  coefficients and Lee form,
* the flat indefinite Kahler chart,
* the Tricerri-family chart on C_+ x C^n_s with nonparallel Lee form,
* quotient bookkeeping: deck equivalence, the diffeomorphism onto
  Sigma^{2n-1} x S^1 and its inverse, torus-action isometry residuals,
  the vertical/horizontal split over the pseudosphere, fibre-invariance
  residuals for the projective-space submersion, the block retraction
  and the Cayley transform onto the Siegel-domain boundary.

Stacks: the charts, HopfModel.b / .a / .norm_sn and every quotient map
take a stack (..., n), a point (n,) being a stack with no leading axes,
and return one value per point, an array of the stack's shape, each row
with the bits of the single-point call: fibration_split
(stacked row bases), submersion_isometry_residual (one u and v per
point), deck_equivalent (NaN where no power matches), hopf_diffeo and
its inverse, torus_pullback_isometry_residual and retraction (one t per
point, or one for all), cayley (one image and residual per point) and
gab_invariance_residual (one alpha, beta and w per point).  Powers of
lambda go through np.float_power, which rounds as a Python float's **
(libm pow), where an array's np.power may not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charts import (
    ChartDomainError, MetricChart, _g, _norms, _require_domain, _richardson, _steps,
    real_coords,
)
from .lck import LCKStructure, lee_data
from .semieuclid import independent_rows, orthogonal_complement, signature_of

__all__ = [
    "HopfModel", "eps_signs", "b_form",
    "hopf_chart", "flat_chart", "tricerri_chart",
    "synthetic_null_structure", "deck_equivalent", "hopf_diffeo",
    "hopf_diffeo_inv", "torus_pullback_isometry_residual", "fibration_split",
    "submersion_isometry_residual", "retraction", "cayley",
    "gab_invariance_residual",
]

# Samplers stay clear of the null cone: |b(z,z)| must exceed this times
# the Euclidean |z|^2.  Charts themselves only exclude the cone.
CONE_MARGIN = 0.05
# Relative gap below which zp = lambda^m z counts as deck equivalence.
DECK_TOL = 1e-9
# fibration_split accepts a pseudosphere point with |b(z,z) - 1| up to this.
FIBRATION_SPHERE_TOL = 1e-9
# submersion_isometry_residual's inputs count as horizontal while every
# g(., A) and g(., B) stays below this times max(1, |u| |v|).
HORIZONTAL_TOL = 1e-6
# submersion_isometry_residual's central-difference step in the flow time.
FLOW_STEP = 1e-5
# The Cayley transform refuses a point with |r + z_n| at most this: its pole.
CAYLEY_POLE_TOL = 1e-9


@lru_cache(maxsize=None)
def eps_signs(n: int, s: int) -> np.ndarray:
    """Diagonal signs (-1 for the first s slots, +1 after), built once per
    (n, s) and shared, so read-only."""
    eps = np.ones(n)
    eps[:s] = -1.0
    eps.setflags(write=False)
    return eps


def b_form(s: int, n: int, z, w):
    """Hermitian form -sum_{j<=s} z_j conj(w_j) + sum_{j>s} z_j conj(w_j),
    per pair of vectors of stacks (..., n)."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape[-1:] != (n,) or w.shape[-1:] != (n,):
        raise ValueError(f"arguments must be vectors of length {n}")
    return np.sum(eps_signs(n, s) * z * w.conj(), axis=-1)


@dataclass(frozen=True)
class HopfModel:
    """Quotient of the off-cone region of C^n_s by z -> lambda^m z.

    Points are represented by covering-space representatives; deck
    equivalence is the identification oracle.  The model names no
    component: hopf_chart and sample_hopf take the region, '+' where
    b_{s,n}(z,z) > 0 and '-' where it is negative.
    """

    n: int
    s: int
    lam: float

    def __post_init__(self):
        if self.n < 2 or not 0 < self.s < self.n:
            raise ValueError("need n >= 2 and 0 < s < n")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("need 0 < lambda < 1")

    def b(self, z):
        """b(z, z), per point of a stack."""
        return b_form(self.s, self.n, z, z).real

    def norm_sn(self, z):
        """|z|_{s,n} = |b(z,z)|^(1/2), per point of a stack."""
        return np.sqrt(np.abs(self.b(z)))

    def a(self, z):
        """Sign of b(z,z), per point of a stack; raises on the null cone."""
        b = self.b(z)
        if np.any(b == 0.0):
            raise ChartDomainError("point lies on the null cone")
        return np.where(b > 0, 1.0, -1.0)


def _constant(value: np.ndarray):
    """Evaluator of a constant array: a writable copy per point of a stack."""
    return lambda z: np.broadcast_to(value, np.shape(z)[:-1] + value.shape).copy()


def _diagonal(d: np.ndarray) -> np.ndarray:
    """Complex diagonal matrices (..., n, n) with diagonals d (..., n)."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,), dtype=complex)
    out.reshape(d.shape[:-1] + (n * n,))[..., ::n + 1] = d
    return out


@lru_cache(maxsize=None)
def _hopf_metric_fns(n: int, s: int):
    """The Hopf metric components and closed-form coefficients of (n, s),
    built once and shared by every chart of (n, s)."""
    eps = eps_signs(n, s)
    d = np.eye(n)                    # d[l, j] = delta^l_j
    eps_d = eps[:, None] * d         # eps_j delta_jk

    def metric(z):
        b = (eps * np.abs(z) ** 2).sum(axis=-1, keepdims=True)
        return _diagonal(0.5 * eps / np.abs(b))

    def gamma(z):
        """Closed-form coefficients at a point or a stack of points."""
        z = np.asarray(z, dtype=complex)
        b = np.sum(eps * np.abs(z) ** 2, axis=-1)
        q = (np.where(b > 0, 1.0, -1.0) / (2.0 * np.abs(b)))[..., None, None, None]
        ez = eps * z.conj()          # eps_j zbar_j
        ezj = ez[..., None, :, None]     # indexed [l, j, k]: the j factor
        ezk = ez[..., None, None, :]     # the k factor
        zl = z[..., :, None, None]
        G = np.zeros(z.shape[:-1] + (2 * n, 2 * n, 2 * n), dtype=complex)
        # Gamma^l_{jk} = -q (eps_j zbar_j d^l_k + eps_k zbar_k d^l_j)
        G[..., :n, :n, :n] = -q * (ezj * d[:, None, :] + ezk * d[:, :, None])
        # Gamma^l_{j kbar} = q (eps_j d_{jk} z^l - eps_k z_k d^l_j)
        G[..., :n, :n, n:] = q * (eps_d * zl - (eps * z)[..., None, None, :] * d[:, :, None])
        G[..., :n, n:, :n] = G[..., :n, :n, n:].swapaxes(-1, -2)
        # Gamma^lbar_{j kbar} = q (eps_j d_{jk} zbar^l - eps_j zbar_j d^l_k)
        G[..., n:, :n, n:] = q * (eps_d * zl.conj() - ezj * d[:, None, :])
        G[..., n:, n:, :n] = G[..., n:, :n, n:].swapaxes(-1, -2)
        # conjugation symmetry fills the all-barred block; the remaining
        # blocks Gamma^lbar_{jk} and Gamma^l_{jbar kbar} vanish identically.
        G[..., n:, n:, n:] = G[..., :n, :n, :n].conj()
        return G

    return metric, gamma


def _positive_regions(regions) -> np.ndarray:
    """True for each region '+' and False for each '-' of regions (a name or
    a sequence of names; any other name raises ValueError), or regions as
    they are if they are such a bool mask (m,), built once for a stack."""
    if isinstance(regions, np.ndarray) and regions.dtype == bool:
        return regions
    names = (regions,) if isinstance(regions, str) else regions
    if not set(names) <= {"+", "-"}:
        raise ValueError("region must be '+' or '-'")
    positive = np.array([r == "+" for r in names], dtype=bool)
    return positive[0] if isinstance(regions, str) else positive


def hopf_chart(model: HopfModel, regions="+") -> LCKStructure:
    """Chart of the deck-invariant metric with closed-form coefficients.

    Metric components g_{j kbar} = (1/2) |z|_{s,n}^{-2} eps_j delta_{jk};
    Lee form omega = -d log |z|^2_{s,n}.  The domain is the component of
    regions ('+' or '-'): sign b(z, z) > 1e-12 |z|^2.  regions may instead
    name one region per point of a stack (m,), or be their mask from
    _positive_regions, as sample_hopf takes them: the structure is then
    evaluated at stacks of m points (..., m, n), point i and its stencil
    on region i's component, as m single-region charts would be.
    """
    n, s = model.n, model.s
    eps = eps_signs(n, s)
    metric, gamma = _hopf_metric_fns(n, s)
    positive = _positive_regions(regions)
    sign = np.where(positive, 1.0, -1.0)

    def domain(z):
        z = np.asarray(z, dtype=complex)
        b = (eps * np.abs(z) ** 2).sum(axis=-1)
        zz = np.vecdot(z, z).real
        return (zz > 0.0) & (sign * b > 1e-12 * zz)

    plus = np.count_nonzero(positive)
    held = ("+" if plus else "") + ("-" if plus < positive.size else "")
    chart = MetricChart(n=n, s=s, metric_eval=metric, domain_pred=domain,
                        christoffel_analytic=gamma, name=f"hopf(n={n},s={s},{held})")

    def lee(z):
        z = np.asarray(z, dtype=complex)
        b = (eps * np.abs(z) ** 2).sum(axis=-1, keepdims=True)
        return np.where(b > 0, -eps, eps) * z.conj() / np.abs(b)   # -sign(b) eps zbar / |b|

    def factor(z):
        return -np.log(np.abs(np.sum(eps * np.abs(np.asarray(z)) ** 2, axis=-1)))

    return LCKStructure(chart=chart, lee_form_eval=lee, conformal_factor_eval=factor)


def flat_chart(n: int, s: int) -> LCKStructure:
    """Flat indefinite Kahler chart: g_{j kbar} = (1/2) eps_j delta_{jk}."""
    if n < 1 or not 0 <= s <= n:
        raise ValueError("need n >= 1 and 0 <= s <= n")
    eps = eps_signs(n, s)
    H = np.diag(0.5 * eps).astype(complex)
    chart = MetricChart(
        n=n, s=s,
        metric_eval=_constant(H),
        domain_pred=lambda z: True,
        christoffel_analytic=_constant(np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)),
        name=f"flat(n={n},s={s})")
    return LCKStructure(chart=chart, lee_form_eval=_constant(np.zeros(n, dtype=complex)),
                        conformal_factor_eval=_constant(np.zeros(())))


def synthetic_null_structure(n: int, s: int, B_hol=None) -> LCKStructure:
    """Flat chart with a constant null Lee covector (pointwise test data).

    The default Lee field is d/dx_1 + d/dx_{s+1}, which is null for any
    0 < s < n.  The constant 1-form is closed and parallel, so the c = 0
    branches of the foliation and CR machinery run on it.  It is a flat
    Kahler chart with a constant form, not an l.c.K. structure: its
    Kahler form has d Omega = 0, while omega ^ Omega != 0.

    B_hol may be a stack (m, n) of Lee fields: the structure is then
    evaluated at stacks of m points (..., m, n), point i carrying Lee
    field i, as m single structures would be at each point.
    """
    if not 0 < s < n:
        raise ValueError("need 0 < s < n for a nonzero null vector")
    eps = eps_signs(n, s)
    if B_hol is None:
        B_hol = np.zeros(n, dtype=complex)
        B_hol[0] = 1.0
        B_hol[s] = 1.0
    B_hol = np.asarray(B_hol, dtype=complex)
    omega_hol = 0.5 * eps * B_hol.conj()   # lowering with H = diag(eps)/2
    base = flat_chart(n, s)
    return LCKStructure(chart=base.chart,
                        lee_form_eval=lambda z: np.broadcast_to(omega_hol, np.shape(z)).copy())


def tricerri_chart(n: int, s: int) -> LCKStructure:
    """Indefinite Hermitian family metric on C_+ x C^n_s.

    g = Im(w)^{-2} dw.dwbar + Im(w) sum_j eps_j dz^j.dzbar^j, a globally
    conformal Kahler metric with exact Lee form d log Im(w) and a
    nonparallel, spacelike Lee field.  Coordinate 0 is w.
    """
    if n < 1 or not 0 <= s < n:
        raise ValueError("need n >= 1 and 0 <= s < n")
    eps = eps_signs(n, s)
    m = n + 1

    def metric(p):
        v = np.asarray(p)[..., 0].imag
        d = np.empty(v.shape + (m,))
        # float_power calls libm's pow, as a Python float's v ** 2 does;
        # an array's v ** 2 squares, which differs in the last bit for some v
        d[..., 0] = 0.5 / np.float_power(v, 2)
        d[..., 1:] = 0.5 * v[..., None] * eps
        return _diagonal(d)

    def gamma_full(p):
        """All nonzero connection coefficients in closed form, at a point
        or a stack of points."""
        v = np.asarray(p)[..., 0].imag
        G = np.zeros(v.shape + (2 * m, 2 * m, 2 * m), dtype=complex)
        w, wb = 0, m
        j = np.arange(1, m)
        jb = m + j
        quarter = (0.25 / v)[..., None]
        # a real quotient times i, so each entry is c / v as for a scalar v
        G[..., w, w, w] = 1j * (1.0 / v)
        G[..., wb, wb, wb] = 1j * (-1.0 / v)
        G[..., j, j, w] = G[..., j, w, j] = 1j * -quarter
        G[..., jb, jb, wb] = G[..., jb, wb, jb] = 1j * quarter
        G[..., j, j, wb] = G[..., j, wb, j] = 1j * quarter
        G[..., jb, jb, w] = G[..., jb, w, jb] = 1j * -quarter
        v2 = np.float_power(v, 2)[..., None]     # libm pow, as a Python float's v ** 2
        G[..., w, j, jb] = G[..., w, jb, j] = 1j * ((-0.25 * eps) * v2)
        G[..., wb, j, jb] = G[..., wb, jb, j] = 1j * ((0.25 * eps) * v2)
        return G

    chart = MetricChart(n=m, s=s, metric_eval=metric,
                        domain_pred=lambda p: np.asarray(p)[..., 0].imag > 0.0,
                        christoffel_analytic=gamma_full,
                        name=f"tricerri(n={n},s={s})")

    def lee(p):
        p = np.asarray(p)
        out = np.zeros(p.shape, dtype=complex)
        out[..., 0] = 1.0 / (p[..., 0] - np.conj(p[..., 0]))    # = -i / (2 Im w)
        return out

    return LCKStructure(chart=chart, lee_form_eval=lee,
                        conformal_factor_eval=lambda p: np.log(np.asarray(p)[..., 0].imag))


# ---------------------------------------------------------------------------
# quotient structure
# ---------------------------------------------------------------------------

def deck_equivalent(model: HopfModel, z, zp):
    """The power m with zp = lambda^m z componentwise (to within DECK_TOL
    relative to max(1, |zp|)), or NaN where no power matches: a float
    array with one value per point of stacks z, zp (..., n)."""
    z = np.asarray(z, dtype=complex)
    zp = np.asarray(zp, dtype=complex)
    nz, nzp = _norms(z), _norms(zp)
    with np.errstate(divide="ignore", invalid="ignore"):
        m0 = np.log(nzp / nz) / np.log(model.lam)
    found = np.full(np.shape(m0), np.nan)
    for m in (np.floor(m0), np.ceil(m0)):   # round(m0) is one of the two
        with np.errstate(invalid="ignore"):
            gap = np.abs(zp - np.float_power(model.lam, m)[..., None] * z).max(axis=-1)
        found = np.where(np.isnan(found) & (gap <= DECK_TOL * np.maximum(1.0, nzp)), m, found)
    return np.where((nz == 0.0) | (nzp == 0.0), np.nan, found)


def hopf_diffeo(model: HopfModel, z):
    """Representative z -> (zeta, w) on Sigma^{2n-1} x S^1: zeta (..., n)
    and w (...), per point of a stack."""
    z = np.asarray(z, dtype=complex)
    r = model.norm_sn(z)
    if np.any(r == 0.0):
        raise ChartDomainError("point lies on the null cone")
    zeta = z / r[..., None]
    # the phase as a real quotient, rounded as Python's complex division
    w = np.exp(1j * ((2 * np.pi * np.log(r)) / np.log(model.lam)))
    return zeta, w


def hopf_diffeo_inv(model: HopfModel, zeta, w) -> np.ndarray:
    """Orbit representative lambda^(arg(w)/2pi) zeta, arg in [0, 2pi), per
    point of a stack."""
    zeta = np.asarray(zeta, dtype=complex)
    arg = np.angle(w) % (2.0 * np.pi)
    return np.float_power(model.lam, arg / (2.0 * np.pi))[..., None] * zeta


def torus_pullback_isometry_residual(model: HopfModel, t, z, lck: LCKStructure):
    """Max component difference between the metric and its pullback under
    the torus translation z -> exp(t) z, per point of a stack with one t
    per point.  lck is hopf_chart(model)."""
    z = np.asarray(z, dtype=complex)
    e = np.exp(np.asarray(t, dtype=complex))[..., None]
    zt = e * z
    _require_domain(lck.chart, zt)
    H, Ht = lck.chart.hermitian(np.stack(np.broadcast_arrays(z, zt)))
    pullback = Ht * e[..., None] * np.conj(e)[..., None]
    return np.abs(pullback - H).max(axis=(-2, -1))


def fibration_split(model: HopfModel, z,
                    lck: LCKStructure) -> tuple[np.ndarray, np.ndarray]:
    """Row bases of the vertical span{A, B} and of its orthogonal
    complement at a pseudosphere point (b(z,z) = 1), or stacked over a
    stack of them.  lck is hopf_chart(model)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(model.b(z) - 1.0) > FIBRATION_SPHERE_TOL):
        raise ValueError("point must satisfy b(z, z) = 1")
    data = lee_data(lck, z)
    form = data.form
    V0 = independent_rows(form, np.stack([data.A_real, data.B_real], axis=-2))
    _, _, null = signature_of(form, V0)
    if np.any(null):
        raise ValueError("vertical space is degenerate")
    H0 = orthogonal_complement(form, V0)
    return V0, H0


def submersion_isometry_residual(model: HopfModel, z, u: np.ndarray,
                                 v: np.ndarray, lck: LCKStructure):
    """Fibre-invariance of horizontal Gram entries, per point of a stack,
    with one u and v per point.

    Transports u, v by the differential of the torus flows z -> e^t z and
    z -> e^{it} z (whose orbit tangents span the vertical space) and
    returns the larger |d/dt g(u_t, v_t)| at t = 0 by central differences,
    all eight flowed points in one metric evaluation.  Inputs are frame
    components and must be real (real_coords refuses others) and
    horizontal: orthogonal to both A and B.  lck is hopf_chart(model).
    """
    z = np.asarray(z, dtype=complex)
    real_coords(u), real_coords(v)   # each refuses a vector that is not real
    data = lee_data(lck, z)
    g = [_g(data.H, a, b).real for a in (u, v) for b in (data.A, data.B)]
    scale = np.maximum(1.0, _norms(u) * _norms(v))
    if np.any(np.max(np.abs(g), axis=0) > HORIZONTAL_TOL * scale):
        raise ValueError("inputs are not horizontal at z")
    # flow factors exp(t d) for d = 1, i (rows) and t in _steps (columns),
    # each rounded as a Python scalar
    fac = np.array([[np.exp(t * d) for t in _steps(FLOW_STEP)] for d in (1.0 + 0j, 1j)])
    fac = fac.reshape(fac.shape + (1,) * z.ndim)
    n = model.n
    ut, vt = (np.concatenate([fac * w[..., :n], np.conj(fac) * w[..., n:]], axis=-1)
              for w in (u, v))
    gram = _g(lck.chart.hermitian(fac * z), ut, vt).real
    return np.abs(_richardson(np.moveaxis(gram, 1, 0), FLOW_STEP)).max(axis=0)


def retraction(model: HopfModel, t, z) -> np.ndarray:
    """Block retraction F_t(z) = ((1-t) z', z'') on the positive region, per
    point of a stack with one t per point or one for all."""
    z = np.asarray(z, dtype=complex)
    if np.any(model.b(z) <= 0.0):
        raise ChartDomainError("retraction is defined on the positive region only")
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError("need 0 <= t <= 1")
    out = z.copy()
    out[..., :model.s] = (1.0 - t)[..., None] * out[..., :model.s]
    return out


def cayley(s: int, r: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, residual): the Cayley transform (z', z_n) -> (z'/(r+z_n),
    i(r-z_n)/(r+z_n)) per point of a stack, and its defining residual
    Im(zeta_n) - sum_{a<n} eps_a |zeta_a|^2 (one per point).

    For z on the pseudosphere b(z,z) = r^2 the image lies on the boundary
    of the Siegel domain: Im(zeta_n) = sum eps_a |zeta_a|^2.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    denom = r + z[..., -1]
    if np.any(np.abs(denom) <= CAYLEY_POLE_TOL):
        raise ZeroDivisionError("Cayley pole: z_n + r = 0")
    zeta = np.empty(z.shape, dtype=complex)
    zeta[..., :-1] = z[..., :-1] / denom[..., None]
    zeta[..., -1] = 1j * (r - z[..., -1]) / denom
    eps = eps_signs(n, s)[:-1]
    residual = zeta[..., -1].imag - np.sum(eps * np.abs(zeta[..., :-1]) ** 2, axis=-1)
    return zeta, residual


def gab_invariance_residual(alpha, beta, w, z, lck: LCKStructure):
    """Pullback residual of the family metric under F_0(w, z) = (alpha w, beta z),
    per point of a stack z (m, n) with one alpha, beta and w per point.
    lck is tricerri_chart(n, s).

    Requires alpha |beta|^2 = 1, the relation that makes the metric
    invariant under the generated group.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=complex)
    if np.any(np.abs(alpha * np.hypot(beta.real, beta.imag) ** 2 - 1.0) > 1e-12):
        raise ValueError("invariance requires alpha |beta|^2 = 1")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)[..., None]
    p = np.concatenate([w, z], axis=-1)
    _require_domain(lck.chart, p)   # Im(w) > 0
    pt = np.concatenate([alpha[..., None] * w, beta[..., None] * z], axis=-1)
    H = lck.chart.hermitian(p)
    Ht = lck.chart.hermitian(pt)
    jac = np.concatenate([alpha[..., None], np.broadcast_to(beta[..., None], z.shape)],
                         axis=-1).astype(complex)
    pullback = Ht * (jac[..., :, None] * jac.conj()[..., None, :])
    return np.abs(pullback - H).max(axis=(-2, -1))
