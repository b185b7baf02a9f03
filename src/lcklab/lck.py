"""Locally conformal Kahler apparatus over a metric chart.

Bundles a chart with its Lee form and derives the pointwise data the
foliation and CR layers consume: Lee field B (metric dual of the Lee
form), anti-Lee field A = -JB, anti-Lee form theta = omega o J and the
causal character c = g(B, B).  Also implements the Weyl connection
shift, the closed-form identity for (nabla_X J)Y, which reads the Kahler
2-form Omega(X, Y) = g(X, JY) from charts.kahler_form, and the
parallelism residual of the Lee form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .charts import (
    MetricChart,
    _bilinear,
    _first_fault,
    _g,
    _lower,
    _max_abs,
    _norms,
    _real_gram,
    _solve_gram,
    apply_j,
    christoffel,
    covariant_derivative,
    kahler_form,
    real_coords,
    real_vector,
    wirtinger_derivative,
)
from .semieuclid import SemiEuclideanForm

__all__ = ["LCKStructure", "LeeData", "SingularLeeError", "lee_data", "weyl_connection",
           "nabla_J_defect", "parallel_lee_residual", "lee_form_components"]

SINGULAR_LEE_TOL = 1e-8  # Euclidean threshold below which B counts as singular
NULL_C_TOL = 1e-10  # |c| below this (times scale) counts as a null Lee field


class SingularLeeError(ValueError):
    """Lee field vanishes at the point; foliations are undefined there."""


@dataclass(frozen=True)
class LCKStructure:
    """Chart plus Lee form; the complex structure acts as J Z_j = i Z_j.

    lee_form_eval(z) returns the n holomorphic components (omega(Z_j))_j;
    the antiholomorphic components are their conjugates since omega is a
    real 1-form.  conformal_factor_eval, when present, is a local f with
    omega = df.  Both take a stack of points, shape (..., n), and return
    one value per point (see the charts module docstring).
    """

    chart: MetricChart
    lee_form_eval: Callable[[np.ndarray], np.ndarray]
    conformal_factor_eval: Optional[Callable[[np.ndarray], float]] = None
    # lee_data memo: (shape, bytes) of a point or stack -> read-only LeeData
    _lee_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def lee_hol(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.lee_form_eval(np.asarray(z, dtype=complex)), dtype=complex)


def lee_form_components(lck: LCKStructure, z: np.ndarray) -> np.ndarray:
    """Full 2n frame components (omega(Z_A))_A of the Lee form."""
    return real_vector(lck.lee_hol(z))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LeeData:
    """Pointwise Lee apparatus at each point of a stack z (..., n): every
    member carries the stack's axes first.

    The metric is H: charts._g pairs and charts._lower lowers through it.
    The cached members hold B and A in real interleaved coordinates, the
    real Gram, omega as a real covector and the null test of c;
    each is derived from H when first asked for, then kept, as is `form`,
    the validated real form (a stacked form for a stack).
    """

    point: np.ndarray
    B: np.ndarray       # frame components of the Lee field
    A: np.ndarray       # frame components of the anti-Lee field
    omega: np.ndarray   # frame components of the Lee form
    theta: np.ndarray   # frame components of the anti-Lee form
    c: np.ndarray       # g(B, B), per point
    H: np.ndarray       # metric components g_{j kbar}, as MetricChart.hermitian
    s: int              # the chart's s: the real form has index 2s

    @cached_property
    def real_gram(self) -> np.ndarray:
        return _read_only(_real_gram(self.H))

    @cached_property
    def B_real(self) -> np.ndarray:
        return _read_only(real_coords(self.B))

    @cached_property
    def A_real(self) -> np.ndarray:
        return _read_only(real_coords(self.A))

    @cached_property
    def omega_real(self) -> np.ndarray:
        return _read_only(np.matvec(self.real_gram, self.B_real))

    @cached_property
    def non_null(self) -> np.ndarray:
        return _non_null(self.c, self.B_real)

    @cached_property
    def form(self) -> SemiEuclideanForm:
        """The validated SemiEuclideanForm of the point, built from H as
        MetricChart.real_form(point) builds it."""
        return SemiEuclideanForm(dim=self.real_gram.shape[-1], index=2 * self.s,
                                 gram=self.real_gram)


def _non_null(c: np.ndarray, Breal: np.ndarray) -> np.ndarray:
    """c = g(B, B) is nonzero relative to the Euclidean size max(1, |B|^2)
    of the Lee field B in real interleaved coordinates (per point)."""
    return np.abs(c) > NULL_C_TOL * np.maximum(1.0, np.vecdot(Breal, Breal))


def _nonsingular(data: LeeData) -> LeeData:
    """data, unless its Lee field vanishes at the point, or at a point of
    the stack (SingularLeeError, naming the first such point)."""
    bad = _first_fault(_norms(data.B) >= SINGULAR_LEE_TOL)
    if bad is not None:
        raise SingularLeeError(f"Lee field vanishes at {data.point[bad]}")
    return data


def lee_data(lck: LCKStructure, z: np.ndarray) -> LeeData:
    """Raise the Lee form and assemble A, theta and c at every point of a
    stack z (..., n), a point (n,) being a stack with no leading axes.

    Memoized on the structure, one entry per distinct point or stack,
    keyed by its shape and bytes: the derivatives taken at one base point
    share one finite-difference stencil, so they share one stacked
    evaluation.  Per point, a stack's rows equal what a single-point call
    returns.  The returned arrays are read-only and `point` is a copy of
    z, so a cached result cannot alias or be changed by any caller.  A
    point or stack with a singular Gram matrix raises SingularMetricError
    on every call.
    """
    z = np.asarray(z, dtype=complex)
    key = (z.shape, z.tobytes())
    cached = lck._lee_cache.get(key)
    if cached is not None:
        return cached
    omega = lee_form_components(lck, z)
    H = lck.chart.hermitian(z)
    B = _solve_gram(H, omega[..., None], z)[..., 0]
    A = -1.0 * apply_j(B)                 # A = -J B
    theta = _lower(H, A)                  # theta(X) = g(X, A)
    c = np.vecdot(omega.conj(), B).real   # omega(B), unconjugated
    data = LeeData(point=z.copy(), B=B, A=A, omega=omega, theta=theta, c=c,
                   H=H.view(),  # a view: a chart's constant H stays writable
                   s=lck.chart.s)
    for arr in (data.point, B, A, omega, theta, data.H, np.asarray(c)):
        arr.setflags(write=False)
    lck._lee_cache[key] = data
    return data


def _applied(form: np.ndarray, v: np.ndarray) -> np.ndarray:
    """form(v) from frame components, per point, shaped to scale vectors."""
    return np.vecdot(form.conj(), v)[..., None]   # form @ v


def weyl_connection(lck: LCKStructure, X, Y, z: np.ndarray,
                    gamma: np.ndarray | None = None) -> np.ndarray:
    """D_X Y = nabla_X Y - (1/2){omega(X) Y + omega(Y) X - g(X,Y) B} on the
    vectors X and Y (arrays), at a point or at each point of a stack;
    gamma, when given, is christoffel(lck.chart, z)."""
    z = np.asarray(z, dtype=complex)
    base = covariant_derivative(christoffel(lck.chart, z) if gamma is None else gamma, X, Y)
    data = lee_data(lck, z)
    gXY = _g(data.H, X, Y)[..., None]
    shift = _applied(data.omega, X) * Y + _applied(data.omega, Y) * X - gXY * data.B
    return base - 0.5 * shift


def nabla_J_defect(lck: LCKStructure, X, Y, z: np.ndarray) -> np.ndarray:
    """Defect of the closed-form expression for (nabla_X J) Y on the
    vectors X and Y (arrays), at a point or at each point of a stack.

    Returns (nabla_X(JY) - J nabla_X Y)
      - (1/2){theta(Y) X - omega(Y) JX - g(X,Y) A - Omega(X,Y) B};
    the residual vanishes on any l.c.K. chart.
    """
    z = np.asarray(z, dtype=complex)
    gamma = christoffel(lck.chart, z)
    lhs = covariant_derivative(gamma, X, apply_j(Y)) - apply_j(covariant_derivative(gamma, X, Y))
    data = lee_data(lck, z)
    gXY = _g(data.H, X, Y)[..., None]
    OmXY = _bilinear(X, kahler_form(data.H), Y)[..., None]
    rhs = 0.5 * (_applied(data.theta, Y) * X - _applied(data.omega, Y) * apply_j(X)
                 - gXY * data.A - OmXY * data.B)
    return lhs - rhs


def parallel_lee_residual(lck: LCKStructure, z: np.ndarray):
    """max_{A,B} |(nabla_{Z_A} omega)(Z_B)| over the coordinate frame, per
    point of a stack.

    (nabla_X omega)(Y) = X(omega(Y)) - omega(nabla_X Y); for frame fields
    the second term contracts the connection coefficients with omega.  The
    derivative's stencil must stay on the chart's domain.
    """
    z = np.asarray(z, dtype=complex)
    gamma = christoffel(lck.chart, z)
    d_dz, d_dzb = wirtinger_derivative(lambda p: lee_form_components(lck, p), z,
                                       chart=lck.chart)
    grad = np.concatenate([d_dz, d_dzb], axis=-2)   # grad[A, B] = Z_A(omega_B)
    omega = lee_form_components(lck, z)
    contracted = np.einsum("...cab,...c->...ab", gamma, omega)
    return _max_abs(grad - contracted, 2)
