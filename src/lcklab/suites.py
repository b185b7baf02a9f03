"""Named verification suites mapping onto the numbered statements.

Each suite draws its own sample from a per-point random generator seeded
by (seed, suite name, point index) and returns one scalar residual, so
a point's sample does not depend on which other points or suites ran,
nor on where the suite sits in the registry.  run_config seeds every
point generator of the run in one pass (sampling.point_states): the
PCG64 seed words of numpy's SeedSequence of entropy seed and spawn key
(first 8 bytes of the SHA-256 of the suite name, point index), bit for
bit, and _run_suite builds a point's generator from its words when the
run reaches that point.
Direction "le" means the aggregated maximum must stay below tolerance;
"ge" marks witness suites whose aggregated minimum must exceed the
threshold (e.g. exhibiting a nonparallel Lee form).

One home per model: MODELS maps a model's name to its builder, whose
ValueError is its range check, its (key, point) draw, the key and
structure of a stack of its draws, and its chart dimension; no other
code branches on a model's name.
Draw, then check: every suite has one contract.  Every point is drawn
first, draw(cfg, rng), which consumes that point's generator in a fixed
order, or nothing at all, and evaluates nothing, then check(cfg, draws)
returns the residuals of all draws in draw order; Suite.point_fn runs
once per point and checks at the last one.  The chart, quotient, leaf
and Tricerri suites evaluate all their draws as one (m, n) stack
through the stack-native layers with one structure per check.  A Hopf draw holds
its region and the variates of its point (sampling.hopf_variates), and
the model's stack maps them to points in one sample_hopf or
sample_pseudosphere call.  A Hopf stack may mix the two regions: its
chart carries each point's region, so point i and its stencil stay on
region i's component.  The foliation suites run on
Hopf and Tricerri only, where c = +-4 or 1 is never null, so even a
stack mixing regions never mixes Lee branches (the foliation layer
would refuse one that did).  A synthetic-null draw, like
levi-signature's, consumes nothing: it holds the point's seed
(rng.bit_generator.seed_seq).  The check rebuilds every point's
generator from its seed, so a rerun of the same draws sees the same
numbers, samples the Lee vectors on the stack (only rejected rows draw
again), builds one stacked configuration (m, 2n) for all draws, whose
screen splits are built on first read (prop4-null-leaf reads none),
then draws the rest of every point with one stacked sampler call per
quantity (row i from point i's generator; eq5's scale and shift per
point), in the order a point-by-point run did, and evaluates the stack.
levi-signature checks a constant of (n, s).
Stacked rows carry single-point bits, so checking all draws equals
checking each alone.  A batched check that meets a point fault is rerun
one draw at a time, so the error names the first failing point.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import cr as crmod
from . import foliations as fol
from .charts import (
    _along, _field_derivatives, _g, _lower, _max_abs, _require_domain,
    apply_j, christoffel, covariant_derivative, hol_from_real_coords, koszul_christoffel,
    real_vector,
)
from .lck import lee_data, nabla_J_defect, parallel_lee_residual, weyl_connection
from .models import (
    HopfModel, cayley, deck_equivalent, eps_signs, fibration_split,
    flat_chart, gab_invariance_residual, hopf_chart, hopf_diffeo,
    hopf_diffeo_inv, retraction, submersion_isometry_residual,
    synthetic_null_structure, torus_pullback_isometry_residual, tricerri_chart,
)
from .report import SCHEMA, RunConfig, SuiteResult, VerificationReport
from .sampling import (
    MAX_POINTS, _complex_normal, _Words, hopf_variates, point_states, sample_complement_vector,
    sample_flat, sample_frame_change, sample_hopf, sample_null_config, sample_null_lee_vector,
    sample_pair_frame, sample_pseudosphere, sample_tricerri, sample_unit_circle,
)
from .semieuclid import (
    contains_span, independent_rows, inner, restricted_gram, same_span, signature_of,
)

__all__ = ["MODELS", "SUITES", "Suite", "suites_for", "run_config", "UsageError"]


class UsageError(ValueError):
    """Invalid configuration or suite selection."""


# Domain and numerical faults of a point, recorded as an "error" verdict:
# ChartDomainError, SingularLeeError and SingularMetricError (a LinAlgError)
# are ValueErrors, ZeroDivisionError is an ArithmeticError.  Anything else,
# a TypeError, AttributeError, NameError or IndexError, is a programming
# error and ends the run.
_POINT_FAULTS = (ValueError, ArithmeticError, RuntimeError)


@dataclass(frozen=True)
class Suite:
    """A named check: draw(cfg, rng) samples one point (a synthetic-null
    draw, like levi-signature's, consumes nothing), check(cfg, draws)
    returns the residuals of a list of draws in draw order, and point_fn,
    called once per point of a run, draws that point and, at the run's
    last point, checks them all."""

    name: str
    anchor: str
    models: frozenset
    tolerance: Callable[[RunConfig], float]
    draw: Callable[[RunConfig, np.random.Generator], object]
    check: Callable[[RunConfig, list], Sequence[float]]
    direction: str = "le"
    min_n: int = 1   # each model's own floor is its MODELS build

    def applicable(self, cfg: RunConfig) -> bool:
        return cfg.model in self.models and cfg.n >= self.min_n

    def point_fn(self, cfg: RunConfig, rng: np.random.Generator, drawn: list):
        """Draw one point from rng onto drawn, the run's earlier draws.  The
        call that draws the run's last point checks every draw at once and
        returns their residuals in draw order; earlier calls return None.
        A point fault while drawing is raised after the earlier draws are
        checked, so the first failing point in draw order raises; any
        other exception propagates at once."""
        try:
            drawn.append(self.draw(cfg, rng))
        except _POINT_FAULTS:
            if drawn:
                self._checked(cfg, drawn)
            raise
        return self._checked(cfg, drawn) if len(drawn) == cfg.points else None

    def _checked(self, cfg: RunConfig, draws: list) -> list:
        try:
            return list(self.check(cfg, draws))
        except _POINT_FAULTS:
            if len(draws) < 2:
                raise
            # one point at a time: the first failing point in draw order raises
            return [r for d in draws for r in self.check(cfg, [d])]


def _hopf_sample(cfg: RunConfig, rng) -> tuple[str, np.ndarray]:
    """A Hopf region drawn with even odds and the variates of a point in
    it, which the check maps (see _stacked)."""
    region = "+" if rng.uniform() < 0.5 else "-"
    return region, hopf_variates(cfg.n, rng)


def _draw_positive(cfg, rng):
    """The variates of a point of Hopf region "+", or of the pseudosphere
    when the check maps them there (see _stacked)."""
    return "+", hopf_variates(cfg.n, rng)


def _hopf_stack(model: HopfModel, keys, columns: list, points):
    """The model as key and its chart with each draw's region; maps the
    variates columns[0] to points as `points` says (see _stacked)."""
    if points == "hopf":
        columns[0] = sample_hopf(model, columns[0], keys)
    elif points == "pseudosphere":
        columns[0] = sample_pseudosphere(model.n, model.s, columns[0])
    return model, hopf_chart(model, regions=keys)


class _Model(NamedTuple):
    build: Callable   # (n, s, lam) -> the model; its ValueError is the range check
    draw: Callable | None    # (cfg, rng) -> (key, point)
    stack: Callable | None   # (built, keys, columns, points) -> (key, structure)
    dim: Callable[[int], int]   # chart dimension


def _one_structure(lck, keys, columns, points):
    return None, lck


MODELS = {
    "hopf": _Model(HopfModel, _hopf_sample, _hopf_stack, lambda n: n),
    "flat": _Model(lambda n, s, lam: flat_chart(n, s),
                   lambda cfg, rng: (None, sample_flat(cfg.n, rng)), _one_structure, lambda n: n),
    "tricerri": _Model(lambda n, s, lam: tricerri_chart(n, s),
                       lambda cfg, rng: (None, sample_tricerri(cfg.n, rng)), _one_structure,
                       lambda n: n + 1),
    "synthetic-null": _Model(lambda n, s, lam: synthetic_null_structure(n, s), None, None,
                             lambda n: n),
}


def _chart_draw(cfg: RunConfig, rng) -> tuple:
    """The model's (structure key, point) draw."""
    return MODELS[cfg.model].draw(cfg, rng)


def _stacked(evaluate, points="hopf"):
    """A check of draws (key, z, *extras) that evaluates all of them as one
    stack: evaluate(key, lck, Z, *extras) gets the key and the one
    structure that the model's stack returns, the points stacked into Z
    (m, n) and each extra stacked alike, and returns the m residuals in
    draw order.  A Tricerri or flat draw's key is None and z its point.  A
    Hopf draw's key is its region and z its variates, mapped to Z by one
    sample_hopf call, or one sample_pseudosphere call with points
    "pseudosphere"; with points None, z is passed on as drawn.  The Hopf
    key passed on is the model: a check that reads each point's region
    checks the chart domain, then reads the region's sign as key.a(Z)."""
    def check(cfg: RunConfig, draws: list) -> list:
        keys, *columns = zip(*draws)
        columns = [np.stack(c) for c in columns]
        build, _, stack, _ = MODELS[cfg.model]
        key, lck = stack(build(cfg.n, cfg.s, cfg.lam), keys, columns, points)
        return [float(r) for r in evaluate(key, lck, *columns)]
    return check


# ---------------------------------------------------------------------------
# point functions: batched draws and checks
# ---------------------------------------------------------------------------

def _draw_thm1(cfg, rng):
    region, z = _chart_draw(cfg, rng)
    return region, z, rng.standard_normal((2, 2 * cfg.n - 1))   # tangent: ker omega


def _draw_vectors(count: int):
    """Draw a chart point, then `count` random real vectors (their
    holomorphic components, complex normal), in that order."""
    def draw(cfg, rng):
        key, z = _chart_draw(cfg, rng)
        n = MODELS[cfg.model].dim(cfg.n)
        return (key, z) + tuple(_complex_normal(rng, n) for _ in range(count))
    return draw


def _draw_connection(cfg, rng):
    key, z, X, Y, W = _draw_vectors(3)(cfg, rng)
    n = len(X)   # the chart dimension
    M1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return key, z, X, Y, W, M1, M2


def _check_christoffel_oracle(key, lck, Z):
    gamma = christoffel(lck.chart, Z)
    axes = (-3, -2, -1)
    scale = np.maximum(1.0, np.abs(gamma).max(axis=axes))
    return np.abs(gamma - koszul_christoffel(lck.chart, Z)).max(axis=axes) / scale


def _check_prop1_lee(key, lck, Z):
    _require_domain(lck.chart, Z)
    data = lee_data(lck, Z)
    a = key.a(Z)
    expect_hol = (-2.0 * a)[:, None] * Z
    resid = np.maximum(np.abs(data.c - 4.0 * a),
                       np.abs(data.B[:, :Z.shape[-1]] - expect_hol).max(axis=-1))
    # raising round trip: lowering B reproduces omega
    lowered = _lower(data.H, data.B)
    resid = np.maximum(resid, np.abs(lowered - data.omega).max(axis=-1))
    # theta/omega identities
    thB = np.vecdot(data.theta.conj(), data.B)
    thA_c = np.vecdot(data.theta.conj(), data.A) - data.c
    resid = np.maximum(resid, np.hypot(thB.real, thB.imag))   # abs() of a Python complex
    return np.maximum(resid, np.hypot(thA_c.real, thA_c.imag))


def _check_parallel_lee(key, lck, Z):
    return parallel_lee_residual(lck, Z)


def _check_thm1_geodesic(key, lck, Z, coeffs):
    fib = fol.first_foliation_fibre(lck, Z)
    basisT = fib.tangent.swapaxes(-1, -2)
    X = np.matvec(basisT, coeffs[:, 0])          # coeffs[0] @ basis, per point
    Y = np.matvec(basisT, coeffs[:, 1])
    h, h_symmetry = fol.gauss_weingarten(lck, fib, X, Y)
    return np.maximum(np.abs(h).max(axis=-1), h_symmetry)


def _check_eq1_signature(model, lck, Z):
    _require_domain(lck.chart, Z)
    fib = fol.first_foliation_fibre(lck, Z)
    _, index, null = signature_of(fib.form, fib.tangent)
    s = lck.chart.s
    expect = np.where(model.a(Z) > 0, 2 * s, 2 * s - 1)
    return np.abs(index - expect) + null


def _check_thm4_integrability(key, lck, Z):
    return fol.integrability_residual(lck, Z)


def _check_thm4_plane_gram(key, lck, Z):
    _require_domain(lck.chart, Z)
    fib = fol.second_foliation_fibre(lck, Z)
    expect = fib.c[:, None, None] * np.eye(2)
    return np.abs(restricted_gram(fib.form, fib.tangent) - expect).max(axis=(-2, -1))


def _check_thm4_hp(key, lck, Z):
    return np.maximum(*fol.h_P_residual(lck, Z))


def _check_eq20_nabla_j(key, lck, Z, X, Y):
    return np.abs(nabla_J_defect(lck, real_vector(X), real_vector(Y), Z)).max(axis=-1)


def _check_weyl_dj(key, lck, Z, X, Y):
    X, Yv = real_vector(X), real_vector(Y)
    gamma = christoffel(lck.chart, Z)
    DJY = weyl_connection(lck, X, apply_j(Yv), Z, gamma=gamma)
    JDY = apply_j(weyl_connection(lck, X, Yv, Z, gamma=gamma))
    return np.abs(DJY - JDY).max(axis=-1)


def _check_connection_identities(key, lck, Z, X, Y, W, M1, M2):
    chart = lck.chart
    X, Y, W = real_vector(X), real_vector(Y), real_vector(W)
    gamma = christoffel(chart, Z)
    # symmetry in B, C, and conjugation: swapping the holomorphic and
    # antiholomorphic slots of all three indices conjugates Gamma
    n = chart.n
    sw = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    flipped = gamma[..., sw, :, :][..., sw, :][..., sw].conj()
    resid = np.maximum(_max_abs(gamma - gamma.swapaxes(-1, -2), 3), _max_abs(gamma - flipped, 3))
    # metric compatibility X(g(Y, W)) = g(nabla_X Y, W) + g(Y, nabla_X W),
    # g(Y, W) differentiated on one stencil with the torsion's linear
    # (z-dependent) fields F1 and F2
    F1 = lambda p: real_vector(np.matvec(M1, p))
    F2 = lambda p: real_vector(np.matvec(M2, p))
    dG, dF1, dF2 = _field_derivatives(
        [lambda p: _g(chart.hermitian(p), Y, W)[..., None], F1, F2], Z, chart=chart)
    df = np.concatenate([dG[0][..., 0], dG[1][..., 0]], axis=-1)
    lhs = np.vecdot(df.conj(), X)
    nXY = covariant_derivative(gamma, X, Y)
    nXW = covariant_derivative(gamma, X, W)
    H = chart.hermitian(Z)
    rhs = _g(H, nXY, W) + _g(H, Y, nXW)
    diff = lhs - rhs
    resid = np.maximum(resid, np.hypot(diff.real, diff.imag))   # abs() of a Python complex
    # torsion on F1 and F2
    F1v, F2v = F1(Z), F2(Z)
    bracket = _along(F1v, dF2) - _along(F2v, dF1)
    tors = covariant_derivative(gamma, F1v, F2v, dF2) \
        - covariant_derivative(gamma, F2v, F1v, dF1) - bracket
    return np.maximum(resid, np.abs(tors).max(axis=-1))


def _draw_submersion(cfg, rng):
    return (*_draw_positive(cfg, rng),
            rng.standard_normal((2, 2 * cfg.n - 2)))   # horizontal coefficients


def _draw_eq18(cfg, rng):
    return "+", (0.9 + 0.6 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def _draw_cr_tangential(cfg, rng):
    return (*_draw_positive(cfg, rng), _complex_normal(rng, cfg.n))


def _check_eq18_mean_curvature(model, lck, U):
    """The law on the complex lines u -> (c, ..., c, u) with c = c0 (the
    offset line) and c = 0 (the line through 0), through the points of U,
    both lines as one (2, m, n) stack."""
    n = model.n
    jac = np.zeros((n, 1), dtype=complex)
    jac[-1, 0] = 1.0
    c0 = 0.3 / math.sqrt(model.s)   # negative-block mass 0.09 < |u|^2 for every s
    lines = np.zeros((2, len(U), n), dtype=complex)
    lines[0, :, :-1] = c0
    lines[:, :, -1] = U
    eq_resid, mean = fol.complex_submanifold_mean_curvature(lck, lines, jac)
    return np.maximum(np.maximum(eq_resid[0], mean[0]), mean[1])


def _check_submersion(model, lck, Z, coeffs):
    _, H0 = fibration_split(model, Z, lck)
    u, v = (real_vector(hol_from_real_coords(np.vecmat(coeffs[:, i], H0))) for i in (0, 1))
    return submersion_isometry_residual(model, Z, u, v, lck)


def _check_fibration_split(model, lck, Z):
    V0, H0 = fibration_split(model, Z, lck)
    form = lee_data(lck, Z).form
    resid = np.abs(restricted_gram(form, V0) - 4.0 * np.eye(2)).max(axis=(-2, -1))
    if V0.shape[-2] + H0.shape[-2] != 2 * model.n:
        resid = np.maximum(resid, 1.0)
    pos, neg, null = signature_of(form, H0)
    n, s = model.n, model.s
    ok = (pos == 2 * (n - s) - 2) & (neg == 2 * s) & (null == 0)
    return np.maximum(resid, np.where(ok, 0.0, 1.0))


def _check_levi_hopf(model, lck, Z):
    L = crmod.levi_form(lck, Z, crmod.cr_fibre(lck, Z).swapaxes(-1, -2))
    return np.abs(np.diagonal(L, axis1=-2, axis2=-1)).max(axis=-1)


def _check_cr_tangential(model, lck, Z, coeffs):
    """A holomorphic function and |b(z, z)|, constant on the leaves, both
    differentiated on one stencil."""
    eps = eps_signs(model.n, model.s)

    def holo_and_leaf_constant(p):
        return np.stack([np.prod(p, axis=-1) + np.vecdot(coeffs.conj(), p),
                         np.abs(np.sum(eps * np.abs(p) ** 2, axis=-1))], axis=-1)

    return crmod.tangential_cr_residual(lck, Z, holo_and_leaf_constant)


# ---------------------------------------------------------------------------
# point functions: the synthetic-null suites
# ---------------------------------------------------------------------------

def _draw_null(cfg, rng):
    """The point's seed: its check replays the generator from it."""
    return rng.bit_generator.seed_seq


def _null_stacked(evaluate):
    """A check of _draw_null draws.  It rebuilds every point's generator
    from its seed, so a rerun of the same draws sees the same numbers,
    samples the Lee vectors on the stack (only rejected rows redraw) and
    builds one configuration c of them.  evaluate(c, rngs) draws the rest
    of every point on the stack, row i from rngs[i], in the order a
    point-by-point run did, and returns the m residuals; c builds a
    screen split only if one is read."""
    def check(cfg: RunConfig, draws: list) -> list:
        rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in draws]
        c = sample_null_config(cfg.n, cfg.s, sample_null_lee_vector(cfg.n, cfg.s, rngs))
        return [float(r) for r in evaluate(c, rngs)]
    return check


def _transversal(c, V):
    return fol.lightlike_transversal(c.form, c.omega, c.B, c.first_screen, V)


def _isotropic_pair(c, V1, V2):
    return fol.isotropic_transversal_pair(c.form, c.omega, c.theta, c.A, c.B, c.screen, V1, V2)


def _off_screen(screen: np.ndarray, form, V):
    """max |g(e, V)| over the screen's basis rows e, per point."""
    return np.abs(np.matvec(screen @ form.gram, V)).max(axis=-1, initial=0.0)


def _complement(c, rngs):
    return sample_complement_vector(c.first_screen_perp, c.omega, rngs)


def _pair_frame(c, rngs):
    return sample_pair_frame(c.screen_perp_basis, c.omega, c.theta, rngs)


def _check_eq8_transversal(c, rngs):
    N = _transversal(c, _complement(c, rngs))
    resid = np.maximum(np.abs(inner(c.form, N, N)), np.abs(np.vecdot(c.omega, N) - 1.0))
    # Lee line and transversal line span the screen orthocomplement
    return np.maximum(resid, _off_screen(c.first_screen, c.form, N))


def _check_eq5_invariance(c, rngs):
    V, V2 = _complement(c, rngs), _complement(c, rngs)
    scale = np.array([r.uniform(0.2, 5.0) * (1.0 if r.uniform() < 0.5 else -1.0) for r in rngs])
    shift = np.array([r.standard_normal() for r in rngs])
    N = _transversal(c, V)
    resid = np.abs(N - _transversal(c, scale[:, None] * V)).max(axis=-1)
    resid = np.maximum(resid, np.abs(N - _transversal(c, V + shift[:, None] * c.B)).max(axis=-1))
    return np.maximum(resid, np.abs(N - _transversal(c, V2)).max(axis=-1))


def _check_lemma6_pair(c, rngs):
    N1, N2 = _isotropic_pair(c, *_pair_frame(c, rngs))
    resid = np.abs(np.vecdot(c.theta, N1) - 1.0)
    resid = np.maximum(resid, np.abs(np.vecdot(c.omega, N2) - 1.0))
    resid = np.maximum(resid, np.abs(np.vecdot(c.theta, N2)))
    resid = np.maximum(resid, np.abs(np.vecdot(c.omega, N1)))
    for u in (N1, N2):
        for v in (N1, N2):
            resid = np.maximum(resid, np.abs(inner(c.form, u, v)))
    cross = c.screen @ c.form.gram @ np.stack([N1, N2], axis=-2).swapaxes(-1, -2)
    return np.maximum(resid, np.abs(cross).max(axis=(-2, -1), initial=0.0))


def _check_lemma6_invariance(c, rngs):
    V1, V2 = _pair_frame(c, rngs)
    f = sample_frame_change(rngs)
    N1, N2 = _isotropic_pair(c, V1, V2)
    M1, M2 = _isotropic_pair(c, f[:, 0, 0, None] * V1 + f[:, 0, 1, None] * V2,
                             f[:, 1, 0, None] * V1 + f[:, 1, 1, None] * V2)
    return np.maximum(np.abs(N1 - M1).max(axis=-1), np.abs(N2 - M2).max(axis=-1))


def _check_screen_splits(c, rngs):
    """Dimension and orthogonality bookkeeping of the null splittings."""
    V = _complement(c, rngs)
    frame = _pair_frame(c, rngs) if c.n >= 3 else ()
    form, screen = c.form, c.first_screen
    resid = np.full(len(V), 0.0 if screen.shape[-2] == 2 * c.n - 2 else 1.0)
    # screen orthogonal to the radical (the Lee line)
    resid = np.maximum(resid, _off_screen(screen, form, c.B))
    # span{B} + span{N_V} is the screen orthocomplement and meets trivially
    N = _transversal(c, V)
    pairsp = independent_rows(form, np.stack([c.B, N], axis=-2))
    full = independent_rows(form, np.concatenate([screen, pairsp], axis=-2))
    resid = np.maximum(resid, 0.0 if (pairsp.shape[-2], full.shape[-2]) == (2, 2 * c.n) else 1.0)
    if c.n >= 3:
        # S(P-perp)-perp has rank 4 and contains the plane
        resid = np.maximum(resid, 0.0 if c.screen_perp_basis.shape[-2] == 4 else 1.0)
        sperp = c.screen_perp_basis
        resid = np.maximum(resid, np.where(contains_span(sperp, c.plane, 1e-9), 0.0, 1.0))
        rebuilt = independent_rows(
            form, np.stack([c.A, c.B, *_isotropic_pair(c, *frame)], axis=-2))
        resid = np.maximum(resid, np.where(same_span(rebuilt, sperp, 1e-8), 0.0, 1.0))
    return resid


def _check_prop4_null(c, _):
    """Proposition 4 on the flat chart with each point's Lee covector,
    evaluated at the origin of every point of the stack."""
    lck = synthetic_null_structure(c.n, c.s, B_hol=hol_from_real_coords(c.B))
    z = np.zeros((len(c.B), c.n), dtype=complex)
    data = lee_data(lck, z)
    Z = data.B[:, :c.n] + 1j * data.A[:, :c.n]
    along = np.vecdot(lck.lee_hol(z).conj(), Z)    # Z is type (1,0) in ker omega
    resid = np.hypot(along.real, along.imag)        # abs() of a Python complex
    levi = crmod.levi_form(lck, z, Z[:, None])[:, 0, 0]
    resid = np.maximum(resid, np.hypot(levi.real, levi.imag))
    fib = fol.first_foliation_fibre(lck, z)
    plane = independent_rows(fib.form, np.stack([data.A_real, data.B_real], axis=-2))
    resid = np.maximum(resid, np.where(contains_span(fib.tangent, plane, 1e-9), 0.0, 1.0))
    if c.n == 2:
        t10 = crmod.cr_fibre(lck, z)
        levi_H = crmod.levi_distribution(t10)
        resid = np.maximum(resid, np.where(same_span(levi_H, plane, 1e-9), 0.0, 1.0))
        flat = crmod.levi_flat_detector(crmod.levi_form(lck, z, t10.swapaxes(-1, -2)))
        resid = np.maximum(resid, np.where(flat, 0.0, 1.0))
    return resid


# ---------------------------------------------------------------------------
# point functions: the closed-form Hopf suites
# ---------------------------------------------------------------------------

def _draw_torus(cfg, rng):
    return (*_hopf_sample(cfg, rng),
            complex(rng.standard_normal() * 0.5, rng.standard_normal() * 2.0))


def _draw_retraction(cfg, rng):
    return (*_draw_positive(cfg, rng), rng.uniform())


def _draw_leaf_radius(cfg, rng):
    """A leaf label w, nudged off the excluded leaves, then the variates
    of three pseudosphere points."""
    w = sample_unit_circle(rng)
    arg = float(np.angle(w)) % (2 * np.pi)
    a = arg / (2 * np.pi)   # the chart index of cr.chart_radius
    if min(a, 1.0 - a) < 1e-3:
        w = complex(np.exp(1j * (arg + 0.5)))  # nudge off the excluded leaf
    return "+", w, np.stack([hopf_variates(cfg.n, rng) for _ in range(3)])


def _check_deck_pullback(model, lck, Z):
    both = np.stack([Z, model.lam * Z])   # one stack: a fault in Z is named first
    _require_domain(lck.chart, both)
    H, Hl = lck.chart.hermitian(both)
    return np.abs(Hl * model.lam ** 2 - H).max(axis=(-2, -1))


def _check_diffeo_roundtrip(model, lck, Z):
    _require_domain(lck.chart, Z)
    zeta, w = hopf_diffeo(model, Z)
    back = hopf_diffeo_inv(model, zeta, w)
    m = deck_equivalent(model, Z, back)
    resid = np.abs(back - np.float_power(model.lam, m)[:, None] * Z).max(axis=-1)
    # forward round trip on the product side
    zeta2, w2 = hopf_diffeo(model, back)
    dw = w2 - w
    resid = np.maximum(resid, np.abs(zeta2 - zeta).max(axis=-1))
    resid = np.maximum(resid, np.hypot(dw.real, dw.imag))   # abs() of a Python complex
    resid = np.maximum(resid, np.abs(np.hypot(w.real, w.imag) - 1.0))
    resid = np.maximum(resid, np.abs(model.b(zeta) - model.a(Z)))
    return np.where(np.isnan(m), 1.0, resid)


def _check_torus_isometry(model, lck, Z, T):
    return torus_pullback_isometry_residual(model, T, Z, lck)


def _check_retraction(model, _, Z, T):
    resid = np.maximum(0.0, model.b(Z) - model.b(retraction(model, T, Z)))
    resid = np.maximum(resid, np.abs(retraction(model, 0.0, Z) - Z).max(axis=-1))
    return np.maximum(resid, np.abs(retraction(model, 1.0, Z)[:, :model.s]).max(axis=-1))


def _check_leaf_space(model, _, Z):
    w = crmod.leaf_label(model, Z)
    powers = np.array([model.lam ** m for m in range(-3, 4)])
    deck = crmod.leaf_label(model, powers[:, None, None] * Z)   # one row per power
    dw = deck - w
    resid = np.hypot(dw.real, dw.imag).max(axis=0)   # abs() of a Python complex
    resid = np.where(crmod.same_leaf(w, deck).all(axis=0), resid, np.maximum(resid, 1.0))
    other = crmod.leaf_label(model, np.exp(0.1) * Z)
    return np.where(crmod.same_leaf(w, other), np.maximum(resid, 1.0), resid)


def _check_leaf_radius(model, _, W, V):
    zetas = sample_pseudosphere(model.n, model.s, V)   # (m, 3, n) in one pass
    # independent oracle: deck-reduce the norm of the representative
    # lambda^(a+3) zeta of the leaf into (lambda, 1]
    a = (np.angle(W) % (2 * np.pi)) / (2 * np.pi)
    x = model.norm_sn(np.float_power(model.lam, a + 3.0)[:, None] * zetas[:, 0])
    while np.any(x > 1.0):
        x = np.where(x > 1.0, x * model.lam, x)
    while np.any(x <= model.lam):
        x = np.where(x <= model.lam, x / model.lam, x)
    return np.maximum(np.abs(x - crmod.chart_radius(model, W)),
                      crmod.leaf_chart_image_check(model, W, zetas))


def _check_cayley_boundary(model, _, Z):
    Z = np.where(np.abs(Z[:, -1:] + 1.0) < 1e-6, -Z, Z)   # dodge the transform's pole
    _, boundary = cayley(model.s, 1.0, Z)
    return np.maximum(np.abs(boundary), crmod.cayley_cr_residual(model, 1.0, Z))


def _check_levi_signature(cfg: RunConfig, draws: list) -> list:
    """One constant of (n, s) for every draw: its draw consumes nothing."""
    sig = crmod.siegel_levi_signature(cfg.n, cfg.s)
    return [0.0 if sig == (cfg.s, cfg.n - cfg.s - 1) else 1.0] * len(draws)


# ---------------------------------------------------------------------------
# point functions: the Tricerri suites
# ---------------------------------------------------------------------------

def _draw_witness(cfg, rng):
    key, p = _chart_draw(cfg, rng)
    p[0] = p[0].real + 1j  # witness at Im(w) = 1
    return key, p


def _draw_gab(cfg, rng):
    p = sample_tricerri(cfg.n, rng)
    alpha = 1.0 + 3.0 * rng.uniform()
    beta = np.exp(2j * np.pi * rng.uniform()) / np.sqrt(alpha)
    return None, p, alpha, beta


def _check_prop2_lee(_, lck, P):
    data = lee_data(lck, P)
    expect = np.zeros(P.shape, dtype=complex)
    expect[:, 0] = 1j * P[:, 0].imag
    return np.maximum(np.abs(data.c - 1.0), np.abs(data.B[:, :P.shape[-1]] - expect).max(axis=-1))


def _check_prop2_nabla_b(_, lck, P):
    """nabla_{Z_j} B = Z_j / 2 along the z-block frame fields (coordinate
    0 is w), from one derivative of B."""
    m = P.shape[-1]
    Bf = lambda q: lee_data(lck, q).B
    gamma = christoffel(lck.chart, P)
    dB = _field_derivatives([Bf], P, chart=lck.chart)[0]
    B = Bf(P)
    worst = 0.0
    for j in range(1, m):
        X = np.eye(2 * m, dtype=complex)[j]    # Z_j
        expect = 0.5 * X
        out = covariant_derivative(gamma, X, B, dB)
        worst = np.maximum(worst, np.abs(out - expect).max(axis=-1))
    return worst


def _check_gab_invariance(_, lck, P, alpha, beta):
    return gab_invariance_residual(alpha, beta, P[:, 0], P[:, 1:], lck)


def _fixed(value: float) -> Callable[[RunConfig], float]:
    return lambda cfg: value


SUITES: tuple[Suite, ...] = (
    Suite("christoffel-oracle", "Propositions 1-2 (proofs)",
          frozenset({"hopf", "tricerri", "flat"}), lambda c: c.tol_fd,
          _chart_draw, _stacked(_check_christoffel_oracle)),
    Suite("prop1-lee-field", "Proposition 1", frozenset({"hopf"}),
          _fixed(1e-10), _chart_draw, _stacked(_check_prop1_lee)),
    Suite("prop2-lee-field", "Proposition 2", frozenset({"tricerri"}),
          _fixed(1e-10), _chart_draw, _stacked(_check_prop2_lee)),
    Suite("parallel-lee", "Proposition 1", frozenset({"hopf", "flat"}),
          lambda c: c.tol_fd, _chart_draw, _stacked(_check_parallel_lee)),
    Suite("nonparallel-lee", "Proposition 2", frozenset({"tricerri"}),
          _fixed(0.01), _draw_witness, _stacked(_check_parallel_lee), direction="ge"),
    Suite("prop2-nabla-b", "Proposition 2 (proof)", frozenset({"tricerri"}),
          lambda c: c.tol_fd, _chart_draw, _stacked(_check_prop2_nabla_b)),
    Suite("thm1-totally-geodesic", "Theorem 1", frozenset({"hopf"}),
          _fixed(1e-5), _draw_thm1, _stacked(_check_thm1_geodesic)),
    Suite("eq1-leaf-signature", "Equation (1)", frozenset({"hopf"}),
          _fixed(0.0), _hopf_sample, _stacked(_check_eq1_signature)),
    Suite("eq8-transversal", "Equation (8)", frozenset({"synthetic-null"}),
          _fixed(1e-10), _draw_null, _null_stacked(_check_eq8_transversal)),
    Suite("eq5-nv-invariance", "Lemma 1", frozenset({"synthetic-null"}),
          _fixed(1e-9), _draw_null, _null_stacked(_check_eq5_invariance)),
    Suite("screen-splits", "Equations (3)-(9), (21)-(26)",
          frozenset({"synthetic-null"}), _fixed(1e-9), _draw_null,
          _null_stacked(_check_screen_splits)),
    Suite("thm4-integrability", "Theorem 4", frozenset({"hopf", "tricerri"}),
          _fixed(1e-5), _chart_draw, _stacked(_check_thm4_integrability)),
    Suite("thm4-plane-gram", "Theorem 4", frozenset({"hopf", "tricerri"}),
          lambda c: c.tol_analytic, _chart_draw,
          _stacked(_check_thm4_plane_gram)),
    Suite("thm4-hp", "Theorem 4", frozenset({"hopf"}), _fixed(1e-5),
          _chart_draw, _stacked(_check_thm4_hp)),
    Suite("lemma6-pair", "Lemma 6", frozenset({"synthetic-null"}),
          _fixed(1e-10), _draw_null, _null_stacked(_check_lemma6_pair), min_n=3),
    Suite("lemma6-invariance", "Lemma 6", frozenset({"synthetic-null"}),
          _fixed(1e-9), _draw_null, _null_stacked(_check_lemma6_invariance), min_n=3),
    Suite("eq18-mean-curvature", "Proposition 3 / Equation (18)",
          frozenset({"hopf"}), _fixed(1e-5), _draw_eq18,
          _stacked(_check_eq18_mean_curvature, None)),
    Suite("eq20-nabla-j", "Equation (20)",
          frozenset({"hopf", "tricerri", "flat"}), lambda c: c.tol_fd,
          _draw_vectors(2), _stacked(_check_eq20_nabla_j)),
    Suite("weyl-dj", "Weyl connection", frozenset({"hopf", "tricerri", "flat"}),
          lambda c: c.tol_fd, _draw_vectors(2), _stacked(_check_weyl_dj)),
    Suite("connection-identities", "Levi-Civita connection",
          frozenset({"hopf", "tricerri", "flat"}), lambda c: c.tol_fd,
          _draw_connection, _stacked(_check_connection_identities)),
    Suite("thm2-deck-pullback", "Theorem 2", frozenset({"hopf"}),
          _fixed(1e-12), _chart_draw, _stacked(_check_deck_pullback)),
    Suite("hopf-diffeo-roundtrip", "Theorem 2", frozenset({"hopf"}),
          _fixed(1e-9), _hopf_sample, _stacked(_check_diffeo_roundtrip)),
    Suite("torus-isometry", "Lemma 4", frozenset({"hopf"}), _fixed(1e-12),
          _draw_torus, _stacked(_check_torus_isometry)),
    Suite("submersion-fibre-invariance", "Equation (17)", frozenset({"hopf"}),
          lambda c: c.tol_fd, _draw_submersion,
          _stacked(_check_submersion, "pseudosphere")),
    Suite("fibration-split", "Lemma 3", frozenset({"hopf"}), _fixed(1e-9),
          _draw_positive, _stacked(_check_fibration_split, "pseudosphere")),
    Suite("retraction-monotonicity", "Theorem 3 (proof)", frozenset({"hopf"}),
          _fixed(1e-12), _draw_retraction, _stacked(_check_retraction)),
    Suite("thm5-leaf-space", "Theorem 5 / Equation (28)", frozenset({"hopf"}),
          _fixed(1e-9), _draw_positive, _stacked(_check_leaf_space)),
    Suite("lemma7-leaf-radius", "Lemma 7", frozenset({"hopf"}), _fixed(1e-9),
          _draw_leaf_radius, _stacked(_check_leaf_radius, None)),
    Suite("cayley-boundary", "Cayley transform", frozenset({"hopf"}),
          _fixed(1e-9), _draw_positive, _stacked(_check_cayley_boundary, "pseudosphere")),
    Suite("levi-signature", "Theorem 5 (proof)", frozenset({"hopf"}),
          _fixed(0.0), lambda cfg, rng: None, _check_levi_signature),
    # witness threshold sits three decades above the flatness cutoff; the
    # raw Levi value decays with the sample's Euclidean distance from the
    # cone, so the sharp 0.1 bound is asserted at a pinned point in tests
    Suite("levi-hopf-leaf", "Levi form", frozenset({"hopf"}), _fixed(1e-3),
          _draw_positive, _stacked(_check_levi_hopf, "pseudosphere"), direction="ge"),
    Suite("prop4-null-leaf", "Proposition 4", frozenset({"synthetic-null"}),
          _fixed(1e-10), _draw_null, _null_stacked(_check_prop4_null)),
    Suite("cr-tangential", "Tangential CR operator", frozenset({"hopf"}),
          _fixed(1e-8), _draw_cr_tangential, _stacked(_check_cr_tangential)),
    Suite("gab-invariance", "Proposition 2", frozenset({"tricerri"}),
          _fixed(1e-12), _draw_gab, _stacked(_check_gab_invariance)),
)

_BY_NAME = {s.name: s for s in SUITES}


def suites_for(cfg: RunConfig) -> tuple[Suite, ...]:
    """Resolve the configured suite names against the registry; an empty
    selection, or one naming a suite twice, is a UsageError."""
    if not cfg.suites:
        raise UsageError("empty suite selection")
    if len(cfg.suites) == 1 and cfg.suites[0] == "all":
        chosen = tuple(s for s in SUITES if s.applicable(cfg))
        if not chosen:
            raise UsageError(f"no suites applicable to model {cfg.model!r}")
        return chosen
    out = []
    for name in cfg.suites:
        if name not in _BY_NAME:
            raise UsageError(f"unknown suite {name!r}")
        if cfg.suites.count(name) > 1:
            raise UsageError(f"suite {name!r} is selected more than once")
        suite = _BY_NAME[name]
        if not suite.applicable(cfg):
            raise UsageError(
                f"suite {name!r} is not applicable to model={cfg.model} n={cfg.n}")
        out.append(suite)
    return tuple(out)


def _validate(cfg: RunConfig) -> None:
    if cfg.model not in MODELS:
        raise UsageError(f"unknown model {cfg.model!r}")
    if cfg.points < 1:
        raise UsageError("points must be >= 1")
    if cfg.points > MAX_POINTS:   # refused before any seed word is built
        raise UsageError("points must be <= 2**32")
    if not (0 < cfg.tol_analytic < math.inf and 0 < cfg.tol_fd < math.inf):
        raise UsageError("tolerances must be positive and finite")
    if not math.isfinite(cfg.lam):
        raise UsageError("lambda must be finite")
    if cfg.seed < 0:
        raise UsageError("seed must be non-negative")
    try:
        MODELS[cfg.model].build(cfg.n, cfg.s, cfg.lam)
    except ValueError as exc:
        raise UsageError(f"{cfg.model} model: {exc}") from exc


def _point_states(cfg: RunConfig, suites: Sequence[Suite]) -> np.ndarray:
    """The PCG64 seed words (len(suites), points, 4) of every point
    generator of a run: point i of a suite gets the words of numpy's
    SeedSequence of entropy cfg.seed and spawn key (key, i), key the
    first 8 bytes of the SHA-256 of the suite's name."""
    keys = [int.from_bytes(hashlib.sha256(s.name.encode()).digest()[:8], "big")
            for s in suites]
    return point_states(cfg.seed, keys, cfg.points)


def _run_suite(cfg: RunConfig, suite: Suite, states: np.ndarray) -> SuiteResult:
    """Run a suite over cfg.points points, point i drawn from the
    generator that states[i] seeds, built as the run reaches it."""
    tol = float(suite.tolerance(cfg))
    drawn: list = []
    try:
        for row in states:
            rng = np.random.Generator(np.random.PCG64(_Words(row)))
            residuals = suite.point_fn(cfg, rng, drawn)
        residuals = [float(r) for r in residuals]
    except _POINT_FAULTS as exc:  # recorded, not fatal
        return SuiteResult(name=suite.name, anchor=suite.anchor, points=0,
                           max_residual=float("nan"), tolerance=tol,
                           direction=suite.direction, verdict="error",
                           error=f"{type(exc).__name__}: {exc}")
    nonfinite = [r for r in residuals if not math.isfinite(r)]
    if nonfinite:   # max/min would silently drop a NaN after the first point
        agg, verdict = nonfinite[0], "fail"
    elif suite.direction == "le":
        agg = max(residuals)
        verdict = "pass" if agg <= tol else "fail"
    else:
        agg = min(residuals)
        verdict = "pass" if agg >= tol else "fail"
    return SuiteResult(name=suite.name, anchor=suite.anchor, points=cfg.points,
                       max_residual=agg, tolerance=tol,
                       direction=suite.direction, verdict=verdict)


def run_config(cfg: RunConfig) -> VerificationReport:
    """Execute the configured suites and assemble the report."""
    _validate(cfg)
    chosen = suites_for(cfg)
    results = tuple(_run_suite(cfg, s, states)
                    for s, states in zip(chosen, _point_states(cfg, chosen)))
    expanded = replace(cfg, suites=tuple(s.name for s in chosen))
    return VerificationReport(schema=SCHEMA, config=expanded, results=results)
