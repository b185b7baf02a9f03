"""Draw-then-check suites: batched checks equal point-by-point checks.

Every suite draws every point first and checks the draws as stacks.
These tests pin that a check over all draws returns, bit for bit, what
the check returns for each draw on its own (and that a stack mixing
the Hopf regions, the null Lee branch of the foliation layer, the
null-Lee configurations, the quotient maps, the leaf labels and radii,
the Cayley layer and the family-metric invariance stack alike), that a
stack mixing regions refuses a point, or a stencil, off its own draw's
region, that a fault at one point is reported as a point-by-point run
reports it (for the positive-region Hopf suites, with the message their
point-by-point versions gave; for the closed-form suites, at its own
draw even when the stack meets a later fault first), that a
synthetic-null check reads its points' numbers afresh each time it
runs, and that the stacked Lee-plane derivatives, the CR fibre, the
submersion's chart and Lee data, each h(X, Y) of eq18 and the charts of
the closed-form Hopf suites are computed once, and that a screen split
and a synthetic-null run take no SVD beyond those they need.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from lcklab import charts as charts_mod
from lcklab import cr as crmod
from lcklab import foliations as fol
from lcklab import lck as lck_mod
from lcklab import models as models_mod
from lcklab import sampling as sampling_mod
from lcklab import semieuclid as semieuclid_mod
from lcklab import suites as suites_mod
from lcklab.charts import ChartDomainError
from lcklab.models import (
    HopfModel, cayley, deck_equivalent, gab_invariance_residual, hopf_chart, hopf_diffeo,
    hopf_diffeo_inv, retraction, synthetic_null_structure, torus_pullback_isometry_residual,
    tricerri_chart,
)
from lcklab.report import RunConfig
from lcklab.sampling import (
    hopf_variates, sample_hopf, sample_null_config, sample_null_lee_vector,
    sample_pseudosphere, sample_tricerri, sample_unit_circle,
)
from lcklab.suites import SUITES, _point_states, _run_suite, run_config

HOPF = hopf_chart(HopfModel(n=2, s=1, lam=0.5))
CONFIGS = [("hopf", 2, 1), ("hopf", 3, 1), ("hopf", 4, 2), ("hopf", 8, 7), ("tricerri", 2, 1),
           ("flat", 2, 1), ("synthetic-null", 3, 1), ("synthetic-null", 4, 2),
           ("synthetic-null", 6, 1)]
# The finite-difference suites that run on Hopf charts, each one stack
# across both regions.
FD_HOPF = ("christoffel-oracle", "prop1-lee-field", "parallel-lee", "thm1-totally-geodesic",
           "eq1-leaf-signature", "thm4-integrability", "thm4-plane-gram", "thm4-hp",
           "eq20-nabla-j", "weyl-dj", "connection-identities")
# The batched suites that sample Hopf region "+" only, as one stack per run.
POSITIVE_REGION = ("eq18-mean-curvature", "submersion-fibre-invariance", "levi-hopf-leaf",
                   "fibration-split", "cr-tangential")
# The suites that draw each point's Hopf region with even odds.
REGION_DRAWING = FD_HOPF + ("thm2-deck-pullback", "hopf-diffeo-roundtrip", "torus-isometry")
NULL = [s for s in SUITES if s.models == {"synthetic-null"}]
# The closed-form Hopf suites and the Tricerri-only suites, stacked last.
CLOSED_FORM_HOPF = ("thm2-deck-pullback", "hopf-diffeo-roundtrip", "torus-isometry",
                    "retraction-monotonicity", "thm5-leaf-space", "lemma7-leaf-radius",
                    "cayley-boundary", "levi-signature")
TRICERRI = ("prop2-lee-field", "nonparallel-lee", "prop2-nabla-b", "gab-invariance")


def _draws(suite, cfg):
    key = int.from_bytes(hashlib.sha256(suite.name.encode()).digest()[:8], "big")
    return [suite.draw(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(key, i))))
            for i in range(cfg.points)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _cbits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def test_the_finite_difference_suites_are_batched():
    # one suite contract: every check takes the stacked draws of a run
    assert {s.name for s in SUITES} == {*FD_HOPF, *POSITIVE_REGION, *CLOSED_FORM_HOPF,
                                        *TRICERRI, *(s.name for s in NULL)}
    stacked = {"_stacked.<locals>.check", "_null_stacked.<locals>.check",
               "_check_levi_signature"}
    assert {s.check.__qualname__ for s in SUITES} == stacked


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("model, n, s", CONFIGS)
def test_check_of_all_draws_equals_check_of_each(model, n, s, seed):
    cfg = RunConfig(model=model, n=n, s=s, points=6, seed=seed)
    checked = 0
    for suite in SUITES:
        if not suite.applicable(cfg):
            continue
        draws = _draws(suite, cfg)
        together = suite.check(cfg, draws)
        alone = [r for d in draws for r in suite.check(cfg, [d])]
        assert len(together) == len(draws)
        assert _bits(together) == _bits(alone), suite.name
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("n, s", [(2, 1), (3, 1)])
def test_null_branch_stacks_equal_single_points(n, s):
    syn = synthetic_null_structure(n, s)
    rng = np.random.default_rng(n)
    Z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    first, second = fol.first_foliation_fibre(syn, Z), fol.second_foliation_fibre(syn, Z)
    X, Y = first.tangent[:, 1], first.tangent[:, 2]
    h, h_sym = fol.gauss_weingarten(syn, first, X, Y)
    (h_P, nabla_AA), bracket = fol.h_P_residual(syn, Z), fol.integrability_residual(syn, Z)
    for i, z in enumerate(Z):
        one, two = fol.first_foliation_fibre(syn, z), fol.second_foliation_fibre(syn, z)
        for stacked, single in ((first, one), (second, two)):
            for part in ("tangent", "radical", "screen", "transversal"):
                assert np.array_equal(getattr(stacked, part)[i], getattr(single, part))
        h_one, h_sym_one = fol.gauss_weingarten(syn, one, X[i], Y[i])
        assert np.array_equal(h[i], h_one)
        assert h_sym[i] == h_sym_one
        assert (h_P[i], nabla_AA[i]) == fol.h_P_residual(syn, z)
        assert bracket[i] == fol.integrability_residual(syn, z)


@pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (4, 2), (6, 1)])
def test_stacked_null_config_equals_single_builds(n, s):
    rng = np.random.default_rng(10 * n + s)
    B = np.concatenate([sample_null_lee_vector(n, s, [rng]) for _ in range(5)])
    stacked = sample_null_config(n, s, B)
    for i, b in enumerate(B):
        one = sample_null_config(n, s, b)
        assert stacked.form is one.form
        # the screen splits are built on first read, here of the stack
        for name in ("B", "A", "omega", "theta", "screen_perp_basis", "first_screen_perp"):
            assert _bits(getattr(stacked, name)[i]) == _bits(getattr(one, name)), name
        for name in ("plane", "screen", "first_screen"):
            rows, row = getattr(stacked, name), getattr(one, name)
            assert _bits(rows[i]) == _bits(row), name
            assert _bits(semieuclid_mod.restricted_gram(stacked.form, rows)[i]) == \
                _bits(semieuclid_mod.restricted_gram(one.form, row)), name


@pytest.mark.parametrize("suite", NULL, ids=lambda s: s.name)
def test_a_null_check_run_twice_reads_the_same_numbers(suite):
    # each check rebuilds every generator from its point's seed
    cfg = RunConfig(model="synthetic-null", n=3, s=1, points=6, seed=42)
    draws = _draws(suite, cfg)
    assert _bits(suite.check(cfg, draws)) == _bits(suite.check(cfg, draws))


@pytest.mark.parametrize("suite", NULL, ids=lambda s: s.name)
def test_a_null_draw_consumes_nothing(suite):
    # the draw is the point's seed; its check replays the generator
    cfg = RunConfig(model="synthetic-null", n=3, s=1, points=6, seed=42)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert suite.draw(cfg, rng) is rng.bit_generator.seed_seq
    assert rng.bit_generator.state == before


STACK_DIMS = [(2, 1), (4, 2), (8, 7)]


@pytest.mark.parametrize("n, s", STACK_DIMS)
@pytest.mark.parametrize("name", REGION_DRAWING)
def test_a_stack_mixing_regions_equals_single_draws(name, n, s):
    suite = suites_mod._BY_NAME[name]
    cfg = RunConfig(model="hopf", n=n, s=s, points=8, seed=42)
    draws = _draws(suite, cfg)
    assert {d[0] for d in draws} == {"+", "-"}
    assert _bits(suite.check(cfg, draws)) == \
        _bits([r for d in draws for r in suite.check(cfg, [d])])


# The region-drawing suites whose checks apply the chart domain at their
# base points, and those among them that difference on it.
DOMAIN_CHECKED = ("christoffel-oracle", "prop1-lee-field", "parallel-lee",
                  "thm1-totally-geodesic", "eq1-leaf-signature", "thm4-integrability",
                  "thm4-plane-gram", "thm4-hp", "eq20-nabla-j", "weyl-dj",
                  "connection-identities", "thm2-deck-pullback", "hopf-diffeo-roundtrip")
STENCIL_CHECKED = ("christoffel-oracle", "parallel-lee", "thm1-totally-geodesic",
                   "thm4-integrability", "thm4-hp", "connection-identities")


MIXED = RunConfig(model="hopf", n=2, s=1, points=6, seed=42)


def _plant(monkeypatch, faults: dict) -> None:
    """Have the suites' Hopf and pseudosphere maps put faults[v](z) in place
    of the point z of each variates row v among faults (keyed by its
    bytes), so that a stacked check and a rerun of single draws both meet
    the planted point."""
    for name, at in (("sample_hopf", 1), ("sample_pseudosphere", 2)):
        def planted(*args, _original=getattr(suites_mod, name), _at=at):
            Z, V = _original(*args), args[_at]
            for i in np.ndindex(V.shape[:-1]):
                fault = faults.get(V[i].tobytes())
                if fault is not None:
                    Z[i] = fault(Z[i])
            return Z

        monkeypatch.setattr(suites_mod, name, planted)


def _mixed_with(monkeypatch, name: str, region: str, z: np.ndarray) -> list:
    """The MIXED draws of a suite, both regions among them, with the
    point of the first draw of `region` planted as z."""
    draws = _draws(suites_mod._BY_NAME[name], MIXED)
    assert {d[0] for d in draws} == {"+", "-"}
    k = next(i for i, d in enumerate(draws) if d[0] == region)
    _plant(monkeypatch, {draws[k][1].tobytes(): lambda _: z})
    return draws


@pytest.mark.parametrize("region, z", [("+", np.array([1.3, 0.2j])),   # b < 0
                                       ("-", np.array([0.2, 1.3 + 0j]))])   # b > 0
@pytest.mark.parametrize("name", DOMAIN_CHECKED)
def test_a_mixed_stack_refuses_a_point_off_its_draws_region(monkeypatch, name, region, z):
    draws = _mixed_with(monkeypatch, name, region, z)
    with pytest.raises(ChartDomainError) as err:
        suites_mod._BY_NAME[name].check(MIXED, draws)
    assert str(err.value) == f"point {z} outside domain of hopf(n=2,s=1,+-)"


@pytest.mark.parametrize("name", STENCIL_CHECKED)
def test_a_mixed_stack_refuses_a_stencil_across_the_cone(monkeypatch, name):
    z = np.array([1.0, 1.0 + 1e-7], dtype=complex)   # region "+", one step from the cone
    draws = _mixed_with(monkeypatch, name, "+", z)
    with pytest.raises(ChartDomainError) as err:
        suites_mod._BY_NAME[name].check(MIXED, draws)
    assert str(err.value) == f"stencil around {z} leaves domain of hopf(n=2,s=1,+-)"


@pytest.mark.parametrize("n, s", STACK_DIMS)
def test_stacked_quotient_maps_equal_single_points(n, s):
    rng = np.random.default_rng(100 * n + s)
    model = HopfModel(n=n, s=s, lam=0.3)
    Z = np.stack([sample_hopf(model, hopf_variates(model.n, rng)) for _ in range(5)])
    T = 0.5 * rng.standard_normal(5) + 2j * rng.standard_normal(5)
    t = rng.uniform(size=5)
    # deck powers -2, 0, 1 and 3 of Z, and one point on no deck orbit of its Z
    Zp = np.array([0.3 ** -2, 1.0, 0.3, 0.3 ** 3, 1.1])[:, None] * Z
    lck = hopf_chart(model)
    zeta, w = hopf_diffeo(model, Z)
    back = hopf_diffeo_inv(model, zeta, w)
    deck = deck_equivalent(model, Z, Zp)
    assert list(deck[:4]) == [-2, 0, 1, 3] and np.isnan(deck[4])
    torus = torus_pullback_isometry_residual(model, T, Z, lck)
    pulled = retraction(model, t, Z)
    norms = model.norm_sn(Z)
    for i, z in enumerate(Z):
        zeta_i, w_i = hopf_diffeo(model, z)
        assert (_cbits(zeta[i]), _cbits(w[i])) == (_cbits(zeta_i), _cbits(w_i))
        assert _cbits(back[i]) == _cbits(hopf_diffeo_inv(model, zeta_i, w_i))
        assert np.array_equal(deck_equivalent(model, z, Zp[i]), deck[i], equal_nan=True)
        assert _bits(torus[i]) == _bits(torus_pullback_isometry_residual(model, T[i], z, lck))
        assert _cbits(pulled[i]) == _cbits(retraction(model, t[i], z))
        assert _bits(norms[i]) == _bits(model.norm_sn(z))


@pytest.mark.parametrize("n, s", STACK_DIMS)
def test_stacked_leaf_and_cayley_layers_equal_single_points(n, s):
    rng = np.random.default_rng(10 * n + s)
    model = HopfModel(n=n, s=s, lam=0.3)
    Z = np.stack([sample_hopf(model, hopf_variates(model.n, rng)) for _ in range(5)])
    W = np.array([sample_unit_circle(rng) for _ in range(5)])
    zetas = np.stack([[sample_pseudosphere(n, s, hopf_variates(n, rng)) for _ in range(3)]
                      for _ in range(5)])
    pseudo = zetas[:, 0]
    labels = crmod.leaf_label(model, Z)
    image = crmod.leaf_chart_image_check(model, W, zetas)
    zeta, residual = cayley(s, 1.0, pseudo)
    cr_resid = crmod.cayley_cr_residual(model, 1.0, pseudo)
    for i in range(5):
        single = crmod.leaf_label(model, Z[i])
        assert _cbits(labels[i]) == _cbits(single)
        for stacked, one in ((labels, single), (W, W[i])):
            assert _bits([crmod._chart_index(stacked)[i], crmod.chart_radius(model, stacked)[i]]) == \
                _bits([crmod._chart_index(one), crmod.chart_radius(model, one)])
        assert _bits(image[i]) == _bits(crmod.leaf_chart_image_check(model, W[i], zetas[i]))
        zeta_one, residual_one = cayley(s, 1.0, pseudo[i])
        assert (_cbits(zeta[i]), _bits(residual[i])) == (_cbits(zeta_one), _bits(residual_one))
        assert _bits(cr_resid[i]) == _bits(crmod.cayley_cr_residual(model, 1.0, pseudo[i]))


@pytest.mark.parametrize("n, s", STACK_DIMS)
def test_stacked_gab_invariance_equals_single_points(n, s):
    rng = np.random.default_rng(n + s)
    P = np.stack([sample_tricerri(n, rng) for _ in range(5)])
    alpha = 1.0 + 3.0 * rng.uniform(size=5)
    beta = np.exp(2j * np.pi * rng.uniform(size=5)) / np.sqrt(alpha)
    lck = tricerri_chart(n, s)
    stacked = gab_invariance_residual(alpha, beta, P[:, 0], P[:, 1:], lck)
    for i, p in enumerate(P):
        single = gab_invariance_residual(alpha[i], beta[i], p[0], p[1:], lck)
        assert _bits(stacked[i]) == _bits(single)


def _on_the_cone(z: np.ndarray) -> np.ndarray:
    """A point of the Hopf null cone b(z, z) = 0: off every chart domain,
    with an infinite metric."""
    return np.ones_like(z)


def _point_by_point(suite, cfg, draws):
    """(residuals, None, None) of the draws checked one at a time, or
    (None, message, draw) of the first point that fails."""
    residuals = []
    for d in draws:
        try:
            residuals += suite.check(cfg, [d])
        except suites_mod._POINT_FAULTS as exc:
            return None, f"{type(exc).__name__}: {exc}", d
    return residuals, None, None


@pytest.mark.parametrize("suite", [s for s in SUITES if s.name in FD_HOPF],
                         ids=lambda s: s.name)
def test_a_fault_at_draw_3_is_named_as_point_by_point(monkeypatch, suite):
    cfg = RunConfig(model="hopf", n=2, s=1, points=6, seed=42)
    draws = _draws(suite, cfg)
    _plant(monkeypatch, {draws[3][1].tobytes(): _on_the_cone})   # draw 3 of 0..5
    with np.errstate(divide="ignore", invalid="ignore"):
        result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
        expected, bad = _point_by_point(suite, cfg, draws)[1:]
    assert result.verdict == "error"
    assert result.error == expected
    assert bad is draws[3]
    assert str(_on_the_cone(np.zeros(2, dtype=complex))) in result.error


class _NaNUniform:
    """A generator whose uniform() draws are NaN."""

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, *args, **kwargs):
        return np.full_like(self._rng.uniform(*args, **kwargs), np.nan)[()]

    def __getattr__(self, name):
        return getattr(self._rng, name)


# The fault planted at draw 3 of each positive-region suite (what its
# point becomes there, see _plant) and the error a point-by-point run
# reported for it, recorded before these suites were stacked.
POSITIVE_REGION_FAULTS = {
    "eq18-mean-curvature": (
        None, "ChartDomainError: point [0.3 +0.j nan+nanj] outside domain of hopf(n=2,s=1,+)"),
    "submersion-fibre-invariance": (
        lambda z: 2.0 * z, "ValueError: point must satisfy b(z, z) = 1"),
    "fibration-split": (
        lambda z: 2.0 * z, "ValueError: point must satisfy b(z, z) = 1"),
    "levi-hopf-leaf": (
        _on_the_cone, "SingularMetricError: metric Gram singular at [1.+0.j 1.+0.j]"),
    "cr-tangential": (
        _on_the_cone, "SingularMetricError: metric Gram singular at [1.+0.j 1.+0.j]"),
}


@pytest.mark.parametrize("name", POSITIVE_REGION)
def test_a_fault_at_draw_3_of_a_positive_region_suite_keeps_its_message(monkeypatch, name):
    suite = suites_mod._BY_NAME[name]
    cfg = RunConfig(model="hopf", n=2, s=1, points=6, seed=42)
    fault, expected = POSITIVE_REGION_FAULTS[name]
    if fault is None:   # eq18 draws its parameter u from two uniforms
        draw, calls = suite.draw, []

        def planted(cfg, rng):
            calls.append(1)
            return draw(cfg, _NaNUniform(rng) if len(calls) == 4 else rng)

        suite = replace(suite, draw=planted)
    else:
        _plant(monkeypatch, {_draws(suite, cfg)[3][1].tobytes(): fault})
    with np.errstate(divide="ignore", invalid="ignore"):
        result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
    assert (result.verdict, result.error) == ("error", expected)


def _planted(suite, faults: dict):
    """The suite with draw k replaced by faults[k](draw) for each k in faults."""
    calls = []

    def draw(cfg, rng):
        d = suite.draw(cfg, rng)
        calls.append(1)
        return faults.get(len(calls) - 1, lambda x: x)(d)

    return replace(suite, draw=draw)


def _cayley_faults(monkeypatch, suite, cfg, k: int) -> dict:
    """Draw k's point off the pseudosphere, planted through the map, and
    draw k + 2's at the Cayley pole, planted where the transform reads it:
    the check negates a point near the pole before that."""
    draws = _draws(suite, cfg)
    _plant(monkeypatch, {draws[k][1].tobytes(): lambda z: 2.0 * z})
    at_pole = sample_pseudosphere(cfg.n, cfg.s, draws[k + 2][1]).tobytes()
    transform = suites_mod.cayley

    def planted(s, r, Z):
        pole = -np.eye(Z.shape[-1], dtype=complex)[-1]
        return transform(s, r, np.array([pole if z.tobytes() == at_pole else z for z in Z]))

    monkeypatch.setattr(suites_mod, "cayley", planted)
    return {}


def _gab_faults(monkeypatch, suite, cfg, k: int) -> dict:
    """Draw k with Im(w) < 0 and draw k + 2 with alpha |beta|^2 = 2."""
    return {k: lambda d: (d[0], np.concatenate([[d[1][0].conj()], d[1][1:]]), *d[2:]),
            k + 2: lambda d: (*d[:2], 2.0 * d[2], d[3])}


# A fault planted at draw k, another at draw k + 2 that the stacked check
# meets first (each planter returns the draws it replaces, see _planted),
# and the error of draw k, given that draw.
STACKED_FAULTS = {
    "cayley-boundary": (_cayley_faults,
                        lambda d: "ValueError: point must lie on the pseudosphere of radius r"),
    "gab-invariance": (_gab_faults, lambda d: f"ChartDomainError: point {d[1]} outside domain "
                                              "of tricerri(n=3,s=1)"),
}


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("name", sorted(STACKED_FAULTS))
def test_a_fault_at_draw_k_of_a_closed_form_suite_is_reported_at_k(monkeypatch, name, k):
    suite = suites_mod._BY_NAME[name]
    plant, expected = STACKED_FAULTS[name]
    cfg = RunConfig(model="hopf" if "hopf" in suite.models else "tricerri", n=3, s=1,
                    points=6, seed=42)
    faults = plant(monkeypatch, suite, cfg, k)
    draws = _draws(_planted(suite, faults), cfg)
    expected = expected(draws[k])
    with pytest.raises(suites_mod._POINT_FAULTS) as stacked:
        suite.check(cfg, draws)
    assert f"{type(stacked.value).__name__}: {stacked.value}" != expected
    _, message, bad = _point_by_point(suite, cfg, draws)
    assert message == expected and bad is draws[k]
    result = _run_suite(cfg, _planted(suite, faults), _point_states(cfg, [suite])[0])
    assert (result.verdict, result.points, result.error) == ("error", 0, expected)


@pytest.mark.parametrize("suite", NULL, ids=lambda s: s.name)
def test_a_fault_at_draw_3_of_a_null_suite_is_named_as_point_by_point(monkeypatch, suite):
    # a zero Lee vector at draw 3 and a NaN one at draw 5, planted where the
    # stacked sampler draws those rows (a draw is its point's seed, and a
    # row's generator is rebuilt from it): the stacked build meets the NaN
    # first, the rerun one draw at a time names draw 3
    cfg = RunConfig(model="synthetic-null", n=3, s=1, points=6, seed=42)
    draws = _draws(suite, cfg)

    def words(seed):   # a run's seeds are its point_states rows, the same words
        return seed.generate_state(4, np.uint64).tobytes()

    bad = {words(draws[3]): 0.0, words(draws[5]): np.nan}
    sample = suites_mod.sample_null_lee_vector

    def planted(n, s, rngs):
        B = sample(n, s, rngs)
        for i, rng in enumerate(rngs):
            B[i] = bad.get(words(rng.bit_generator.seed_seq), B[i])
        return B

    monkeypatch.setattr(suites_mod, "sample_null_lee_vector", planted)
    with np.errstate(invalid="ignore"):
        result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
        with pytest.raises(np.linalg.LinAlgError):
            suite.check(cfg, draws)
        _, expected, named = _point_by_point(suite, cfg, draws)
    assert result.verdict == "error"
    assert expected == "DegenerateSubspaceError: basis vectors are not linearly independent"
    assert result.error == expected
    assert named is draws[3]


def test_a_fault_while_drawing_follows_the_earlier_points():
    draws = iter([0.5, 2.0, "fault", 0.1])

    def draw(cfg, rng):
        d = next(draws)
        if d == "fault":
            raise ValueError("drawing point 2")
        return d

    def check(cfg, ds):
        if 2.0 in ds:
            raise ZeroDivisionError("checking point 1")
        return list(ds)

    suite = suites_mod.Suite(name="draw-fault", anchor="none", models=frozenset({"hopf"}),
                             tolerance=lambda cfg: 1.0, draw=draw, check=check)
    cfg = RunConfig(model="hopf", points=4, seed=0)
    result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
    assert result.verdict == "error"
    assert result.error == "ZeroDivisionError: checking point 1"


def test_a_programming_error_while_drawing_is_not_masked_by_an_earlier_fault():
    draws = iter([0.5, 2.0, "bug", 0.1])
    checked = []

    def draw(cfg, rng):
        d = next(draws)
        if d == "bug":
            raise TypeError("drawing point 2")
        return d

    def check(cfg, ds):
        checked.append(list(ds))
        if 2.0 in ds:
            raise ZeroDivisionError("checking point 1")
        return list(ds)

    suite = suites_mod.Suite(name="draw-bug", anchor="none", models=frozenset({"hopf"}),
                             tolerance=lambda cfg: 1.0, draw=draw, check=check)
    cfg = RunConfig(model="hopf", points=4, seed=0)
    with pytest.raises(TypeError, match="drawing point 2"):
        _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
    assert checked == []   # the earlier draws are checked only after a point fault


def test_point_fn_runs_once_per_point_and_checks_once():
    checks = []

    def check(cfg, ds):
        checks.append(len(ds))
        return list(ds)

    suite = suites_mod.Suite(name="count-probe", anchor="none", models=frozenset({"hopf"}),
                             tolerance=lambda cfg: 1.0, draw=lambda cfg, rng: rng.uniform(),
                             check=check)
    calls = []

    def point_fn(*args):
        calls.append(1)
        return suites_mod.Suite.point_fn(suite, *args)

    object.__setattr__(suite, "point_fn", point_fn)
    cfg = RunConfig(model="hopf", points=5, seed=0)
    result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
    assert result.verdict == "pass" and result.points == 5
    assert len(calls) == 5
    assert checks == [5]


class TestDerivedOnce:
    def _counted(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_thm4_hp_takes_one_stencil_evaluation_per_stack(self, monkeypatch):
        suite = suites_mod._BY_NAME["thm4-hp"]
        cfg = RunConfig(model="hopf", n=2, s=1, points=6, seed=42)
        draws = _draws(suite, cfg)
        calls = self._counted(monkeypatch, charts_mod, "wirtinger_derivative")
        suite.check(cfg, draws[:1])
        assert len(calls) == 1          # A and B together; 5 per point before
        calls.clear()
        suite.check(cfg, draws)
        assert {d[0] for d in draws} == {"+", "-"}
        assert len(calls) == 1          # both regions in one stack; one per region before

    def test_submersion_builds_one_chart_and_one_lee_data_per_run(self, monkeypatch):
        builds, misses = [], []
        build, derive = models_mod.hopf_chart, models_mod.lee_data

        def counted_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counted_lee_data(lck, z):
            z = np.asarray(z, dtype=complex)
            if (z.shape, z.tobytes()) not in lck._lee_cache:
                misses.append(1)
            return derive(lck, z)

        for module in (models_mod, suites_mod):
            monkeypatch.setattr(module, "hopf_chart", counted_build)
        monkeypatch.setattr(models_mod, "lee_data", counted_lee_data)
        report = run_config(RunConfig(model="hopf", n=2, s=1, points=6, seed=42,
                                      suites=("submersion-fibre-invariance",)))
        assert report.results[0].verdict == "pass"
        assert (len(builds), len(misses)) == (1, 1)   # 12 and 12 point by point

    @pytest.mark.parametrize("model, name", [
        (model, suite.name) for model in ("hopf", "tricerri", "flat") for suite in SUITES
        if suite.applicable(RunConfig(model=model, n=2, s=1))])
    def test_a_suite_run_takes_at_most_one_stencil(self, monkeypatch, model, name):
        # a check differentiates all its fields on one stencil
        calls, original = [], charts_mod.wirtinger_derivative

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (charts_mod, crmod, fol, lck_mod, models_mod, suites_mod):
            if getattr(module, "wirtinger_derivative", None) is original:
                monkeypatch.setattr(module, "wirtinger_derivative", counted)
        report = run_config(RunConfig(model=model, n=2, s=1, points=6, seed=42, suites=(name,)))
        assert report.results[0].verdict == "pass"
        assert len(calls) <= 1

    def test_the_fixed_vector_connection_suites_take_no_stencil(self, monkeypatch):
        # eq20-nabla-j and weyl-dj contract Hopf's closed-form Gamma with
        # fixed vectors: no finite difference, though tol_fd judges them
        calls = [self._counted(monkeypatch, module, "wirtinger_derivative")
                 for module in (charts_mod, crmod, fol, lck_mod, models_mod, suites_mod)
                 if hasattr(module, "wirtinger_derivative")]
        report = run_config(RunConfig(model="hopf", n=2, s=1, points=6, seed=42,
                                      suites=("eq20-nabla-j", "weyl-dj")))
        assert [r.verdict for r in report.results] == ["pass", "pass"]
        assert sum(map(len, calls)) == 0

    def test_eq18_evaluates_each_second_fundamental_form_once(self, monkeypatch):
        # each h(X, Y) is the normal part of one Gamma(X, Y) on an affine
        # line: no finite difference and no least-squares solve
        suite = suites_mod._BY_NAME["eq18-mean-curvature"]
        cfg = RunConfig(model="hopf", n=2, s=1, points=6, seed=42)
        draws = _draws(suite, cfg)
        names = ("_richardson", "wirtinger_derivative", "covariant_derivative")
        calls = {name: [self._counted(monkeypatch, module, name)
                        for module in (charts_mod, semieuclid_mod, lck_mod, fol, models_mod)
                        if hasattr(module, name)]
                 for name in names}
        calls["lstsq"] = [self._counted(monkeypatch, np.linalg, "lstsq")]
        suite.check(cfg, draws)
        counts = {name: sum(map(len, lists)) for name, lists in calls.items()}
        # two lines as one (2, m, n) stack, so four h(X, Y) in all (eight
        # when each line was its own call)
        assert counts == {"_richardson": 0, "wirtinger_derivative": 0, "lstsq": 0,
                          "covariant_derivative": 4}

    def test_prop4_builds_one_cr_fibre_per_run(self, monkeypatch):
        calls = self._counted(monkeypatch, crmod, "cr_fibre")
        report = run_config(RunConfig(model="synthetic-null", n=2, s=1, points=6, seed=42,
                                      suites=("prop4-null-leaf",)))
        assert report.results[0].verdict == "pass"
        assert len(calls) == 1          # one per point before the null suites were stacked

    # (screen splits of the configuration, finite-difference stencils) per
    # check of a null suite at n = 3; every check built both splits before
    # they were built on first read, and prop4-null-leaf's Levi form is one
    # stencil where it was one least-squares solve per point
    @pytest.mark.parametrize("name, splits, stencils", [
        ("prop4-null-leaf", 0, 1), ("eq8-transversal", 1, 0), ("eq5-nv-invariance", 1, 0),
        ("lemma6-pair", 1, 0), ("lemma6-invariance", 1, 0), ("screen-splits", 2, 0)])
    def test_a_null_check_builds_only_the_screens_it_reads(self, monkeypatch, name, splits,
                                                           stencils):
        # sampling's own name: first_foliation_fibre calls foliations'
        built = self._counted(monkeypatch, sampling_mod, "_screen_split")
        derived = [self._counted(monkeypatch, module, "wirtinger_derivative")
                   for module in (charts_mod, lck_mod, crmod)]
        solved = self._counted(monkeypatch, np.linalg, "lstsq")
        report = run_config(RunConfig(model="synthetic-null", n=3, s=1, points=6, seed=42,
                                      suites=(name,)))
        assert report.results[0].verdict == "pass"
        assert (len(built), sum(map(len, derived)), len(solved)) == (splits, stencils, 0)

    def test_a_screen_split_takes_two_svds(self, monkeypatch):
        # the complement within the space and the kernel of the screen; the
        # screen's rows come orthonormal from the first, so a third SVD no
        # longer proves them independent
        rng = np.random.default_rng(7)
        B = np.concatenate([sample_null_lee_vector(3, 1, [rng]) for _ in range(6)])
        c = sample_null_config(3, 1, B)
        radical, space = c.plane, semieuclid_mod._kernel(c.plane @ c.form.gram)
        svds = self._counted(monkeypatch, np.linalg, "svd")
        fol._screen_split(c.form, radical, space)
        assert len(svds) == 2

    def test_a_null_algebra_run_takes_41_svds_and_no_cond(self, monkeypatch):
        # 52 SVDs and one np.linalg.cond before rank checks stopped
        # repeating the SVDs of orthonormal rows and the Gram conditioning
        # became one eigvalsh; 42 before prop4-null-leaf built its CR
        # basis only at n = 2, the one dimension that reads it
        svds = self._counted(monkeypatch, np.linalg, "svd")
        conds = self._counted(monkeypatch, np.linalg, "cond")
        report = run_config(RunConfig(model="synthetic-null", n=3, s=1, points=40, seed=42,
                                      suites=("all",)))
        assert {r.verdict for r in report.results} == {"pass"}
        assert (len(svds), len(conds)) == (41, 0)

    def test_a_hopf_run_takes_13_svds(self, monkeypatch):
        # 16 before orthogonal_complement stopped re-checking the rank of a
        # subspace's rows, which independent_rows or an SVD already proved
        # independent
        svds = self._counted(monkeypatch, np.linalg, "svd")
        report = run_config(RunConfig(model="hopf", n=2, s=1, points=6, seed=42,
                                      suites=("all",)))
        assert {r.verdict for r in report.results} == {"pass"}
        assert len(svds) == 13

    def test_closed_form_hopf_suites_build_one_chart_per_check(self, monkeypatch):
        builds = []
        for module in (models_mod, suites_mod):
            builds.append(self._counted(monkeypatch, module, "hopf_chart"))
        # one per point before these suites were stacked and one per region
        # before a stack mixed regions; every stacked check builds its
        # chart, used or not
        for name, allowed in (("thm2-deck-pullback", {1}), ("torus-isometry", {1}),
                              ("hopf-diffeo-roundtrip", {1}), ("thm5-leaf-space", {1})):
            report = run_config(RunConfig(model="hopf", n=2, s=1, points=6, seed=42,
                                          suites=(name,)))
            assert report.results[0].verdict == "pass"
            assert sum(map(len, builds)) in allowed, name
            for calls in builds:
                calls.clear()

    def test_deck_pullback_checks_z_and_lambda_z_in_one_domain_call(self, monkeypatch):
        # Z and lambda Z are one (2, m, n) stack, Z first; two calls before
        calls = self._counted(monkeypatch, suites_mod, "_require_domain")
        report = run_config(RunConfig(model="hopf", n=2, s=1, points=6, seed=42,
                                      suites=("thm2-deck-pullback",)))
        assert report.results[0].verdict == "pass"
        assert len(calls) == 1


# A 1e-6 relative perturbation of each stacked Hopf closed form.  The
# pairs marked xfail are oracles that do not catch it (see CHANGES.md).
MUTANT_SUITES = ("christoffel-oracle", "parallel-lee", "thm1-totally-geodesic", "thm4-hp")
MISSED = {
    ("gamma", "christoffel-oracle"): "scaled residual 1.0e-6 meets tol_fd = 1e-6 exactly",
    ("gamma", "thm1-totally-geodesic"): "h moves by 3e-6, under the 1e-5 bound",
    ("lee", "christoffel-oracle"): "reads no Lee form",
    ("lee", "parallel-lee"): "a constant multiple of a parallel form is parallel",
    ("lee", "thm1-totally-geodesic"): "ker omega and the projections are scale invariant",
    ("lee", "thm4-hp"): "nabla_X Y over {A, B} scales with them and stays 0",
}


def _mutated_hopf(monkeypatch, closed_form):
    if closed_form == "gamma":
        fns = models_mod._hopf_metric_fns

        def perturbed_fns(n, s):
            metric, gamma = fns(n, s)
            return metric, lambda z: gamma(z) * (1.0 + 1e-6)

        monkeypatch.setattr(models_mod, "_hopf_metric_fns", perturbed_fns)
    else:
        build = suites_mod.hopf_chart

        def perturbed_chart(*args, **kwargs):
            lck = build(*args, **kwargs)
            lee = lck.lee_form_eval
            return replace(lck, lee_form_eval=lambda z: lee(z) * (1.0 + 1e-6))

        monkeypatch.setattr(suites_mod, "hopf_chart", perturbed_chart)


@pytest.mark.parametrize("closed_form, name", [
    pytest.param(form, name, marks=pytest.mark.xfail(strict=True, reason=MISSED[(form, name)])
                 if (form, name) in MISSED else ())
    for form in ("gamma", "lee") for name in MUTANT_SUITES])
def test_perturbed_hopf_closed_form_fails_its_suite(monkeypatch, closed_form, name):
    cfg = RunConfig(model="hopf", n=2, s=1, points=6, seed=42, suites=(name,))
    assert run_config(cfg).results[0].verdict == "pass"
    _mutated_hopf(monkeypatch, closed_form)
    assert run_config(cfg).results[0].verdict == "fail"
