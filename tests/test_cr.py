import numpy as np
import pytest

from lcklab import cr as crmod
from lcklab.cr import (
    LEVI_FLAT_TOL,
    cayley_cr_residual,
    chart_radius,
    cr_fibre,
    leaf_chart_image_check,
    leaf_extension_hypothesis,
    leaf_label,
    levi_distribution,
    levi_flat_detector,
    levi_form,
    same_leaf,
    siegel_levi_matrix,
    siegel_levi_signature,
    tangential_cr_residual,
)
from lcklab.charts import (
    ChartDomainError, apply_j, hol_from_real_coords, lie_bracket, real_coords, real_vector,
)
from lcklab.lck import LCKStructure, lee_data
from lcklab.models import (
    HopfModel, deck_equivalent, flat_chart, hopf_chart, synthetic_null_structure,
)
from lcklab.report import RunConfig
from lcklab.suites import run_config
from lcklab.sampling import hopf_variates, sample_hopf, sample_pseudosphere
from lcklab.semieuclid import independent_rows, same_span

MODEL = HopfModel(n=2, s=1, lam=0.5)
HOPF = hopf_chart(MODEL)
Z01 = np.array([0.0, 1.0], dtype=complex)
NEAR_CONE = np.array([1.0, np.sqrt(1.0 + 2e-7)], dtype=complex)   # b(z, z) = 1e-7 |z|^2


class TestCRFibre:
    def test_reference_point(self):
        t10 = cr_fibre(HOPF, Z01)
        assert t10.shape == (2, 1)
        # T10 is the z1 coordinate line there
        assert abs(t10[1, 0]) < 1e-12
        assert abs(abs(t10[0, 0]) - 1.0) < 1e-12
        assert levi_distribution(t10).shape == (2, 4)

    def test_h_dimension_and_j_invariance(self):
        rng = np.random.default_rng(0)
        for n, s in ((2, 1), (3, 1), (3, 2)):
            model = HopfModel(n=n, s=s, lam=0.5)
            lck = hopf_chart(model)
            z = sample_hopf(model, hopf_variates(model.n, rng))
            levi_H = levi_distribution(cr_fibre(lck, z))
            assert levi_H.shape[-2] == 2 * n - 2
            # J stabilizes the Levi distribution
            J_rows = [real_coords(apply_j(real_vector(hol_from_real_coords(row))))
                      for row in levi_H]
            J_span = independent_rows(lck.chart.real_form(z), J_rows)
            assert same_span(levi_H, J_span, tol=1e-9)

    def test_t10_annihilates_lee_form(self):
        rng = np.random.default_rng(1)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        t10 = cr_fibre(HOPF, z)
        omega_hol = HOPF.lee_hol(z)
        assert np.abs(omega_hol @ t10).max() < 1e-9

    def test_synthetic_null_contains_b_plus_ia(self):
        syn = synthetic_null_structure(2, 1)
        z = np.zeros(2, dtype=complex)
        d = lee_data(syn, z)
        Z = d.B[:2] + 1j * d.A[:2]
        t10 = cr_fibre(syn, z)
        # Z lies in the span of the computed CR basis
        coeff, res, *_ = np.linalg.lstsq(t10, Z, rcond=None)
        assert np.abs(t10 @ coeff - Z).max() < 1e-10

    def test_vanishing_lee_field_raises_singular_lee_error(self):
        from lcklab.lck import SingularLeeError
        with pytest.raises(SingularLeeError):
            cr_fibre(flat_chart(2, 1), np.array([0.1, 0.2], dtype=complex))

    def test_only_the_null_leaf_check_builds_levi_rows(self, monkeypatch):
        # prop4-null-leaf at n = 2 reads the Levi distribution; no Hopf
        # check does, so a Hopf run builds none
        built = []
        build = crmod.levi_distribution
        monkeypatch.setattr(crmod, "levi_distribution", lambda t10: built.append(1) or build(t10))
        for model, n, s in (("hopf", 2, 1), ("hopf", 4, 2)):
            report = run_config(RunConfig(model=model, n=n, s=s, points=3, seed=0, suites=("all",)))
            assert {r.verdict for r in report.results} == {"pass"}
        assert built == []
        report = run_config(RunConfig(model="synthetic-null", n=2, s=1, points=3, seed=0,
                                      suites=("prop4-null-leaf",)))
        assert report.results[0].verdict == "pass"
        assert len(built) == 1


class TestTangentialCR:
    def test_holomorphic_restriction(self):
        f = lambda p: p[..., 0] * p[..., 1]
        assert tangential_cr_residual(HOPF, Z01, f) < 1e-8

    def test_antiholomorphic_detected(self):
        res = tangential_cr_residual(HOPF, Z01, lambda p: np.conj(p[..., 0]))
        assert res == pytest.approx(1.0, abs=1e-8)

    def test_leaf_constant_function(self):
        rng = np.random.default_rng(2)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        f = lambda p: abs(-abs(p[..., 0]) ** 2 + abs(p[..., 1]) ** 2)
        assert tangential_cr_residual(HOPF, z, f) < 1e-8

    @pytest.mark.parametrize("points", [None, 4])
    def test_k_functions_on_one_stencil_give_the_max_of_their_residuals_bit_for_bit(
            self, points):
        # None: a single point (n,), as a stack with no leading axes
        lck, Z, _ = _draw_fibre(3, 1, "+", 41, points=points or 1)
        if points is None:
            Z = Z[0]
        coeffs = np.array([0.3 - 0.1j, 1.2j, -0.7])
        fs = [lambda p: np.prod(p, axis=-1) + np.vecdot(coeffs.conj(), p),
              lambda p: np.conj(p[..., 0]) * p[..., 1],
              lambda p: p[..., 2] * p[..., 2] - p[..., 0],
              lambda p: np.abs(np.sum(np.abs(p[..., 1:]) ** 2, axis=-1) - np.abs(p[..., 0]) ** 2)]
        together = tangential_cr_residual(lck, Z, lambda p: np.stack([f(p) for f in fs], axis=-1))
        alone = np.max([tangential_cr_residual(lck, Z, f) for f in fs], axis=0)
        assert together.shape == Z.shape[:-1]
        assert together.tobytes() == alone.tobytes()

    def test_stencil_across_the_cone_raises(self):
        with pytest.raises(ChartDomainError, match="^stencil around .* leaves domain"):
            tangential_cr_residual(HOPF, NEAR_CONE, lambda p: p[..., 0] * p[..., 1])


    def test_suite_builds_one_fibre_per_run(self, monkeypatch):
        built = []
        build = crmod.cr_fibre
        monkeypatch.setattr(crmod, "cr_fibre", lambda lck, z: built.append(1) or build(lck, z))
        report = run_config(RunConfig(model="hopf", points=3, seed=0, suites=("cr-tangential",)))
        assert report.results[0].verdict == "pass"
        assert len(built) == 1   # one stacked fibre for the run's three points


def _projected(lck, v, conjugate=False):
    """The CR section through the (1,0) vector v by Euclidean projection
    onto ker(omega_hol), as frame components; conjugate gives its
    conjugate (0,1) field."""
    def field(p):
        w = lck.lee_hol(p)
        u = v - np.vecdot(w.conj(), v)[..., None] * w.conj() / np.vecdot(w, w).real[..., None]
        zero = np.zeros_like(u)
        return np.concatenate([zero, u.conj()] if conjugate else [u, zero], axis=-1)
    return field


def _draw_fibre(n, s, region, seed, points=3):
    model = HopfModel(n=n, s=s, lam=0.5)
    lck = hopf_chart(model, regions=region)
    rng = np.random.default_rng(seed)
    Z = sample_hopf(model, np.stack([hopf_variates(n, rng) for _ in range(points)]), region)
    return lck, Z, cr_fibre(lck, Z)


class TestLeviForm:
    def test_hopf_leaf_not_levi_flat(self):
        val = levi_form(HOPF, Z01, cr_fibre(HOPF, Z01).T)
        assert val.shape == (1, 1)
        assert abs(val[0, 0]) > 0.1
        assert val[0, 0].real == pytest.approx(-0.5, abs=1e-6)
        assert not levi_flat_detector(val)

    def test_hermitian_symmetry(self):
        lck, Z, t10 = _draw_fibre(3, 1, "+", 3, points=1)
        L = levi_form(lck, Z, t10.swapaxes(-1, -2))
        assert L.shape == (1, 2, 2)
        assert np.abs(L[:, 0, 1]).min() > 1e-6   # not a diagonal matrix by accident
        assert np.array_equal(L, L.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (4, 2)])
    @pytest.mark.parametrize("region", ["+", "-"])
    def test_entries_match_the_bracket_and_the_least_squares_references(self, n, s, region):
        # i theta([V_a, conj V_b]) / c through lie_bracket, and the bracket's
        # component along A against the basis (V_k + conj V_k, J of them, A)
        # by one least-squares solve per point
        lck, Z, t10 = _draw_fibre(n, s, region, 30 + n)
        L = levi_form(lck, Z, t10.swapaxes(-1, -2))
        for i, z in enumerate(Z):
            data = lee_data(lck, z)
            cr = real_vector(t10[i].T)
            M = np.concatenate([cr, apply_j(cr), data.A[None]]).T
            scale = np.abs(L[i]).max()
            for a in range(n - 1):
                for b in range(n - 1):
                    br = lie_bracket(_projected(lck, t10[i, :, a]),
                                     _projected(lck, t10[i, :, b], conjugate=True),
                                     z, chart=lck.chart)
                    by_theta = 1j * np.vecdot(data.theta.conj(), br) / data.c
                    by_lstsq = 1j * np.linalg.lstsq(M, br, rcond=None)[0][-1]
                    assert abs(L[i, a, b] - by_theta) <= 1e-12 * scale
                    assert abs(L[i, a, b] - by_lstsq) <= 1e-12 * scale

    @pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)])
    @pytest.mark.parametrize("region", ["+", "-"])
    def test_inertia_on_each_region(self, n, s, region):
        # the Siegel signature (s, n - s - 1) on "+"; on "-", b -> -b swaps
        # the blocks and the CR bundle loses a negative direction
        lck, Z, t10 = _draw_fibre(n, s, region, 40 + n)
        evals = np.linalg.eigvalsh(levi_form(lck, Z, t10.swapaxes(-1, -2)))
        cut = LEVI_FLAT_TOL * np.abs(evals).max(axis=-1, keepdims=True)
        neg, pos = (evals < -cut).sum(axis=-1), (evals > cut).sum(axis=-1)
        expect = (s, n - s - 1) if region == "+" else (s - 1, n - s)
        assert (neg == expect[0]).all() and (pos == expect[1]).all()

    @pytest.mark.parametrize("n, s", [(2, 1), (3, 1)])
    def test_at_a_null_point_the_marker_matrix_is_singular_and_the_form_vanishes(self, n, s):
        # the Lee field B, the characteristic marker where c = 0, lies in the
        # Levi distribution, so (V_k + conj V_k, J of them, B) has no inverse
        syn = synthetic_null_structure(n, s)
        rng = np.random.default_rng(n)
        Z = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        data, t10 = lee_data(syn, Z), cr_fibre(syn, Z)
        assert not data.non_null.any()
        cr = real_vector(t10.swapaxes(-1, -2))
        marker = np.concatenate([cr, apply_j(cr), data.B[:, None]], axis=-2)
        sv = np.linalg.svd(marker, compute_uv=False)
        assert (sv[:, -1] <= 1e-12 * sv[:, 0]).all()
        V = np.concatenate([t10.swapaxes(-1, -2), (data.B + 1j * data.A)[:, None, :n]], axis=-2)
        assert np.array_equal(levi_form(syn, Z, V), np.zeros((4, n, n)))

    def test_one_stencil_per_call(self, monkeypatch):
        calls = []
        derive = crmod.wirtinger_derivative
        monkeypatch.setattr(crmod, "wirtinger_derivative",
                            lambda *a, **k: calls.append(1) or derive(*a, **k))
        lck, Z, t10 = _draw_fibre(5, 2, "+", 5)
        L = levi_form(lck, Z, t10.swapaxes(-1, -2))
        assert L.shape == (3, 4, 4) and len(calls) == 1
        report = run_config(RunConfig(model="hopf", n=5, s=2, points=6, seed=42,
                                      suites=("levi-hopf-leaf",)))
        assert report.results[0].verdict == "pass"
        assert len(calls) == 2   # one for the run's stack of six points

    def test_stencil_across_the_cone_raises(self):
        t10 = cr_fibre(HOPF, NEAR_CONE)
        with pytest.raises(ChartDomainError, match="^stencil around .* leaves domain"):
            levi_form(HOPF, NEAR_CONE, t10.T)

    def test_synthetic_null_direction(self):
        syn = synthetic_null_structure(2, 1)
        z = np.zeros(2, dtype=complex)
        d = lee_data(syn, z)
        Z = d.B[:2] + 1j * d.A[:2]
        assert abs(levi_form(syn, z, Z[None])[0, 0]) < 1e-10
        assert levi_flat_detector(levi_form(syn, z, cr_fibre(syn, z).T))

    def test_flat_spacelike_hyperplane_levi_flat(self):
        # leaves x1 = const of a constant spacelike covector on the flat
        # chart are Levi-flat hyperplanes
        flat = flat_chart(2, 0)
        lck = LCKStructure(chart=flat.chart,
                           lee_form_eval=lambda z: np.broadcast_to(
                               np.array([0.5, 0.0], dtype=complex), np.shape(z)))
        z = np.array([0.2 + 0.1j, -0.4j])
        assert levi_flat_detector(levi_form(lck, z, cr_fibre(lck, z).T))

    def test_vanishing_lee_field_raises_singular_lee_error(self):
        from lcklab.lck import SingularLeeError
        with pytest.raises(SingularLeeError):
            levi_form(flat_chart(2, 1), np.array([0.1, 0.2], dtype=complex),
                      np.array([[1.0, 0.0]], dtype=complex))


class TestLeafLabels:
    def test_unit_point(self):
        w = leaf_label(MODEL, Z01)
        assert w == pytest.approx(1.0)
        assert crmod._chart_index(w) == pytest.approx(0.0)
        assert chart_radius(MODEL, w) == pytest.approx(1.0)

    def test_deck_scaled_point_same_leaf(self):
        w1 = leaf_label(MODEL, Z01)
        w2 = leaf_label(MODEL, np.array([0.0, 2.0], dtype=complex))
        assert abs(w2 - 1.0) < 1e-12
        assert same_leaf(w1, w2)

    def test_frozen_radius_for_quarter_turn(self):
        # leaf labeled w = i: a = arg(w) / (2 pi) = 1/4, radius = lambda^a
        radius = chart_radius(MODEL, 1j)
        assert crmod._chart_index(1j) == pytest.approx(0.25, abs=1e-12)
        assert radius == pytest.approx(0.5 ** 0.25, abs=1e-12)
        # independent oracle: deck-reduce the norm of the representative
        # lambda^(a+3) zeta of the leaf into the annulus (lambda, 1]
        x = float(MODEL.lam ** 3.25)
        while x <= MODEL.lam:
            x /= MODEL.lam
        assert radius == pytest.approx(x, abs=1e-12)

    def test_deck_invariance_and_separation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            w = leaf_label(MODEL, z)
            for m in range(-3, 4):
                w_m = leaf_label(MODEL, MODEL.lam ** m * z)
                assert abs(w_m - w) < 1e-9
                assert same_leaf(w, w_m)
            assert not same_leaf(w, leaf_label(MODEL, np.exp(0.1) * z))

    def test_negative_region_rejected(self):
        with pytest.raises(ChartDomainError):
            leaf_label(MODEL, np.array([1.0, 0.2], dtype=complex))

    def test_leaves_that_are_not_deck_equivalent_are_not_the_same_leaf(self):
        # the radii of z and z exp((log lambda)^2) differ by lambda^-0.693,
        # no integer power of lambda; a rotation exp(2 pi i m log lambda)
        # of w once joined them (|dw| = 1.64)
        model = HopfModel(n=3, s=1, lam=0.5)
        z = sample_hopf(model, hopf_variates(model.n, np.random.default_rng(3)))
        other = np.exp(np.log(model.lam) ** 2) * z
        assert np.isnan(deck_equivalent(model, z, other))
        assert not same_leaf(leaf_label(model, z), leaf_label(model, other))

    def test_chart_radius_of_a_label_is_the_deck_reduced_radius(self):
        # the chart radius once read w as exp(2 pi i log r) and gave 0.5488 here
        model = HopfModel(n=3, s=1, lam=0.5)
        z = sample_hopf(model, hopf_variates(model.n, np.random.default_rng(3)))
        r = model.norm_sn(z)
        while r >= 1.0:
            r *= model.lam
        while r <= model.lam:
            r /= model.lam
        assert chart_radius(model, leaf_label(model, z)) == pytest.approx(r, rel=1e-9)   # 0.5799

    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.9])
    def test_stacked_labels_are_deck_invariant_with_deck_reduced_radii(self, lam):
        model = HopfModel(n=3, s=1, lam=lam)
        rng = np.random.default_rng(8)
        Z = sample_hopf(model, np.stack([hopf_variates(3, rng) for _ in range(10)]))
        w = leaf_label(model, Z)
        for k in range(-2, 3):
            assert same_leaf(w, leaf_label(model, lam ** k * Z)).all()
        r = model.norm_sn(Z)
        while np.any(r > 1.0):
            r = np.where(r > 1.0, r * lam, r)
        while np.any(r <= lam):
            r = np.where(r <= lam, r / lam, r)
        assert np.allclose(chart_radius(model, w), r, rtol=1e-9, atol=0.0)
        a = crmod._chart_index(w)
        assert ((0.0 <= a) & (a < 1.0)).all()


class TestLeafChartImage:
    def test_quarter_turn_samples(self):
        rng = np.random.default_rng(5)
        zetas = [sample_pseudosphere(2, 1, hopf_variates(2, rng)) for _ in range(20)]
        radius, residual = leaf_chart_image_check(MODEL, 1j, zetas)
        assert radius == chart_radius(MODEL, 1j) and residual < 1e-9

    def test_half_turn_radius_value(self):
        radius = chart_radius(MODEL, -1.0)
        assert radius == pytest.approx(np.sqrt(0.5), abs=1e-12)   # lambda^(1/2)
        assert MODEL.lam < radius < 1.0

    def test_excluded_leaf(self):
        rng = np.random.default_rng(6)
        zetas = [sample_pseudosphere(2, 1, hopf_variates(2, rng))]
        with pytest.raises(ValueError):
            leaf_chart_image_check(MODEL, 1.0, zetas)


class TestSiegel:
    @pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (3, 2)])
    def test_levi_signature(self, n, s):
        assert siegel_levi_signature(n, s) == (s, n - s - 1)

    def test_matrix_is_constant_diagonal(self):
        M = siegel_levi_matrix(3, 1)
        assert np.allclose(M, np.diag([-2.0, 2.0]))

    @pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (3, 2)])
    def test_cayley_cr_compatibility(self, n, s):
        model = HopfModel(n=n, s=s, lam=0.5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = sample_pseudosphere(n, s, hopf_variates(n, rng))
            if abs(z[-1] + 1.0) < 1e-6:
                z = -z
            assert cayley_cr_residual(model, 1.0, z) < 1e-6

    def test_extension_hypothesis_gate(self):
        assert leaf_extension_hypothesis(2, 1)
        assert leaf_extension_hypothesis(4, 1)
        assert not leaf_extension_hypothesis(3, 1)   # n = 2s + 1
        assert not leaf_extension_hypothesis(5, 2)
        assert not leaf_extension_hypothesis(2, 0)
