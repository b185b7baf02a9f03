import numpy as np
import pytest

from lcklab.charts import ChartDomainError, hol_from_real_coords, real_coords, real_vector
from lcklab.models import (
    HopfModel,
    b_form,
    cayley,
    deck_equivalent,
    fibration_split,
    gab_invariance_residual,
    hopf_chart,
    hopf_diffeo,
    hopf_diffeo_inv,
    retraction,
    submersion_isometry_residual,
    synthetic_null_structure,
    torus_pullback_isometry_residual,
    tricerri_chart,
)
from lcklab.lck import lee_data
from lcklab.sampling import hopf_variates, sample_hopf, sample_pseudosphere
from lcklab.semieuclid import restricted_gram, signature_of

MODEL = HopfModel(n=2, s=1, lam=0.5)


class TestBForm:
    def test_signed_sum(self):
        assert b_form(1, 2, [1, 2], [1, 2]) == pytest.approx(3.0)

    def test_null_cone(self):
        assert b_form(1, 2, [1, 1], [1, 1]) == pytest.approx(0.0)

    def test_direct_summation_oracle(self):
        z, w = np.array([1, 1, 1]), np.array([0, 1, 2])
        # oracle: -z1 conj(w1) - z2 conj(w2) + z3 conj(w3) for s = 2
        expect = -1 * 0 - 1 * 1 + 1 * 2
        assert b_form(2, 3, z, w) == pytest.approx(expect)

    def test_sesquilinear(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = 0.7 - 0.4j
        assert b_form(1, 3, lam * z, w) == pytest.approx(lam * b_form(1, 3, z, w))
        assert b_form(1, 3, z, lam * w) == pytest.approx(np.conj(lam) * b_form(1, 3, z, w))
        assert b_form(1, 3, z, z).imag == pytest.approx(0.0, abs=1e-12)

    def test_norm_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            assert MODEL.a(z) * MODEL.norm_sn(z) ** 2 == pytest.approx(
                MODEL.b(z), abs=1e-12)


class TestHopfChart:
    def test_metric_components_reference(self):
        lck = hopf_chart(MODEL)
        H = lck.chart.hermitian(np.array([0.0, 1.0]))
        assert H[0, 0] == pytest.approx(-0.5)
        assert H[1, 1] == pytest.approx(0.5)
        # |z|^2 = 4 scales the components by 1/4
        H2 = lck.chart.hermitian(np.array([0.0, 2.0]))
        assert H2[1, 1] == pytest.approx(0.125)

    def test_real_signature(self):
        lck = hopf_chart(MODEL)
        rng = np.random.default_rng(2)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        form = lck.chart.real_form(z)   # validates signature (2, 2)
        assert form.index == 2

    def test_deck_invariance_of_metric(self):
        lck = hopf_chart(MODEL)
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            H = lck.chart.hermitian(z)
            Hl = lck.chart.hermitian(MODEL.lam * z)
            assert np.abs(Hl * MODEL.lam ** 2 - H).max() < 1e-12

    def test_null_cone_excluded(self):
        lck = hopf_chart(MODEL)
        assert not lck.chart.domain_pred(np.array([1.0, 1.0], dtype=complex))


class TestDeckEquivalence:
    def test_single_step(self):
        z = np.array([0.3 + 0.2j, 1.0])
        assert deck_equivalent(MODEL, z, MODEL.lam * z) == 1

    def test_identity(self):
        z = np.array([0.3 + 0.2j, 1.0])
        assert deck_equivalent(MODEL, z, z) == 0

    def test_two_steps(self):
        assert deck_equivalent(MODEL, [0, 1.0], [0, 0.25]) == 2

    def test_inequivalent(self):
        assert np.isnan(deck_equivalent(MODEL, [0, 1.0], [0, 0.7]))


class TestHopfDiffeo:
    def test_unit_norm_point(self):
        zeta, w = hopf_diffeo(MODEL, np.array([0.0, 1.0]))
        assert np.allclose(zeta, [0, 1])
        assert w == pytest.approx(1.0)

    def test_half_scale_same_image(self):
        zeta, w = hopf_diffeo(MODEL, np.array([0.0, 0.5]))
        assert np.allclose(zeta, [0, 1])
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2_gives_minus_one(self):
        zeta, w = hopf_diffeo(MODEL, np.array([0.0, np.sqrt(2)]))
        assert w == pytest.approx(-1.0, abs=1e-12)

    def test_round_trips(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            zeta, w = hopf_diffeo(MODEL, z)
            assert abs(abs(w) - 1.0) < 1e-12
            assert MODEL.b(zeta) == pytest.approx(1.0, abs=1e-12)
            back = hopf_diffeo_inv(MODEL, zeta, w)
            assert not np.isnan(deck_equivalent(MODEL, z, back))
            zeta2, w2 = hopf_diffeo(MODEL, back)
            assert np.abs(zeta2 - zeta).max() < 1e-9
            assert abs(w2 - w) < 1e-9

    def test_pseudosphere_dichotomy(self):
        rng = np.random.default_rng(5)
        zp = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        zm = sample_hopf(MODEL, hopf_variates(MODEL.n, rng), "-")
        assert MODEL.b(zp / MODEL.norm_sn(zp)) == pytest.approx(1.0, abs=1e-12)
        assert MODEL.b(zm / MODEL.norm_sn(zm)) == pytest.approx(-1.0, abs=1e-12)


class TestTorusAction:
    def test_identity_element(self):
        z = np.array([0.2, 1.1], dtype=complex)
        assert torus_pullback_isometry_residual(MODEL, 0.0, z, hopf_chart(MODEL)) == 0.0

    def test_rotation(self):
        z = np.array([0.0, 1.0], dtype=complex)
        assert torus_pullback_isometry_residual(MODEL, 1j * np.pi / 3, z,
                                                hopf_chart(MODEL)) < 1e-12

    def test_scaling(self):
        z = np.array([0.0, 1.0], dtype=complex)
        assert torus_pullback_isometry_residual(MODEL, np.log(2.0), z,
                                                hopf_chart(MODEL)) < 1e-12

    def test_an_off_region_point_is_named(self):
        # point 1 lies in region '-', off the '+' chart; the translation
        # keeps the sign of b, so its translate is the first failing point
        Z = np.array([[0.2, 1.1], [1.1, 0.2], [1.2, 0.1]], dtype=complex)
        t = np.array([0.1, 0.3j, -0.2])
        with pytest.raises(ChartDomainError) as err:
            torus_pullback_isometry_residual(MODEL, t, Z, hopf_chart(MODEL))
        zt = np.exp(t)[:, None] * Z
        assert str(err.value) == f"point {zt[1]} outside domain of hopf(n=2,s=1,+)"


class TestFibrationSplit:
    def test_reference_point(self):
        z, lck = np.array([0.0, 1.0]), hopf_chart(MODEL)
        V0, H0 = fibration_split(MODEL, z, lck)
        form = lee_data(lck, z).form
        assert np.allclose(restricted_gram(form, V0), 4.0 * np.eye(2), atol=1e-12)
        # horizontal space is the z1 coordinate plane, negative definite
        assert signature_of(form, H0) == (0, 2, 0)

    def test_vertical_spans_lee_plane(self):
        rng = np.random.default_rng(6)
        z = sample_pseudosphere(2, 1, hopf_variates(2, rng))
        V0, H0 = fibration_split(MODEL, z, hopf_chart(MODEL))
        d = lee_data(hopf_chart(MODEL), z)
        gram = np.vstack([V0, real_coords(d.A), real_coords(d.B)])
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 2

    def test_off_pseudosphere_rejected(self):
        with pytest.raises(ValueError):
            fibration_split(MODEL, np.array([0.0, 2.0]), hopf_chart(MODEL))


class TestSubmersion:
    def test_zero_vectors(self):
        z = np.array([0.0, 1.0], dtype=complex)
        u = real_vector([0.0, 0.0])
        assert submersion_isometry_residual(MODEL, z, u, u, hopf_chart(MODEL)) == pytest.approx(0.0)

    def test_fibre_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = sample_pseudosphere(2, 1, hopf_variates(2, rng))
            _, H0 = fibration_split(MODEL, z, hopf_chart(MODEL))
            u = real_vector(hol_from_real_coords(rng.standard_normal(2) @ H0))
            v = real_vector(hol_from_real_coords(rng.standard_normal(2) @ H0))
            assert submersion_isometry_residual(MODEL, z, u, v, hopf_chart(MODEL)) < 1e-6

    def test_complex_vectors_rejected(self):
        z = np.array([0.0, 1.0], dtype=complex)
        u = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)   # Z_1, not real
        with pytest.raises(ValueError, match="real"):
            submersion_isometry_residual(MODEL, z, u, u, hopf_chart(MODEL))

    def test_non_horizontal_rejected(self):
        z = np.array([0.0, 1.0], dtype=complex)
        B = lee_data(hopf_chart(MODEL), z).B
        with pytest.raises(ValueError):
            submersion_isometry_residual(MODEL, z, B, B, hopf_chart(MODEL))


class TestRetraction:
    def test_identity_at_zero(self):
        z = np.array([1.0, 2.0], dtype=complex)
        assert np.allclose(retraction(MODEL, 0.0, z), z)

    def test_kills_first_block_at_one(self):
        out = retraction(MODEL, 1.0, np.array([1.0, 2.0]))
        assert np.allclose(out, [0.0, 2.0])

    def test_midpoint_value(self):
        out = retraction(MODEL, 0.5, np.array([1.0, 2.0]))
        assert MODEL.b(out) == pytest.approx(3.75)
        assert MODEL.b(out) >= MODEL.b(np.array([1.0, 2.0]))

    def test_monotone_at_random_samples(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            t = rng.uniform()
            assert MODEL.b(retraction(MODEL, t, z)) >= MODEL.b(z) - 1e-12

    def test_negative_region_rejected(self):
        with pytest.raises(ChartDomainError):
            retraction(MODEL, 0.5, np.array([2.0, 1.0]))


class TestCayley:
    def test_fixed_point_like_case(self):
        zeta, residual = cayley(1, 1.0, np.array([0.0, 1.0]))
        assert np.allclose(zeta, [0.0, 0.0])
        assert residual == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        z = np.array([1.0, np.sqrt(2.0)], dtype=complex)
        zeta, _ = cayley(1, 1.0, z)
        denom = 1.0 + np.sqrt(2.0)
        assert zeta[0] == pytest.approx(1.0 / denom)
        assert zeta[1] == pytest.approx(1j * (1 - np.sqrt(2.0)) / denom)
        # boundary equation with the sign of the negative slot
        assert zeta[1].imag == pytest.approx(-abs(zeta[0]) ** 2, abs=1e-12)

    def test_pseudosphere_samples_land_on_boundary(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = sample_pseudosphere(2, 1, hopf_variates(2, rng))
            if abs(z[-1] + 1.0) < 1e-6:
                z = -z
            assert abs(cayley(1, 1.0, z)[1]) < 1e-9

    def test_pole_rejected(self):
        with pytest.raises(ZeroDivisionError):
            cayley(1, 1.0, np.array([1.0, -1.0]))


class TestTricerriFamily:
    def test_invariance_worked_example(self):
        res = gab_invariance_residual(4.0, 0.5j, 1j, np.array([0.0, 0.0]), tricerri_chart(2, 1))
        assert res < 1e-12

    def test_identity_map(self):
        res = gab_invariance_residual(1.0, 1.0, 0.3 + 1.1j, np.array([0.5, -0.2j]),
                                      tricerri_chart(2, 1))
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            gab_invariance_residual(2.0, 1.0, 1j, np.array([0.0, 0.0]), tricerri_chart(2, 1))

    def test_domain(self):
        lck = tricerri_chart(2, 1)
        assert not lck.chart.domain_pred(np.array([1.0 - 0.5j, 0, 0]))
        with pytest.raises(ValueError):
            tricerri_chart(2, 2)

    def test_synthetic_structure_is_null(self):
        syn = synthetic_null_structure(3, 1)
        d = lee_data(syn, np.zeros(3, dtype=complex))
        assert abs(d.c) < 1e-14
        assert np.linalg.norm(d.B) > 0.5
