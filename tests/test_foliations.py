import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcklab.charts import (
    MetricChart, _field_derivatives, _real_gram, christoffel, covariant_derivative, hol_from_real_coords, real_coords, real_vector,
)
from lcklab.cr import cr_fibre
from lcklab.foliations import (
    complex_submanifold_mean_curvature,
    first_foliation_fibre,
    gauss_weingarten,
    h_P_residual,
    integrability_residual,
    isotropic_transversal_pair,
    lightlike_transversal,
    second_foliation_fibre,
)
from lcklab.lck import LCKStructure, lee_data
from lcklab.models import HopfModel, eps_signs, flat_chart, hopf_chart, synthetic_null_structure, tricerri_chart
from lcklab.sampling import (
    hopf_variates, sample_complement_vector, sample_hopf, sample_null_config,
    sample_null_lee_vector, sample_pair_frame, sample_tricerri,
)
from lcklab.semieuclid import (
    SemiEuclideanForm,
    contains_span,
    independent_rows,
    inner,
    orthogonal_complement,
    restricted_gram,
    same_span,
    signature_of,
)

MODEL = HopfModel(n=2, s=1, lam=0.5)
HOPF = hopf_chart(MODEL)
HOPF_NEG = hopf_chart(MODEL, regions="-")


class TestFirstFoliation:
    def test_hopf_reference_fibre(self):
        fib = first_foliation_fibre(HOPF, np.array([0.0, 1.0]))
        assert fib.tangent.shape[-2] == 3
        assert fib.radical.shape[-2] == 0
        d = lee_data(HOPF, np.array([0.0, 1.0]))
        B = independent_rows(fib.form, [real_coords(d.B)])
        assert not contains_span(fib.tangent, B, tol=1e-9)
        assert signature_of(fib.form, fib.tangent)[1] == 2  # the index, 2s

    def test_negative_region_index(self):
        z = np.array([1.3 + 0.4j, 0.2 - 0.1j])
        fib = first_foliation_fibre(HOPF_NEG, z)
        assert signature_of(fib.form, fib.tangent)[1] == 1  # the index, 2s - 1

    def test_synthetic_null_fibre(self):
        syn = synthetic_null_structure(2, 1)
        fib = first_foliation_fibre(syn, np.zeros(2, dtype=complex))
        # tangent = span{B, e2, e4} in interleaved coordinates; oracle by
        # row reduction of omega = g(., e1+e3)
        expect = independent_rows(
            fib.form, [[1.0, 0, 1, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
        assert same_span(fib.tangent, expect, tol=1e-9)
        B = real_coords(lee_data(syn, np.zeros(2, dtype=complex)).B)
        assert same_span(fib.radical, independent_rows(fib.form, [B]),
                         tol=1e-9)
        assert fib.screen.shape[-2] == 2
        cross = fib.screen @ fib.form.gram @ fib.radical.T
        assert np.abs(cross).max() < 1e-10
        # transversal normalization
        omega = fib.form.gram @ B
        N = fib.transversal[0]
        assert abs(inner(fib.form, N, N)) < 1e-12
        assert float(omega @ N) == pytest.approx(1.0, abs=1e-12)

    def test_level_set_coherence(self):
        # the fibre annihilates the differential of |z|^2_{s,n}
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            fib = first_foliation_fibre(HOPF, z)
            db = np.empty(4)
            eps = np.array([-1.0, 1.0])
            db[0::2] = 2 * eps * z.real
            db[1::2] = 2 * eps * z.imag
            assert np.abs(fib.tangent @ db).max() < 1e-9


class TestNullConfigScreen:
    @pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (4, 2)])
    def test_first_screen_is_the_foliation_screen(self, n, s):
        B = sample_null_lee_vector(n, s, [np.random.default_rng(n + s)])[0]
        cfg = sample_null_config(n, s, B)
        lck = synthetic_null_structure(n, s, B_hol=cfg.B[0::2] + 1j * cfg.B[1::2])
        fib = first_foliation_fibre(lck, np.zeros(n, dtype=complex))
        assert cfg.first_screen is cfg.first_screen
        assert same_span(cfg.first_screen, fib.screen, 1e-10)
        perp = independent_rows(cfg.form, cfg.first_screen_perp)
        assert same_span(perp, orthogonal_complement(fib.form, fib.screen), 1e-10)


class TestLightlikeTransversal:
    FORM = SemiEuclideanForm.standard(2, 4)
    B = np.array([1.0, 0.0, 1.0, 0.0])
    SCREEN = independent_rows(FORM, [[0, 1.0, 0, 0], [0, 0, 0, 1.0]])

    def omega(self):
        return self.FORM.gram @ self.B

    def test_worked_example(self):
        N = lightlike_transversal(self.FORM, self.omega(), self.B, self.SCREEN,
                                  np.array([1.0, 0, 0, 0]))
        assert np.allclose(N, [-0.5, 0, 0.5, 0], atol=1e-14)

    def test_scaling_invariance(self):
        N1 = lightlike_transversal(self.FORM, self.omega(), self.B, self.SCREEN,
                                   np.array([1.0, 0, 0, 0]))
        N2 = lightlike_transversal(self.FORM, self.omega(), self.B, self.SCREEN,
                                   np.array([5.0, 0, 0, 0]))
        assert np.allclose(N1, N2, atol=1e-14)

    def test_complement_independence(self):
        V = np.array([1.0, 0, 0, 0])
        N1 = lightlike_transversal(self.FORM, self.omega(), self.B, self.SCREEN, V)
        N2 = lightlike_transversal(self.FORM, self.omega(), self.B, self.SCREEN,
                                   V + 2.0 * self.B)
        assert np.allclose(N1, N2, atol=1e-14)

    def test_invalid_complement_rejected(self):
        # inside a valid screen complement, omega(V) = 0 forces V onto the
        # Lee line; reaching omega(V) = 0 off the line therefore signals a
        # bad screen, reported as an invalid complement
        with pytest.raises(ValueError):
            lightlike_transversal(self.FORM, self.omega(), self.B,
                                  np.zeros((0, 4)),
                                  np.array([0.0, 1.0, 0.0, 0.0]))

    def test_non_orthogonal_v_rejected(self):
        with pytest.raises(ValueError):
            lightlike_transversal(self.FORM, self.omega(), self.B, self.SCREEN,
                                  np.array([1.0, 0.5, 0.0, 0.0]))


class TestGaussWeingarten:
    def test_hopf_totally_geodesic(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            fib = first_foliation_fibre(HOPF, z)
            coeff = rng.standard_normal((2, 3))
            X = coeff[0] @ fib.tangent
            Y = coeff[1] @ fib.tangent
            h, h_sym = gauss_weingarten(HOPF, fib, X, Y)
            assert np.abs(h).max() < 1e-6
            assert h_sym < 1e-6

    def test_builds_no_validated_form(self, monkeypatch):
        lck = hopf_chart(MODEL)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, np.random.default_rng(3)))
        fib = first_foliation_fibre(lck, z)
        X, Y = fib.tangent[0], fib.tangent[1]
        built = []
        validate = SemiEuclideanForm.__post_init__

        def counted(self):
            built.append(1)
            validate(self)

        monkeypatch.setattr(SemiEuclideanForm, "__post_init__", counted)
        gauss_weingarten(lck, fib, X, Y)
        assert built == []

    def test_null_branch_builds_no_validated_form(self, monkeypatch):
        syn = synthetic_null_structure(2, 1)
        z = np.zeros(2, dtype=complex)
        fib = first_foliation_fibre(syn, z)
        X, Y = fib.tangent[1], fib.tangent[2]
        built = []
        validate = SemiEuclideanForm.__post_init__

        def counted(self):
            built.append(1)
            validate(self)

        monkeypatch.setattr(SemiEuclideanForm, "__post_init__", counted)
        gauss_weingarten(syn, fib, X, Y)
        assert len(built) <= 1

    @pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (4, 2), (5, 2)])
    def test_closed_form_null_transversal_is_the_fibre_transversal(self, n, s):
        # oracle: V = G_r^-1 B solves for the g-orthocomplement of the screen
        # (the Euclidean complement of B in ker omega) together with B, and
        # omega(V) = |B|^2, so N_V = (V - g(V,V)/(2|B|^2) B) / |B|^2 with
        # g(V, V) = V.B, the lightlike_transversal formula
        def closed_form(data):
            B = data.B_real
            V = np.linalg.solve(data.real_gram, B)
            BB = B @ B
            return (V - (V @ B) / (2.0 * BB) * B) / BB

        rng = np.random.default_rng(10 * n + s)
        c = sample_null_config(n, s, sample_null_lee_vector(n, s, [rng])[0])
        syn = synthetic_null_structure(n, s, B_hol=c.B[0::2] + 1j * c.B[1::2])
        # a constant metric with unequal weights, where g(V, V) != 0
        eps, w = eps_signs(n, s), rng.uniform(0.5, 2.0, n)
        B_hol = c.B[0::2] + 1j * c.B[1::2]
        B_hol = B_hol / np.sqrt(w)           # null for diag(eps w) / 2 as for diag(eps) / 2
        H = np.diag(0.5 * eps * w).astype(complex)
        chart = MetricChart(n=n, s=s, domain_pred=lambda p: True,
                            metric_eval=lambda p: np.broadcast_to(H, np.shape(p)[:-1] + H.shape))
        omega_hol = 0.5 * eps * w * B_hol.conj()
        weighted = LCKStructure(chart=chart, lee_form_eval=lambda p: np.broadcast_to(
            omega_hol, np.shape(p)))
        z = np.zeros(n, dtype=complex)
        for lck in (syn, weighted):
            N = first_foliation_fibre(lck, z).transversal[0]
            closed = closed_form(lee_data(lck, z))
            assert np.abs(closed - N).max() <= 1e-12 * np.abs(N).max()

    def test_zero_lee_field_rejected(self):
        flat = flat_chart(2, 1)
        with pytest.raises(ValueError):
            first_foliation_fibre(flat, np.array([0.1, 0.2], dtype=complex))

    def test_h_is_extension_independent(self):
        # tensoriality: the transversal part of nabla_X Y is the same for
        # the metric projection extension and a Euclidean kernel extension
        rng = np.random.default_rng(9)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        fib = first_foliation_fibre(HOPF, z)
        d = lee_data(HOPF, z)
        omega_z = fib.form.gram @ real_coords(d.B)
        Xr = rng.standard_normal(3) @ fib.tangent
        Yr = rng.standard_normal(3) @ fib.tangent

        def metric_ext(vec):
            def field(p):
                dp = lee_data(HOPF, p)
                om = np.matvec(_real_gram(HOPF.chart.hermitian(p)), real_coords(dp.B))
                return real_vector(hol_from_real_coords(
                    vec - (np.vecdot(om, vec) / dp.c)[..., None] * real_coords(dp.B)))
            return field

        def euclid_ext(vec):
            def field(p):
                dp = lee_data(HOPF, p)
                om = np.matvec(_real_gram(HOPF.chart.hermitian(p)), real_coords(dp.B))
                return real_vector(hol_from_real_coords(
                    vec - (np.vecdot(om, vec) / np.vecdot(om, om))[..., None] * om))
            return field

        def h_of(ext):
            X, Y = ext(Xr), ext(Yr)
            dY = _field_derivatives([Y], z, chart=HOPF.chart)[0]
            nXY = covariant_derivative(christoffel(HOPF.chart, z), X(z), Y(z), dY)
            return (float(omega_z @ real_coords(nXY)) / d.c) * real_coords(d.B)

        assert np.abs(h_of(metric_ext) - h_of(euclid_ext)).max() < 1e-6

    def test_null_case_coefficient_chain(self):
        # with omega(h) = 0 and h = C N_V, the normalization omega(N_V) = 1
        # makes C = omega(h); a synthetic perturbation is detected
        syn = synthetic_null_structure(2, 1)
        z = np.zeros(2, dtype=complex)
        fib = first_foliation_fibre(syn, z)
        X = fib.tangent[1]
        Y = fib.tangent[2]
        h, _ = gauss_weingarten(syn, fib, X, Y)
        omega = fib.form.gram @ real_coords(lee_data(syn, z).B)
        C = float(omega @ h)
        assert abs(C) < 1e-12       # flat synthetic data: h = 0
        fake = h + 0.3 * fib.transversal[0]
        assert float(omega @ fake) == pytest.approx(0.3, abs=1e-12)


def test_fibres_share_one_validated_form_per_point(monkeypatch):
    syn = synthetic_null_structure(3, 1)
    z = np.zeros(3, dtype=complex)
    built = []
    validate = SemiEuclideanForm.__post_init__

    def counted(self):
        built.append(1)
        validate(self)

    monkeypatch.setattr(SemiEuclideanForm, "__post_init__", counted)
    first_foliation_fibre(syn, z)
    second_foliation_fibre(syn, z)
    cr_fibre(syn, z)
    assert len(built) == 1
    assert first_foliation_fibre(syn, z).form is lee_data(syn, z).form
    assert np.array_equal(lee_data(syn, z).form.gram, syn.chart.real_form(z).gram)


class TestSecondFoliation:
    def test_hopf_positive_plane(self):
        fib = second_foliation_fibre(HOPF, np.array([0.0, 1.0]))
        assert np.allclose(restricted_gram(fib.form, fib.tangent), 4.0 * np.eye(2), atol=1e-12)
        assert fib.radical.shape[-2] == 0

    def test_hopf_negative_plane(self):
        z = np.array([1.3, 0.2], dtype=complex)
        fib = second_foliation_fibre(HOPF_NEG, z)
        assert np.allclose(restricted_gram(fib.form, fib.tangent), -4.0 * np.eye(2), atol=1e-12)
        # with the metric flipped by sign(c) the plane is Riemannian
        assert signature_of(fib.form, fib.tangent) == (0, 2, 0)

    def test_synthetic_null_plane_is_its_own_radical(self):
        syn = synthetic_null_structure(3, 1)
        fib = second_foliation_fibre(syn, np.zeros(3, dtype=complex))
        assert np.abs(restricted_gram(fib.form, fib.tangent)).max() < 1e-14
        assert same_span(fib.radical, fib.tangent, 1e-10)
        assert fib.tangent.shape[-2] == 2
        # decomposition closes: tangent + transversal spans everything
        total = independent_rows(
            fib.form, np.vstack([fib.tangent, fib.transversal]))
        assert total.shape[-2] == 6

    def test_integrability(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            assert integrability_residual(HOPF, z) < 1e-5
        # out-of-hypothesis diagnostic on the nonparallel chart: reported,
        # and in fact small because the bracket closes there too
        tric = tricerri_chart(2, 1)
        val = integrability_residual(tric, np.array([0.3 + 1.1j, 0.4, -0.2j]))
        assert np.isfinite(val)

    def test_constant_synthetic_brackets_vanish(self):
        syn = synthetic_null_structure(2, 1)
        assert integrability_residual(syn, np.zeros(2, dtype=complex)) < 1e-12


class TestIsotropicPair:
    def _flat_config(self):
        form = SemiEuclideanForm.standard(2, 6)
        B = np.array([1.0, 0, 1, 0, 0, 0])
        A = np.array([0, -1.0, 0, -1, 0, 0])
        omega = form.gram @ B
        theta = form.gram @ A
        screen = independent_rows(form, [np.eye(6)[4], np.eye(6)[5]])
        return form, B, A, omega, theta, screen

    def test_worked_example(self):
        form, B, A, omega, theta, screen = self._flat_config()
        N1, N2 = isotropic_transversal_pair(form, omega, theta, A, B, screen,
                                             np.eye(6)[0], np.eye(6)[1])
        assert np.allclose(N1, [0, 0.5, 0, -0.5, 0, 0], atol=1e-12)
        assert np.allclose(N2, [-0.5, 0, 0.5, 0, 0, 0], atol=1e-12)
        assert float(theta @ N1) == pytest.approx(1.0, abs=1e-12)
        assert float(omega @ N2) == pytest.approx(1.0, abs=1e-12)
        assert float(theta @ N2) == pytest.approx(0.0, abs=1e-12)
        assert float(omega @ N1) == pytest.approx(0.0, abs=1e-12)
        for u in (N1, N2):
            for v in (N1, N2):
                assert abs(inner(form, u, v)) < 1e-12

    def test_frame_change_invariance(self):
        form, B, A, omega, theta, screen = self._flat_config()
        V1, V2 = np.eye(6)[0], np.eye(6)[1]
        N1, N2 = isotropic_transversal_pair(form, omega, theta, A, B, screen, V1, V2)
        W1, W2 = 2.0 * V1 + V2, 3.0 * V2
        M1, M2 = isotropic_transversal_pair(form, omega, theta, A, B, screen, W1, W2)
        assert np.allclose(N1, M1, atol=1e-12)
        assert np.allclose(N2, M2, atol=1e-12)

    def test_degenerate_complement_rejected(self):
        form, B, A, omega, theta, screen = self._flat_config()
        V1 = np.eye(6)[0]
        with pytest.raises(ValueError):
            isotropic_transversal_pair(form, omega, theta, A, B, screen,
                                       V1, V1 + B)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([(3, 1), (4, 2)]))
    @settings(max_examples=80, deadline=None)
    def test_randomized_constraints(self, seed, dims):
        n, s = dims
        rng = np.random.default_rng(seed)
        cfg = sample_null_config(n, s, sample_null_lee_vector(n, s, [rng])[0])
        (V1,), (V2,) = sample_pair_frame(cfg.screen_perp_basis[None], cfg.omega[None],
                                         cfg.theta[None], [rng])
        N1, N2 = isotropic_transversal_pair(cfg.form, cfg.omega, cfg.theta,
                                             cfg.A, cfg.B, cfg.screen, V1, V2)
        assert abs(float(cfg.theta @ N1) - 1.0) < 1e-10
        assert abs(float(cfg.omega @ N2) - 1.0) < 1e-10
        assert abs(float(cfg.theta @ N2)) < 1e-10
        assert abs(float(cfg.omega @ N1)) < 1e-10
        for u in (N1, N2):
            for v in (N1, N2):
                assert abs(inner(cfg.form, u, v)) < 1e-10
        if cfg.screen.shape[-2]:
            cross = cfg.screen @ cfg.form.gram @ np.vstack([N1, N2]).T
            assert np.abs(cross).max() < 1e-10

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_randomized_nv_normalization(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        s = int(rng.integers(1, n))
        cfg = sample_null_config(n, s, sample_null_lee_vector(n, s, [rng])[0])
        V = sample_complement_vector(cfg.first_screen_perp[None], cfg.omega[None], [rng])[0]
        # first-foliation screen
        from lcklab.sampling import _kernel
        tangent_rows = _kernel(cfg.omega.reshape(1, -1))
        qB, _ = np.linalg.qr(cfg.B.reshape(-1, 1))
        proj = tangent_rows - (tangent_rows @ qB) @ qB.T
        _, sv, vt = np.linalg.svd(proj, full_matrices=False)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
        screen = independent_rows(cfg.form, vt[:rank])
        N = lightlike_transversal(cfg.form, cfg.omega, cfg.B, screen, V)
        assert abs(inner(cfg.form, N, N)) < 1e-10
        assert abs(float(cfg.omega @ N) - 1.0) < 1e-10


class TestHP:
    def test_hopf_vanishing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            assert h_P_residual(HOPF, z)[0] < 1e-5

    def test_tricerri_h_vanishes_and_nabla_AA_does_not(self):
        # h reads only transversal parts, so it misses nabla_A A, which the
        # second value reads in full
        rng = np.random.default_rng(4)
        Z = np.stack([sample_tricerri(2, rng) for _ in range(5)])
        h, nabla_AA = h_P_residual(tricerri_chart(2, 1), Z)
        assert h.max() < 1e-12
        assert nabla_AA.min() > 0.1

    def test_lee_derivatives_vanish_exactly(self):
        z = np.array([0.4 - 0.1j, 1.2 + 0.3j])
        gam = christoffel(HOPF.chart, z)
        Bf = lambda p: lee_data(HOPF, p).B
        Af = lambda p: lee_data(HOPF, p).A
        dA, dB = _field_derivatives([Af, Bf], z, chart=HOPF.chart)
        nAB = covariant_derivative(gam, Af(z), Bf(z), dB)
        assert np.abs(nAB).max() < 1e-8
        nAA = covariant_derivative(gam, Af(z), Af(z), dA)
        assert np.abs(nAA).max() < 1e-8

    def test_synthetic_constant_data(self):
        syn = synthetic_null_structure(3, 1)
        assert h_P_residual(syn, np.zeros(3, dtype=complex))[0] < 1e-12


class TestMeanCurvature:
    LINE = np.array([[0.0], [1.0]], dtype=complex)   # the lines u -> (c, u)

    def test_lee_tangent_line_is_minimal(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = 0.8 + 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            eq, mean = complex_submanifold_mean_curvature(HOPF, np.array([0.0, u]), self.LINE)
            assert eq < 1e-5
            assert mean < 1e-5

    def test_offset_line_law(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = (0.9 + 0.6 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            eq, mean = complex_submanifold_mean_curvature(HOPF, np.array([0.3, u]), self.LINE)
            assert eq < 1e-5
            assert mean < 1e-5

    def test_positive_block_plane_runs_the_mixed_pairs(self):
        # m = 2: the planes z + span{e_2, e_3} at hopf n=3 s=1, offset and
        # through the origin, where the a != b pairs of the law are read
        lck = hopf_chart(HopfModel(n=3, s=1, lam=0.5))
        jac = np.eye(3, dtype=complex)[:, 1:]
        rng = np.random.default_rng(9)
        for c in (0.3, 0.0):
            radius, angle = 0.9 + 0.6 * rng.uniform(size=(8, 1)), rng.uniform(size=(8, 2))
            u = radius * np.exp(2j * np.pi * angle)
            Z = np.concatenate([np.full((8, 1), c, dtype=complex), u], axis=1)
            eq, mean = complex_submanifold_mean_curvature(lck, Z, jac)
            assert eq.max() < 1e-12
            assert mean.max() < 1e-12

    def test_flat_linear_subspace(self):
        flat = flat_chart(2, 1)
        u = 0.5 + 0.3j
        eq, mean = complex_submanifold_mean_curvature(
            flat, np.array([0.2 * u, u]), np.array([[0.2], [1.0]], dtype=complex))
        assert eq == pytest.approx(0.0, abs=1e-12)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_induced_metric_rejected(self):
        flat = flat_chart(2, 1)
        # the diagonal line through the cone direction has null tangent
        with pytest.raises(ValueError):
            complex_submanifold_mean_curvature(flat, np.array([0.5, 0.5]),
                                               np.array([[1.0], [1.0]], dtype=complex))


def test_torus_fibre_minimality():
    # fibres of the projective submersion are tangent to span{A, B}, which
    # contains the Lee field, so the mean-curvature law forces H = 0: the
    # Lee-tangent complex line realizes a fibre direction through the point
    rng = np.random.default_rng(6)
    z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
    d = lee_data(HOPF, z)
    fib = second_foliation_fibre(HOPF, z)
    B = independent_rows(fib.form, [real_coords(d.B)])
    assert contains_span(fib.tangent, B, tol=1e-9)
