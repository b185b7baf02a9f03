import dataclasses

import numpy as np
import pytest

from lcklab import charts as charts_mod
from lcklab.charts import (
    GRAM_COND_MAX,
    ChartDomainError,
    MetricChart,
    REAL_VECTOR_TOL,
    SingularMetricError,
    _bilinear,
    _field_derivatives,
    _g,
    _lower,
    _norms,
    _real_gram,
    _require_conditioned,
    _solve_gram,
    _stencil,
    apply_j,
    christoffel,
    conformal_connection_shift,
    covariant_derivative,
    exterior_derivative_1form,
    exterior_derivative_2form,
    hol_from_real_coords,
    kahler_form,
    koszul_christoffel,
    lie_bracket,
    real_coords,
    real_vector,
    wirtinger_derivative,
)
from lcklab.lck import lee_data, lee_form_components
from lcklab.models import (
    HopfModel,
    flat_chart,
    hopf_chart,
    tricerri_chart,
)
from lcklab.sampling import hopf_variates, sample_hopf, sample_tricerri

HOPF = hopf_chart(HopfModel(n=2, s=1, lam=0.5))
FLAT = flat_chart(2, 1)
TRIC = tricerri_chart(2, 1)
FLAT3 = flat_chart(3, 1).chart
Z01 = np.array([0.0, 1.0], dtype=complex)


def _twisted_hopf(model: HopfModel, A: np.ndarray) -> tuple[MetricChart, MetricChart]:
    """The Hopf chart of model and its pullback by z -> A z, whose metric
    H'(z) = A^T H(A z) conj(A) has complex off-diagonal entries."""
    base = hopf_chart(model).chart
    twisted = MetricChart(
        n=model.n, s=model.s, metric_eval=lambda z: A.T @ base.metric_eval(np.matvec(A, z)) @ A.conj(),
        domain_pred=lambda z: base.domain_pred(np.matvec(A, z)), name="twisted hopf")
    return base, twisted


def _block_gram(H: np.ndarray) -> np.ndarray:
    """The complexified Gram [[0, H], [conj(H), 0]] on frame components,
    per matrix of a stack."""
    zero = np.zeros_like(H)
    return np.block([[zero, H], [H.conj(), zero]])


class TestVectorComponents:
    def test_real_coords_round_trip(self):
        v = real_vector([1 + 2j, -0.5j])
        assert np.allclose(real_coords(v), [1.0, 2.0, 0.0, -0.5])
        back = real_vector(hol_from_real_coords(real_coords(v)))
        assert np.array_equal(back, v)

    def test_real_coords_round_trip_on_a_stack(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 6))
        v = real_vector(hol_from_real_coords(x))
        assert v.shape == (5, 6)
        assert np.array_equal(real_coords(v), x)
        assert np.array_equal(v[:, 3:], v[:, :3].conj())

    def test_j_squares_to_minus_one(self):
        v = real_vector([0.3 - 1j, 2.0])
        jj = apply_j(apply_j(v))
        assert np.allclose(jj, -v)

    def test_j_multiplies_the_halves_by_i_and_minus_i(self):
        v = np.array([[1.0 + 2j, -0.5j, 3.0, 0.25 - 1j]])
        expect = [[1j * v[0, 0], 1j * v[0, 1], -1j * v[0, 2], -1j * v[0, 3]]]
        assert np.array_equal(apply_j(v), expect)
        assert np.array_equal(real_coords(apply_j(real_vector([1.0, 2j]))), [0.0, 1.0, -2.0, 0.0])

    @pytest.mark.parametrize("factor, real", [(10.0, False), (0.9, True), (0.1, True)])
    def test_reality_check_uses_the_named_tolerance(self, factor, real):
        v = real_vector([2.0, -0.5j])
        v[2] += factor * REAL_VECTOR_TOL * 2.0   # relative to max(1, max |component|) = 2
        if real:
            assert np.array_equal(real_coords(v), [2.0, 0.0, 0.0, -0.5])
        else:
            with pytest.raises(ValueError, match="not real"):
                real_coords(v)

    def test_each_point_of_a_stack_is_judged_against_its_own_scale(self):
        v = real_vector([1.0, 0.0])
        v[2:] += 1e-7                                  # off by 1e-7 at scale 1
        with pytest.raises(ValueError, match="not real"):
            real_coords(v)
        # a large neighbour does not widen the point's tolerance
        with pytest.raises(ValueError, match="not real"):
            real_coords(np.stack([real_vector([1e6, 0.0]), v]))
        # nor does a small one narrow its own: 1e-7 is within 1e-12 of 1e6
        w = real_vector([1e6, 0.0])
        w[2:] += 1e-7
        assert real_coords(np.stack([w, real_vector([1.0, 0.0])])).shape == (2, 4)

    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 6)])
    def test_a_real_stack_norm_equals_the_complex_route_bit_for_bit(self, shape):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
        if x.ndim > 1:
            x[1] = 0.0                                 # a zero row
            x[-1, ..., 0] = -0.0
        real, complex_route = _norms(x), _norms(x.astype(complex))
        assert real.dtype == complex_route.dtype == np.float64
        assert real.tobytes() == complex_route.tobytes()

    def test_real_gram_matches_hermitian_pairing(self):
        rng = np.random.default_rng(5)
        z = sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))
        H = HOPF.chart.hermitian(z)
        G = _real_gram(H)
        for _ in range(10):
            u = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            v = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lhs = real_coords(u) @ G @ real_coords(v)
            rhs = 2.0 * (u[:2] @ H @ v[:2].conj()).real
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestStackedStencil:
    """Every finite difference evaluates its stencil as one stack."""

    Z = np.array([0.3 + 0.1j, -0.2 + 0.5j, 1.1j])

    def test_fn_called_once_on_the_whole_stencil(self):
        calls = []

        def fn(p):
            calls.append(p.shape)
            return p ** 2

        d_dz, d_dzb = wirtinger_derivative(fn, self.Z, chart=FLAT3)
        assert calls == [(24, 3)]
        # d(z_k^2)/dz^l = 2 z_l delta_kl, and z_k^2 is holomorphic
        assert np.abs(d_dz - np.diag(2.0 * self.Z)).max() < 1e-9
        assert np.abs(d_dzb).max() < 1e-9

    def test_stencil_points_are_the_coordinate_steps(self):
        h = 1e-3
        pts = _stencil(self.Z, h)
        assert pts.shape == (4, 2, 3, 3)
        for k, t in enumerate((h, -h, h / 2.0, -h / 2.0)):
            for l, e in enumerate(np.eye(3, dtype=complex)):
                assert np.array_equal(pts[k, 0, l], self.Z + t * e)
                assert np.array_equal(pts[k, 1, l], self.Z + 1j * t * e)

    @pytest.mark.parametrize("fn", [
        lambda p: p[0],                 # pointwise: the first stencil point
        lambda p: 1.0,                  # no stack axis at all
        lambda p: p[..., 0][:-1],       # one value short
    ])
    def test_wrong_leading_axis_raises(self, fn):
        with pytest.raises(ValueError, match="one value per stencil point"):
            wirtinger_derivative(fn, self.Z, chart=FLAT3)

    def test_stencil_leaving_the_domain_raises(self):
        # inside the positive region, but within one step of the cone
        z = np.array([1.0, 1.0 + 1e-7], dtype=complex)
        assert HOPF.chart.domain_pred(z)
        B = lambda p: lee_data(HOPF, p).B
        with pytest.raises(ChartDomainError, match="stencil"):
            _field_derivatives([B], z, chart=HOPF.chart)
        with pytest.raises(ChartDomainError, match="stencil"):
            koszul_christoffel(HOPF.chart, z)


class TestFieldDerivatives:
    def test_fields_of_unequal_widths_equal_their_separate_calls_bit_for_bit(self, monkeypatch):
        model = HopfModel(n=3, s=1, lam=0.5)
        regions = ["+", "-", "+", "-"]
        lck = hopf_chart(model, regions=regions)
        rng = np.random.default_rng(31)
        Z = sample_hopf(model, np.stack([hopf_variates(3, rng) for _ in regions]), regions)
        Y, W = (real_vector(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
                for _ in range(2))
        M = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        gYW = lambda p: _g(lck.chart.hermitian(p), Y, W)
        fields = [lambda p: gYW(p)[..., None],                                # width 1
                  lambda p: real_vector(np.matvec(M, p)),                     # width 6
                  lambda p: lck.chart.hermitian(p).reshape(p.shape[:-1] + (9,)),   # width 9
                  lambda p: lee_form_components(lck, p)]                      # width 6
        calls, original = [], charts_mod.wirtinger_derivative
        monkeypatch.setattr(charts_mod, "wirtinger_derivative",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        together = charts_mod._field_derivatives(fields, Z, chart=lck.chart)
        assert len(calls) == 1
        for field, pair in zip(fields, together):
            alone = charts_mod._field_derivatives([field], Z, chart=lck.chart)[0]
            for d, a in zip(pair, alone):
                assert d.flags.c_contiguous and d.shape == a.shape
                assert d.tobytes() == a.tobytes()
        # the width-1 field is the derivative of its scalar, indexed [..., l, 0]
        for d, a in zip(together[0], original(gYW, Z, chart=lck.chart)):
            assert d[..., 0].tobytes() == a.tobytes()


class TestChartInvariants:
    @pytest.mark.parametrize("lck,sampler", [
        (HOPF, lambda rng: sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))),
        (TRIC, lambda rng: sample_tricerri(2, rng)),
        (FLAT, lambda rng: rng.standard_normal(2) + 1j * rng.standard_normal(2)),
    ])
    def test_hermitian_components(self, lck, sampler):
        rng = np.random.default_rng(31)
        for _ in range(10):
            z = sampler(rng)
            H = lck.chart.hermitian(z)
            assert np.abs(H - H.conj().T).max() < 1e-12

    def test_real_signature_at_samples(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            z = sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))
            HOPF.chart.real_form(z)  # constructor asserts signature (2, 2)

    def test_real_vector_pairs_real_with_real_form(self):
        rng = np.random.default_rng(33)
        from lcklab.lck import lee_form_components
        z = sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))
        omega = lee_form_components(HOPF, z)
        for _ in range(10):
            v = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert abs(complex(omega @ v).imag) < 1e-12


class TestChristoffel:
    def test_flat_vanishes(self):
        gamma = christoffel(FLAT.chart, np.array([0.3 + 1j, -2.0]))
        assert np.abs(gamma).max() == 0.0

    def test_hopf_value_at_reference_point(self):
        # Gamma^2_{22} = -(a/2|z|^2)(2 eps_2 zbar_2) = -1 at z = (0, 1)
        gamma = christoffel(HOPF.chart, Z01)
        assert gamma[1, 1, 1] == pytest.approx(-1.0, abs=1e-14)
        # Gamma^2bar_{2 2bar} = (a/2)(eps_2 zbar_2 - eps_2 zbar_2) = 0
        assert gamma[3, 1, 3] == pytest.approx(0.0, abs=1e-14)

    def test_hopf_fd_oracle_agreement(self):
        rng = np.random.default_rng(11)
        model = HopfModel(n=2, s=1, lam=0.5)
        for _ in range(20):
            z = sample_hopf(model, hopf_variates(model.n, rng))
            gamma = christoffel(HOPF.chart, z)
            solved = koszul_christoffel(HOPF.chart, z)
            rel = np.abs(gamma - solved).max() / max(1.0, np.abs(gamma).max())
            assert rel < 1e-6

    def test_tricerri_displayed_coefficients(self):
        p = np.array([0.7 + 1.4j, 0.3 - 0.2j, 1.1 + 0.9j])
        v = 1.4
        gamma = christoffel(TRIC.chart, p)
        m = 3
        for j in (1, 2):
            assert gamma[j, j, 0] == pytest.approx(-0.25j / v, abs=1e-14)
            assert gamma[j, j, m] == pytest.approx(0.25j / v, abs=1e-14)
        # the half-space block carries its own nonzero coefficient, so the
        # displayed pair is not the whole connection
        assert abs(gamma[0, 0, 0] - 1j / v) < 1e-14

    def test_tricerri_fd_oracle_agreement(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = sample_tricerri(2, rng)
            gamma = christoffel(TRIC.chart, p)
            assert np.abs(gamma - koszul_christoffel(TRIC.chart, p)).max() < 1e-6

    def test_symmetry_and_conjugation(self):
        rng = np.random.default_rng(13)
        z = sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))
        gamma = christoffel(HOPF.chart, z)
        assert np.abs(gamma - gamma.swapaxes(-1, -2)).max() < 1e-12
        sw = [2, 3, 0, 1]   # holomorphic <-> antiholomorphic slots
        assert np.abs(gamma - gamma[np.ix_(sw, sw, sw)].conj()).max() < 1e-12

    def test_domain_error(self):
        with pytest.raises(ChartDomainError):
            christoffel(HOPF.chart, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("lck,z", [
        (HOPF, Z01),
        (hopf_chart(HopfModel(n=2, s=1, lam=0.5), regions="-"), np.array([1.3, 0.2j])),
        (TRIC, np.array([0.7 + 1.4j, 0.3 - 0.2j, 1.1 + 0.9j])),
        (FLAT, np.array([0.3 + 1j, -2.0])),
    ])
    def test_closed_form_route_solves_nothing(self, lck, z, monkeypatch):
        calls = []
        solve, hermitian = charts_mod._solve_gram, MetricChart.hermitian
        monkeypatch.setattr(charts_mod, "_solve_gram",
                            lambda *a: calls.append("solve") or solve(*a))
        monkeypatch.setattr(MetricChart, "hermitian",
                            lambda self, p: calls.append("metric") or hermitian(self, p))
        christoffel(lck.chart, z)
        assert calls == []

    @pytest.mark.parametrize("n, s", [(2, 1), (4, 2)])
    def test_koszul_on_a_chart_with_complex_off_diagonal_metric(self, n, s):
        # the twisted chart's connection is M^-1 Gamma(A z) M M with
        # M = diag(A, conj(A)), since the map is linear
        rng = np.random.default_rng(3)
        A = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        model = HopfModel(n=n, s=s, lam=0.5)
        base, twisted = _twisted_hopf(model, A)
        w = sample_hopf(model, hopf_variates(model.n, rng))
        z = np.linalg.solve(A, w)
        T = charts_mod._metric_derivative_tensor(twisted, z)   # T[E, C, D] = Z_E g_CD
        assert np.array_equal(T, T.swapaxes(-1, -2))
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        M[:n, :n], M[n:, n:] = A, A.conj()
        closed = np.einsum("ad,def,eb,fc->abc", np.linalg.inv(M), christoffel(base, w), M, M)
        rel = np.abs(koszul_christoffel(twisted, z) - closed).max() / max(1.0, np.abs(closed).max())
        assert rel < 1e-9

    def test_koszul_route_without_closed_form(self):
        bare = dataclasses.replace(TRIC.chart, christoffel_analytic=None)
        p = np.array([0.4 + 1.2j, 0.8 - 0.1j, 0.3 + 0.6j])
        assert np.array_equal(christoffel(bare, p), koszul_christoffel(bare, p))


class TestCovariantDerivative:
    def test_flat_constant_field(self):
        Y = real_vector([1.0, 2.0])
        gamma = christoffel(FLAT.chart, np.array([0.1, 0.2], dtype=complex))
        out = covariant_derivative(gamma, real_vector([1, 0]), Y)
        assert np.abs(out).max() == 0.0

    def test_hopf_lee_field_parallel(self):
        B = lambda p: lee_data(HOPF, p).B
        rng = np.random.default_rng(14)
        z = sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))
        gamma, dB = christoffel(HOPF.chart, z), _field_derivatives([B], z, chart=HOPF.chart)[0]
        for j in range(2):
            X = np.eye(4, dtype=complex)[j]   # Z_j
            out = covariant_derivative(gamma, X, B(z), dB)
            assert np.abs(out).max() < 1e-8

    def test_tricerri_lee_derivative(self):
        B = lambda p: lee_data(TRIC, p).B
        p = np.array([0.4 + 1.1j, 0.2 + 0.5j, -0.6 + 0.1j])
        X = np.eye(6, dtype=complex)[1]   # Z_1
        dB = _field_derivatives([B], p, chart=TRIC.chart)[0]
        out = covariant_derivative(christoffel(TRIC.chart, p), X, B(p), dB)
        expect = np.zeros(6, dtype=complex)
        expect[1] = 0.5
        assert np.abs(out - expect).max() < 1e-9


class TestLieBracket:
    def test_constant_fields(self):
        X = lambda p: np.broadcast_to(real_vector([1.0, 0.0]), p.shape[:-1] + (4,))
        Y = lambda p: np.broadcast_to(real_vector([0.0, 1.0]), p.shape[:-1] + (4,))
        out = lie_bracket(X, Y, np.array([0.3, 0.4], dtype=complex), chart=FLAT.chart)
        assert np.abs(out).max() == 0.0

    def test_plane_example(self):
        # X = x2 d/dx1, Y = d/dx2 on R^2: [X, Y] = -d/dx1
        X = lambda p: real_vector(p[..., :1].imag)
        Y = lambda p: real_vector(np.full(p.shape, 1j))
        out = lie_bracket(X, Y, np.array([0.7 + 0.2j]), chart=flat_chart(1, 0).chart)
        assert np.abs(out - real_vector([-1.0])).max() < 1e-10

    def test_hopf_lee_plane_closed(self):
        z = np.array([0.1 + 0.2j, 1.3 - 0.1j])
        A = lambda p: lee_data(HOPF, p).A
        B = lambda p: lee_data(HOPF, p).B
        out = lie_bracket(A, B, z, chart=HOPF.chart)
        # bracket of the commuting scaling/rotation flows vanishes
        assert np.abs(out).max() < 1e-8


class TestExteriorDerivative:
    def test_flat_kahler_form_closed(self):
        omega = lambda p: kahler_form(FLAT.chart.hermitian(p))
        d = exterior_derivative_2form(omega, np.array([0.2 + 0.1j, -0.4 + 0.9j]), chart=FLAT.chart)
        assert np.abs(d).max() < 1e-12

    @pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (4, 2)])
    @pytest.mark.parametrize("region", ["+", "-"])
    def test_hopf_kahler_form_obeys_the_lck_identity(self, n, s, region):
        # d Omega = omega ^ Omega, with both sides alternated as
        # exterior_derivative_2form alternates: (a^b)_{ABC} = a_A b_BC
        # - a_B b_AC + a_C b_AB; Omega is far from closed, so the identity
        # is not met by two vanishing sides
        model = HopfModel(n=n, s=s, lam=0.5)
        lck = hopf_chart(model, regions=region)
        omega = lambda p: kahler_form(lck.chart.hermitian(p))
        rng = np.random.default_rng(21)
        for _ in range(5):
            z = sample_hopf(model, hopf_variates(n, rng), region)
            d = exterior_derivative_2form(omega, z, chart=lck.chart)
            W = np.einsum("a,bc->abc", lee_form_components(lck, z), omega(z))
            wedge = W - W.transpose(1, 0, 2) + W.transpose(1, 2, 0)
            assert np.abs(d).max() > 0.05
            assert np.abs(d - wedge).max() < 1e-9

    def test_conformal_rescaling_breaks_closedness(self):
        base = lambda p: kahler_form(FLAT.chart.hermitian(p))
        scaled = lambda p: np.exp(p[..., 0].real)[..., None, None] * base(p)
        d = exterior_derivative_2form(scaled, np.array([1.0, 1.0], dtype=complex), chart=FLAT.chart)
        assert np.abs(d).max() > 0.1

    def test_d_squared_vanishes(self):
        rng = np.random.default_rng(17)
        coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

        def alpha(p):
            w = np.concatenate([p, p.conj()], axis=-1)
            return np.matvec(coeff, w) + np.matvec(coeff, w ** 2)

        def dalpha(p):
            return exterior_derivative_1form(alpha, p, chart=FLAT.chart)

        z = np.array([0.3 - 0.2j, 0.6 + 0.4j])
        dd = exterior_derivative_2form(dalpha, z, chart=FLAT.chart)
        assert np.abs(dd).max() < 1e-5

    def test_each_row_of_a_stack_is_its_single_point_call(self):
        # one region per point, so the stack's chart is not the points' chart
        model = HopfModel(n=3, s=1, lam=0.5)
        regions = np.array(["+", "-", "+", "-"])
        lck = hopf_chart(model, regions=regions)
        rng = np.random.default_rng(22)
        Z = sample_hopf(model, np.stack([hopf_variates(3, rng) for _ in regions]), regions)
        alpha = lambda p: lee_form_components(lck, p)
        omega = lambda p: kahler_form(lck.chart.hermitian(p))
        d1 = exterior_derivative_1form(alpha, Z, chart=lck.chart)
        d2 = exterior_derivative_2form(omega, Z, chart=lck.chart)
        assert d1.shape == (4, 6, 6) and d2.shape == (4, 6, 6, 6)
        for i, z in enumerate(Z):
            one = hopf_chart(model, regions=regions[i])
            assert np.array_equal(d1[i], exterior_derivative_1form(
                lambda p: lee_form_components(one, p), z, chart=one.chart))
            assert np.array_equal(d2[i], exterior_derivative_2form(
                lambda p: kahler_form(one.chart.hermitian(p)), z, chart=one.chart))


class TestConformalShift:
    def test_differentiates_f_once(self):
        calls = []

        def f(p):
            calls.append(p.shape)
            return -np.log(np.abs(-np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2))

        X = real_vector([1.0, 0.5j])
        conformal_connection_shift(HOPF.chart, f, X, real_vector([0.2, -1.0]), Z01)
        assert len(calls) == 1

    def test_constant_factor_is_identity(self):
        z = np.array([0.5 + 0.2j, 1.1 - 0.7j])
        X = real_vector([1.0, 0.5j])
        Y = real_vector([0.2, -1.0])
        base = covariant_derivative(christoffel(HOPF.chart, z), X, Y)
        shifted = conformal_connection_shift(
            HOPF.chart, lambda p: np.full(p.shape[:-1], 3.7), X, Y, z)
        assert np.abs(base - shifted).max() < 1e-12

    @pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (4, 2)])
    @pytest.mark.parametrize("region", ["+", "-"])
    def test_flat_rescaling_reproduces_the_hopf_connection(self, n, s, region):
        # the Hopf metric is exp(-f) times the flat one with f = log |b(z,z)|,
        # so the shift of the flat chart must reproduce Hopf's closed-form
        # connection coefficients applied to constant (X, Y)
        model = HopfModel(n=n, s=s, lam=0.5)
        hopf = hopf_chart(model, regions=region).chart
        f = lambda q: np.log(np.abs(model.b(q)))
        rng = np.random.default_rng(18)
        for _ in range(5):
            z = sample_hopf(model, hopf_variates(n, rng), region)
            X = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            Y = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            shifted = conformal_connection_shift(flat_chart(n, s).chart, f, X, Y, z)
            expect = np.einsum("abc,b,c->a", christoffel(hopf, z), X, Y)
            assert np.abs(shifted - expect).max() < 1e-9 * np.abs(expect).max()

    def test_hopf_rescaling_flattens(self):
        # |z|^2 g is the flat metric, so shifting with the local conformal
        # factor -log |z|^2 must kill the connection on constant fields
        rng = np.random.default_rng(19)
        z = sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))
        f = lambda p: -np.log(abs(-abs(p[..., 0]) ** 2 + abs(p[..., 1]) ** 2))
        X = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        Y = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        shifted = conformal_connection_shift(HOPF.chart, f, X, Y, z)
        assert np.abs(shifted).max() < 1e-7

    def test_each_row_of_a_stack_is_its_single_point_call(self):
        model = HopfModel(n=3, s=1, lam=0.5)
        flat = flat_chart(3, 1).chart
        f = lambda q: np.log(np.abs(model.b(q)))
        rng = np.random.default_rng(23)
        Z = sample_hopf(model, np.stack([hopf_variates(3, rng) for _ in range(4)]))
        X, Y = (real_vector(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
                for _ in range(2))
        stacked = conformal_connection_shift(flat, f, X, Y, Z)
        assert stacked.shape == (4, 6)
        for i, z in enumerate(Z):
            assert np.array_equal(stacked[i], conformal_connection_shift(flat, f, X[i], Y[i], z))


class TestMetricCompatibility:
    @pytest.mark.parametrize("lck,sampler", [
        (HOPF, lambda rng: sample_hopf(HopfModel(n=2, s=1, lam=0.5), hopf_variates(2, rng))),
        (TRIC, lambda rng: sample_tricerri(2, rng)),
    ])
    def test_compatibility_and_torsion(self, lck, sampler):
        rng = np.random.default_rng(20)
        from lcklab.charts import wirtinger_derivative
        chart = lck.chart
        n = chart.n
        for _ in range(10):
            z = sampler(rng)
            gam = christoffel(chart, z)
            X = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            Y = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            W = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            H = chart.hermitian(z)
            nXY = covariant_derivative(gam, X, Y)
            nXW = covariant_derivative(gam, X, W)
            rhs = complex(_g(H, nXY, W) + _g(H, Y, nXW))
            # finite-difference lhs
            gYW = lambda p: _g(chart.hermitian(p), Y, W)
            d_dz, d_dzb = wirtinger_derivative(gYW, z, chart=chart)
            df = np.concatenate([d_dz.ravel(), d_dzb.ravel()])
            assert abs(complex(df @ X) - rhs) < 1e-6


class TestConditioning:
    """One eigvalsh of H decides, point by point, what np.linalg.cond of
    the complexified Gram decided."""

    @staticmethod
    def _accepts(H) -> bool:
        try:
            _require_conditioned(H, np.zeros(H.shape[-1]))
        except SingularMetricError:
            return False
        return True

    @staticmethod
    def _cond_accepts(H) -> bool:
        return bool(np.linalg.cond(_block_gram(H)) <= GRAM_COND_MAX)

    @pytest.mark.parametrize("n, s", [(2, 1), (4, 2)])
    def test_twisted_hopf_metrics_on_both_sides_of_the_bound(self, n, s):
        # cond(H') grows as cond(A)^2: the last column's scale t puts the
        # points on either side of GRAM_COND_MAX
        rng = np.random.default_rng(5)
        model = HopfModel(n=n, s=s, lam=0.5)
        A0 = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        decisions = []
        for t in (1.0, 1e-3, 10 ** -5.5, 10 ** -6.5, 1e-8):
            A = A0 * np.append(np.ones(n - 1), t)
            _, twisted = _twisted_hopf(model, A)
            w = np.stack([sample_hopf(model, hopf_variates(n, rng)) for _ in range(6)])
            for H in twisted.hermitian(np.linalg.solve(A, w[..., None])[..., 0]):
                assert self._accepts(H) == self._cond_accepts(H)
                decisions.append(self._accepts(H))
        assert set(decisions) == {True, False}

    @pytest.mark.parametrize("H, accepted", [
        (np.diag([1.0, 1e-11]), True), (np.diag([1.0, 1e-13]), False),
        (np.ones((2, 2)), False)])
    def test_near_and_exactly_singular_metrics(self, H, accepted):
        H = H.astype(complex)
        assert self._accepts(H) == self._cond_accepts(H) == accepted

    def test_a_metric_that_is_not_hermitian_is_refused_at_its_point(self):
        H = np.diag([1.0, -1.0]).astype(complex)
        H[0, 1] += 1e-6
        z = np.array([0.3 + 0.1j, 1.2 - 0.4j])
        with pytest.raises(SingularMetricError, match="not Hermitian") as err:
            _require_conditioned(H, z)
        assert str(z) in str(err.value)

    def test_an_asymmetry_within_a_relative_1e_5_of_an_entry_is_refused(self):
        # np.allclose's default relative term let H01 - conj(H10) = 2e-6
        # pass beside an entry 0.3; the rule's bound is 1e-12 * max(1, max |H|)
        H = np.array([[1.0, 0.3 + 2e-6], [0.3, -1.0]], dtype=complex)
        with pytest.raises(SingularMetricError, match="not Hermitian"):
            _require_conditioned(H, np.zeros(2))
        H[0, 1] = 0.3 + 1e-13
        _require_conditioned(H, np.zeros(2))


class TestGramThroughH:
    """_solve_gram, _lower and _g act through the n x n components H as the
    complexified 2n x 2n Gram [[0, H], [conj(H), 0]] acts on frame
    components."""

    @staticmethod
    def _complex(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n, s", [(2, 1), (4, 2)])
    def test_an_off_diagonal_metric_matches_the_block_gram(self, n, s):
        rng = np.random.default_rng(11)
        model = HopfModel(n=n, s=s, lam=0.5)
        A = np.eye(n) + 0.3 * self._complex(rng, (n, n))
        _, twisted = _twisted_hopf(model, A)
        w = np.stack([sample_hopf(model, hopf_variates(n, rng)) for _ in range(6)])
        z = np.linalg.solve(A, w[..., None])[..., 0]
        H = twisted.hermitian(z)
        assert np.abs(H[..., 0, 1]).min() > 1e-3 * np.abs(H).max()
        G = _block_gram(H)
        u, v = self._complex(rng, (6, 2 * n)), self._complex(rng, (6, 2 * n))
        rhs = self._complex(rng, (6, 2 * n, 3))

        def rel(got, expect):
            return np.abs(got - expect).max() / np.abs(expect).max()

        assert rel(_lower(H, v), np.einsum("...ab,...b->...a", G, v)) < 1e-13
        assert rel(_g(H, u, v), np.einsum("...a,...ab,...b->...", u, G, v)) < 1e-13
        assert rel(_solve_gram(H, rhs, z), np.linalg.solve(G, rhs)) < 1e-13

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lck, draw", [
        (hopf_chart(HopfModel(n=3, s=1, lam=0.5)),
         lambda rng: sample_hopf(HopfModel(n=3, s=1, lam=0.5), hopf_variates(3, rng))),
        (TRIC, lambda rng: sample_tricerri(2, rng)),
    ], ids=["hopf", "tricerri"])
    def test_a_diagonal_metric_matches_the_block_gram_bit_for_bit(self, lck, draw, k):
        rng = np.random.default_rng(12)
        z = np.stack([draw(rng) for _ in range(5)])
        H = lck.chart.hermitian(z)
        assert np.array_equal(H, H * np.eye(lck.chart.n))
        G = _block_gram(H)
        n2 = 2 * lck.chart.n
        u, v = self._complex(rng, (5, n2)), self._complex(rng, (5, n2))
        rhs = self._complex(rng, (5, n2, k))
        assert np.array_equal(_solve_gram(H, rhs, z), np.linalg.solve(G, rhs))
        assert np.array_equal(_lower(H, v), np.matvec(G, v))
        assert np.array_equal(_g(H, u, v), _bilinear(u, G, v))
        # a point is a stack with no leading axes
        assert np.array_equal(_solve_gram(H[0], rhs[0], z[0]), np.linalg.solve(G[0], rhs[0]))
