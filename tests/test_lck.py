import numpy as np
import pytest

from lcklab import suites as suites_mod
from lcklab.charts import (
    ChartDomainError,
    MetricChart,
    SingularMetricError,
    _along,
    _field_derivatives,
    _g,
    _lower,
    _stencil,
    apply_j,
    christoffel,
    covariant_derivative,
    exterior_derivative_1form,
    exterior_derivative_2form,
    fd_step,
    kahler_form,
    real_coords,
    real_vector,
)
from lcklab.lck import (
    LCKStructure,
    _non_null,
    lee_data,
    lee_form_components,
    nabla_J_defect,
    parallel_lee_residual,
    weyl_connection,
)
from lcklab.models import HopfModel, flat_chart, hopf_chart, synthetic_null_structure, tricerri_chart
from lcklab.report import RunConfig
from lcklab.sampling import hopf_variates, sample_hopf, sample_tricerri

MODEL = HopfModel(n=2, s=1, lam=0.5)
HOPF = hopf_chart(MODEL)
HOPF_NEG = hopf_chart(MODEL, regions="-")
FLAT = flat_chart(2, 1)
TRIC = tricerri_chart(2, 1)
NEAR_CONE = np.array([1.0, np.sqrt(1.0 + 2e-7)], dtype=complex)   # b(z, z) = 1e-7 |z|^2


class TestLeeData:
    def test_hopf_positive_region(self):
        z = np.array([0.3 + 0.1j, 1.2 - 0.4j])
        d = lee_data(HOPF, z)
        assert d.c == pytest.approx(4.0, abs=1e-12)
        assert np.abs(d.B[:2] + 2.0 * z).max() < 1e-12

    def test_hopf_negative_region(self):
        z = np.array([1.5 + 0.2j, 0.3 - 0.1j])
        d = lee_data(HOPF_NEG, z)
        assert d.c == pytest.approx(-4.0, abs=1e-12)
        assert np.abs(d.B[:2] - 2.0 * z).max() < 1e-12

    def test_tricerri_spacelike_unit(self):
        p = np.array([0.2 + 0.9j, 1.0 - 0.3j, 0.4 + 0.2j])
        d = lee_data(TRIC, p)
        assert d.c == pytest.approx(1.0, abs=1e-12)
        assert d.B[0] == pytest.approx(1j * 0.9, abs=1e-12)
        assert np.abs(d.B[1:3]).max() < 1e-12

    def test_raising_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            d = lee_data(HOPF, z)
            lowered = _lower(HOPF.chart.hermitian(z), d.B)
            assert np.abs(lowered - lee_form_components(HOPF, z)).max() < 1e-10

    def test_anti_lee_identities(self):
        rng = np.random.default_rng(1)
        for lck, sampler in ((HOPF, lambda r: sample_hopf(MODEL, hopf_variates(MODEL.n, r))),
                             (TRIC, lambda r: sample_tricerri(2, r))):
            z = sampler(rng)
            d = lee_data(lck, z)
            omega = lee_form_components(lck, z)
            # A = -J B exactly
            assert np.abs(d.A + apply_j(d.B)).max() == 0.0
            # theta(B) = omega(A) = 0; theta(A) = omega(B) = c
            assert abs(complex(d.theta @ d.B)) < 1e-9
            assert abs(complex(omega @ d.A)) < 1e-9
            assert abs(complex(d.theta @ d.A) - d.c) < 1e-9
            assert abs(complex(omega @ d.B) - d.c) < 1e-9

    def test_omega_closed_and_exact(self):
        rng = np.random.default_rng(2)
        for lck, sampler in ((HOPF, lambda r: sample_hopf(MODEL, hopf_variates(MODEL.n, r))),
                             (TRIC, lambda r: sample_tricerri(2, r))):
            z = sampler(rng)
            domega = exterior_derivative_1form(lambda p: lee_form_components(lck, p), z,
                                               chart=lck.chart)
            assert np.abs(domega).max() < 1e-6
            # omega = df for the chart's conformal factor
            from lcklab.charts import wirtinger_derivative
            f = lck.conformal_factor_eval
            d_dz, d_dzb = wirtinger_derivative(lambda p: np.asarray(f(p), dtype=complex), z,
                                               chart=lck.chart)
            df = np.concatenate([d_dz.ravel(), d_dzb.ravel()])
            assert np.abs(df - lee_form_components(lck, z)).max() < 1e-9

    def test_kahler_form_j_invariance(self):
        rng = np.random.default_rng(3)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        Om = kahler_form(HOPF.chart.hermitian(z))
        for _ in range(5):
            X = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            Y = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            om = lambda u, v: complex(u @ Om @ v)
            assert abs(om(X, Y) + om(Y, X)) < 1e-10
            assert abs(om(apply_j(X), apply_j(Y)) - om(X, Y)) < 1e-10


    def test_singular_gram_raises_typed_error_every_call(self):
        calls = []

        def zero_metric(z):
            calls.append(1)
            return np.zeros((2, 2))

        chart = MetricChart(n=2, s=1, metric_eval=zero_metric, domain_pred=lambda z: True)
        lck = LCKStructure(chart=chart, lee_form_eval=lambda z: np.ones(2))
        z = np.array([0.5 + 0.1j, 1.0 - 0.2j])
        for attempt in (1, 2):
            with pytest.raises(SingularMetricError):
                lee_data(lck, z)
            assert len(calls) == attempt   # the failure was not memoized


class TestRealMembers:
    """LeeData's real-coordinate members equal what callers used to rebuild."""

    CASES = {
        "hopf+": (HOPF, np.array([0.3 + 0.1j, 1.2 - 0.4j])),
        "hopf-": (HOPF_NEG, np.array([1.5 + 0.2j, 0.3 - 0.1j])),
        "tricerri": (TRIC, np.array([0.4 + 0.9j, 0.3 - 0.2j, -0.5 + 0.1j])),
        "synthetic-null": (synthetic_null_structure(3, 1), np.zeros(3, dtype=complex)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_members_equal_the_lowered_lee_field_exactly(self, case):
        lck, z = self.CASES[case]
        d = lee_data(lck, z)
        gram = lck.chart.real_form(z).gram
        assert np.array_equal(d.B_real, real_coords(d.B))
        assert np.array_equal(d.A_real, real_coords(d.A))
        assert np.array_equal(d.omega_real, gram @ real_coords(d.B))
        assert np.array_equal(d.omega, lee_form_components(lck, z))
        assert np.array_equal(d.H, lck.chart.hermitian(z))
        assert d.non_null == _non_null(d.c, real_coords(d.B))
        assert d.non_null == (case != "synthetic-null")

    def test_members_are_computed_once_on_demand_and_read_only(self):
        lck = hopf_chart(MODEL)
        z = np.array([0.3 + 0.1j, 1.2 - 0.4j])
        d = lee_data(lck, z)
        names = ("real_gram", "B_real", "A_real", "omega_real")
        assert not any(name in vars(d) for name in names)
        for name in names:
            arr = getattr(d, name)
            assert getattr(lee_data(lck, z.copy()), name) is arr
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for arr in (d.omega, d.H):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_constant_chart_metric_stays_writable(self):
        flat = flat_chart(2, 1)
        z = np.array([0.1 + 0.2j, -0.3j])
        lee_data(flat, z)
        assert flat.chart.hermitian(z).flags.writeable


class TestStackedLeeData:
    """lee_data on a stack of points, as finite-difference stencils call it."""

    CASES = dict(TestRealMembers.CASES, flat=(FLAT, np.array([0.1 + 0.2j, -0.3j])))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_single_point_evaluations(self, case):
        lck, z = self.CASES[case]
        stack = _stencil(z, fd_step(z)).reshape(-1, z.size)
        d = lee_data(lck, stack)
        Om = kahler_form(lck.chart.hermitian(stack))
        assert d.B.shape == (len(stack), 2 * z.size) and d.c.shape == stack.shape[:1]
        for i, p in enumerate(stack):
            single = lee_data(lck, p)
            assert d.c[i] == single.c
            assert np.array_equal(Om[i], kahler_form(lck.chart.hermitian(p)))
            for name in ("omega", "theta", "H", "B_real", "A_real",
                         "omega_real", "non_null"):
                assert np.array_equal(getattr(d, name)[i], getattr(single, name)), name
            assert np.array_equal(d.B[i], single.B)
            assert np.array_equal(d.A[i], single.A)

    def test_stack_is_memoized_apart_from_its_rows(self):
        calls = []
        metric = HOPF.chart.metric_eval

        def counted(z):
            calls.append(np.shape(z))
            return metric(z)

        chart = MetricChart(n=2, s=1, metric_eval=counted, domain_pred=HOPF.chart.domain_pred)
        lck = LCKStructure(chart=chart, lee_form_eval=HOPF.lee_form_eval)
        z = np.array([0.3 + 0.1j, 1.2 - 0.4j])
        stack = _stencil(z, fd_step(z)).reshape(-1, 2)
        first = lee_data(lck, stack)
        assert lee_data(lck, stack.copy()) is first
        assert calls == [(16, 2)]
        # a one-point stack is not the point itself
        assert lee_data(lck, z[None]).B.shape == (1, 4)
        assert lee_data(lck, z).B.shape == (4,)

    def test_one_singular_gram_in_a_stack_raises(self):
        def metric(z):   # diag(Re z1, 1) / 2: singular where Re z1 = 0
            d = np.stack(np.broadcast_arrays(z[..., 0].real, 1.0), axis=-1)
            return np.einsum("...j,jk->...jk", 0.5 * d, np.eye(2))

        chart = MetricChart(n=2, s=0, metric_eval=metric, domain_pred=lambda z: True)
        lck = LCKStructure(chart=chart, lee_form_eval=lambda z: np.ones(np.shape(z)))
        stack = np.array([[1.0, 0.5], [0.5j, 0.2], [2.0, 1j]])
        assert lee_data(lck, stack[[0, 2]]).c.shape == (2,)
        with pytest.raises(SingularMetricError) as err:
            lee_data(lck, stack)
        assert str(stack[1]) in str(err.value)   # the singular point is named

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_a_non_finite_metric_in_a_stack_raises_quietly(self, capfd, entry):
        # LAPACK stopped on a NaN ("SVD did not converge", no point named)
        # and printed a DLASCL complaint about an inf
        def metric(z):   # diag(1, 1) / 2, with one non-finite entry where Re z1 = 0
            H = np.broadcast_to(0.5 * np.eye(2, dtype=complex), z.shape[:-1] + (2, 2)).copy()
            H[..., 0, 1] = np.where(z[..., 0].real == 0.0, entry, 0.0)
            return H

        chart = MetricChart(n=2, s=0, metric_eval=metric, domain_pred=lambda z: True)
        lck = LCKStructure(chart=chart, lee_form_eval=lambda z: np.ones(np.shape(z)))
        stack = np.array([[1.0, 0.5], [0.5j, 0.2], [2.0, 1j]])
        with pytest.raises(SingularMetricError) as err:
            lee_data(lck, stack)
        assert str(stack[1]) in str(err.value)
        assert capfd.readouterr() == ("", "")


class TestPointMemo:
    """lee_data memoizes per point without callers noticing."""

    Z = np.array([0.3 + 0.1j, 1.2 - 0.4j])

    def test_repeated_calls_equal_a_fresh_evaluation(self):
        lck = hopf_chart(MODEL)
        first = lee_data(lck, self.Z)
        again = lee_data(lck, self.Z.copy())
        fresh = lee_data(hopf_chart(MODEL), self.Z)
        for d in (again, fresh):
            assert d.c == first.c
            for name in ("point", "theta", "H"):
                assert np.array_equal(getattr(d, name), getattr(first, name))
            assert np.array_equal(d.B, first.B)
            assert np.array_equal(d.A, first.A)

    def test_repeat_skips_metric_evaluation(self):
        calls = []
        metric = HOPF.chart.metric_eval

        def counted(z):
            calls.append(1)
            return metric(z)

        chart = MetricChart(n=2, s=1, metric_eval=counted, domain_pred=HOPF.chart.domain_pred)
        lck = LCKStructure(chart=chart, lee_form_eval=HOPF.lee_form_eval)
        lee_data(lck, self.Z)
        done = len(calls)
        lee_data(lck, self.Z)
        assert len(calls) == done

    def test_cached_arrays_are_read_only(self):
        d = lee_data(HOPF, self.Z)
        for arr in (d.point, d.B, d.A, d.theta, d.H):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.array_equal(lee_data(HOPF, self.Z).point, self.Z)

    def test_caller_mutation_does_not_reach_the_cache(self):
        lck = hopf_chart(MODEL)
        z = self.Z.copy()
        d = lee_data(lck, z)
        z[0] += 0.05
        assert np.array_equal(d.point, self.Z)
        moved = lee_data(lck, z)
        assert np.array_equal(moved.point, z)
        assert np.array_equal(moved.B,
                              lee_data(hopf_chart(MODEL), z).B)
        assert np.array_equal(lee_data(lck, self.Z).B, d.B)


class TestWeylConnection:
    def test_zero_lee_form_reduces_to_levi_civita(self):
        z = np.array([0.4 + 0.2j, -0.3 + 0.8j])
        X = real_vector([1.0, 0.3j])
        Y = real_vector([0.5, -0.2])
        D = weyl_connection(FLAT, X, Y, z)
        base = covariant_derivative(christoffel(FLAT.chart, z), X, Y)
        assert np.abs(D - base).max() < 1e-14

    def test_dj_vanishes_on_hopf(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            gam = christoffel(HOPF.chart, z)
            X = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            Y = real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lhs = weyl_connection(HOPF, X, apply_j(Y), z, gamma=gam)
            rhs = apply_j(weyl_connection(HOPF, X, Y, z, gamma=gam))
            assert np.abs(lhs - rhs).max() < 1e-6

    def test_lee_direction_value(self):
        # D_B B = nabla_B B - (c/2) B = -2 B on the positive region: the
        # Weyl connection of the fixed vector B plus the derivative B(B)
        z = np.array([0.2 - 0.5j, 1.4 + 0.3j])
        d = lee_data(HOPF, z)
        dB = _field_derivatives([lambda p: lee_data(HOPF, p).B], z, chart=HOPF.chart)[0]
        out = weyl_connection(HOPF, d.B, d.B, z) + _along(d.B, dB)
        assert np.abs(out + 2.0 * d.B).max() < 1e-8

    def test_not_metric_compatible(self):
        # the shifted connection preserves J but not g: witness the defect
        from lcklab.charts import wirtinger_derivative
        rng = np.random.default_rng(7)
        z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
        Y = real_vector([0.0, 1.0])
        gYY = lambda p: _g(HOPF.chart.hermitian(p), Y, Y)
        d_dz, d_dzb = wirtinger_derivative(gYY, z, chart=HOPF.chart)
        df = np.concatenate([d_dz.ravel(), d_dzb.ravel()])
        # the defect is a covector in X: witness it over all 2n real
        # coordinate directions, since one direction can sit near its kernel
        defects = []
        for hol in np.vstack([np.eye(2), 1j * np.eye(2)]):
            X = real_vector(hol)
            lhs = complex(df @ X)
            DY = weyl_connection(HOPF, X, Y, z)
            rhs = 2.0 * complex(_g(HOPF.chart.hermitian(z), DY, Y))
            defects.append(abs(lhs - rhs))
        assert max(defects) > 1e-3


class TestNablaJ:
    def test_flat_chart_vanishes(self):
        z = np.array([0.3, 0.7], dtype=complex)
        X = real_vector([1.0, 2.0])
        Y = real_vector([0.0, 1.0 - 1j])
        out = nabla_J_defect(FLAT, X, Y, z)
        assert np.abs(out).max() < 1e-14

    @pytest.mark.parametrize("lck,sampler,n", [
        (HOPF, lambda r: sample_hopf(MODEL, hopf_variates(MODEL.n, r)), 2),
        (HOPF_NEG, lambda r: sample_hopf(MODEL, hopf_variates(MODEL.n, r), "-"), 2),
        (TRIC, lambda r: sample_tricerri(2, r), 3),
    ])
    def test_closed_form_identity(self, lck, sampler, n):
        rng = np.random.default_rng(5)
        for _ in range(25):
            z = sampler(rng)
            X = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            Y = real_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            out = nabla_J_defect(lck, X, Y, z)
            assert np.abs(out).max() < 1e-6

    def test_reads_the_kahler_form_from_the_lee_data_metric(self, monkeypatch):
        # constant X, Y take no derivative and Hopf's connection is closed
        # form: the one metric evaluation is lee_data's
        calls = []
        hermitian = MetricChart.hermitian
        monkeypatch.setattr(MetricChart, "hermitian",
                            lambda self, p: calls.append(1) or hermitian(self, p))
        X, Y = real_vector([1.0, 0.5j]), real_vector([0.2, -1.0])
        nabla_J_defect(hopf_chart(MODEL), X, Y, np.array([0.2 - 0.5j, 1.4 + 0.3j]))
        assert len(calls) == 1


class TestParallelLee:
    def test_hopf_parallel(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            z = sample_hopf(MODEL, hopf_variates(MODEL.n, rng))
            assert parallel_lee_residual(HOPF, z) < 1e-6

    def test_flat_trivially_parallel(self):
        assert parallel_lee_residual(FLAT, np.array([0.1, 0.9], dtype=complex)) < 1e-12

    def test_tricerri_nonparallel_witness(self):
        p = np.array([0.3 + 1.0j, 0.2 - 0.7j, 1.1 + 0.4j])
        res = parallel_lee_residual(TRIC, p)
        assert res > 0.01
        # analytic value: max |(nabla omega)(Z_j, Zbar_k)| = Im(w)/4
        assert res == pytest.approx(0.25, abs=1e-6)

    def test_stencil_across_the_cone_raises(self):
        # b(z, z) = 1e-7 |z|^2: inside region "+", its stencil is not
        with pytest.raises(ChartDomainError, match="^stencil around .* leaves domain"):
            parallel_lee_residual(HOPF, NEAR_CONE)

    def test_suite_records_the_stencil_fault(self, monkeypatch):
        monkeypatch.setitem(suites_mod.MODELS, "hopf", suites_mod.MODELS["hopf"]._replace(
            draw=lambda cfg, rng: ("+", hopf_variates(cfg.n, rng))))
        monkeypatch.setattr(suites_mod, "sample_hopf",
                            lambda model, V, regions: np.tile(NEAR_CONE, (len(V), 1)))
        cfg = RunConfig(model="hopf", points=2, seed=42, suites=("parallel-lee",))
        suite = suites_mod._BY_NAME["parallel-lee"]
        result = suites_mod._run_suite(cfg, suite, suites_mod._point_states(cfg, [suite])[0])
        assert result.verdict == "error"
        assert result.error == (f"ChartDomainError: stencil around {NEAR_CONE} leaves domain "
                                f"of hopf(n=2,s=1,+)")


def test_homothety_rigidity_witness():
    # conformally rescaling an (indefinite) Kahler metric by a nonconstant
    # factor always breaks closedness of the fundamental form
    base = lambda p: kahler_form(FLAT.chart.hermitian(p))
    scaled = lambda p: np.exp(p[..., 0].real)[..., None, None] * base(p)
    d = exterior_derivative_2form(scaled, np.array([1.0, 1.0], dtype=complex), chart=FLAT.chart)
    assert np.abs(d).max() > 1e-3
