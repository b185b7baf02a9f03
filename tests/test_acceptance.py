"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <k>: PASS` line on success (pytest -s
shows them live; `pytest -v` lists one verdict per criterion either way).
"""

import json
import subprocess
import sys
import time

import numpy as np

from lcklab.charts import (
    _field_derivatives, christoffel, covariant_derivative, hol_from_real_coords, koszul_christoffel, real_vector,
)
from lcklab.cr import (
    cayley_cr_residual,
    chart_radius,
    leaf_chart_image_check,
    leaf_label,
    same_leaf,
    siegel_levi_signature,
)
from lcklab.foliations import (
    complex_submanifold_mean_curvature,
    first_foliation_fibre,
    gauss_weingarten,
    integrability_residual,
    isotropic_transversal_pair,
    lightlike_transversal,
    second_foliation_fibre,
)
from lcklab.lck import lee_data, parallel_lee_residual
from lcklab.models import (
    HopfModel,
    cayley,
    deck_equivalent,
    fibration_split,
    hopf_chart,
    hopf_diffeo,
    hopf_diffeo_inv,
    retraction,
    submersion_isometry_residual,
    tricerri_chart,
)
from lcklab.sampling import (
    hopf_variates,
    sample_complement_vector,
    sample_hopf,
    sample_null_config,
    sample_null_lee_vector,
    sample_pair_frame,
    sample_pseudosphere,
    sample_tricerri,
    sample_unit_circle,
)
from lcklab.semieuclid import (
    contains_span, independent_rows, inner, orthogonal_complement, restricted_gram, signature_of,
)


def report(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {text}")


def hopf_pair(n, s, region="+"):
    model = HopfModel(n=n, s=s, lam=0.5)
    return model, hopf_chart(model, regions=region)


def test_criterion_01_christoffel_oracle():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        for s in range(1, n):
            model, lck = hopf_pair(n, s)
            for _ in range(100):
                z = sample_hopf(model, hopf_variates(model.n, rng))
                gamma = christoffel(lck.chart, z)
                solved = koszul_christoffel(lck.chart, z)
                rel = np.abs(gamma - solved).max() / max(1.0, np.abs(gamma).max())
                worst = np.maximum(worst, float(rel))
    for n in (1, 2):
        lck = tricerri_chart(n, max(0, n - 1))
        for _ in range(100):
            p = sample_tricerri(n, rng)
            gamma = christoffel(lck.chart, p)
            solved = koszul_christoffel(lck.chart, p)
            rel = np.abs(gamma - solved).max() / max(1.0, np.abs(gamma).max())
            worst = np.maximum(worst, float(rel))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    report(1, f"closed-form vs difference-solved connection, rel {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_02_parallel_lee():
    rng = np.random.default_rng(102)
    model, lck = hopf_pair(2, 1)
    worst = np.max([parallel_lee_residual(lck, sample_hopf(model, hopf_variates(model.n, rng)))
                    for _ in range(100)])
    assert worst < 1e-6
    tric = tricerri_chart(2, 1)
    worst_b = 0.0
    for _ in range(100):
        p = sample_tricerri(2, rng)
        Bf = lambda q: lee_data(tric, q).B
        gamma, dB = christoffel(tric.chart, p), _field_derivatives([Bf], p, chart=tric.chart)[0]
        for j in (1, 2):
            X = np.eye(6, dtype=complex)[j]   # Z_j
            out = covariant_derivative(gamma, X, Bf(p), dB)
            expect = np.zeros(6, dtype=complex)
            expect[j] = 0.5
            worst_b = np.maximum(worst_b, float(np.abs(out - expect).max()))
    assert worst_b < 1e-6
    p = sample_tricerri(2, rng)
    p[0] = p[0].real + 1j
    witness = parallel_lee_residual(tric, p)
    assert witness > 0.01
    report(2, f"parallel {worst:.2e}, family-chart nabla B {worst_b:.2e}, "
              f"nonparallel witness {witness:.3f}")


def test_criterion_03_lee_norms():
    rng = np.random.default_rng(103)
    worst = 0.0
    for region, expect in (("+", 4.0), ("-", -4.0)):
        model, lck = hopf_pair(2, 1, region)
        for _ in range(100):
            z = sample_hopf(model, hopf_variates(model.n, rng), region)
            worst = np.maximum(worst, abs(lee_data(lck, z).c - expect))
    tric = tricerri_chart(2, 1)
    for _ in range(100):
        worst = np.maximum(worst, abs(lee_data(tric, sample_tricerri(2, rng)).c - 1.0))
    assert worst < 1e-10
    report(3, f"Lee norms on both regions and the family chart, err {worst:.2e}")


def test_criterion_04_totally_geodesic_and_signature():
    rng = np.random.default_rng(104)
    model, lck = hopf_pair(2, 1)
    worst = 0.0
    for _ in range(100):
        z = sample_hopf(model, hopf_variates(model.n, rng))
        tangent = first_foliation_fibre(lck, z)
        coeff = rng.standard_normal((2, tangent.shape[-2]))
        h, _ = gauss_weingarten(lck, z, coeff[0] @ tangent, coeff[1] @ tangent)
        worst = np.maximum(worst, float(np.abs(h).max()))
    assert worst < 1e-5
    for n, s in ((2, 1), (3, 1), (3, 2)):
        for region, expect in (("+", 2 * s), ("-", 2 * s - 1)):
            m, lc = hopf_pair(n, s, region)
            for _ in range(10):
                z = sample_hopf(m, hopf_variates(m.n, rng), region)
                _, index, null = signature_of(lee_data(lc, z).form, first_foliation_fibre(lc, z))
                assert index == expect and null == 0
    report(4, f"leaf second fundamental form {worst:.2e}, indices match")


def test_criterion_05_lightlike_transversal():
    rng = np.random.default_rng(105)
    from lcklab.sampling import _kernel
    worst_eq, worst_inv = 0.0, 0.0
    dims = [(2, 1), (3, 1), (4, 2)]
    for i in range(1000):
        n, s = dims[i % 3]
        cfg = sample_null_config(n, s, sample_null_lee_vector(n, s, [rng])[0])
        tangent_rows = _kernel(cfg.omega.reshape(1, -1))
        qB, _ = np.linalg.qr(cfg.B.reshape(-1, 1))
        proj = tangent_rows - (tangent_rows @ qB) @ qB.T
        _, sv, vt = np.linalg.svd(proj, full_matrices=False)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
        screen = independent_rows(cfg.form, vt[:rank])
        V = sample_complement_vector(cfg.first_screen_perp[None], cfg.omega[None], [rng])[0]
        N = lightlike_transversal(cfg.form, cfg.omega, cfg.B, screen, V)
        worst_eq = np.max([worst_eq, abs(inner(cfg.form, N, N)),
                           abs(float(cfg.omega @ N) - 1.0)])
        scale = rng.uniform(0.5, 3.0)
        N2 = lightlike_transversal(cfg.form, cfg.omega, cfg.B, screen, scale * V)
        V3 = sample_complement_vector(cfg.first_screen_perp[None], cfg.omega[None], [rng])[0]
        N3 = lightlike_transversal(cfg.form, cfg.omega, cfg.B, screen, V3)
        worst_inv = np.max([worst_inv, float(np.abs(N - N2).max()),
                            float(np.abs(N - N3).max())])
    assert worst_eq < 1e-10
    assert worst_inv < 1e-9
    report(5, f"1000 null configs: normalization {worst_eq:.2e}, "
              f"invariance {worst_inv:.2e}")


def test_criterion_06_second_foliation():
    rng = np.random.default_rng(106)
    worst_br, worst_gram = 0.0, 0.0
    for region in ("+", "-"):
        model, lck = hopf_pair(2, 1, region)
        sign = 1.0 if region == "+" else -1.0
        for _ in range(50):
            z = sample_hopf(model, hopf_variates(model.n, rng), region)
            worst_br = np.maximum(worst_br, integrability_residual(lck, z))
            plane = second_foliation_fibre(lck, z)
            worst_gram = np.maximum(worst_gram, float(np.abs(
                restricted_gram(lee_data(lck, z).form, plane) - 4.0 * sign * np.eye(2)).max()))
    assert worst_br < 1e-5
    assert worst_gram < 1e-9
    from lcklab.models import synthetic_null_structure
    syn = synthetic_null_structure(3, 1)
    z = np.zeros(3, dtype=complex)
    form, plane = lee_data(syn, z).form, second_foliation_fibre(syn, z)
    # the plane is its own radical: it lies in its g-orthocomplement
    assert signature_of(form, plane) == (0, 0, 2)
    assert contains_span(orthogonal_complement(form, plane), plane, 1e-10)
    report(6, f"bracket off-plane {worst_br:.2e}, plane Gram {worst_gram:.2e}, "
              f"null plane equals its radical")


def test_criterion_07_isotropic_pair():
    rng = np.random.default_rng(107)
    worst_eq, worst_inv = 0.0, 0.0
    for i in range(1000):
        n, s = (3, 1) if i % 2 == 0 else (4, 2)
        cfg = sample_null_config(n, s, sample_null_lee_vector(n, s, [rng])[0])
        (V1,), (V2,) = sample_pair_frame(cfg.screen_perp_basis[None], cfg.omega[None],
                                         cfg.theta[None], [rng])
        N1, N2 = isotropic_transversal_pair(cfg.form, cfg.omega, cfg.theta,
                                             cfg.A, cfg.B, cfg.screen, V1, V2)
        worst_eq = np.max([worst_eq,
                           abs(float(cfg.theta @ N1) - 1.0),
                           abs(float(cfg.omega @ N2) - 1.0),
                           abs(float(cfg.theta @ N2)),
                           abs(float(cfg.omega @ N1))])
        for u in (N1, N2):
            for v in (N1, N2):
                worst_eq = np.maximum(worst_eq, abs(inner(cfg.form, u, v)))
        f = rng.standard_normal((2, 2))
        if abs(np.linalg.det(f)) > 0.1:
            M1, M2 = isotropic_transversal_pair(
                cfg.form, cfg.omega, cfg.theta, cfg.A, cfg.B, cfg.screen,
                f[0, 0] * V1 + f[0, 1] * V2, f[1, 0] * V1 + f[1, 1] * V2)
            worst_inv = np.max([worst_inv, float(np.abs(N1 - M1).max()),
                                float(np.abs(N2 - M2).max())])
    assert worst_eq < 1e-10
    assert worst_inv < 1e-9
    # worked flat example, frozen values
    form = __import__("lcklab.semieuclid", fromlist=["SemiEuclideanForm"]) \
        .SemiEuclideanForm.standard(2, 6)
    B = np.array([1.0, 0, 1, 0, 0, 0])
    A = np.array([0, -1.0, 0, -1, 0, 0])
    screen = independent_rows(form, [np.eye(6)[4], np.eye(6)[5]])
    N1, N2 = isotropic_transversal_pair(form, form.gram @ B, form.gram @ A, A, B,
                                         screen, np.eye(6)[0], np.eye(6)[1])
    assert np.abs(N1 - np.array([0, 0.5, 0, -0.5, 0, 0])).max() < 1e-12
    assert np.abs(N2 - np.array([-0.5, 0, 0.5, 0, 0, 0])).max() < 1e-12
    report(7, f"1000 pairs: constraints {worst_eq:.2e}, invariance "
              f"{worst_inv:.2e}, worked example exact")


def test_criterion_08_mean_curvature():
    rng = np.random.default_rng(108)
    model, lck = hopf_pair(2, 1)
    jac = np.array([[0.0], [1.0]], dtype=complex)   # the lines u -> (0.3, u) and (0, u)
    worst_eq, worst_mean, worst_min = 0.0, 0.0, 0.0
    for _ in range(50):
        u = (0.9 + 0.6 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        eq, mean = complex_submanifold_mean_curvature(lck, np.array([0.3, u]), jac)
        worst_eq, worst_mean = np.maximum(worst_eq, eq), np.maximum(worst_mean, mean)
        _, minimal = complex_submanifold_mean_curvature(lck, np.array([0.0, u]), jac)
        worst_min = np.maximum(worst_min, minimal)
    assert worst_eq < 1e-5 and worst_mean < 1e-5 and worst_min < 1e-5
    report(8, f"submanifold law {worst_eq:.2e}, mean offset {worst_mean:.2e}, "
              f"tangent line minimal {worst_min:.2e}")


def test_criterion_09_leaf_space():
    rng = np.random.default_rng(109)
    model = HopfModel(n=2, s=1, lam=0.5)
    worst = 0.0
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        s = 1 + (i % (n - 1)) if n > 2 else 1
        m = HopfModel(n=n, s=s, lam=0.5)
        z = sample_hopf(m, hopf_variates(m.n, rng))
        w = leaf_label(m, z)
        for k in range(-3, 4):
            w_k = leaf_label(m, m.lam ** k * z)
            worst = np.maximum(worst, abs(w_k - w))
            assert same_leaf(w, w_k)
        assert not same_leaf(w, leaf_label(m, np.exp(0.1) * z))
    assert worst < 1e-9
    worst_r = 0.0
    for _ in range(20):
        w = sample_unit_circle(rng)
        a = (float(np.angle(w)) % (2 * np.pi)) / (2 * np.pi)
        if min(a, 1.0 - a) < 1e-3:
            w = complex(np.exp(1j * (2 * np.pi * a + 0.5)))
            a = (float(np.angle(w)) % (2 * np.pi)) / (2 * np.pi)
        zetas = [sample_pseudosphere(2, 1, hopf_variates(2, rng)) for _ in range(5)]
        # deck-reduce the norm of the representative lambda^(a+3) zeta into (lambda, 1]
        x = float(model.norm_sn(model.lam ** (a + 3.0) * zetas[0]))
        while x <= model.lam:
            x /= model.lam
        radius, image = leaf_chart_image_check(model, w, zetas)
        worst_r = np.maximum(worst_r, abs(x - radius))
        worst_r = np.maximum(worst_r, image)
    assert worst_r < 1e-9
    frozen = chart_radius(model, 1j)
    assert abs(frozen - 0.5 ** 0.25) < 1e-12
    report(9, f"labels deck-invariant ({worst:.2e}), radii {worst_r:.2e}, "
              f"quarter-turn radius frozen")


def test_criterion_10_cayley_siegel():
    rng = np.random.default_rng(110)
    worst = 0.0
    for n, s in ((2, 1), (3, 1), (3, 2)):
        model = HopfModel(n=n, s=s, lam=0.5)
        for _ in range(100):
            z = sample_pseudosphere(n, s, hopf_variates(n, rng))
            if abs(z[-1] + 1.0) < 1e-6:
                z = -z
            worst = np.maximum(worst, abs(cayley(s, 1.0, z)[1]))
            worst = np.maximum(worst, cayley_cr_residual(model, 1.0, z))
        assert siegel_levi_signature(n, s) == (s, n - s - 1)
    assert worst < 1e-9
    report(10, f"boundary residuals {worst:.2e}, Levi signatures exact")


def test_criterion_11_quotient_structure():
    rng = np.random.default_rng(111)
    model = HopfModel(n=2, s=1, lam=0.5)
    lck = hopf_chart(model)
    worst_rt = 0.0
    for _ in range(200):
        region = "+" if rng.uniform() < 0.5 else "-"
        z = sample_hopf(model, hopf_variates(model.n, rng), region)
        zeta, w = hopf_diffeo(model, z)
        back = hopf_diffeo_inv(model, zeta, w)
        k = deck_equivalent(model, z, back)
        assert not np.isnan(k)
        worst_rt = np.maximum(worst_rt, float(np.abs(back - model.lam ** k * z).max()))
    assert worst_rt < 1e-9
    worst_deck = 0.0
    for _ in range(100):
        z = sample_hopf(model, hopf_variates(model.n, rng))
        H = lck.chart.hermitian(z)
        Hl = lck.chart.hermitian(model.lam * z)
        worst_deck = np.maximum(worst_deck, float(np.abs(Hl * model.lam ** 2 - H).max()))
    assert worst_deck < 1e-12
    from lcklab.models import torus_pullback_isometry_residual
    worst_torus = 0.0
    for _ in range(100):
        z = sample_hopf(model, hopf_variates(model.n, rng))
        t = complex(0.5 * rng.standard_normal(), 2.0 * rng.standard_normal())
        worst_torus = np.maximum(worst_torus, torus_pullback_isometry_residual(model, t, z, lck))
    assert worst_torus < 1e-12
    worst_ret = 0.0
    for _ in range(200):
        z = sample_hopf(model, hopf_variates(model.n, rng))
        t = rng.uniform()
        worst_ret = np.maximum(worst_ret, np.maximum(0.0, model.b(z) - model.b(retraction(model, t, z))))
        worst_ret = np.maximum(worst_ret, float(np.abs(retraction(model, 0.0, z) - z).max()))
        worst_ret = np.maximum(worst_ret, float(np.abs(retraction(model, 1.0, z)[:1]).max()))
    assert worst_ret < 1e-12
    report(11, f"roundtrip {worst_rt:.2e}, deck {worst_deck:.2e}, torus "
               f"{worst_torus:.2e}, retraction {worst_ret:.2e}")


def test_criterion_12_submersion():
    rng = np.random.default_rng(112)
    worst = 0.0
    for n in (2, 3):
        model = HopfModel(n=n, s=1, lam=0.5)
        lck = hopf_chart(model)
        for _ in range(100):
            z = sample_pseudosphere(n, 1, hopf_variates(n, rng))
            _, H0 = fibration_split(model, z, lck)
            u = real_vector(hol_from_real_coords(rng.standard_normal(H0.shape[-2]) @ H0))
            v = real_vector(hol_from_real_coords(rng.standard_normal(H0.shape[-2]) @ H0))
            worst = np.maximum(worst, submersion_isometry_residual(model, z, u, v, lck))
    assert worst < 1e-6
    report(12, f"horizontal Gram fibre-invariance {worst:.2e}")


def test_criterion_13_determinism_and_runtime():
    args = [sys.executable, "-m", "lcklab.cli", "--model", "hopf",
            "--points", "100", "--seed", "4242", "--suites", "all"]
    start = time.perf_counter()
    out1 = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    out2 = subprocess.run(args, capture_output=True, text=True)
    assert out1.returncode == 0, out1.stderr
    assert out1.stdout.encode() == out2.stdout.encode()
    parsed = json.loads(out1.stdout)
    assert parsed["summary"]["verdict"] == "pass"
    assert elapsed < 120.0
    # synthetic model determinism as well
    args_syn = [sys.executable, "-m", "lcklab.cli", "--model", "synthetic-null",
                "--n", "3", "--points", "100", "--seed", "7", "--suites", "all"]
    s1 = subprocess.run(args_syn, capture_output=True, text=True)
    s2 = subprocess.run(args_syn, capture_output=True, text=True)
    assert s1.returncode == 0 and s1.stdout == s2.stdout
    report(13, f"byte-identical reports, full run {elapsed:.1f}s < 120s")
