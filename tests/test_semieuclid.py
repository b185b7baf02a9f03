import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcklab.semieuclid import (
    DegenerateSubspaceError,
    SemiEuclideanForm,
    contains_span,
    independent_rows,
    inner,
    orthogonal_complement,
    same_span,
    signature_of,
)

H24 = SemiEuclideanForm.standard(2, 4)


def e(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestInner:
    def test_diagonal_sign(self):
        assert inner(H24, e(0), e(0)) == -1.0

    def test_null_vector(self):
        v = e(0) + e(2)
        assert inner(H24, v, v) == 0.0

    def test_mixed_direct_evaluation(self):
        # oracle: expand the quadratic form by hand, (e1+e3).G.e1 = -1
        assert inner(H24, e(0) + e(2), e(0)) == -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            assert inner(H24, u, v) == pytest.approx(inner(H24, v, u), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(H24, np.ones(3), np.ones(4))


def test_a_gram_asymmetric_by_2e_6_beside_an_entry_0_3_is_refused():
    # the symmetry rule has no term relative to the entries
    gram = np.array([[1.0, 0.3 + 2e-6], [0.3, -1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        SemiEuclideanForm(dim=2, index=1, gram=gram)


class TestComplement:
    def test_axis_complement(self):
        W = independent_rows(H24, [e(0)])
        perp = orthogonal_complement(H24, W)
        expect = independent_rows(H24, [e(1), e(2), e(3)])
        assert same_span(perp, expect, 1e-10)

    def test_null_line_contained_in_own_complement(self):
        v = e(0) + e(2)
        W = independent_rows(H24, [v])
        perp = orthogonal_complement(H24, W)
        assert perp.shape[-2] == 3
        assert contains_span(perp, W, tol=1e-10)

    def test_full_space_complement_is_zero(self):
        W = independent_rows(H24, np.eye(4))
        assert orthogonal_complement(H24, W).shape[-2] == 0

    def test_rank_deficient_basis_rejected(self):
        with pytest.raises(ValueError):
            independent_rows(H24, [e(0), 2 * e(0)])

    def test_overfull_basis_rejected(self):
        # three vectors in R^2: the SVD has only two singular values, both
        # large, so the row count must be checked as well
        with pytest.raises(DegenerateSubspaceError):
            independent_rows(SemiEuclideanForm.standard(1, 2), [[1, 0], [0, 1], [1, 1]])


@pytest.mark.parametrize("module", ["lcklab.semieuclid", "lcklab.sampling"])
def test_kernel_cut_is_relative_1e10(module):
    # singular values 1 and 1e-11 (relative): the weak direction lies below
    # the rank cut and belongs to the kernel, for every module that uses it
    kernel = importlib.import_module(module)._kernel
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    rows = np.diag([1.0, 1e-11]) @ q.T[:2]
    ker = kernel(rows)
    assert ker.shape == (2, 3)
    assert np.abs(ker @ q[:, 0]).max() < 1e-12
    assert np.abs(ker @ ker.T - np.eye(2)).max() < 1e-12


class TestRadical:
    # the radical W cap W-perp has dimension signature_of(H24, W)[2]
    def test_definite_restriction(self):
        W = independent_rows(H24, [e(0), e(1)])
        assert signature_of(H24, W)[2] == 0

    def test_null_line_is_own_radical(self):
        v = e(0) + e(2)
        W = independent_rows(H24, [v])
        assert signature_of(H24, W)[2] == 1
        assert contains_span(orthogonal_complement(H24, W), W, 1e-10)
        assert inner(H24, v, v) == pytest.approx(0.0, abs=1e-12)

    def test_lee_kernel_radical(self):
        # oracle: ker omega for omega = g(., e1+e3) solved by row
        # reduction: x1 = x3, i.e. span{e1+e3, e2, e4}
        B = e(0) + e(2)
        omega = H24.gram @ B
        _, _, vt = np.linalg.svd(omega.reshape(1, -1))
        W = independent_rows(H24, vt[1:])
        expect = independent_rows(H24, [B, e(1), e(3)])
        assert same_span(W, expect, tol=1e-9)
        # one null direction, and B lies in W and in W-perp
        assert signature_of(H24, W)[2] == 1
        assert contains_span(orthogonal_complement(H24, W),
                             independent_rows(H24, [B]), tol=1e-9)


class TestSignature:
    def test_diagonal(self):
        W = independent_rows(H24, [e(0), e(1), e(2)])
        assert signature_of(H24, W) == (1, 2, 0)

    def test_one_null_direction(self):
        W = independent_rows(H24, [e(0) + e(2), e(1), e(3)])
        assert signature_of(H24, W) == (1, 1, 1)

    def test_full_space(self):
        W = independent_rows(H24, np.eye(4))
        assert signature_of(H24, W) == (2, 2, 0)


@st.composite
def form_and_subspace(draw):
    dim = draw(st.integers(min_value=2, max_value=7))
    index = draw(st.integers(min_value=0, max_value=dim))
    k = draw(st.integers(min_value=1, max_value=dim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((k, dim))
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[-1] < 1e-3:
        basis = basis + 0.5 * np.eye(dim)[:k]
    return SemiEuclideanForm.standard(index, dim), basis


@given(form_and_subspace())
@settings(max_examples=60, deadline=None)
def test_radical_membership_and_dimension(data):
    # W cap W-perp, intersected from the null space of [W | -perp], is
    # g-orthogonal to W and has signature_of's null count as dimension
    form, basis = data
    W = independent_rows(form, basis)
    perp = orthogonal_complement(form, W)
    _, sv, vt = np.linalg.svd(np.vstack([W, -perp]).T)
    rad = vt[np.sum(sv > 1e-10 * sv[0]):, :len(W)] @ W
    assert len(rad) == signature_of(form, W)[2]
    if len(rad):
        assert np.abs(rad @ form.gram @ W.T).max() < 1e-8


@given(form_and_subspace())
@settings(max_examples=60, deadline=None)
def test_double_complement_involution(data):
    form, basis = data
    W = independent_rows(form, basis)
    if signature_of(form, W)[2]:   # involution is asserted on nondegenerate W
        return
    back = orthogonal_complement(form, orthogonal_complement(form, W))
    assert same_span(back, W, tol=1e-8)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_full_space_signature(dim, data):
    index = data.draw(st.integers(min_value=0, max_value=dim))
    form = SemiEuclideanForm.standard(index, dim)
    W = independent_rows(form, np.eye(dim))
    assert signature_of(form, W) == (dim - index, index, 0)


def test_gram_signature_invariant_enforced():
    with pytest.raises(ValueError):
        SemiEuclideanForm(dim=2, index=2, gram=np.eye(2))
    with pytest.raises(ValueError):
        SemiEuclideanForm(dim=2, index=0, gram=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_same_span_of_different_dimensions_answers_per_point():
    # one verdict per point of a stack, whether the dimensions agree or not
    form = SemiEuclideanForm.standard(1, 3)
    a = independent_rows(form, np.random.default_rng(7).standard_normal((4, 2, 3)))
    b = independent_rows(form, a[:, :1])
    assert same_span(a, a, 1e-9).tolist() == [True] * 4
    assert same_span(a, b, 1e-9).tolist() == [False] * 4
    assert same_span(b, a, 1e-9).tolist() == [False] * 4
    one = independent_rows(form, a[0])   # a point: a stack with no leading axes
    apart = same_span(one, independent_rows(form, b[0]), 1e-9)
    assert apart.shape == () and not apart
    assert same_span(one, one, 1e-9)


SPAN_TOL = 1e-9


def _lstsq_contains(big: np.ndarray, small: np.ndarray) -> list:
    """The per-point least-squares residual test that contains_span's
    stacked projection replaced, one verdict per point."""
    bigT, smallT = big.swapaxes(-1, -2), small.swapaxes(-1, -2)
    coeffs = np.array([np.linalg.lstsq(a, b, rcond=None)[0]
                       for a, b in zip(bigT.reshape((-1,) + bigT.shape[-2:]),
                                       smallT.reshape((-1,) + smallT.shape[-2:]))])
    resid = bigT @ coeffs.reshape(bigT.shape[:-2] + coeffs.shape[-2:]) - smallT
    size = np.abs(small).max(axis=(-2, -1))
    return (np.abs(resid).max(axis=(-2, -1)) <= SPAN_TOL * np.maximum(size, 1.0)).tolist()


def _span_case(case):
    """(big, small, moved, expected): small's rows are combinations of
    big's rows, and moved's a rotation of them, each shifted along the
    unit vector q5, normal to span(big) unless big is all of R^6, by
    0.1 tol at even points and 10 tol at odd ones; expected is the
    verdict of both span tests at each point."""
    form = SemiEuclideanForm.standard(2, 6)
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.standard_normal((4, 6, 6)))[0].swapaxes(-1, -2)   # orthonormal rows
    off = np.array([0.1, 10.0, 0.1, 10.0])[:, None, None] * SPAN_TOL * q[:, None, 5]
    big, expected = q[:, :3], [True, False, True, False]
    if case == "all of R^N":
        big, expected = q, [True] * 4
    small = rng.uniform(-0.15, 0.15, (4, 2, big.shape[1])) @ big + off
    moved = np.linalg.qr(rng.standard_normal((4, big.shape[1], big.shape[1])))[0] @ big + off
    if case == "one row":
        small = small[:, :1]
    elif case == "one point":
        big, small, moved, expected = big[:1], small[:1], moved[:1], expected[:1]
    return (*(independent_rows(form, x) for x in (big, small, moved)), expected)


@pytest.mark.parametrize("case", ["near and far", "one row", "all of R^N", "one point"])
def test_stacked_span_tests_give_each_point_the_lstsq_verdict(case):
    big, small, moved, expected = _span_case(case)
    assert contains_span(big, small, SPAN_TOL).tolist() == _lstsq_contains(big, small) == expected
    mutual = np.logical_and(_lstsq_contains(big, moved), _lstsq_contains(moved, big)).tolist()
    assert same_span(big, moved, SPAN_TOL).tolist() == mutual == expected


# Every configuration whose checks build orthonormal subspaces: the Hopf
# foliation and fibration layers, the CR bases, the null splittings and
# the Levi rows, which only synthetic-null n = 2 builds.
ORTHONORMAL_CONFIGS = [("hopf", 2, 1), ("hopf", 4, 2), ("hopf", 8, 7), ("tricerri", 2, 1),
                       ("flat", 2, 1), ("synthetic-null", 2, 1), ("synthetic-null", 3, 1),
                       ("synthetic-null", 6, 2)]


def test_orthonormal_rows_need_no_rank_check(monkeypatch):
    # a subspace's rows from _kernel, _complement_within or
    # levi_distribution skip independent_rows' rank SVD on the premise
    # that they are orthonormal; every row stack they give over all
    # suites is (the conjugate transpose, as _t10_basis's kernel is complex)
    from lcklab import cr, foliations, sampling, semieuclid
    from lcklab.report import RunConfig
    from lcklab.suites import run_config

    seen, worst = set(), [0.0]

    def checked(module, name, rows_of=lambda built: built):
        build = getattr(module, name)

        def wrapper(*args):
            seen.add((module.__name__, name))
            built = build(*args)
            rows = rows_of(built)
            eye = np.eye(rows.shape[-2])
            gap = np.abs(rows @ rows.conj().swapaxes(-1, -2) - eye).max(initial=0.0)
            worst[0] = max(worst[0], gap)
            return built
        monkeypatch.setattr(module, name, wrapper)

    for module in (semieuclid, foliations, sampling, cr):
        checked(module, "_kernel")
    for module in (semieuclid, foliations):
        checked(module, "_complement_within")
    checked(cr, "levi_distribution")
    for model, n, s in ORTHONORMAL_CONFIGS:
        for seed in range(5):
            report = run_config(RunConfig(model=model, n=n, s=s, points=20, seed=seed,
                                          suites=("all",)))
            assert {r.verdict for r in report.results} == {"pass"}, (model, n, s, seed)
    assert seen == {("lcklab.semieuclid", "_kernel"), ("lcklab.foliations", "_kernel"),
                    ("lcklab.foliations", "_complement_within"), ("lcklab.sampling", "_kernel"),
                    ("lcklab.cr", "_kernel"), ("lcklab.cr", "levi_distribution")}
    assert worst[0] <= 1e-13
