import copy
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcklab import sampling as sampling_mod
from lcklab import suites as suites_mod
from lcklab.models import CONE_MARGIN, HopfModel, hopf_chart
from lcklab.report import RunConfig
from lcklab.sampling import (
    _Words, hopf_variates, point_states, sample_complement_vector, sample_frame_change,
    sample_hopf, sample_null_config, sample_null_lee_vector, sample_pair_frame,
    sample_pseudosphere,
)
from lcklab.semieuclid import SemiEuclideanForm
from lcklab.suites import SUITES, run_config


def _variates(n: int, rng, m: int) -> np.ndarray:
    return np.stack([hopf_variates(n, rng) for _ in range(m)])


# Mixed-region stacks of these shapes map row for row as 1-row calls do.
SHAPES = [(2, 1), (3, 1), (4, 2), (5, 2), (8, 7), (16, 15), (16, 1), (32, 5)]


class TestHopfSampler:
    @pytest.mark.parametrize("region", ["+", "-"])
    def test_every_sample_keeps_margin_region_and_norm(self, region):
        model = HopfModel(n=8, s=7, lam=0.5)
        zs = sample_hopf(model, _variates(8, np.random.default_rng(11), 1000), region)
        b = model.b(zs)
        zz = np.einsum("ij,ij->i", zs.conj(), zs).real
        assert np.all((1.0 if region == "+" else -1.0) * b > CONE_MARGIN * zz)
        assert np.all(zz >= 0.1)

    @pytest.mark.parametrize("region", ["+", "-"])
    def test_same_bytes_at_same_seed(self, region):
        model = HopfModel(n=8, s=7, lam=0.5)

        def draw():
            return sample_hopf(model, _variates(8, np.random.default_rng(4), 1000), region).tobytes()

        assert draw() == draw()

    @pytest.mark.parametrize("n, s", [(2, 1), (8, 7), (12, 11), (16, 15)])
    def test_fixed_rng_cost(self, n, s):
        # a draw reads what two n-vectors of normals and two uniforms read,
        # never a retry, and leaves the generator where they leave it
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(50):
            v = hopf_variates(n, rng)
            expect = [ref.standard_normal(n), ref.standard_normal(n), [ref.uniform()],
                      [ref.uniform()]]
            assert v.tobytes() == np.concatenate(expect).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.uniform() == ref.uniform()

    def test_pseudosphere_is_unit(self):
        rng = np.random.default_rng(8)
        for n, s in ((2, 1), (8, 7), (16, 15)):
            model = HopfModel(n=n, s=s, lam=0.5)
            b = model.b(sample_pseudosphere(n, s, _variates(n, rng, 200)))
            assert np.abs(b - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n, s", SHAPES)
    def test_stacked_rows_equal_one_row_calls(self, n, s):
        rng = np.random.default_rng(10 * n + s)
        regions = np.where(rng.uniform(size=400) < 0.5, "+", "-")
        assert set(regions) == {"+", "-"}
        V, P = _variates(n, rng, 400), _variates(n, rng, 100).reshape(50, 2, -1)
        model = HopfModel(n=n, s=s, lam=0.5)
        Z = sample_hopf(model, V, regions)
        for v, region, z in zip(V, regions, Z):
            assert sample_hopf(model, v[None], region)[0].tobytes() == z.tobytes()
            assert sample_hopf(model, v, region).tobytes() == z.tobytes()
        S = sample_pseudosphere(n, s, P)   # a (50, 2) stack of rows
        assert S.shape == (50, 2, n)
        for v, z in zip(P.reshape(100, -1), S.reshape(100, n)):
            assert sample_pseudosphere(n, s, v[None])[0].tobytes() == z.tobytes()

    @pytest.mark.parametrize("regions", ["x", ["+", "-", "x"]])
    def test_a_region_other_than_plus_or_minus_is_refused(self, regions):
        # sample_hopf checks its regions as hopf_chart does
        model = HopfModel(n=2, s=1, lam=0.5)
        V = _variates(2, np.random.default_rng(1), 3)
        for refuse in (lambda: sample_hopf(model, V, regions), lambda: hopf_chart(model, regions)):
            with pytest.raises(ValueError, match="region must be '\\+' or '-'"):
                refuse()


@st.composite
def _hopf_stacks(draw):
    """(n, s, regions, variates) with seeded normals and hypothesis-chosen
    uniforms, the ends of [0, 1) among them."""
    n = draw(st.integers(2, 12))
    s = draw(st.integers(1, n - 1))
    m = draw(st.integers(1, 6))
    regions = draw(st.lists(st.sampled_from("+-"), min_size=m, max_size=m))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    uniforms = draw(st.lists(st.tuples(unit, unit), min_size=m, max_size=m))
    normals = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal((m, 2 * n))
    return n, s, np.array(regions), np.concatenate([normals, np.array(uniforms)], axis=-1)


@settings(max_examples=200, deadline=None)
@given(_hopf_stacks())
def test_every_row_keeps_its_region_margin_and_radius(stack):
    n, s, regions, V = stack
    model = HopfModel(n=n, s=s, lam=0.5)
    Z = sample_hopf(model, V, regions)
    b, zz = model.b(Z), np.vecdot(Z, Z).real
    sign = np.where(regions == "+", 1.0, -1.0)
    assert np.all(sign * b > CONE_MARGIN * zz)
    r = 1.0 + V[:, -1]   # rounds to 2 at the largest uniform below 1
    assert np.all((1.0 <= r) & (r <= 2.0))
    assert np.abs(np.abs(b) - r * r).max() <= 1e-12 * (r * r).max()
    assert np.abs(model.b(sample_pseudosphere(n, s, V)) - 1.0).max() <= 1e-12


# The hopf-sampler benchmark workload: ten closed-form suites at n=8 s=7.
SAMPLER_SUITES = ("thm2-deck-pullback", "hopf-diffeo-roundtrip", "torus-isometry",
                  "retraction-monotonicity", "thm5-leaf-space", "lemma7-leaf-radius",
                  "cayley-boundary", "fibration-split", "prop1-lee-field", "eq1-leaf-signature")


def test_a_hopf_run_maps_each_checks_points_in_one_call(monkeypatch):
    calls = []
    original = sampling_mod.sample_hopf

    def counted(model, variates, regions="+"):
        calls.append(np.shape(variates))
        return original(model, variates, regions)

    for module in (sampling_mod, suites_mod):
        monkeypatch.setattr(module, "sample_hopf", counted)
    cfg = RunConfig(model="hopf", n=8, s=7, lam=0.5, points=8, seed=42, suites=SAMPLER_SUITES)
    report = run_config(cfg)
    assert [r.verdict for r in report.results] == ["pass"] * len(SAMPLER_SUITES)
    # one call per check, each on the whole stack: lemma7-leaf-radius maps
    # its three pseudosphere points per draw as one (8, 3) stack
    assert len(calls) == len(SAMPLER_SUITES)
    assert sorted(calls) == sorted([(8, 18)] * 9 + [(8, 3, 18)])


class TestNullConfigForm:
    def test_standard_form_validated_once(self, monkeypatch):
        rng = np.random.default_rng(2)
        first = sample_null_config(3, 1, sample_null_lee_vector(3, 1, [rng])[0])
        validations = []
        original = SemiEuclideanForm.__post_init__

        def counting(self):
            validations.append(self.dim)
            original(self)

        monkeypatch.setattr(SemiEuclideanForm, "__post_init__", counting)
        configs = [sample_null_config(3, 1, sample_null_lee_vector(3, 1, [rng])[0])
                   for _ in range(20)]
        assert validations == []
        assert all(c.form is first.form for c in configs)

    def test_shared_gram_is_read_only(self):
        cfg = sample_null_config(3, 1, sample_null_lee_vector(3, 1, [np.random.default_rng(2)])[0])
        with pytest.raises(ValueError):
            cfg.form.gram[0, 0] = 1.0


# The point-by-point rejection loops the stacked samplers replaced, as
# the reference for their bits and generator states.
def _loop_lee(n, s, rng):
    while True:
        neg, pos = rng.standard_normal(2 * s), rng.standard_normal(2 * (n - s))
        nn, pn = math.sqrt(neg @ neg), math.sqrt(pos @ pos)
        if nn >= 0.3 and pn >= 0.3:
            return np.concatenate([neg / nn, pos / pn])


def _loop_complement(sperp, omega, rng):
    while True:
        V = rng.standard_normal(sperp.shape[0]) @ sperp
        if abs(float(omega @ V)) > 0.1 * math.sqrt(V @ V):
            return V


def _loop_pair_frame(sperp, omega, theta, rng):
    while True:
        V1 = rng.standard_normal(sperp.shape[0]) @ sperp
        V2 = rng.standard_normal(sperp.shape[0]) @ sperp
        t1, w1 = float(theta @ V1), float(omega @ V1)
        t2, w2 = float(theta @ V2), float(omega @ V2)
        scale = max(math.sqrt(V1 @ V1) * math.sqrt(V2 @ V2), 1e-30)
        if abs(t1 * w2 - w1 * t2) > 0.05 * scale:
            return np.stack([V1, V2])


def _loop_frame_change(rng):
    while True:
        f = rng.standard_normal((2, 2))
        if abs(np.linalg.det(f)) > 0.1:
            return f


# Row seeds [n, s, i]: i < 64, where each of the complement, pair-frame
# and frame-change samplers rejects some row's first candidate, and one
# more i, found by search, whose first null Lee candidate is rejected (at
# (4, 2) both blocks have four components, so a block norm below 0.3 is
# rare).
LEE_REJECTED = {(2, 1): 7, (3, 1): 7, (4, 2): 198, (6, 5): 56}


@pytest.mark.parametrize("n, s", LEE_REJECTED)
def test_stacked_null_samplers_give_each_row_the_one_row_call(n, s):
    rows = [*range(64), LEE_REJECTED[n, s]]
    stacked = [np.random.default_rng([n, s, i]) for i in rows]
    alone, loop = copy.deepcopy(stacked), copy.deepcopy(stacked)

    def compare(name, sample, reference, first):
        """sample(rngs, at) on the stack and on each row alone, as the
        one-row stack at = slice(i, i + 1), against the loop; returns the
        stack and the rows whose first candidate was rejected."""
        probes = copy.deepcopy(alone)
        for g in probes:
            first(g)
        out = sample(stacked, slice(None))
        assert out.shape[0] == len(rows)
        for i, g in enumerate(alone):
            one, ref = sample([g], slice(i, i + 1))[0], reference(loop[i], i)
            assert out[i].tobytes() == one.tobytes() == ref.tobytes(), (name, rows[i])
            assert stacked[i].bit_generator.state == g.bit_generator.state == \
                loop[i].bit_generator.state, (name, rows[i])
        retried = [i for i, p, g in zip(rows, probes, alone)
                   if p.bit_generator.state != g.bit_generator.state]
        assert retried, name   # some row's first candidate was rejected
        return out, retried

    B, retried = compare("null Lee vector", lambda rngs, at: sample_null_lee_vector(n, s, rngs),
                         lambda g, i: _loop_lee(n, s, g), lambda g: g.standard_normal(2 * n))
    assert LEE_REJECTED[n, s] in retried
    c = sample_null_config(n, s, B)
    compare("complement vector",
            lambda rngs, at: sample_complement_vector(c.first_screen_perp[at], c.omega[at], rngs),
            lambda g, i: _loop_complement(c.first_screen_perp[i], c.omega[i], g),
            lambda g: g.standard_normal(2))
    compare("pair frame",
            lambda rngs, at: np.stack(sample_pair_frame(c.screen_perp_basis[at], c.omega[at],
                                                        c.theta[at], rngs), axis=-2),
            lambda g, i: _loop_pair_frame(c.screen_perp_basis[i], c.omega[i], c.theta[i], g),
            lambda g: g.standard_normal((2, c.screen_perp_basis.shape[-2])))
    compare("frame change", lambda rngs, at: sample_frame_change(rngs),
            lambda g, i: _loop_frame_change(g), lambda g: g.standard_normal((2, 2)))


def test_one_point_is_the_one_row_stack():
    rng = np.random.default_rng(5)
    c = sample_null_config(3, 1, sample_null_lee_vector(3, 1, [rng]))
    assert c.B.shape == (1, 6)
    assert sample_complement_vector(c.first_screen_perp, c.omega, [rng]).shape == (1, 6)
    V1, V2 = sample_pair_frame(c.screen_perp_basis, c.omega, c.theta, [rng])
    assert V1.shape == V2.shape == (1, 6)
    assert sample_frame_change([rng]).shape == (1, 2, 2)
    with pytest.raises(TypeError):   # a sampler takes a sequence of generators
        sample_frame_change(rng)


@pytest.mark.parametrize("n, s", [(12, 11), (16, 15)])
def test_all_hopf_suites_pass_near_full_index(n, s):
    rep = run_config(RunConfig(model="hopf", n=n, s=s, points=3, seed=0, suites=("all",)))
    failed = [(r.name, r.verdict, r.error) for r in rep.results if r.verdict != "pass"]
    assert failed == []


@pytest.mark.parametrize("n, s", [(12, 11), (16, 15)])
def test_mean_curvature_offset_stays_in_region(n, s):
    # an offset of fixed entries would put most points with |u| < sqrt(0.09 s)
    # outside region '+'
    rep = run_config(RunConfig(model="hopf", n=n, s=s, points=12, seed=3,
                               suites=("eq18-mean-curvature",)))
    assert rep.results[0].verdict == "pass", rep.results[0].error


# One-, two- and three-word seeds, and keys of one and two words (0 is one
# word), the registered suites' keys among them.
SEEDS = [0, 1, 42, 2**31 - 1, 2**32, 2**32 + 5, 2**64 + 1, 2**70 + 3]
KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
    int.from_bytes(hashlib.sha256(s.name.encode()).digest()[:8], "big") for s in SUITES]


@pytest.mark.parametrize("points", [1, 6, 40])
@pytest.mark.parametrize("seed", SEEDS)
def test_point_states_seed_generators_as_numpy_seed_sequence(seed, points):
    states = point_states(seed, KEYS, points)
    assert states.shape == (len(KEYS), points, 4) and states.dtype == np.uint64
    for key, rows in zip(KEYS, states):
        for i, row in enumerate(rows):
            ours = np.random.Generator(np.random.PCG64(_Words(row)))
            ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i)))
            assert ours.bit_generator.state == ref.bit_generator.state, (key, i)
            assert ours.standard_normal(2).tobytes() == ref.standard_normal(2).tobytes()
            assert ours.integers(2**62, size=2).tobytes() == \
                ref.integers(2**62, size=2).tobytes()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                            (8, np.uint64), (4, np.int64)])
def test_words_refuse_any_request_but_one_pcg64_seed(n_words, dtype):
    words = _Words(point_states(42, [0], 1)[0, 0])
    with pytest.raises(ValueError):
        words.generate_state(n_words, dtype)
    assert words.generate_state(4, np.uint64) is words.row
