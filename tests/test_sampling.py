import hashlib

import numpy as np
import pytest

from lcklab.models import CONE_MARGIN, HopfModel
from lcklab.report import RunConfig
from lcklab.sampling import (
    _Words, point_states, sample_hopf, sample_null_config, sample_null_lee_vector,
    sample_pseudosphere,
)
from lcklab.semieuclid import SemiEuclideanForm
from lcklab.suites import SUITES, run_config


class TestHopfSampler:
    @pytest.mark.parametrize("region", ["+", "-"])
    def test_every_sample_keeps_margin_region_and_norm(self, region):
        model = HopfModel(n=8, s=7, lam=0.5, region=region)
        rng = np.random.default_rng(11)
        zs = np.array([sample_hopf(model, rng) for _ in range(1000)])
        b = np.array([model.b(z) for z in zs])
        zz = np.einsum("ij,ij->i", zs.conj(), zs).real
        assert np.all(model.sign * b > CONE_MARGIN * zz)
        assert np.all(zz >= 0.1)

    @pytest.mark.parametrize("region", ["+", "-"])
    def test_same_bytes_at_same_seed(self, region):
        model = HopfModel(n=8, s=7, lam=0.5, region=region)

        def draw():
            rng = np.random.default_rng(4)
            return np.array([sample_hopf(model, rng) for _ in range(1000)]).tobytes()

        assert draw() == draw()

    @pytest.mark.parametrize("n, s", [(2, 1), (8, 7), (12, 11), (16, 15)])
    def test_fixed_rng_cost(self, n, s):
        # one complex-normal draw and two uniforms per sample, never a retry
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(50):
            sample_hopf(HopfModel(n=n, s=s, lam=0.5), rng)
            ref.standard_normal(2 * n)
            ref.uniform(size=2)
        assert rng.uniform() == ref.uniform()

    def test_pseudosphere_is_unit(self):
        rng = np.random.default_rng(8)
        for n, s in ((2, 1), (8, 7), (16, 15)):
            model = HopfModel(n=n, s=s, lam=0.5)
            for _ in range(200):
                assert abs(model.b(sample_pseudosphere(n, s, rng)) - 1.0) < 1e-12


class TestNullConfigForm:
    def test_standard_form_validated_once(self, monkeypatch):
        rng = np.random.default_rng(2)
        first = sample_null_config(3, 1, sample_null_lee_vector(3, 1, rng))
        validations = []
        original = SemiEuclideanForm.__post_init__

        def counting(self):
            validations.append(self.dim)
            original(self)

        monkeypatch.setattr(SemiEuclideanForm, "__post_init__", counting)
        configs = [sample_null_config(3, 1, sample_null_lee_vector(3, 1, rng)) for _ in range(20)]
        assert validations == []
        assert all(c.form is first.form for c in configs)

    def test_shared_gram_is_read_only(self):
        cfg = sample_null_config(3, 1, sample_null_lee_vector(3, 1, np.random.default_rng(2)))
        with pytest.raises(ValueError):
            cfg.form.gram[0, 0] = 1.0


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
