"""Seeded samplers for domain points and synthetic null-Lee data.

Every sample comes from a numpy Generator, so runs are reproducible
from a seed.  A Hopf point is drawn as its variates (hopf_variates),
which sample_hopf or sample_pseudosphere maps, with a stack of others,
in one pass.  Hopf points are exact and keep a relative margin away
from the null cone (metric components blow up there), which also keeps
difference stencils inside the chart domain; half-space samples keep
Im(w) bounded away from the boundary for the same reason.  Only the
null-Lee samplers reject degenerate draws.

A null-Lee configuration is drawn in two steps: sample_null_lee_vector
draws its Lee vector B, and sample_null_config builds the configuration
of B, or of a stack of Lee vectors at once, through the stack-native
semieuclid layer; its plane and screens are row bases, as every
subspace is.  Each of its two screen splits is built once, on first
read, so a check that reads neither builds none.  The complement vectors
and frames are then drawn against a point's screen orthocomplement and
Lee forms, since their acceptance tests read them.

The four null samplers (Lee vector, complement vector, pair frame,
frame change) take a stack and a sequence of generators, one per row,
through one rejection loop (_reject); one point is the one-row stack.
A synthetic-null check replays each point's generator from its seed and
samples the whole point on the stack with them (see suites).

point_states seeds every point generator of a run in one pass: the PCG64
seed words that numpy's SeedSequence of entropy seed and spawn key
(key, i) gives, for every suite key and point index i at once, bit for
bit.  _Words hands one row of them to PCG64, so a point's generator is
Generator(PCG64(_Words(row))).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .charts import _norms
from .foliations import _screen_split
from .models import CONE_MARGIN, HopfModel, _region_signs
from .semieuclid import SemiEuclideanForm, _kernel, independent_rows

__all__ = [
    "hopf_variates", "sample_hopf", "sample_pseudosphere", "sample_tricerri", "sample_flat",
    "sample_unit_circle", "NullLeeConfig", "sample_null_lee_vector", "sample_null_config",
    "point_states",
]

_MAX_TRIES = 10_000
TRICERRI_MIN_IM = 0.2   # Tricerri samples keep Im(w) at least this far from the boundary
MAX_POINTS = 2**32      # point_states gives each point index one 32-bit word


# numpy's SeedSequence, the seed_seq_fe of O'Neill's PCG work, whose
# constants numpy's stream-compatibility policy freezes
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16


def _uint32_words(x: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant
    first, as SeedSequence reads it; 0 is one word."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's hashmix on a word: the mixed word and the advanced
    hash constant."""
    value = (value ^ h) & _MASK32
    h = (h * _MULT_A) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> _XSHIFT), h


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y (ints, or
    uint64 arrays of words)."""
    out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return out ^ (out >> _XSHIFT)


def _constants(h: int, mult: int, count: int, ndim: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The hash constants of count hashes in a row from h: the one each
    hash xors its word with and the one it multiplies by (h advanced by
    mult), as uint64 arrays (count, 1, ..., 1) that broadcast over ndim
    more axes, and the constant left after them.  They depend on h
    alone, never on the words."""
    hs = [h]
    for _ in range(count):
        hs.append((hs[-1] * mult) & _MASK32)
    shape = (count,) + (1,) * ndim
    return (np.array(hs[:-1], dtype=np.uint64).reshape(shape),
            np.array(hs[1:], dtype=np.uint64).reshape(shape), hs[-1])


def _mix_word(pool: np.ndarray, h: int, word) -> tuple[np.ndarray, int]:
    """SeedSequence's mixing of one entropy word past the pool size into
    every word of the pool (_POOL_SIZE, ...) uint64, all at once: a word
    (an int, or a uint64 array that broadcasts against the pool's other
    axes) hashed with each of the _POOL_SIZE hash constants.  Returns the
    pool and the advanced hash constant."""
    before, after, h = _constants(h, _MULT_A, _POOL_SIZE, np.ndim(word))
    v = ((word ^ before) * after) & _MASK32   # word, h < 2**32: the xor needs no mask
    return _mix(pool, v ^ (v >> _XSHIFT)), h


def _seed_pool(words: list[int]) -> tuple[np.ndarray, int]:
    """SeedSequence's pool (_POOL_SIZE,) uint64 after its first pool-size
    entropy words, mixed together, and its remaining words, with the hash
    constant it leaves."""
    h, pool = _INIT_A, []
    for w in words[:_POOL_SIZE]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    pool = np.array(pool, dtype=np.uint64)
    for w in words[_POOL_SIZE:]:
        pool, h = _mix_word(pool, h, w)
    return pool, h


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """SeedSequence's generate_state(4, np.uint64) of every pool of a stack
    (_POOL_SIZE, ...): eight words cycled from the pool, hashed at once and
    read as little-endian pairs, shape (..., 4)."""
    before, after, _ = _constants(_INIT_B, _MULT_B, 8, pool.ndim - 1)
    v = ((pool[np.arange(8) % _POOL_SIZE] ^ before) * after) & _MASK32
    v = v ^ (v >> _XSHIFT)
    return np.moveaxis(v[0::2] | (v[1::2] << 32), 0, -1)


def point_states(seed: int, keys, points: int) -> np.ndarray:
    """PCG64 seed words (len(keys), points, 4) uint64: row [k, i] is
    generate_state(4, np.uint64) of numpy's SeedSequence of entropy seed
    and spawn key (keys[k], i).

    The entropy is the seed's words, padded to the pool size because a
    spawn key follows, then the key's words, then the point index.  The
    seed words fill the pool, so they are mixed once per run.  The hash
    constants never depend on the words, so keys of one length share them:
    their words are mixed for all those keys at once, each word into all
    four pool words at once, as uint64 arrays, then the index and
    generate_state for every (key, point) at once.
    """
    if points > MAX_POINTS:
        raise ValueError("need points <= 2**32")
    run = _uint32_words(seed)
    pool, h = _seed_pool(run + [0] * (_POOL_SIZE - len(run)))
    key_words = [_uint32_words(key) for key in keys]
    index = np.arange(points, dtype=np.uint64)[None, :]
    states = np.empty((len(keys), points, 4), dtype=np.uint64)
    for length in set(map(len, key_words)):
        rows = [k for k, w in enumerate(key_words) if len(w) == length]
        kpool, kh = pool[:, None, None], h
        for word in np.array([key_words[k] for k in rows], dtype=np.uint64).T:
            kpool, kh = _mix_word(kpool, kh, word[:, None])   # (_POOL_SIZE, keys, 1)
        states[rows] = _generate_state(_mix_word(kpool, kh, index)[0])
    return states


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed row of
    point_states, the only request PCG64 makes of it."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("_Words holds 4 uint64 words of one PCG64 seed")
        return self.row


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def hopf_variates(n: int, rng: np.random.Generator) -> np.ndarray:
    """The variates (2n + 2,) of one Hopf point: the real then the
    imaginary parts of a complex-normal vector in C^n, then two uniforms
    on [0, 1).  sample_hopf maps them, one row or a stack, to points."""
    return np.concatenate([rng.standard_normal(2 * n), rng.random(2)])


def sample_hopf(model: HopfModel, variates, regions="+") -> np.ndarray:
    """Points (..., n) with |b(z,z)| > CONE_MARGIN * |z|^2, one per row of
    hopf_variates (..., 2n + 2), all in region regions ('+' or '-') or, for
    a stack (m, 2n + 2), each in its own region of a sequence of m names,
    as hopf_chart takes and checks them.

    Exact map z = r (sinh t u, cosh t v) for '+' and r (cosh t u, sinh t v)
    for '-', with u, v uniform on the unit spheres of the negative and
    positive blocks, so b(z,z) = +-r^2 and |b(z,z)| / |z|^2 = 1 / cosh 2t.
    That ratio is uniform on (CONE_MARGIN, 1] (its law for Gaussian draws in
    C^2_1) shrunk by a thousandth of the interval, so rounding keeps the
    inequality strict; r = 1 + u for a uniform u on [0, 1), so r lies in
    [1, 2] (the sum rounds to 2 at u = 1 - 2^-53).  Fixed cost: 2n + 2
    variates a point, never a retry, and one vectorized pass a stack, each
    row with the bits of a 1-row call.
    """
    v = np.asarray(variates, dtype=float)
    n, s = model.n, model.s
    z = v[..., :n] + 1j * v[..., n:2 * n]
    ratio = 1.0 - 0.999 * (1.0 - CONE_MARGIN) * v[..., 2 * n]
    t = 0.5 * np.arccosh(1.0 / ratio)
    r = 1.0 + v[..., 2 * n + 1]
    sinh, cosh = r * np.sinh(t), r * np.cosh(t)
    positive = _region_signs(regions) > 0
    minor, major = np.where(positive, sinh, cosh), np.where(positive, cosh, sinh)
    z[..., :s] *= (minor / _norms(z[..., :s]))[..., None]
    z[..., s:] *= (major / _norms(z[..., s:]))[..., None]
    return z


def sample_pseudosphere(n: int, s: int, variates) -> np.ndarray:
    """Points (..., n) with b(z, z) = 1 (unit pseudosphere), one per row of
    hopf_variates (..., 2n + 2): the r = 1 points of sample_hopf's map in
    region '+'."""
    model = HopfModel(n=n, s=s, lam=0.5)
    z = sample_hopf(model, variates)
    return z / model.norm_sn(z)[..., None]


def sample_tricerri(n: int, rng: np.random.Generator) -> np.ndarray:
    """One point (w, z^1..z^n) with Im(w) >= TRICERRI_MIN_IM."""
    w = rng.standard_normal() + 1j * (TRICERRI_MIN_IM + abs(rng.standard_normal()))
    return np.concatenate([[w], _complex_normal(rng, n)])


def sample_flat(n: int, rng: np.random.Generator) -> np.ndarray:
    return _complex_normal(rng, n)


def sample_unit_circle(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


@dataclass(frozen=True)
class NullLeeConfig:
    """Synthetic pointwise data with a null Lee vector in C^n_s, at each
    point of a stack: every member but the shared form carries the
    stack's axes first.

    Real interleaved coordinates; B and A = -JB are null and mutually
    orthogonal, omega and theta are their metric duals, plane is their
    span, rows A and B.  Each screen split is built once, on first read,
    as row bases: the plane's gives the screen (the Euclidean
    orthocomplement of the plane inside its g-orthocomplement) and
    screen_perp_basis, the first-foliation one first_screen (the Lee
    line's complement in ker(omega)) and its perp.
    """

    n: int
    s: int
    form: SemiEuclideanForm
    B: np.ndarray
    A: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    plane: np.ndarray   # rows A, B, whose build checks that B is not zero

    @cached_property
    def _plane_split(self) -> tuple[np.ndarray, np.ndarray]:
        # P-perp via kernel of the Gram constraints; span{A, B} is its radical
        return _screen_split(self.form, self.plane, _kernel(self.plane @ self.form.gram))

    @cached_property
    def _first_split(self) -> tuple[np.ndarray, np.ndarray]:
        return _screen_split(self.form, self.B[..., None, :], _kernel(self.omega[..., None, :]))

    screen = property(lambda self: self._plane_split[0])
    screen_perp_basis = property(lambda self: self._plane_split[1])   # rows, contain A, B
    first_screen = property(lambda self: self._first_split[0])
    first_screen_perp = property(lambda self: self._first_split[1])   # rows, contain B


def _apply_J(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


@lru_cache(maxsize=None)
def _standard_form(n: int, s: int) -> SemiEuclideanForm:
    """C^n_s as R^2n of index 2s, built and validated once per (n, s).
    Every configuration shares it, so its gram is read-only."""
    form = SemiEuclideanForm.standard(2 * s, 2 * n)
    form.gram.setflags(write=False)
    return form


def _reject(rngs, draw, accept, what: str) -> np.ndarray:
    """Rejection sampling, one row per generator of the sequence rngs.  A
    row's candidate is draw(rngs[i]), one generator call, and
    accept(x, rows) maps the candidates x of the given rows, as one stack,
    to their values and a mask of the accepted ones.  Only rejected rows
    draw again, each from its own generator before any later draw of that
    row, as in a row-by-row run, so each row gets the bits and leaves its
    generator in the state of a one-row call."""
    rows, out = np.arange(len(rngs)), None
    for _ in range(_MAX_TRIES):
        values, ok = accept(np.stack([draw(rngs[i]) for i in rows]), rows)
        if out is None:
            out = values
        else:
            out[rows[ok]] = values[ok]
        rows = rows[~ok]
        if not rows.size:
            return out
    raise RuntimeError(f"could not sample {what}")


def _unit_blocks(x: np.ndarray, s: int):
    """Null Lee candidates x (m, 2n), the negative block then the positive,
    with each block scaled to unit norm, and whether both norms were at
    least 0.3."""
    neg, pos = x[:, :2 * s], x[:, 2 * s:]
    nn, pn = _norms(neg), _norms(pos)
    return (np.concatenate([neg / nn[:, None], pos / pn[:, None]], axis=1),
            (nn >= 0.3) & (pn >= 0.3))


def sample_null_lee_vector(n: int, s: int, rngs) -> np.ndarray:
    """Random null vectors (m, 2n) of R^2n with index 2s, one row per
    generator of the sequence rngs: unit negative and positive blocks,
    each drawn with Euclidean norm at least 0.3 before scaling.  A
    candidate is one standard_normal(2n) call."""
    if not 0 < s < n:
        raise ValueError("need 0 < s < n")
    return _reject(rngs, lambda r: r.standard_normal(2 * n), lambda x, rows: _unit_blocks(x, s),
                   "a null Lee vector")


def sample_null_config(n: int, s: int, B: np.ndarray) -> NullLeeConfig:
    """Null-Lee configuration in real dimension 2n, index 2s, for each
    null Lee vector of a stack B (..., 2n) (sample_null_lee_vector), in
    one stacked build whose rows carry the bits of the single-vector
    builds.  Its screen splits are built on first read."""
    if not 0 < s < n:
        raise ValueError("need 0 < s < n")
    form = _standard_form(n, s)
    B = np.asarray(B, dtype=float)
    A = -_apply_J(B)
    return NullLeeConfig(n=n, s=s, form=form, B=B, A=A,
                         omega=np.matvec(form.gram, B), theta=np.matvec(form.gram, A),
                         plane=independent_rows(form, np.stack([A, B], axis=-2)))


def sample_complement_vector(sperp: np.ndarray, omega: np.ndarray, rngs) -> np.ndarray:
    """Random vectors (m, 2n), row i spanning a complement of the Lee line
    inside the orthocomplement sperp[i] (rows (2, 2n), containing B) of
    the first-foliation screen, with omega[i] the Lee form, drawn from
    rngs[i].  A candidate is one standard_normal(2) call, the coefficients
    of sperp's rows."""
    def accept(c, rows):
        V = np.vecmat(c, sperp[rows])
        return V, np.abs(np.vecdot(omega[rows], V)) > 0.1 * _norms(V)
    return _reject(rngs, lambda r: r.standard_normal(sperp.shape[-2]), accept,
                   "a complement vector")


def sample_pair_frame(sperp: np.ndarray, omega: np.ndarray, theta: np.ndarray,
                      rngs) -> tuple[np.ndarray, np.ndarray]:
    """Random frames {V1, V2}, each (m, 2n): row i frames a complement of
    the plane inside S(P-perp)-perp (rows sperp[i], (4, 2n)), with
    omega[i] and theta[i] the duals of B and A, rejecting frames with
    small normalization determinant, drawn from rngs[i].  A candidate is
    one standard_normal((2, k)) call: V1's coefficients of sperp's k rows,
    then V2's."""
    def accept(c, rows):
        V = np.vecmat(c, sperp[rows, None])                   # (r, 2, 2n): V1, V2
        t, w = np.vecdot(theta[rows, None], V), np.vecdot(omega[rows, None], V)
        D = t[:, 0] * w[:, 1] - w[:, 0] * t[:, 1]
        norm = _norms(V)
        return V, np.abs(D) > 0.05 * np.maximum(norm[:, 0] * norm[:, 1], 1e-30)
    V = _reject(rngs, lambda r: r.standard_normal((2, sperp.shape[-2])), accept,
                "a complement frame")
    return V[:, 0], V[:, 1]


def sample_frame_change(rngs) -> np.ndarray:
    """Random 2x2 frame changes f (m, 2, 2) with |det f| > 0.1, one per
    generator of the sequence rngs."""
    return _reject(rngs, lambda r: r.standard_normal((2, 2)),
                   lambda f, rows: (f, np.abs(np.linalg.det(f)) > 0.1), "a frame change")
