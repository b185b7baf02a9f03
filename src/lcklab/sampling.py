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

point_states seeds every point generator of a run: the PCG64 seed words
that numpy's SeedSequence of entropy seed and spawn key (key, i) gives,
bit for bit.  numpy's SeedSequence of spawn key (key,) mixes the run's
seed and each suite key, once per key; point_states hashes only the
point index i, for every key and index at once.  _Words hands one row of
them to PCG64, so a point's generator is Generator(PCG64(_Words(row))).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .charts import _norms
from .foliations import _screen_split
from .models import CONE_MARGIN, HopfModel, _positive_regions
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
_MULT_A = 0x931E_8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants init mult^j, j < count, of count - 1 hashes in a
    row: hash j xors its word with constant j, multiplies by j + 1."""
    return np.array([init * pow(mult, j, 2**32) & _MASK32 for j in range(count)], dtype=np.uint64)


# the point index's hash constants are _MIX_H times MULT_A^(hashes before it)
_MIX_H = _hash_constants(0x43B0_D7E5, _MULT_A, _POOL_SIZE + 1)
_STATE_H = _hash_constants(0x8B51_F9DD, 0x58F3_8DED, 9)   # generate_state's eight words


def _hash(word, h):
    """SeedSequence's hash of 32-bit words (uint64 arrays) with hash
    constants h (one more than the words on h's last axis)."""
    v = ((word ^ h[..., :-1]) * h[..., 1:]) & _MASK32   # word, h < 2**32: the xor needs no mask
    return v ^ (v >> _XSHIFT)


def point_states(seed: int, keys, points: int) -> np.ndarray:
    """PCG64 seed words (len(keys), points, 4) uint64: row [k, i] is
    generate_state(4, np.uint64) of numpy's SeedSequence of entropy seed
    and spawn key (keys[k], i).

    That sequence's entropy is the seed's words, padded to the pool size
    because a spawn key follows, then the key's words, then the point
    index.  numpy's SeedSequence of spawn key (keys[k],) mixes all but the
    index into its pool, once per key.  The index word comes past the pool
    size, so it is hashed into each of the four pool words, after 4 hashes
    per earlier word (which fill, mix and extend the pool), and then
    generate_state hashes the pool: both for every (key, point) at once.
    """
    if points > MAX_POINTS:
        raise ValueError("need points <= 2**32")
    words = lambda x: max(1, -(-int(x).bit_length() // 32))   # 0 is one word
    pools, hashes = [], []
    for key in keys:
        pools.append(np.random.SeedSequence(seed, spawn_key=(key,)).pool)
        hashes.append(pow(_MULT_A, 4 * (max(_POOL_SIZE, words(seed)) + words(key)), 2**32))
    pool = np.array(pools, dtype=np.uint64).reshape(-1, 1, _POOL_SIZE)
    h = (np.array(hashes, dtype=np.uint64)[:, None, None] * _MIX_H) & _MASK32
    index = _hash(np.arange(points, dtype=np.uint64)[:, None], h)   # (keys, points, 4)
    pool = (_MIX_MULT_L * pool - _MIX_MULT_R * index) & _MASK32     # SeedSequence's mix
    pool ^= pool >> _XSHIFT
    v = _hash(pool[..., np.arange(8) % _POOL_SIZE], _STATE_H)
    # PCG64 reads a row's memory as its four words: the rows must be contiguous
    return np.ascontiguousarray(v[..., 0::2] | (v[..., 1::2] << 32))


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
    x = rng.standard_normal(2 * n)   # the real parts, then the imaginary
    return x[:n] + 1j * x[n:]


def hopf_variates(n: int, rng: np.random.Generator) -> np.ndarray:
    """The variates (2n + 2,) of one Hopf point, drawn into one row: the
    real then the imaginary parts of a complex-normal vector in C^n, then
    two uniforms on [0, 1).  sample_hopf maps them, one or a stack, to points."""
    v = np.empty(2 * n + 2)
    rng.standard_normal(out=v[:-2])
    rng.random(out=v[-2:])
    return v


def sample_hopf(model: HopfModel, variates, regions="+") -> np.ndarray:
    """Points (..., n) with |b(z,z)| > CONE_MARGIN * |z|^2, one per row of
    hopf_variates (..., 2n + 2), all in region regions ('+' or '-') or, for
    a stack (m, 2n + 2), each in its own region of a sequence of m names
    or of their mask, as hopf_chart takes and checks them.

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
    positive = _positive_regions(regions)
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
    return complex(np.exp(2j * np.pi * rng.random()))


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
