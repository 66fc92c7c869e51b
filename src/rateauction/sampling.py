"""Seeded sampling of sigmoid parameters under three regimes.

Parameter specs are either fixed values, normal draws NORM(mu, sigma), or
triangular draws TRIA(min, ml, max) with mode ml.  Sigmoid users with
non-fixed specs get fresh (a, b) draws once per auction iteration, before
they solve their subproblem.

Reproducibility contract: every draw is a pure function of
(seed, iteration, user_id).  Each such triple keys its own PCG64 stream,
the one ``SeedSequence(seed, spawn_key=(iteration, user_id))`` seeds, so
users and iterations can be sampled in any order (or concurrently) with
identical results.  :func:`stream_rng` is one cell's generator, seeded by
numpy itself; :func:`resample_user` draws a cell's (a, b) from it and is
the scalar reference.

A lockstep batch draws a whole round as arrays (:class:`BatchSampler`),
with no generator per cell.  SeedSequence's hash runs as uint32 array
arithmetic, and its pool after a seed's own words is kept per batch.
PCG64 runs as uint64 arithmetic on the resulting state words, and numpy's
uniform double and the fast path of its ziggurat normal turn the outputs
into draws.  The few cells whose normal draw leaves that path are drawn
from their own generator.  :func:`stream_rngs` gives each cell of a batch
its generator from the same hash code, and the tests check both cell by
cell against numpy's SeedSequence and ``resample_user``, for seeds and
keys of every word count.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import astuple, dataclass
from typing import Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import _ziggurat

# Clamp bounds for sampled sigmoid parameters.  Normal specs put tail mass
# on non-positive values, which would make the utility invalid.
MIN_STEEPNESS = 0.1
MIN_INFLECTION = 1.0


@dataclass(frozen=True)
class Fixed:
    """Degenerate spec: every draw returns the same value."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"FIXED value must be finite, got {self.value}")


@dataclass(frozen=True)
class Normal:
    """NORM(mu, sigma): gaussian draws around mu."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"NORM parameters must be finite, got ({self.mu}, {self.sigma})")
        if not self.sigma > 0:
            raise ValueError(f"NORM sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Triangular:
    """TRIA(min, ml, max): bounded draws with mode ml."""

    lo: float
    mode: float
    hi: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.lo, self.mode, self.hi)):
            raise ValueError(
                f"TRIA parameters must be finite, got ({self.lo}, {self.mode}, {self.hi})"
            )
        if not (self.lo <= self.mode <= self.hi):
            raise ValueError(
                f"TRIA requires min <= ml <= max, got ({self.lo}, {self.mode}, {self.hi})"
            )
        if not self.lo < self.hi:
            raise ValueError(f"TRIA requires min < max, got ({self.lo}, {self.hi})")


ParamSpec = Union[Fixed, Normal, Triangular]

_SPEC_RE = re.compile(r"^\s*(FIXED|NORM|TRIA)\s*\(\s*([^)]*)\s*\)\s*$")


def parse_param_spec(text) -> ParamSpec:
    """Parse ``FIXED(v)``, ``NORM(mu,sigma)`` or ``TRIA(min,ml,max)``.

    A bare number is accepted as shorthand for FIXED.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return Fixed(float(text))
    if not isinstance(text, str):
        raise ValueError(f"expected a FIXED/NORM/TRIA spec string, got {text!r}")
    m = _SPEC_RE.match(text)
    if m is None:
        raise ValueError(f"expected FIXED(v), NORM(mu,sigma) or TRIA(min,ml,max), got {text!r}")
    name, body = m.group(1), m.group(2)
    try:
        args = [float(part) for part in body.split(",")] if body.strip() else []
    except ValueError:
        raise ValueError(f"non-numeric argument in spec {text!r}") from None
    arity = {"FIXED": 1, "NORM": 2, "TRIA": 3}[name]
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} argument(s), got {len(args)} in {text!r}")
    if name == "FIXED":
        return Fixed(args[0])
    if name == "NORM":
        return Normal(args[0], args[1])
    return Triangular(args[0], args[1], args[2])


def format_param_spec(spec: ParamSpec) -> str:
    """Canonical spelling; round-trips through :func:`parse_param_spec`."""
    if isinstance(spec, Fixed):
        return f"FIXED({spec.value!r})"
    if isinstance(spec, Normal):
        return f"NORM({spec.mu!r},{spec.sigma!r})"
    if isinstance(spec, Triangular):
        return f"TRIA({spec.lo!r},{spec.mode!r},{spec.hi!r})"
    raise TypeError(f"not a ParamSpec: {spec!r}")


def is_stochastic(spec: ParamSpec) -> bool:
    return not isinstance(spec, Fixed)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on uint32
# words.  Each hashmix takes the next value of hash constant A; each output
# word takes the next value of hash constant B.
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
XSHIFT = 16
PCG64_STATE_WORDS = 4  # uint64 words PCG64 asks its seed sequence for


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i in [0, count): the successive
    values of one of the hash constants."""
    factors = np.full(count, mult, dtype=np.uint32)
    factors[0] = init
    return np.cumprod(factors, dtype=np.uint32)  # array products wrap silently


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> XSHIFT)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix each value with the constant at its position: xor with it,
    then multiply by the next one.  ``consts`` holds each value's constant
    and the next, on a leading axis of two."""
    return _xorshift((values ^ consts[0]) * consts[1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(x * MIX_MULT_L - y * MIX_MULT_R)


def _pairs(consts: np.ndarray, positions) -> np.ndarray:
    """The constants at ``positions`` and at the positions after them."""
    positions = np.asarray(positions)
    return np.stack((consts[positions], consts[positions + 1]))


def _cross_positions() -> np.ndarray:
    """Hash constant A's position for each (src, dst) step of the pool's
    cross-mix, in which every word absorbs every other, src-major; the
    diagonal is unused."""
    positions = np.zeros((POOL_SIZE, POOL_SIZE), dtype=int)
    off_diagonal = ~np.eye(POOL_SIZE, dtype=bool)
    positions[off_diagonal] = POOL_SIZE + np.arange(POOL_SIZE * (POOL_SIZE - 1))
    return positions


# The fill and the cross-mix take A's first POOL_SIZE**2 values whatever
# the entropy; the output words take B's in order, cycling over the pool.
_A_HEAD = _hash_consts(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE + 1)
_FILL_CONSTS = _pairs(_A_HEAD, range(POOL_SIZE))
_CROSS_CONSTS = _pairs(_A_HEAD, _cross_positions())
_OUT_CONSTS = _pairs(_hash_consts(INIT_B, MULT_B, 2 * PCG64_STATE_WORDS + 1), range(2 * PCG64_STATE_WORDS))
_OUT_SOURCE = np.arange(2 * PCG64_STATE_WORDS) % POOL_SIZE


def _int_words(values) -> tuple[np.ndarray, np.ndarray]:
    """The little-endian 32-bit words of non-negative integers, one
    zero-padded row per value, and each value's word count (0 has one word,
    as in SeedSequence)."""
    ints = [operator.index(v) for v in values]
    if min(ints) < 0:
        raise ValueError(f"seeds and spawn keys must be >= 0, got {min(ints)}")
    counts = [max(1, -(-v.bit_length() // 32)) for v in ints]
    width = max(counts)
    words = [[(v >> (32 * j)) & 0xFFFFFFFF for j in range(width)] for v in ints]
    return np.array(words, dtype=np.uint32), np.array(counts)


def _absorbed(words: np.ndarray, start) -> np.ndarray:
    """Entropy words past the pool's fill, each hashmixed for its absorption
    into every pool word in turn: on a trailing axis of POOL_SIZE.  A block
    of words starts at entropy index ``start``; the word at index e takes A's
    constants from position POOL_SIZE * e on."""
    index = np.asarray(start)[..., None] + np.arange(words.shape[-1])
    positions = POOL_SIZE * index[..., None] + np.arange(POOL_SIZE)
    consts = _hash_consts(INIT_A, MULT_A, positions.max(initial=0) + 2)
    return _hashmix(words[..., None], _pairs(consts, positions))


def _mix_in(pool: np.ndarray, absorbed: np.ndarray, counts) -> np.ndarray:
    """Each pool absorbs the first ``counts`` of its block's words, in order;
    ``absorbed`` holds their hashmixes (:func:`_absorbed`)."""
    for col in range(absorbed.shape[-2]):
        mixed = _mix(pool, absorbed[..., col, :])
        pool = np.where(np.asarray(col < counts)[..., None], mixed, pool)
    return pool


def _seed_pools(seeds) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's pool once its own words are absorbed, and the entropy
    index at which the spawn key's words start: the seed's word count,
    zero-padded to the pool size."""
    words, counts = _int_words(seeds)
    fill = np.zeros((len(words), POOL_SIZE), dtype=np.uint32)
    fill[:, : words.shape[1]] = words[:, :POOL_SIZE]
    pool = _hashmix(fill, _FILL_CONSTS)
    for src in range(POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_CONSTS[:, src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    pool = _mix_in(pool, _absorbed(words[:, POOL_SIZE:], POOL_SIZE), counts - POOL_SIZE)
    return pool, np.maximum(counts, POOL_SIZE)


def _state_words(pool: np.ndarray) -> np.ndarray:
    """generate_state(PCG64_STATE_WORDS, uint64) of each pool: pairs of
    output words, low word first.  PCG64 reads a cell's row straight from
    memory, so the rows must be contiguous: the result is a fresh C-ordered
    array."""
    out = _hashmix(pool[..., _OUT_SOURCE], _OUT_CONSTS)
    state = np.empty((*pool.shape[:-1], PCG64_STATE_WORDS), dtype=np.uint64)
    np.left_shift(out[..., 1::2], 32, out=state, dtype=np.uint64)
    state |= out[..., 0::2]
    return state


class _CellSeed(ISeedSequence):
    """A cell's precomputed PCG64 state, in the place of its SeedSequence."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != PCG64_STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a cell seed holds {PCG64_STATE_WORDS} uint64 words, not {n_words} {dtype}")
        return self.state


def _cell_rng(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_CellSeed(state)))


def stream_rngs(seeds, iteration: int, user_ids) -> list[np.random.Generator]:
    """One generator per cell (seeds[i], iteration, user_ids[i]), each equal
    to ``default_rng(SeedSequence(seed, spawn_key=(iteration, user_id)))``.

    SeedSequence's hash runs once over all cells, as uint32 array
    arithmetic.  A cell's entropy is its seed's words zero-padded to the
    pool size, then the iteration's words, then the user id's.  A word's
    hash constants follow from its position in the entropy, and a cell
    whose entropy is shorter than the longest skips the columns past its
    end, so cells of every length share one pass.
    """
    if len(seeds) != len(user_ids):
        raise ValueError(f"{len(seeds)} seeds for {len(user_ids)} user ids")
    if not len(seeds):
        return []
    pool, start = _seed_pools(seeds)
    words, counts = _int_words([iteration, *user_ids])
    pool = _mix_in(pool, _absorbed(words[:1], start), counts[0])
    pool = _mix_in(pool, _absorbed(words[1:], start + counts[0]), counts[1:])
    return list(map(_cell_rng, _state_words(pool)))


def stream_rng(seed: int, iteration: int, user_id: int) -> np.random.Generator:
    """Independent generator for one (iteration, user) cell of one run.

    One cell is seeded by numpy's own SeedSequence, which
    :func:`stream_rngs` reproduces: the batch hash's fixed cost of about a
    hundred array calls would be all of a one-cell call's cost.
    """
    if min(map(operator.index, (seed, iteration, user_id))) < 0:
        raise ValueError(f"seeds and spawn keys must be >= 0, got {min(seed, iteration, user_id)}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iteration, user_id)))


# PCG64 (O'Neill 2014) on the (high, low) uint64 limbs of its 128-bit
# state: each output steps the LCG, state * MULT + inc, then applies XSL-RR
# to the new state.  Seeding with the initial state `init` steps from state
# 0, adds `init`, and steps again, so the state of output j (from 1) is
# (inc + init) * MULT**(j+1) + inc * (1 + MULT + ... + MULT**j): two
# products by constants, for every output at once.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MAX_OUTPUTS = 2  # a cell's a and b on their fast paths
_LOW32, _LOW64 = np.uint64(2**32 - 1), 2**64 - 1


def _jump_factors(j: int) -> tuple[int, int]:
    powers = [pow(PCG64_MULT, i, 2**128) for i in range(j + 2)]
    return powers[j + 1], sum(powers[: j + 1]) % 2**128


# (output, factor, limb): output j's factors of (inc + init) and of inc
_JUMPS = np.array(
    [[(f >> 64, f & _LOW64) for f in _jump_factors(j)] for j in range(1, MAX_OUTPUTS + 1)], dtype=np.uint64
)


def _mul_high(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The high 64 bits of x * c, from 32-bit partial products."""
    x0, x1, c0, c1 = x & _LOW32, x >> 32, c & _LOW32, c >> 32
    low, cross0, cross1 = x0 * c0, x0 * c1, x1 * c0
    carries = (low >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return x1 * c1 + (cross0 >> 32) + (cross1 >> 32) + (carries >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The high and low halves xored, rotated right by the top 6 bits."""
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_outputs(state: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of the PCG64 seeded with each cell's
    state words (on the last axis): one leading row per output.  The words
    are ``init`` and then the stream, each high limb first; the increment
    is the stream shifted left by one, with its low bit set."""
    if count > MAX_OUTPUTS:
        raise ValueError(f"at most {MAX_OUTPUTS} outputs per cell, not {count}")
    w0, w1, w2, w3 = state.reshape(-1, PCG64_STATE_WORDS).T
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    hi, lo = map(np.stack, zip(_add128(inc_hi, inc_lo, w0, w1), (inc_hi, inc_lo)))
    f_hi, f_lo = _JUMPS[:count, :, :, None].transpose(2, 0, 1, 3)
    # (hi:lo) * (f_hi:f_lo) mod 2**128, per output and factor
    terms_hi, terms_lo = _mul_high(lo, f_lo) + lo * f_hi + hi * f_lo, lo * f_lo
    outputs = _xsl_rr(*_add128(terms_hi[:, 0], terms_lo[:, 0], terms_hi[:, 1], terms_lo[:, 1]))
    return outputs.reshape(count, *state.shape[:-1])


# numpy's uniform double: the top 53 bits of one output
UNIFORM_SHIFT, UNIFORM_SCALE = 11, 2.0**-53
RABS_MASK = 2**52 - 1
_KI, _WI = np.array(_ziggurat.KI, dtype=np.uint64), np.array(_ziggurat.WI)


def _fast_normals(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard normal from each output on the ziggurat's fast path
    (``_ziggurat.py``), and the outputs off that path, whose draws consume
    more outputs."""
    strip = outputs & 0xFF
    rabs = (outputs >> 9) & RABS_MASK
    x = rabs * _WI[strip]
    return np.where(outputs & 0x100, -x, x), rabs >= _KI[strip]


def triangular_inverse_cdf(u: float, lo: float, mode: float, hi: float) -> float:
    """Map a uniform u in [0, 1] through the triangular quantile function."""
    split = (mode - lo) / (hi - lo)
    if u < split:
        return lo + math.sqrt(u * (hi - lo) * (mode - lo))
    return hi - math.sqrt((1.0 - u) * (hi - lo) * (hi - mode))


def sample(spec: ParamSpec, rng: np.random.Generator) -> float:
    """One draw; Fixed consumes no randomness, and a non-finite draw raises."""
    if isinstance(spec, Fixed):
        return spec.value
    if isinstance(spec, Normal):
        value = float(rng.normal(spec.mu, spec.sigma))
    elif isinstance(spec, Triangular):
        value = triangular_inverse_cdf(float(rng.random()), spec.lo, spec.mode, spec.hi)
    else:
        raise TypeError(f"not a ParamSpec: {spec!r}")
    if not math.isfinite(value):
        raise ValueError(f"{format_param_spec(spec)} drew {value!r}")
    return value


def clamp_sigmoid_params(a: float, b: float, capacity: float) -> tuple[float, float]:
    """Force sampled (a, b) into the valid range: a >= 0.1, 1 <= b <= capacity."""
    return max(a, MIN_STEEPNESS), min(max(b, MIN_INFLECTION), capacity)


def resample_user(
    a_spec: ParamSpec,
    b_spec: ParamSpec,
    capacity: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Fresh (a, b) for a sigmoid user: a drawn first, then b.

    Both are clamped, fixed halves included, so the utility they define is
    always valid; a draw whose a*R overflows, which no slope evaluation can
    survive, raises.
    """
    a = sample(a_spec, rng)
    b = sample(b_spec, rng)
    a, b = clamp_sigmoid_params(a, b, capacity)
    if not math.isfinite(a * capacity):
        raise ValueError(f"a*R must be finite, got {a!r}*{capacity!r}")
    return a, b


class BatchSampler:
    """A lockstep batch's draws: each round, the (a, b) of every drawn user
    of every live run, bit for bit those of :func:`resample_user` with the
    cell's :func:`stream_rng`.

    Every cell's stream is derived at once, as array arithmetic: the seed
    hash pools once per batch, the user ids' hashmixes once per iteration
    word count, and each round only the iteration's words.  Then PCG64's
    first outputs, numpy's uniform and the ziggurat normal's fast path,
    which all but about 1.5% of normal draws take.  A cell in which a
    normal draw leaves that path is redrawn whole from its own generator.
    Rows are runs, in batch order, and columns users; :meth:`drop` removes
    the runs that leave the batch.  The per-user arrays have a leading axis
    of two halves, a then b.
    """

    def __init__(self, seeds, user_ids, specs, capacity: float) -> None:
        """``specs`` holds each user's (a_spec, b_spec), at least one of
        them drawn."""
        self.capacity = capacity
        self.specs = specs
        halves = list(zip(*specs))
        self.normal = np.array([[isinstance(s, Normal) for s in h] for h in halves])[:, None]
        self.triangular = np.array([[isinstance(s, Triangular) for s in h] for h in halves])[:, None]
        # each spec's arguments (value; mu, sigma; or lo, mode, hi), padded
        # to three: (argument, half, 1, user)
        args = [[astuple(s) + (1.0,) * (3 - len(astuple(s))) for s in h] for h in halves]
        self.args = np.moveaxis(np.array(args), -1, 0)[:, :, None]
        # b takes the second output where a is drawn, the first where it is fixed
        self.second = np.array([[False] * len(specs), [is_stochastic(a) for a, _ in specs]])[:, None]
        self.user_words, self.user_counts = _int_words(user_ids)
        self.pool, self.start = _seed_pools(seeds)
        self.users_absorbed: Optional[tuple[int, np.ndarray]] = None  # (iteration word count, hashmixes)

    def drop(self, rows) -> None:
        """Remove the runs marked in the boolean mask ``rows``."""
        keep = ~np.asarray(rows, dtype=bool)
        self.pool, self.start = self.pool[keep], self.start[keep]
        if self.users_absorbed is not None:
            self.users_absorbed = (self.users_absorbed[0], self.users_absorbed[1][keep])

    def _cell_states(self, iteration: int) -> np.ndarray:
        """Every cell's PCG64 state words: (runs, users, PCG64_STATE_WORDS)."""
        words, counts = _int_words([iteration])
        pool = _mix_in(self.pool, _absorbed(words, self.start), counts)
        if self.users_absorbed is None or self.users_absorbed[0] != counts[0]:
            absorbed = _absorbed(self.user_words, (self.start + counts[0])[:, None])
            self.users_absorbed = (counts[0], absorbed)
        return _state_words(_mix_in(pool[:, None], self.users_absorbed[1], self.user_counts))

    def _variates(self, outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's variates from its outputs, (half, runs, users): a
        standard normal for a NORM spec, a uniform otherwise; and the
        normal draws that leave the ziggurat's fast path."""
        variates = (outputs >> UNIFORM_SHIFT) * UNIFORM_SCALE
        if not self.normal.any():
            return variates, np.zeros(outputs.shape, dtype=bool)
        normals, off_path = _fast_normals(outputs)
        return np.where(self.normal, normals, variates), self.normal & off_path

    def _values(self, variates: np.ndarray) -> np.ndarray:
        """Each draw from its variate, with :func:`sample`'s float
        operations; a FIXED spec ignores its variate."""
        first, second, third = self.args
        values = np.where(self.normal, first + second * variates, first)
        if not self.triangular.any():
            return values
        split = (second - first) / (third - first)
        lower = first + np.sqrt(variates * (third - first) * (second - first))
        upper = third - np.sqrt((1.0 - variates) * (third - first) * (third - second))
        return np.where(self.triangular, np.where(variates < split, lower, upper), values)

    def draw(self, iteration: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The round's clamped a and b, (runs, users), and the cells that
        fail: a or b drawn non-finite, or a*R overflowing.  A failed cell's
        a and b are not valid; the reference draw names its error."""
        state = self._cell_states(iteration)
        outputs = _pcg64_outputs(state, 2 if self.second.any() else 1)
        with np.errstate(all="ignore"):  # a failed cell is reported, not warned about
            variates, off_path = self._variates(np.where(self.second, outputs[-1], outputs[0]))
            for cell in np.flatnonzero(off_path.any(axis=0)).tolist():
                row, col = divmod(cell, len(self.specs))
                rng = _cell_rng(state[row, col])
                for half, spec in enumerate(self.specs[col]):
                    if is_stochastic(spec):
                        variates[half, row, col] = rng.standard_normal() if isinstance(spec, Normal) else rng.random()
            a, b = self._values(variates)
            failed = ~(np.isfinite(a) & np.isfinite(b))
            a = np.maximum(a, MIN_STEEPNESS)
            b = np.minimum(np.maximum(b, MIN_INFLECTION), self.capacity)
            failed |= ~np.isfinite(a * self.capacity)
        return a, b, failed
