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

A lockstep batch draws a block of rounds at once as arrays
(:class:`BatchSampler`), with no generator per cell.  Each seed's pool is
numpy's ``SeedSequence(seed).pool``, built once per batch; the rest of the
hash, absorbing the iteration and the user id as one uint32 word each (up
to MAX_KEY) and generating the output words, runs as array arithmetic over
every round of the block.  PCG64 runs as uint64 arithmetic on the state
words, and numpy's uniform double and the fast path of its ziggurat normal
turn the outputs into draws.  The few cells whose normal draw leaves that
path are drawn from their own generator.  The tests check the batch cell
by cell against numpy's SeedSequence and ``resample_user``.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import astuple, dataclass, fields
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import _ziggurat

# Clamp bounds for sampled sigmoid parameters.  Normal specs put tail mass
# on non-positive values, which would make the utility invalid.
MIN_STEEPNESS = 0.1
MIN_INFLECTION = 1.0

# The most cells a BatchSampler draws in one block of rounds.
BLOCK_CELLS = 2**14

# The largest iteration or user id a BatchSampler hashes, one uint32 word each.
MAX_KEY = 2**32 - 1


class SpecError(ValueError):
    """A value a spec cannot run with; ``field`` names it as a scenario file does."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _as_float(value) -> float:
    """``value`` as a float; NaN for a bool, a non-real, or an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _require_finite_positive(field: str, value) -> float:
    """``value`` as a float; SpecError unless it is a finite real number > 0."""
    x = _as_float(value)
    if not (math.isfinite(x) and x > 0):
        raise SpecError(field, f"{field} must be finite and > 0, got {value!r}")
    return x


def _require_at_least(field: str, value, least: int) -> int:
    """``value`` as an int; SpecError unless it is an integer (numpy's too,
    no bool) of at least ``least`` that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(field, f"{field} must be an integer, got {value!r}")
    if value < least:
        raise SpecError(field, f"{field} must be >= {least}, got {value}")
    if math.isnan(_as_float(value)):
        raise SpecError(field, f"{field} is too large for a float, got {value}")
    return int(value)


def _store_finite(spec) -> None:
    """Store each of a spec's arguments as a float; SpecError names the first that is no finite number."""
    for f in fields(spec):
        x = _as_float(getattr(spec, f.name))
        if not math.isfinite(x):
            raise SpecError(f.name, f"{f.name} must be a finite number, got {format_param_spec(spec)}")
        object.__setattr__(spec, f.name, x)


@dataclass(frozen=True)
class Fixed:
    """Degenerate spec: every draw returns the same value."""

    value: float

    __post_init__ = _store_finite


@dataclass(frozen=True)
class Normal:
    """NORM(mu, sigma): gaussian draws around mu."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _store_finite(self)
        if not self.sigma > 0:
            raise SpecError("sigma", f"NORM sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Triangular:
    """TRIA(min, ml, max): bounded draws with mode ml."""

    lo: float
    mode: float
    hi: float

    def __post_init__(self) -> None:
        _store_finite(self)
        if not (self.lo <= self.mode <= self.hi):
            raise SpecError("mode", f"TRIA requires min <= ml <= max, got ({self.lo}, {self.mode}, {self.hi})")
        if not self.lo < self.hi:
            raise SpecError("hi", f"TRIA requires min < max, got ({self.lo}, {self.hi})")


ParamSpec = Union[Fixed, Normal, Triangular]

# each spec kind by its spelling; its fields are its arguments, in order
_SPEC_KINDS = {"FIXED": Fixed, "NORM": Normal, "TRIA": Triangular}
_SPEC_RE = re.compile(rf"^\s*({'|'.join(_SPEC_KINDS)})\s*\(\s*([^)]*)\s*\)\s*$")


def parse_param_spec(text) -> ParamSpec:
    """Parse ``FIXED(v)``, ``NORM(mu,sigma)`` or ``TRIA(min,ml,max)``.

    A bare number is accepted as shorthand for FIXED.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return Fixed(text)
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
    kind = _SPEC_KINDS[name]
    if len(args) != (arity := len(fields(kind))):
        raise ValueError(f"{name} takes {arity} argument(s), got {len(args)} in {text!r}")
    return kind(*args)


def format_param_spec(spec: ParamSpec) -> str:
    """Canonical spelling; round-trips through :func:`parse_param_spec`."""
    for name, kind in _SPEC_KINDS.items():
        if isinstance(spec, kind):
            return f"{name}({','.join(map(repr, astuple(spec)))})"
    raise TypeError(f"not a ParamSpec: {spec!r}")


def is_stochastic(spec: ParamSpec) -> bool:
    return not isinstance(spec, Fixed)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) past a seed's
# own words, on uint32 words: the spawn key's absorption and the output.
# Each hashmix takes the next value of hash constant A; each output word
# takes the next value of hash constant B.
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


# The output words take hash constant B's values in order, cycling over the
# pool.
_OUT_CONSTS = _pairs(_hash_consts(INIT_B, MULT_B, 2 * PCG64_STATE_WORDS + 1), range(2 * PCG64_STATE_WORDS))
_OUT_SOURCE = np.arange(2 * PCG64_STATE_WORDS) % POOL_SIZE


def _word_count(value: int) -> int:
    """The 32-bit words of a non-negative integer; 0 has one, as in SeedSequence."""
    return max(1, -(-value.bit_length() // 32))


def _key_words(values) -> np.ndarray:
    """One uint32 word per value; numpy raises OverflowError past MAX_KEY."""
    return np.array([operator.index(v) for v in values], dtype=np.uint32)


def _absorbed(words: np.ndarray, index) -> np.ndarray:
    """Entropy words past the pool's fill, each hashmixed for its absorption
    into every pool word in turn, on a trailing axis of POOL_SIZE: the word
    at entropy ``index`` e takes A's constants from position POOL_SIZE * e on."""
    positions = POOL_SIZE * np.asarray(index)[..., None] + np.arange(POOL_SIZE)
    consts = _hash_consts(INIT_A, MULT_A, positions.max(initial=0) + 2)
    return _hashmix(words[..., None], _pairs(consts, positions))


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


def stream_rng(seed: int, iteration: int, user_id: int) -> np.random.Generator:
    """Independent generator for one (iteration, user) cell of one run.

    One cell is seeded by numpy's own SeedSequence, whose hash
    :class:`BatchSampler` finishes as arrays for a block of rounds: the batch
    hash's fixed cost of dozens of array calls would be all of a one-cell
    call's cost.
    """
    if min(map(operator.index, (seed, iteration, user_id))) < 0:
        raise ValueError(f"seeds and spawn keys must be >= 0, got {min(seed, iteration, user_id)}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iteration, user_id)))


# PCG64 (O'Neill 2014) on the (high, low) uint64 limbs of its 128-bit
# state: each output steps the LCG, state * MULT + inc, then applies XSL-RR
# to the new state.  Seeding with the initial state `init` steps from state
# 0, which gives inc, adds `init`, and steps again.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _LOW64 = np.uint64(2**32 - 1), 2**64 - 1


def _mul_high(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The high 64 bits of x * c, from 32-bit partial products."""
    x0, x1, c0, c1 = x & _LOW32, x >> 32, c & _LOW32, c >> 32
    low, cross0, cross1 = x0 * c0, x0 * c1, x1 * c0
    carries = (low >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return x1 * c1 + (cross0 >> 32) + (cross1 >> 32) + (carries >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, state * PCG64_MULT + inc mod 2**128, on the limbs."""
    m_hi, m_lo = np.uint64(PCG64_MULT >> 64), np.uint64(PCG64_MULT & _LOW64)
    return _add128(_mul_high(lo, m_lo) + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The high and low halves xored, rotated right by the top 6 bits."""
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_outputs(state: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of the PCG64 seeded with each cell's
    state words (on the last axis): one leading row per output.  The words
    are ``init`` and then the stream, each high limb first; the increment
    is the stream shifted left by one, with its low bit set."""
    w0, w1, w2, w3 = state.reshape(-1, PCG64_STATE_WORDS).T
    inc = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    hi, lo = _pcg64_step(*_add128(*inc, w0, w1), *inc)
    outputs = []
    for _ in range(count):
        hi, lo = _pcg64_step(hi, lo, *inc)
        outputs.append(_xsl_rr(hi, lo))
    return np.stack(outputs).reshape(count, *state.shape[:-1])


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

    The draws are made a block of rounds at a time, and each round is
    served from the block held.  A block holds whole rounds, at least one,
    of at most BLOCK_CELLS cells, and ends at the batch's iteration cap.  A
    ``growing`` sampler, for a batch whose runs may stop early, starts with
    a block of one round and doubles the rounds of each block after it, so
    that it draws at most about twice the rounds its runs use.

    Every cell of a block is derived at once, as the module says.  The
    ziggurat normal's fast path takes all but about 1.5% of normal draws,
    and a cell in which one leaves it is redrawn whole from its own
    generator.  Rows are runs, in batch order, and columns users;
    :meth:`drop` removes the runs that leave the batch, from the block held
    too.  The per-user arrays have a leading axis of two halves, a then b.
    ``blocks``, ``cells`` and ``redrawn`` count the blocks drawn, their
    cells, and the cells redrawn off the fast path.
    """

    def __init__(self, seeds, user_ids, specs, capacity: float, cap: int, growing: bool = False) -> None:
        """``specs`` holds each user's (a_spec, b_spec), at least one of
        them drawn; ``cap`` is the last iteration the batch draws."""
        self.capacity = capacity
        self.cap = cap
        self.growing = growing
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
        self.user_words = _key_words(user_ids)
        self.pool = np.array([np.random.SeedSequence(seed).pool for seed in seeds])
        # the spawn key's words start past the seed's, zero-padded to the pool
        self.start = np.maximum([_word_count(operator.index(seed)) for seed in seeds], POOL_SIZE)
        # the block held: its first iteration, its (half, round, run, user)
        # draws and its (round, run, user) failed cells
        self.first = 0
        self.held = np.empty((2, 0, len(seeds), len(specs)))
        self.failed = np.empty((0, len(seeds), len(specs)), dtype=bool)
        self.blocks = self.cells = self.redrawn = 0

    def drop(self, rows) -> None:
        """Remove the runs marked in the boolean mask ``rows``."""
        keep = ~np.asarray(rows, dtype=bool)
        self.pool, self.start = self.pool[keep], self.start[keep]
        self.held, self.failed = self.held[:, :, keep], self.failed[:, keep]

    def _cell_states(self, iterations) -> np.ndarray:
        """Every cell's PCG64 state words, (rounds, runs, users,
        PCG64_STATE_WORDS): each iteration's word at entropy index ``start``, then the user id's."""
        iterations = _key_words(iterations)[:, None]
        pool = _mix(self.pool, _absorbed(iterations, self.start))
        users = _absorbed(self.user_words, (self.start + 1)[:, None])
        return _state_words(_mix(pool[:, :, None], users))

    def _variates(self, outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's variates from its outputs, (half, rows, users): a
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

    def _draw_block(self, first: int) -> None:
        """Draw the block of rounds from iteration ``first`` on, and hold it."""
        if not 0 <= first <= self.cap:
            raise ValueError(f"iteration {first} is outside the batch's 0..{self.cap}")
        runs, users = self.pool.shape[0], len(self.specs)
        rounds = max(1, BLOCK_CELLS // (runs * users))
        if self.growing:
            rounds = min(rounds, 2**self.blocks)
        stop = min(first + rounds, self.cap + 1)
        # rounds and runs flattened into one axis of rows
        state = self._cell_states(range(first, stop)).reshape(-1, users, PCG64_STATE_WORDS)
        outputs = _pcg64_outputs(state, 2 if self.second.any() else 1)
        with np.errstate(all="ignore"):  # a failed cell is reported, not warned about
            variates, off_path = self._variates(np.where(self.second, outputs[-1], outputs[0]))
            redrawn = np.flatnonzero(off_path.any(axis=0)).tolist()
            for cell in redrawn:
                row, col = divmod(cell, users)
                rng = _cell_rng(state[row, col])
                for half, spec in enumerate(self.specs[col]):
                    if is_stochastic(spec):
                        variates[half, row, col] = rng.standard_normal() if isinstance(spec, Normal) else rng.random()
            a, b = self._values(variates)
            failed = ~(np.isfinite(a) & np.isfinite(b))
            a = np.maximum(a, MIN_STEEPNESS)
            b = np.minimum(np.maximum(b, MIN_INFLECTION), self.capacity)
            failed |= ~np.isfinite(a * self.capacity)
        self.first = first
        self.held = np.stack((a, b)).reshape(2, -1, runs, users)
        self.failed = failed.reshape(-1, runs, users)
        self.blocks += 1
        self.cells += failed.size
        self.redrawn += len(redrawn)

    def draw(self, iteration: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The round's clamped a and b, (runs, users), and the cells that
        fail: a or b drawn non-finite, or a*R overflowing.  A failed cell's
        a and b are not valid; the reference draw names its error.  A round
        outside the block held starts a new block."""
        iteration = operator.index(iteration)
        offset = iteration - self.first
        if not 0 <= offset < len(self.failed):
            self._draw_block(iteration)
            offset = 0
        a, b = self.held[:, offset]
        return a, b, self.failed[offset]
