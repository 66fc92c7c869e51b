"""Seeded sampling of sigmoid parameters under three regimes.

Parameter specs are either fixed values, normal draws NORM(mu, sigma), or
triangular draws TRIA(min, ml, max) with mode ml.  Sigmoid users with
non-fixed specs get fresh (a, b) draws once per auction iteration, before
they solve their subproblem.

Reproducibility contract: every draw is a pure function of
(seed, iteration, user_id).  Each such triple keys its own PCG64 stream,
the one ``SeedSequence(seed, spawn_key=(iteration, user_id))`` seeds, so
users and iterations can be sampled in any order (or concurrently) with
identical results.  :func:`stream_rngs` derives the streams of many cells
at once: it runs SeedSequence's hash over all of them as uint32 array
arithmetic and hands PCG64 each cell's state words directly, without a
SeedSequence object per cell.  :func:`stream_rng` is its one-cell case, so
there is one derivation, which the tests check cell by cell against
numpy's own SeedSequence for seeds and keys of every word count.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    width = max(1, -(-max(ints).bit_length() // 32))
    big = np.array(ints, dtype=np.uint64 if width <= 2 else object)
    words = np.empty((len(ints), width), dtype=np.uint32)
    for j in range(width):
        words[:, j] = (big >> (32 * j)) & 0xFFFFFFFF
    counts = np.max((words != 0) * np.arange(1, width + 1), axis=1, initial=1)
    return words, counts


class _CellSeed(ISeedSequence):
    """A cell's precomputed PCG64 state, in the place of its SeedSequence."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != PCG64_STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a cell seed holds {PCG64_STATE_WORDS} uint64 words, not {n_words} {dtype}")
        return self.state


def stream_rngs(seeds, iteration: int, user_ids) -> list[np.random.Generator]:
    """One generator per cell (seeds[i], iteration, user_ids[i]), each equal
    to ``default_rng(SeedSequence(seed, spawn_key=(iteration, user_id)))``.

    SeedSequence's hash runs once over all cells, as uint32 array
    arithmetic.  A cell's entropy is its seed's words zero-padded to the
    pool size, then the iteration's words, then the user id's.  The hash
    constants advance by position, so all cells share them; a cell whose
    entropy is shorter than the longest skips the columns past its end.
    """
    if len(seeds) != len(user_ids):
        raise ValueError(f"{len(seeds)} seeds for {len(user_ids)} user ids")
    if not len(seeds):
        return []
    cells = len(seeds)
    words, counts = _int_words([*seeds, iteration, *user_ids])
    iter_start = np.maximum(counts[:cells], POOL_SIZE)
    user_start = iter_start + counts[cells]
    lengths = user_start + counts[cells + 1 :]
    # each block is written at full width; its zero padding lands where the
    # next block or nothing goes
    width = words.shape[1]
    rows = np.arange(cells)[:, None]
    entropy = np.zeros((cells, user_start.max() + width), dtype=np.uint32)
    entropy[:, :width] = words[:cells]
    entropy[rows, iter_start[:, None] + np.arange(width)] = words[cells]
    entropy[rows, user_start[:, None] + np.arange(width)] = words[cells + 1 :]

    pool = _hashmix(entropy[:, :POOL_SIZE], _FILL_CONSTS)
    for src in range(POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_CONSTS[:, src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # every later entropy word is absorbed by each pool word in turn
    extra = entropy.shape[1] - POOL_SIZE
    later = POOL_SIZE * POOL_SIZE + np.arange(extra * POOL_SIZE).reshape(extra, POOL_SIZE)
    consts = _pairs(_hash_consts(INIT_A, MULT_A, later.size + POOL_SIZE * POOL_SIZE + 1), later)
    absorbed = _hashmix(entropy[:, POOL_SIZE:, None], consts)
    for col in range(extra):
        np.copyto(pool, _mix(pool, absorbed[:, col]), where=(POOL_SIZE + col < lengths)[:, None])

    # generate_state(PCG64_STATE_WORDS, uint64): pairs of uint32 words, low
    # word first.  PCG64 reads each row straight from memory, so the rows
    # must be contiguous: ``state`` is a fresh C-ordered array.
    out = _hashmix(pool[:, _OUT_SOURCE], _OUT_CONSTS)
    state = np.empty((cells, PCG64_STATE_WORDS), dtype=np.uint64)
    np.left_shift(out[:, 1::2], 32, out=state, dtype=np.uint64)
    state |= out[:, 0::2]
    return list(map(np.random.Generator, map(np.random.PCG64, map(_CellSeed, state))))


def stream_rng(seed: int, iteration: int, user_id: int) -> np.random.Generator:
    """Independent generator for one (iteration, user) cell of one run."""
    return stream_rngs([seed], iteration, [user_id])[0]


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
