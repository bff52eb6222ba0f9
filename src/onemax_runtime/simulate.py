"""Monte Carlo reference: actually run the (1+1) EA on OneMax.

Three engines produce the same law by different routes:

* ``bitstring`` keeps real bit vectors and flips each bit with probability
  1/n: the algorithm itself. A round draws the flipped bits of all m running
  strings as partial sums of Geometric(1/n) gaps (``_flip_sites``), reads the
  child's zero count from the parent's bits there and flips exactly them in
  an accepted child, so a step costs O(1) work, about one flip, instead of
  O(n). While more than ``_ROUND_ROWS`` / 2 strings run, a round is one step
  of each. Past that, a round draws r = ``_ROUND_ROWS`` // m mutations of
  each string at once, all read against the parent's bits, and the string's
  round ends at its first mutation that changes its bits (at least one flip,
  and accepted); the later draws are discarded. That is exact: the mutations
  are i.i.d. and the first change is a stopping time, so the rejected and
  empty ones before it are the steps in which the parent stays put;
* ``statechain`` samples only the two flip counts (zeros flipped, ones
  flipped) per step, which is the marginal the analysis works with, one
  round per mutation step. It draws the flips with the same sampler, on a
  string laid out as k zeros followed by n - k ones, and counts the flips
  that land in the zeros;
* ``jump`` (the default) runs once per accepted improvement. It uses the
  first-accepted-jump decomposition behind the hitting-time recurrence: from
  state k the chain waits a Geometric(s_k) number of steps, s_k the
  probability that a step moves, then jumps to k - d with probability
  p(k, k - d) / s_k, so a run costs about k0 rounds instead of about
  e n ln n. The wait is floor(E r_k) + 1 for E standard exponential and
  r_k = -1 / log1p(-s_k), the inversion the bitstring gaps use too. Both
  laws are read from the float kernel band (``drift._float_band``), whose
  D = 20 columns for starts up to n leave out less than 2^-60 of each s_k.
  The jump is drawn by inverse transform on the table cdf[k, d - 1] =
  P[jump <= d | move from k], each row ending at exactly 1:
  d = 1 + #{d : cdf[k, d - 1] < u}, found by walking the row from d = 1, so
  u is compared with the row's own entries and the draw is exact.

Agreement between the engines, and with the exact kernel and hitting times,
is what the equivalence tests check; the two per-step engines stay as
independent checks of the jump engine.

Every engine is one step function on the running lanes of a chunk, and one
loop (``_run_lanes``) owns the rest: lanes that start at the optimum,
the index of running lanes, the steps each lane has used and the truncation
law. A run that has not hit the optimum when its time passes ``max_iters``
is recorded at ``max_iters`` and counted in ``truncated``; a run that hits
it at exactly ``max_iters`` steps is not. Truncation is data, not an
exception, but a nonzero count means the mean is biased low and the
experiment should be redone with a larger budget. The default budget
100 e n (log n + 1) makes truncation astronomically unlikely.

Replicates are processed in fixed chunks of 8192, each chunk driven by its
own PCG64 stream, one child of the seed's ``SeedSequence`` per chunk. The
chunk layout is part of the contract: results are byte-identical for a
given (seed, n, start, engine, replicates, max_iters) regardless of how
chunks are scheduled, and within a chunk everything is vectorized. A
uniform start has Bin(n, 1/2) zero bits: the bitstring engine draws every
bit, the other two engines draw the count with the same call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .backends import DomainError, check_memory, check_n, resolve_threads, thread_map
from .drift import _band_improvement, _band_width, _float_band

__all__ = [
    "CHUNK_SIZE",
    "ENGINE_BITSTRING",
    "ENGINE_JUMP",
    "ENGINE_STATECHAIN",
    "UNIFORM_START",
    "SimConfig",
    "RunStats",
    "default_max_iters",
    "step_bitstring",
    "step_statechain",
    "run",
]

CHUNK_SIZE = 8192

ENGINE_BITSTRING = "bitstring"
ENGINE_STATECHAIN = "statechain"
ENGINE_JUMP = "jump"
ENGINES = (ENGINE_BITSTRING, ENGINE_STATECHAIN, ENGINE_JUMP)

UNIFORM_START = "uniform"


def default_max_iters(n: int) -> int:
    """Step budget 100 e n (log n + 1): far above the expected runtime."""
    return math.ceil(100.0 * math.e * n * (math.log(n) + 1.0))


@dataclass(frozen=True)
class SimConfig:
    """One experiment: problem size, start law, replication and seeding.

    ``start`` is either an integer number of zero bits (a deterministic
    start) or the string "uniform" for a uniformly random initial string.
    ``replicates``, ``seed`` and ``max_iters`` are Python integers (not
    bools); ``max_iters`` of None means the default budget. Replicate counts
    whose samples would exceed ``MEMORY_LIMIT`` raise ``CapacityError``.
    """

    n: int
    start: int | str
    replicates: int
    seed: int
    engine: str = ENGINE_JUMP
    max_iters: int | None = None

    def __post_init__(self) -> None:
        check_n(self.n)
        if isinstance(self.start, bool) or (
            isinstance(self.start, int) and not 0 <= self.start <= self.n
        ):
            raise DomainError(f"start {self.start!r} outside [0, {self.n}]")
        if isinstance(self.start, str) and self.start != UNIFORM_START:
            raise DomainError(f"start must be an integer or 'uniform', got {self.start!r}")
        if not isinstance(self.start, (int, str)):
            raise DomainError(f"start must be an integer or 'uniform', got {self.start!r}")
        for name in ("replicates", "seed", "max_iters"):
            value = getattr(self, name)
            if value is None and name == "max_iters":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 1:
            raise DomainError(f"replicates must be positive, got {self.replicates}")
        check_memory(8 * self.replicates, f"{self.replicates} samples")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")
        if self.engine not in ENGINES:
            raise DomainError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise DomainError(f"max_iters must be positive, got {self.max_iters}")


@dataclass(frozen=True)
class RunStats:
    """Summary of one experiment's hitting-time samples.

    ``mean`` averages all samples including truncated ones, so it is only an
    estimate of the expected optimization time when ``truncated`` is zero.
    """

    samples: int
    mean: float
    std_error: float
    min: int
    max: int
    truncated: int


def _flip_sites(
    n: int, rows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard bit mutation of the strings ``rows`` (nondecreasing) of a
    flat array of length-n bit strings.

    Returns ``(c, lane, sites)``: entry ``rows[i]`` flips c[i] ~ Bin(n, 1/n)
    bits, and flip j is at ``sites[j] = rows[lane[j]] * n + position``.
    ``lane`` is nondecreasing and the sites of one entry strictly ascend, so
    with distinct rows all sites strictly ascend. A row listed r times gets
    r independent mutations. Laid end to end, the m n bits flip as a
    Bernoulli(1/n) sequence: at S_j - 1 for the partial sums S_j <= m n of
    i.i.d. gaps floor(E s) + 1 ~ Geometric(1/n), E standard exponential and
    s = -1 / log1p(-1/n): the waiting-time method (Devroye 1986, see README).
    """
    total = rows.size * n
    scale = -1.0 / math.log1p(-1.0 / n)
    batch = rows.size + 4 * math.isqrt(rows.size) + 8

    def gap_sums(start: int) -> np.ndarray:
        gaps = (rng.standard_exponential(batch) * scale).astype(np.int64)
        return start + np.cumsum(gaps + 1)

    ends = gap_sums(0)
    while ends[-1] < total:  # a shortfall past four standard deviations
        ends = np.concatenate((ends, gap_sums(ends[-1])))
    flat = ends[: np.searchsorted(ends, total, side="right")] - 1
    lane = flat // n
    # Entry i starts at i * n of the flat bits and at rows[i] * n of the strings.
    sites = flat + ((rows - np.arange(rows.size)) * n)[lane]
    return np.bincount(lane, minlength=rows.size), lane, sites


def step_bitstring(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One mutation-selection step on a bit vector of n >= 2 bits (True = one).

    Flips every bit independently with probability 1/n (the same sampler as
    the ``bitstring`` engine) and returns the offspring iff its one-count is
    at least the parent's, else the parent.
    """
    if np.ndim(bits) != 1:
        raise DomainError(f"bits must be a 1-D vector, got shape {np.shape(bits)}")
    _, _, sites = _flip_sites(check_n(bits.size), np.zeros(1, dtype=np.intp), rng)
    child = bits.copy()
    child[sites] ^= True
    return child if int(child.sum()) >= int(bits.sum()) else bits


def step_statechain(n: int, k: int, rng: np.random.Generator) -> int:
    """One step on the zero-count chain: sample both flip counts directly."""
    a = int(rng.binomial(k, 1.0 / n))
    b = int(rng.binomial(n - k, 1.0 / n))
    return k - a + b if b <= a else k


def _start_states(n: int, start: int | str, m: int, rng: np.random.Generator) -> np.ndarray:
    if start == UNIFORM_START:
        return rng.binomial(n, 0.5, size=m).astype(np.int64)
    return np.full(m, start, dtype=np.int64)


# Uniform start bits drawn per block of rows: bounds the float temporary of
# the draw at 8 MB (one row when n > 2^20) whatever the chunk size.
_START_BLOCK = 1 << 20


def _uniform_bits(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m unbiased bit strings of length n, as rows of a bool array.

    The uniforms are drawn block by block of rows; the generator yields
    the same numbers in the same order either way, so the bits equal those
    of one ``rng.random((m, n)) < 0.5``.
    """
    bits = np.empty((m, n), dtype=bool)
    rows = max(1, _START_BLOCK // n)
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        bits[lo:hi] = rng.random((hi - lo, n)) < 0.5
    return bits


def _run_lanes(step, k: np.ndarray, max_iters: int) -> tuple[np.ndarray, int]:
    """Hitting times of lanes started with zero counts ``k``.

    ``step(idx, k)`` moves the running lanes ``idx``, in states ``k``, once
    and returns (steps taken, new states). A lane that starts at 0 is
    recorded as 0. A lane whose time passes ``max_iters`` is recorded at
    ``max_iters`` and counted in the returned truncation count; one that
    reaches 0 at exactly ``max_iters`` is not.

    A lane past ``max_iters`` keeps stepping until it reaches 0 or every
    running lane is past it. The lanes a round draws for, and so every
    draw, are then those of the uncapped run until the budget has cut all
    the lanes still running: a budget only cuts, and the runs it leaves
    whole keep their times, however many steps each lane takes a round.
    """
    times = np.zeros(k.size, dtype=np.int64)
    idx = np.flatnonzero(k)
    k = k[idx]
    t = np.zeros(idx.size, dtype=np.int64)
    truncated = 0
    while idx.size:
        steps, k = step(idx, k)
        t += steps
        over = t > max_iters
        stop = k == 0
        stop |= (stop | over).all()
        if stop.any():
            times[idx[stop]] = np.minimum(t[stop], max_iters)
            truncated += int(over[stop].sum())
            keep = ~stop
            idx, k, t = idx[keep], k[keep], t[keep]
    return times, truncated


# One chunk of each engine, as (step, start states) for ``_run_lanes``.


def _statechain_lanes(n: int, start: int | str, m: int, rng: np.random.Generator):
    def step(idx, k):
        # Lane i is k[i] zeros and then n - k[i] ones: a flips that land
        # below idx[i] * n + k[i] hit zeros, the other b = c - a hit ones.
        c, lane, sites = _flip_sites(n, idx, rng)
        a = np.bincount(lane[sites < (idx * n + k)[lane]], minlength=idx.size)
        b = c - a
        return 1, np.where(b <= a, k - a + b, k)

    return step, _start_states(n, start, m, rng)


def _jump_tables(n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The jump chain of states 0..kmax, read from the float kernel band.

    Returns (rate, cdf): rate[k] = -1 / log1p(-s_k), so that floor(E
    rate[k]) + 1 ~ Geometric(s_k) for E standard exponential (rate[0] = 0:
    state 0 never moves), and cdf[k, d - 1] = P[jump <= d | move from k]
    for d = 1..D, each row ending at exactly 1. The band and the cdf are
    held at once, and both are checked against ``MEMORY_LIMIT`` before
    either is allocated.
    """
    states = range(kmax + 1)
    nbytes = len(states) * (2 * _band_width(n, kmax) + 1) * 8
    check_memory(nbytes, f"the jump tables of {len(states)} states")
    band = _float_band(n, states)
    cdf = np.cumsum(band[:, 1:], axis=1)
    cdf[0] = 1.0  # state 0 never moves
    cdf /= cdf[:, -1:].copy()  # dividing by a view of cdf would copy all of cdf
    s = _band_improvement(band)
    rate = np.zeros_like(s)
    rate[1:] = -1.0 / np.log1p(-s[1:])
    return rate, cdf


def _draw_jumps(cdf: np.ndarray, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Jump sizes by inverse transform: d = 1 + #{j : cdf[k, j] < u}.

    Rows are nondecreasing and end at 1 > u, so d is one plus the index of
    the first entry of row k that is not below u. The search walks the
    columns in order over the lanes not yet decided; most jumps are 1, and
    no lane reads further along its row than the jump it draws.
    """
    d = np.ones_like(k)
    live = np.flatnonzero(cdf[k, 0] < u)
    col = 1
    while live.size:
        d[live] += 1
        live = live[cdf[k[live], col] < u[live]]
        col += 1
    return d


def _jump_lanes(rate: np.ndarray, cdf: np.ndarray, n: int, start: int | str, m: int, rng):
    def step(idx, k):
        wait = (rng.standard_exponential(k.size) * rate[k]).astype(np.int64) + 1
        return wait, k - _draw_jumps(cdf, k, rng.random(k.size))

    return step, _start_states(n, start, m, rng)


# Mutations drawn per bitstring round: a round of m running strings draws
# max(1, _ROUND_ROWS // m) steps of each. It is about a round's fixed cost
# over its cost per mutation, so a few strings left look ahead instead of
# paying that fixed cost once per step.
_ROUND_ROWS = 2048


def _bitstring_lanes(n: int, start: int | str, m: int, rng: np.random.Generator):
    if start == UNIFORM_START:
        cur = _uniform_bits(m, n, rng)
    else:
        cur = np.ones((m, n), dtype=bool)
        cur[:, : int(start)] = False
    bits = cur.reshape(-1)

    def step(idx, zc):
        r = _ROUND_ROWS // idx.size
        if r <= 1:
            c, lane, sites = _flip_sites(n, idx, rng)
            # Each flipped one-bit adds a zero, each flipped zero-bit removes one.
            ones = np.bincount(lane[bits[sites]], minlength=idx.size)
            czc = zc + 2 * ones - c
            bits[sites[(czc <= zc)[lane]]] ^= True
            return 1, np.minimum(czc, zc)
        # r mutations of each parent; a lane takes the first that changes its bits.
        c, lane, sites = _flip_sites(n, np.repeat(idx, r), rng)
        ones = np.bincount(lane[bits[sites]], minlength=c.size)
        czc = np.repeat(zc, r) + 2 * ones - c
        moves = ((c > 0) & (czc <= np.repeat(zc, r))).reshape(-1, r)
        first = moves.argmax(axis=1)
        row = np.arange(idx.size) * r + first
        moved = moves.reshape(-1)[row]
        accepted = np.zeros(c.size, dtype=bool)
        accepted[row[moved]] = True
        bits[sites[accepted[lane]]] ^= True
        return np.where(moved, first + 1, r), np.where(moved, czc[row], zc)

    return step, n - cur.sum(axis=1, dtype=np.int64)


def run(config: SimConfig, threads: int | None = 1) -> tuple[RunStats, np.ndarray]:
    """Run the experiment and return (stats, per-replicate hitting times).

    Chunks may be processed on a thread pool; the output does not depend on
    the thread count because every chunk owns an independent child stream
    and results are reassembled in chunk order.
    """
    resolve_threads(threads)  # a bad thread count fails before any table is built
    n = config.n
    reps = config.replicates
    max_iters = config.max_iters if config.max_iters is not None else default_max_iters(n)
    if config.engine == ENGINE_JUMP:
        kmax = n if config.start == UNIFORM_START else config.start
        lanes = partial(_jump_lanes, *_jump_tables(n, kmax))
    elif config.engine == ENGINE_BITSTRING:
        check_memory(min(reps, CHUNK_SIZE) * n, "one chunk of bit strings")
        lanes = _bitstring_lanes
    else:
        lanes = _statechain_lanes
    nchunks = (reps + CHUNK_SIZE - 1) // CHUNK_SIZE
    streams = np.random.SeedSequence(config.seed).spawn(nchunks)

    def one(i: int) -> tuple[np.ndarray, int]:
        m = min(CHUNK_SIZE, reps - i * CHUNK_SIZE)
        rng = np.random.default_rng(streams[i])
        return _run_lanes(*lanes(n, config.start, m, rng), max_iters)

    parts = thread_map(one, range(nchunks), threads)
    samples = np.concatenate([p[0] for p in parts])
    truncated = sum(p[1] for p in parts)
    if reps > 1:
        std_error = float(samples.std(ddof=1) / math.sqrt(reps))
    else:
        std_error = 0.0
    stats = RunStats(
        samples=reps,
        mean=float(samples.mean()),
        std_error=std_error,
        min=int(samples.min()),
        max=int(samples.max()),
        truncated=truncated,
    )
    return stats, samples
