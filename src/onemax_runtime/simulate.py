"""Monte Carlo reference: actually run the (1+1) EA on OneMax.

Three engines produce the same law by different routes:

* ``bitstring`` keeps real bit vectors and flips each bit with probability
  1/n: the algorithm itself, one vectorized round per mutation step. A step
  draws the number of flips c ~ Bin(n, 1/n), then c distinct uniform
  positions, which is the same law; the child's zero count is read from the
  parent's bits at those positions, and an accepted child flips exactly
  them. A step with c = 0 is counted and changes nothing, so a round over m
  running strings costs O(m c) work, c about 1, instead of O(m n);
* ``statechain`` samples only the two flip counts (zeros flipped, ones
  flipped) per step, which is the marginal the analysis works with, again
  one round per mutation step;
* ``jump`` (the default) runs once per accepted improvement. It uses the
  first-accepted-jump decomposition behind the hitting-time recurrence: from
  state k the chain waits a Geometric(s_k) number of steps, s_k the
  probability that a step moves, then jumps to k - d with probability
  p(k, k - d) / s_k. Both laws are read from the float kernel band
  (``drift._float_band``), so a run costs about k0 rounds instead of about
  e n ln n.

Agreement between the engines, and with the exact kernel and hitting times,
is what the equivalence tests check; the two per-step engines stay as
independent checks of the jump engine.

The jump engine's conditional jump law is stored as one sorted array: row k
holds k + P[jump <= d | move] for d = 1..D, so a single ``searchsorted`` of
k + u places every lane in its own row. The offset k costs the row's
cumulative probabilities the low bits of their mantissa, so jump
probabilities are resolved to about k 2^-53, far below what any feasible
number of replicates can see.

Replicates are processed in fixed chunks of 8192, each chunk driven by its
own counter-based Philox stream spawned from the seed. The chunk layout is
part of the contract: results are byte-identical for a given (seed, n,
start, engine, replicates, max_iters) regardless of how chunks are scheduled,
and within a chunk everything is vectorized. A uniform start has Bin(n, 1/2)
zero bits: the bitstring engine draws every bit, the other two engines draw
the count with the same call.

Runs that have not hit the optimum after ``max_iters`` steps are recorded at
``max_iters`` and counted in ``truncated``; a run that hits it at exactly
``max_iters`` steps is not truncated. Truncation is data, not an exception,
but a nonzero count means the mean is biased low and the experiment should
be redone with a larger budget. The default budget 100 e n (log n + 1) makes
truncation astronomically unlikely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .backends import DomainError, check_n, thread_map
from .drift import _band_improvement, _float_band

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
    ``max_iters`` of None means the default budget.
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
        if self.replicates < 1:
            raise DomainError(f"replicates must be positive, got {self.replicates}")
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
    """Standard bit mutation of the strings ``rows`` (ascending) of a flat
    array of length-n bit strings.

    Returns ``(c, lane, sites)``: string ``rows[i]`` flips c[i] ~ Bin(n, 1/n)
    bits, and flip j is at ``sites[j] = rows[lane[j]] * n + position``, sorted,
    so ``lane`` ascends with it. The c positions of a string are distinct and
    uniform: a position drawn twice is redrawn until none repeats. That rule
    commutes with every relabelling of the n positions, so the final set is
    uniform over the c-subsets, which is the law of flipping each bit
    independently with probability 1/n.
    """
    c = rng.binomial(n, 1.0 / n, size=rows.size)
    lane = np.repeat(np.arange(rows.size), c)
    sites = rows[lane] * n + rng.integers(0, n, size=lane.size)
    sites.sort(kind="stable")
    while True:
        dup = np.flatnonzero(sites[1:] == sites[:-1]) + 1
        if not dup.size:
            return c, lane, sites
        sites[dup] += rng.integers(0, n, size=dup.size) - sites[dup] % n
        sites.sort(kind="stable")


def step_bitstring(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One mutation-selection step on a single bit vector (True = one-bit).

    Flips every bit independently with probability 1/n (the same sampler as
    the ``bitstring`` engine) and returns the offspring iff its one-count is
    at least the parent's, else the parent.
    """
    _, _, sites = _flip_sites(bits.size, np.zeros(1, dtype=np.intp), rng)
    child = bits.copy()
    child[sites] ^= True
    if int(child.sum()) >= int(bits.sum()):
        return child
    return bits


def step_statechain(n: int, k: int, rng: np.random.Generator) -> int:
    """One step on the zero-count chain: sample both flip counts directly."""
    a = int(rng.binomial(k, 1.0 / n))
    b = int(rng.binomial(n - k, 1.0 / n))
    if b <= a:
        return k - a + b
    return k


def _start_states(n: int, start: int | str, m: int, rng: np.random.Generator) -> np.ndarray:
    if start == UNIFORM_START:
        return rng.binomial(n, 0.5, size=m).astype(np.int64)
    return np.full(m, start, dtype=np.int64)


def _chunk_statechain(
    n: int, start: int | str, m: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, int]:
    k = _start_states(n, start, m, rng)
    times = np.full(m, max_iters, dtype=np.int64)
    idx = np.nonzero(k > 0)[0]
    times[k == 0] = 0
    k = k[idx]
    inv = 1.0 / n
    iters = 0
    while idx.size and iters < max_iters:
        iters += 1
        a = rng.binomial(k, inv)
        b = rng.binomial(n - k, inv)
        acc = b <= a
        k = np.where(acc, k - a + b, k)
        done = k == 0
        if done.any():
            times[idx[done]] = iters
            keep = ~done
            idx = idx[keep]
            k = k[keep]
    return times, int(idx.size)


@dataclass(frozen=True)
class _JumpTables:
    """The jump chain of states 0..kmax, read from the float kernel band.

    ``improve[k]`` is s_k. ``cdf`` is flat with ``width`` entries per state:
    entry k * width + d - 1 is k + P[jump <= d | move from k] for d = 1..width,
    and every row ends at exactly k + 1, so the array is sorted and a value in
    [k, k + 1] falls into row k.
    """

    improve: np.ndarray
    cdf: np.ndarray
    width: int


def _jump_tables(n: int, kmax: int) -> _JumpTables:
    band = _float_band(n, range(kmax + 1))
    cdf = np.cumsum(band[:, 1:], axis=1)
    cdf[0] = 1.0  # state 0 never moves; the row only keeps the array sorted
    cdf /= cdf[:, -1:]
    cdf += np.arange(kmax + 1)[:, None]
    return _JumpTables(np.array(_band_improvement(band)), cdf.ravel(), band.shape[1] - 1)


def _chunk_jump(
    tables: _JumpTables,
    n: int,
    start: int | str,
    m: int,
    rng: np.random.Generator,
    max_iters: int,
) -> tuple[np.ndarray, int]:
    k = _start_states(n, start, m, rng)
    times = np.full(m, max_iters, dtype=np.int64)
    idx = np.nonzero(k > 0)[0]
    times[k == 0] = 0
    k = k[idx]
    t = np.zeros(idx.size, dtype=np.int64)
    truncated = 0
    while idx.size:
        t += rng.geometric(tables.improve[k])
        row = k * tables.width
        pos = np.searchsorted(tables.cdf, k + rng.random(k.size))
        # u rounding k + u down to k lands on the last entry of row k - 1.
        k = k - 1 - np.maximum(pos - row, 0)
        over = t > max_iters
        done = (k == 0) & ~over
        times[idx[done]] = t[done]
        truncated += int(over.sum())
        keep = ~(over | done)
        idx, k, t = idx[keep], k[keep], t[keep]
    return times, truncated


def _chunk_bitstring(
    n: int, start: int | str, m: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, int]:
    if start == UNIFORM_START:
        cur = rng.random((m, n)) < 0.5
    else:
        cur = np.ones((m, n), dtype=bool)
        cur[:, : int(start)] = False
    zc = n - cur.sum(axis=1, dtype=np.int64)
    times = np.full(m, max_iters, dtype=np.int64)
    idx = np.nonzero(zc > 0)[0]
    times[zc == 0] = 0
    zc = zc[idx]
    bits = cur.reshape(-1)
    iters = 0
    while idx.size and iters < max_iters:
        iters += 1
        c, lane, sites = _flip_sites(n, idx, rng)
        # Each flipped one-bit adds a zero, each flipped zero-bit removes one.
        ones = np.bincount(lane[bits[sites]], minlength=idx.size)
        czc = zc + 2 * ones - c
        bits[sites[(czc <= zc)[lane]]] ^= True
        zc = np.minimum(czc, zc)
        done = zc == 0
        if done.any():
            times[idx[done]] = iters
            keep = ~done
            idx = idx[keep]
            zc = zc[keep]
    return times, int(idx.size)


def run(config: SimConfig, threads: int | None = 1) -> tuple[RunStats, np.ndarray]:
    """Run the experiment and return (stats, per-replicate hitting times).

    Chunks may be processed on a thread pool; the output does not depend on
    the thread count because every chunk owns an independent child stream
    and results are reassembled in chunk order.
    """
    n = config.n
    reps = config.replicates
    max_iters = config.max_iters if config.max_iters is not None else default_max_iters(n)
    if config.engine == ENGINE_JUMP:
        kmax = n if config.start == UNIFORM_START else config.start
        chunk_fn = partial(_chunk_jump, _jump_tables(n, kmax))
    elif config.engine == ENGINE_BITSTRING:
        chunk_fn = _chunk_bitstring
    else:
        chunk_fn = _chunk_statechain
    nchunks = (reps + CHUNK_SIZE - 1) // CHUNK_SIZE
    streams = np.random.SeedSequence(config.seed).spawn(nchunks)

    def one(i: int) -> tuple[np.ndarray, int]:
        m = min(CHUNK_SIZE, reps - i * CHUNK_SIZE)
        rng = np.random.Generator(np.random.Philox(streams[i]))
        return chunk_fn(n, config.start, m, rng, max_iters)

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
