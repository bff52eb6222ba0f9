"""Monte Carlo reference: actually run the (1+1) EA on OneMax.

Two engines produce the same law by different routes. The bitstring engine
keeps real bit vectors and flips each bit with probability 1/n; the state
chain engine samples only the two flip counts (zeros flipped, ones flipped)
per step, which is the marginal the analysis works with. Agreement between
them, and with the exact kernel, is what the equivalence tests check.

Replicates are processed in fixed chunks of 8192, each chunk driven by its
own counter-based Philox stream spawned from the seed. The chunk layout is
part of the contract: results are byte-identical for a given (seed, n,
start, engine, replicates, max_iters) regardless of how chunks are scheduled,
and within a chunk everything is vectorized.

Runs that have not hit the optimum after ``max_iters`` steps are recorded at
``max_iters`` and counted in ``truncated``; truncation is data, not an
exception, but a nonzero count means the mean is biased low and the
experiment should be redone with a larger budget. The default budget
100 e n (log n + 1) makes truncation astronomically unlikely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backends import DomainError, check_n, thread_map

__all__ = [
    "CHUNK_SIZE",
    "ENGINE_BITSTRING",
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
ENGINES = (ENGINE_BITSTRING, ENGINE_STATECHAIN)

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
    engine: str = ENGINE_STATECHAIN
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


def step_bitstring(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One mutation-selection step on a single bit vector (True = one-bit).

    Flips every bit independently with probability 1/n and returns the
    offspring iff its one-count is at least the parent's, else the parent.
    """
    n = bits.size
    flips = rng.random(n) < 1.0 / n
    child = bits ^ flips
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


def _chunk_statechain(
    n: int, start: int | str, m: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, int]:
    if start == UNIFORM_START:
        k = rng.binomial(n, 0.5, size=m).astype(np.int64)
    else:
        k = np.full(m, start, dtype=np.int64)
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
    cur = cur[idx]
    zc = zc[idx]
    inv = 1.0 / n
    iters = 0
    while idx.size and iters < max_iters:
        iters += 1
        flips = rng.random(cur.shape) < inv
        child = cur ^ flips
        czc = n - child.sum(axis=1, dtype=np.int64)
        acc = czc <= zc
        cur = np.where(acc[:, None], child, cur)
        zc = np.where(acc, czc, zc)
        done = zc == 0
        if done.any():
            times[idx[done]] = iters
            keep = ~done
            idx = idx[keep]
            cur = cur[keep]
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
    chunk_fn = _chunk_bitstring if config.engine == ENGINE_BITSTRING else _chunk_statechain
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
