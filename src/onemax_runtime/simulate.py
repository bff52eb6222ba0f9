"""Monte Carlo reference: actually run the (1+1) EA on OneMax.

Two engines produce the same law by two independent routes:

* ``bitstring`` runs every lane one mutation step that flips a zero bit at
  a time, the rank round ``_zero_flip_round``, which lays out one n-bit
  string per lane, zero bits first. A step acts on a string through its
  zero count zc alone, so the round reads nothing else: a step that flips
  none of the zc zero bits is empty or flips only one-bits, so it is
  rejected and changes nothing, and a round runs each lane to its next
  step that flips a zero bit. It draws the steps skipped plus that one as
  a Geometric(1 - (1 - 1/n)^zc) wait, the first flipped zero rank F given
  that one is flipped, and the flips past F with ``_flip_ranks``, which
  lays the n ranks of all m running lanes end to end and draws the
  (lane, rank) of each flip as partial sums of Geometric(1/n) gaps. One
  signed count a lane decides the step. A round costs O(1) work a lane,
  about one flip, instead of O(n);
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
is what the equivalence tests check. The literal algorithm stays in
``step_bitstring`` (all n bits mutated, the child kept iff no worse) and
``step_statechain`` (one step's two Binomial flip counts). The tests check
both against a kernel row, and whole runs of ``step_bitstring`` against
the exact g.

Every engine is one step function ``step(k)`` of the zero counts k of the
running lanes of a chunk, and one loop (``_run_lanes``) owns the rest:
lanes that start at the optimum, the index of running lanes, the steps
each lane has used and the truncation law. A run that has not hit the
optimum when its time passes ``max_iters`` is recorded at ``max_iters``
and counted in ``truncated``; a run that hits it at exactly ``max_iters``
steps is not. Truncation is data, not an
exception, but a nonzero count means the mean is biased low and the
experiment should be redone with a larger budget. The default budget
100 e n (log n + 1) makes truncation astronomically unlikely.

Replicates are processed in fixed chunks of 8192, each chunk driven by its
own PCG64 stream, one child of the seed's ``SeedSequence`` per chunk. The
chunk layout is part of the contract: results are byte-identical for a
given (seed, n, start, engine, replicates, max_iters), the chunks run in
order, and within a chunk everything is vectorized. A uniform start has
Bin(n, 1/2) zero bits: both engines draw the counts with one binomial call,
the first draw of the chunk's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .backends import FLOAT, DomainError, check_memory, check_n
from .drift import _band_improvement, _band_width, _check_state, _float_band

__all__ = [
    "CHUNK_SIZE",
    "ENGINE_BITSTRING",
    "ENGINE_JUMP",
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
ENGINE_JUMP = "jump"
ENGINES = (ENGINE_BITSTRING, ENGINE_JUMP)

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
    bools); ``max_iters`` of None means the default budget, and samples are
    int64, so a given one is below 2**63. Replicate counts whose samples
    would exceed ``MEMORY_LIMIT`` raise ``CapacityError``.
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
        if self.max_iters is not None and not 1 <= self.max_iters < 2**63:
            raise DomainError(f"max_iters must be in [1, 2**63), got {self.max_iters}")


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


def _flip_ranks(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Standard bit mutation of m lanes of n ranks each: bits, or the ranks
    of a zero count.

    Returns ``(lane, rank)``: lane i flips Bin(n, 1/n) of its n ranks, and
    flip j is rank ``rank[j]`` of lane ``lane[j]``. ``lane`` is nondecreasing
    and the ranks of one lane strictly ascend. Laid end to end, the m n
    ranks flip as a Bernoulli(1/n) sequence: at S_j - 1 for the partial sums
    S_j <= m n of i.i.d. gaps floor(E s) + 1 ~ Geometric(1/n), E standard
    exponential and s = -1 / log1p(-1/n): the waiting-time method (Devroye
    1986, see README).
    """
    total = m * n
    scale = -1.0 / math.log1p(-1.0 / n)
    batch = m + 4 * math.isqrt(m) + 8

    def gap_sums(start: int) -> np.ndarray:
        gaps = (rng.standard_exponential(batch) * scale).astype(np.int64)
        return start + np.cumsum(gaps + 1)

    ends = gap_sums(0)
    while ends[-1] < total:  # a shortfall past four standard deviations
        ends = np.concatenate((ends, gap_sums(ends[-1])))
    return np.divmod(ends[: np.searchsorted(ends, total, side="right")] - 1, n)


def step_bitstring(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One mutation-selection step on a bit vector of n >= 2 bits (True = one).

    Flips every bit independently with probability 1/n, the n bits drawn at
    once as the ranks of one lane of ``_flip_ranks`` (which the rank round
    uses for the flips after the first flipped zero rank), and returns the
    offspring iff its one-count is at least the parent's, else the parent.
    """
    if np.ndim(bits) != 1 or bits.dtype != bool:
        shape, dtype = np.shape(bits), np.asarray(bits).dtype
        raise DomainError(f"bits must be a 1-D vector of bools, got shape {shape}, {dtype}")
    _, rank = _flip_ranks(check_n(bits.size), 1, rng)
    child = bits.copy()
    child[rank] ^= True
    return child if int(child.sum()) >= int(bits.sum()) else bits


def step_statechain(n: int, k: int, rng: np.random.Generator) -> int:
    """One step on the zero-count chain: sample both flip counts directly."""
    _check_state(check_n(n), k, n)
    a = int(rng.binomial(k, 1.0 / n))
    b = int(rng.binomial(n - k, 1.0 / n))
    return k - a + b if b <= a else k


def _run_lanes(step, k: np.ndarray, max_iters: int) -> tuple[np.ndarray, int]:
    """Hitting times of lanes started with zero counts ``k``.

    ``step(k)`` moves the running lanes, in states ``k``, once and returns
    (steps taken, new states); ``idx`` only places their times. A lane that
    starts at 0 is recorded as 0. A lane whose time passes ``max_iters`` is
    recorded at ``max_iters`` and counted in the returned truncation count;
    one that reaches 0 at exactly ``max_iters`` is not.

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
        steps, k = step(k)
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


# The step functions of the engines, for ``_run_lanes``.


def _zero_flip_round(
    n: int, zc: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Run lanes of zero counts ``zc`` >= 1 up to and including their next
    step that flips a zero bit.

    Returns (steps taken, new zero counts). A step acts on a string through
    its zero count alone, so lane i is laid out by rank: ranks 0..zc[i] - 1
    are its zero bits, the others its ones, and a step flips each rank with
    probability 1/n, independently. A step that flips no zero bit is empty
    or flips only one-bits, so it is rejected: the steps up to the first
    that flips a zero bit number W ~ Geometric(1 - (1 - 1/n)^zc), drawn as
    floor(E / (lam zc)) + 1 with lam = -log1p(-1/n) and E standard
    exponential. In that step the first flipped rank is the first success
    of Bernoulli(1/n) trials over the zero ranks given one below zc,
    F = floor(-log1p(-U p) / lam) for p = -expm1(-lam zc) and U uniform;
    every rank past F flips with probability 1/n, drawn by ``_flip_ranks``
    over all n ranks and kept above F. With a zero bits flipped (F among
    them) and b one bits, the child is accepted iff b <= a. Over the flips
    past F, net = b - (a - 1) counts +1 a one bit and -1 a zero bit, so the
    new count zc - 1 + min(net, 1) is the child's iff net <= 1, else zc.
    """
    lam = -math.log1p(-1.0 / n)
    wait = (rng.standard_exponential(zc.size) / (lam * zc)).astype(np.int64) + 1
    u = rng.random(zc.size) * -np.expm1(-lam * zc)
    first = np.minimum((-np.log1p(-u) / lam).astype(np.int64), zc - 1)
    lane, rank = _flip_ranks(n, zc.size, rng)
    later = rank > first[lane]
    lane, rank = lane[later], rank[later]
    sign = np.where(rank >= zc[lane], 1.0, -1.0)
    net = np.bincount(lane, sign, minlength=zc.size).astype(np.int64)
    return wait, zc - 1 + np.minimum(net, 1)


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
    s = _band_improvement(n, FLOAT, band)
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
    live = np.flatnonzero(cdf[:, 0][k] < u)
    col = 1
    while live.size:
        d[live] += 1
        live = live[cdf[:, col][k[live]] < u[live]]
        col += 1
    return d


def _jump_step(
    rate: np.ndarray, cdf: np.ndarray, k: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One jump of the lanes in states ``k``: (steps waited, new states)."""
    wait = (rng.standard_exponential(k.size) * rate[k]).astype(np.int64) + 1
    return wait, k - _draw_jumps(cdf, k, rng.random(k.size))


def run(config: SimConfig) -> tuple[RunStats, np.ndarray]:
    """Run the experiment and return (stats, per-replicate hitting times).

    The chunks run in order, each on its own child stream of the seed, and
    each draws its start states before its first step.
    """
    n = config.n
    start = config.start
    reps = config.replicates
    max_iters = config.max_iters if config.max_iters is not None else default_max_iters(n)
    if config.engine == ENGINE_JUMP:
        step = partial(_jump_step, *_jump_tables(n, n if start == UNIFORM_START else start))
    else:
        step = partial(_zero_flip_round, n)
    samples = np.empty(reps, dtype=np.int64)
    truncated = 0
    streams = np.random.SeedSequence(config.seed).spawn((reps + CHUNK_SIZE - 1) // CHUNK_SIZE)
    for lo, stream in zip(range(0, reps, CHUNK_SIZE), streams):
        m = min(CHUNK_SIZE, reps - lo)
        rng = np.random.default_rng(stream)
        if start == UNIFORM_START:
            k = rng.binomial(n, 0.5, size=m).astype(np.int64)
        else:
            k = np.full(m, start, dtype=np.int64)
        samples[lo : lo + m], cut = _run_lanes(partial(step, rng=rng), k, max_iters)
        truncated += cut
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
