"""Reference draws for the tests: the Monte Carlo steps of an earlier
version of ``onemax_runtime.simulate``, kept verbatim.

``_flip_sites``, ``_zero_flip_round``, ``_draw_jumps``, ``_jump_step`` and
``_run_lanes`` are copies of that version's code, in which the steps took
the indices of the running lanes and the flip sampler mapped ranks onto
listed rows. ``reference_run`` drives them through the chunk loop of
``run``, so a test can check that ``run`` still draws those samples, byte
for byte. A change that alters the draws replaces that test on purpose.
"""

import math
from functools import partial

import numpy as np

from onemax_runtime.simulate import (
    CHUNK_SIZE,
    ENGINE_JUMP,
    UNIFORM_START,
    SimConfig,
    _jump_tables,
    default_max_iters,
)


def _flip_sites(
    n: int, rows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Standard bit mutation of the strings ``rows`` (nondecreasing) of a
    flat array of length-n strings: bits, or the ranks of a lane.

    Returns ``(lane, sites)``: entry ``rows[i]`` flips Bin(n, 1/n) of its n
    entries, and flip j is at ``sites[j] = rows[lane[j]] * n + position``.
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
    return lane, sites


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


def _zero_flip_round(
    n: int, idx: np.ndarray, zc: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Run lanes ``idx`` (ascending, zero counts ``zc`` >= 1) up to and
    including their next step that flips a zero bit.

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
    every rank past F flips with probability 1/n, drawn by ``_flip_sites``
    over all n ranks and kept above F. With a zero bits flipped (F among
    them) and b one bits, the child is accepted iff b <= a.
    """
    lam = -math.log1p(-1.0 / n)
    wait = (rng.standard_exponential(zc.size) / (lam * zc)).astype(np.int64) + 1
    u = rng.random(zc.size) * -np.expm1(-lam * zc)
    first = np.minimum((-np.log1p(-u) / lam).astype(np.int64), zc - 1)
    lane, sites = _flip_sites(n, idx, rng)
    rank = sites - (idx * n)[lane]
    later = rank > first[lane]
    lane, rank = lane[later], rank[later]
    one = rank >= zc[lane]
    b = np.bincount(lane[one], minlength=zc.size)
    a = np.bincount(lane[~one], minlength=zc.size) + 1
    return wait, np.where(b <= a, zc - a + b, zc)


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


def _jump_step(
    rate: np.ndarray, cdf: np.ndarray, idx: np.ndarray, k: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One jump of the lanes ``idx`` in states ``k``: (steps waited, new
    states). A jump reads only the states, not which lanes they are."""
    wait = (rng.standard_exponential(k.size) * rate[k]).astype(np.int64) + 1
    return wait, k - _draw_jumps(cdf, k, rng.random(k.size))


def reference_run(config: SimConfig) -> tuple[np.ndarray, int]:
    """(samples, truncated) of ``config`` from the copies above, through
    the chunk loop, streams and start draws of ``run``."""
    n, start, reps = config.n, config.start, config.replicates
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
    return samples, truncated
