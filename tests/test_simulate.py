"""Monte Carlo engines: law, determinism, truncation accounting."""

import dataclasses
import importlib
import math
import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.stats

from onemax_runtime import (
    ENGINE_BITSTRING,
    ENGINE_JUMP,
    SimConfig,
    build_kernel,
    default_max_iters,
    run,
    runtime_profile,
    step_bitstring,
    step_statechain,
)
from onemax_runtime.backends import CapacityError, DomainError, check_memory
from onemax_runtime.simulate import (
    ENGINES,
    _draw_jumps,
    _flip_ranks,
    _jump_tables,
    _zero_flip_round,
)
from reference_sims import reference_run


def test_default_budget_formula():
    for n in (2, 50, 1000):
        assert default_max_iters(n) == math.ceil(100 * math.e * n * (math.log(n) + 1))


def test_step_bitstring_never_loses_fitness():
    rng = np.random.default_rng(1)
    bits = np.zeros(12, dtype=bool)
    ones = 0
    for _ in range(300):
        bits = step_bitstring(bits, rng)
        now = int(bits.sum())
        assert now >= ones
        ones = now


@pytest.mark.parametrize(
    "bits",
    [
        np.zeros(0, dtype=bool),
        np.zeros(1, dtype=bool),
        np.zeros((3, 4), dtype=bool),
        np.zeros((1, 8), dtype=bool),
        np.bool_(True),
        np.array([0, 2, 1, 1, 0]),
        np.array([0.0, 1.0, 1.0, 0.0, 1.0]),
    ],
    ids=["empty", "one-bit", "2-D", "row-matrix", "0-D", "int", "float"],
)
def test_step_bitstring_rejects_all_but_a_vector_of_two_or_more_bits(bits):
    with pytest.raises(DomainError):
        step_bitstring(bits, np.random.default_rng(0))


@pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (10, 11), (10, -1), (10, 2.5), (10, True)])
def test_step_statechain_rejects_all_but_a_state_of_the_chain(n, k):
    with pytest.raises(DomainError):
        step_statechain(n, k, np.random.default_rng(0))


# Five lanes of ten ranks each.
_FLIP_N = 10
_FLIP_LANES = 5


def _flip_draws(draws: int, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    return [_flip_ranks(_FLIP_N, _FLIP_LANES, rng) for _ in range(draws)]


def test_flip_ranks_ascend_within_each_lane():
    n = _FLIP_N
    for lane, rank in _flip_draws(2000, 41):
        assert ((0 <= rank) & (rank < n)).all()
        assert (np.diff(lane * n + rank) > 0).all()


def test_flip_counts_follow_the_binomial_law():
    n = _FLIP_N
    counts = np.concatenate(
        [np.bincount(lane, minlength=_FLIP_LANES) for lane, _ in _flip_draws(20000, 42)]
    )
    observed = np.bincount(counts, minlength=n + 1)
    expected = scipy.stats.binom.pmf(np.arange(n + 1), n, 1.0 / n) * counts.size
    keep = expected >= 10
    merged_obs = np.append(observed[keep], observed[~keep].sum())
    merged_exp = np.append(expected[keep], expected[~keep].sum())
    assert scipy.stats.chisquare(merged_obs, merged_exp).pvalue > 1e-4


def test_flip_ranks_are_uniform_in_every_lane():
    """Flips over the (lane, rank) cells: the last rank of the last lane,
    which the cut at m n decides, is as likely as any other."""
    n, m = _FLIP_N, _FLIP_LANES
    cells = np.concatenate([lane * n + rank for lane, rank in _flip_draws(4000, 43)])
    observed = np.bincount(cells, minlength=m * n)
    assert observed.size == m * n
    assert scipy.stats.chisquare(observed).pvalue > 1e-4


def test_flip_ranks_top_up_a_short_batch():
    """Exponentials of 0 make every gap 1, so every bit flips and the first
    batch of gaps ends short of m n: the sampler must draw more."""

    class ZeroExponentials:
        calls = 0

        def standard_exponential(self, size):
            self.calls += 1
            return np.zeros(size)

    n, m = _FLIP_N, _FLIP_LANES
    rng = ZeroExponentials()
    lane, rank = _flip_ranks(n, m, rng)
    assert rng.calls > 1
    assert (lane == np.repeat(np.arange(m), n)).all()
    assert (rank == np.tile(np.arange(n), m)).all()


def test_step_statechain_never_moves_up():
    rng = np.random.default_rng(2)
    k = 15
    for _ in range(300):
        nxt = step_statechain(20, k, rng)
        assert 0 <= nxt <= k
        k = nxt


@pytest.mark.parametrize("stepper", ["bitstring", "statechain"])
def test_single_step_law_matches_kernel(stepper):
    """One-step frequencies from either engine agree with the exact row."""
    n, k, draws = 6, 4, 60000
    rng = np.random.default_rng(7)
    counts = np.zeros(k + 1, dtype=np.int64)
    if stepper == "bitstring":
        parent = np.ones(n, dtype=bool)
        parent[:k] = False
        for _ in range(draws):
            child = step_bitstring(parent, rng)
            counts[n - int(child.sum())] += 1
    else:
        for _ in range(draws):
            counts[step_statechain(n, k, rng)] += 1
    row = np.asarray(build_kernel(n).rows[k])
    expected = row * draws
    keep = expected >= 10
    merged_obs, merged_exp = counts[keep], expected[keep]
    if not keep.all():
        merged_obs = np.append(merged_obs, counts[~keep].sum())
        merged_exp = np.append(merged_exp, expected[~keep].sum())
    result = scipy.stats.chisquare(merged_obs, merged_exp)
    assert result.pvalue > 1e-4


def test_run_is_deterministic():
    cfg = SimConfig(n=15, start=7, replicates=3 * 8192 + 17, seed=99)
    s1, t1 = run(cfg)
    s2, t2 = run(cfg)
    assert t1.tobytes() == t2.tobytes()
    assert s1 == s2
    s3, t3 = run(SimConfig(n=15, start=7, replicates=3 * 8192 + 17, seed=100))
    assert not (t1 == t3).all()


def test_fixed_start_mean_matches_exact_expectation():
    n, k, reps = 30, 15, 40000
    stats, _ = run(SimConfig(n=n, start=k, replicates=reps, seed=11))
    g = float(runtime_profile(n, up_to=k).g[k])
    assert stats.truncated == 0
    assert abs(stats.mean - g) <= 5 * stats.std_error


def test_uniform_start_mean_matches_binomial_mixture():
    n, reps = 24, 60000
    stats, _ = run(SimConfig(n=n, start="uniform", replicates=reps, seed=12))
    prof = runtime_profile(n)
    mixture = sum(comb(n, k) * 2.0**-n * float(prof.g[k]) for k in range(n + 1))
    assert stats.truncated == 0
    assert abs(stats.mean - mixture) <= 5 * stats.std_error


def test_bitstring_uniform_start_matches_binomial_mixture():
    n, reps = 24, 60000
    cfg = SimConfig(n=n, start="uniform", replicates=reps, seed=37, engine=ENGINE_BITSTRING)
    stats, _ = run(cfg)
    prof = runtime_profile(n)
    mixture = sum(comb(n, k) * 2.0**-n * float(prof.g[k]) for k in range(n + 1))
    assert stats.truncated == 0
    assert abs(stats.mean - mixture) <= 5 * stats.std_error


def test_engines_agree_on_the_mean():
    cfg_j = SimConfig(n=16, start=8, replicates=30000, seed=5, engine="jump")
    cfg_b = SimConfig(n=16, start=8, replicates=30000, seed=5, engine="bitstring")
    sj, _ = run(cfg_j)
    sb, _ = run(cfg_b)
    joint = math.hypot(sj.std_error, sb.std_error)
    assert abs(sj.mean - sb.mean) <= 5 * joint


def test_truncation_is_recorded_not_raised():
    stats, samples = run(SimConfig(n=20, start=10, replicates=500, seed=3, max_iters=3))
    assert stats.truncated == 500
    assert stats.max == 3
    assert (samples == 3).all()


def test_start_at_optimum_needs_no_steps():
    stats, samples = run(SimConfig(n=10, start=0, replicates=100, seed=1))
    assert stats.mean == 0.0
    assert stats.max == 0
    assert stats.truncated == 0
    assert (samples == 0).all()


def test_stats_shape():
    stats, samples = run(SimConfig(n=12, start=6, replicates=2500, seed=8))
    assert stats.samples == 2500 == samples.size
    assert stats.min <= stats.mean <= stats.max
    assert stats.std_error > 0


def test_jump_mean_matches_exact_expectation():
    n, k, reps = 30, 15, 40000
    stats, _ = run(SimConfig(n=n, start=k, replicates=reps, seed=31, engine=ENGINE_JUMP))
    g = float(runtime_profile(n, up_to=k).g[k])
    assert stats.truncated == 0
    assert abs(stats.mean - g) <= 5 * stats.std_error


def test_jump_uniform_start_matches_binomial_mixture():
    n, reps = 24, 60000
    cfg = SimConfig(n=n, start="uniform", replicates=reps, seed=32, engine=ENGINE_JUMP)
    stats, _ = run(cfg)
    prof = runtime_profile(n)
    mixture = sum(comb(n, k) * 2.0**-n * float(prof.g[k]) for k in range(n + 1))
    assert stats.truncated == 0
    assert abs(stats.mean - mixture) <= 5 * stats.std_error


def test_jump_agrees_with_bitstring():
    cfg = SimConfig(n=20, start="uniform", replicates=30000, seed=33, engine=ENGINE_JUMP)
    sj, _ = run(cfg)
    sb, _ = run(dataclasses.replace(cfg, engine=ENGINE_BITSTRING))
    joint = math.hypot(sj.std_error, sb.std_error)
    assert abs(sj.mean - sb.mean) <= 5 * joint


@pytest.mark.parametrize("seed", [1, 2])
def test_engines_draw_the_same_uniform_start(seed):
    """Both engines draw a uniform start as one Bin(n, 1/2) call, the first
    draw of a chunk's stream: at n = 2 the lanes that start at the optimum,
    the only ones recorded at 0, are the same lanes."""
    cfg = SimConfig(n=2, start="uniform", replicates=3 * 8192 + 17, seed=seed, max_iters=1)
    _, jump = run(dataclasses.replace(cfg, engine=ENGINE_JUMP))
    _, bits = run(dataclasses.replace(cfg, engine=ENGINE_BITSTRING))
    assert 0 < int((jump == 0).sum()) < cfg.replicates
    assert ((jump == 0) == (bits == 0)).all()


def _hitting_law_pvalue(samples: np.ndarray, n: int, k: int) -> float:
    """Chi-square p-value of hitting times from k against the exact chain."""
    reps = samples.size
    rows = build_kernel(n).rows
    dist = np.zeros(k + 1)
    dist[k] = 1.0
    pmf = []
    for _ in range(samples.max()):
        nxt = np.zeros(k + 1)
        for j in range(1, k + 1):
            nxt[: j + 1] += dist[j] * np.asarray(rows[j])
        pmf.append(nxt[0])
        nxt[0] = 0.0
        dist = nxt
    expected = np.array(pmf) * reps
    counts = np.bincount(samples, minlength=len(pmf) + 1)[1:]
    keep = expected >= 10
    merged_obs = np.append(counts[keep], counts[~keep].sum())
    merged_exp = np.append(expected[keep], reps - expected[keep].sum())
    return scipy.stats.chisquare(merged_obs, merged_exp).pvalue


def test_jump_hitting_time_law_matches_kernel():
    """The whole distribution of T, not just its mean, against the exact chain."""
    n, k, reps = 6, 5, 200000
    _, samples = run(SimConfig(n=n, start=k, replicates=reps, seed=34, engine=ENGINE_JUMP))
    assert _hitting_law_pvalue(samples, n, k) > 1e-4


@pytest.mark.parametrize("n, k, seed", [(6, 5, 36), (6, 5, 38), (9, 7, 39), (12, 6, 40)])
def test_bitstring_hitting_time_law_matches_kernel(n, k, seed):
    """The bitstring engine's T has the chain's law: a sampler that drew
    flip positions with replacement would move too little and fail here."""
    cfg = SimConfig(n=n, start=k, replicates=200000, seed=seed, engine=ENGINE_BITSTRING)
    _, samples = run(cfg)
    assert _hitting_law_pvalue(samples, n, k) > 1e-4


def test_step_bitstring_runs_reach_the_optimum_in_the_exact_mean_time():
    """The literal algorithm over whole runs, a route that shares nothing
    with the zero-flip round of the bitstring engine: repeated
    ``step_bitstring`` calls from 4 zero bits of 8, z-tested against the
    exact g(4) with the sample standard deviation."""
    n, k, runs = 8, 4, 1000
    g = runtime_profile(n, up_to=k).g[k]
    assert g == pytest.approx(35.2172, abs=1e-4)
    rng = np.random.default_rng(8)
    times = np.zeros(runs)
    for r in range(runs):
        bits = np.arange(n) >= k
        while not bits.all():
            bits = step_bitstring(bits, rng)
            times[r] += 1
    z = (times.mean() - g) / (times.std(ddof=1) / math.sqrt(runs))
    assert abs(z) <= 4


def _chisquare_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square p-value, the cells expected below 10 merged into one."""
    keep = expected >= 10
    merged_obs, merged_exp = observed[keep], expected[keep]
    if not keep.all():
        merged_obs = np.append(merged_obs, observed[~keep].sum())
        merged_exp = np.append(merged_exp, expected[~keep].sum())
    return scipy.stats.chisquare(merged_obs, merged_exp).pvalue


@pytest.mark.parametrize("k", [3, 8])
def test_one_bitstring_round_has_the_law_of_the_steps_to_a_zero_flip(k):
    """A round waits Geometric(p_touch) steps, p_touch = 1 - (1 - 1/n)^k the
    chance that a step flips a zero bit, and then moves from k to j < k with
    probability p(k, j) / p_touch."""
    n, m = 8, 100000
    wait, zc = _zero_flip_round(n, np.full(m, k), np.random.default_rng(k))
    p_touch = 1.0 - (1.0 - 1.0 / n) ** k
    waits = np.bincount(wait)[1:]
    w = np.arange(1, waits.size + 1)
    expected = scipy.stats.geom.pmf(w, p_touch) * m
    expected[-1] += scipy.stats.geom.sf(w[-1], p_touch) * m
    assert _chisquare_pvalue(waits, expected) > 1e-4
    row = np.asarray(build_kernel(n).rows[k])
    law = row / p_touch
    law[k] = 1.0 - row[:k].sum() / p_touch
    assert _chisquare_pvalue(np.bincount(zc, minlength=k + 1), law * m) > 1e-4


def test_jump_lookup_is_exact():
    """Each table entry is a boundary of its own row: u = cdf[k, j] draws
    d = j + 1 and the next double up draws d = j + 2. Near k = n an offset
    k + u would round both values of u to the same double."""
    n = 10**4
    k = n - 3
    _, cdf = _jump_tables(n, k)
    row = cdf[k]
    cols = np.flatnonzero(np.diff(row, prepend=0.0) > 0)
    assert cols.size > 10
    ks = np.full(cols.size, k)
    assert (_draw_jumps(cdf, ks, row[cols]) == cols + 1).all()
    below_one = cols[row[cols] < 1.0]
    assert below_one.size == cols.size - 1
    up = np.nextafter(row[below_one], 1.0)
    assert (_draw_jumps(cdf, ks[: below_one.size], up) == below_one + 2).all()
    assert (k + row[below_one] == k + up).all()


def test_memory_limit_admits_a_million(monkeypatch):
    """The band of runtime 10**6 and of a uniform-start sim at n = 10**6 pass
    the real check; the run stops there instead of building them."""

    class Checked(Exception):
        pass

    def check_then_stop(nbytes, what):
        check_memory(nbytes, what)
        raise Checked

    drift_module = importlib.import_module("onemax_runtime.drift")
    monkeypatch.setattr(drift_module, "check_memory", check_then_stop)
    with pytest.raises(Checked):
        runtime_profile(10**6, up_to=10**6 // 2)
    with pytest.raises(Checked):
        run(SimConfig(n=10**6, start="uniform", replicates=10**4, seed=0))


def test_jump_tables_at_a_hundred_thousand_stay_small():
    """The band and its cdf at n = 10**5, 21 and 20 columns wide, take about
    33 MB; the build adds no table-sized temporaries."""
    tracemalloc.start()
    try:
        _, cdf = _jump_tables(10**5, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cdf.shape == (10**5 + 1, 20)
    assert (cdf[:, -1] == 1.0).all()
    assert peak < 64 * 2**20


def test_jump_tables_count_the_band_and_the_cdf(monkeypatch):
    """A limit that admits the band alone but not the band with its cdf
    refuses the jump tables before either is built."""
    states = 10**5 + 1
    band_bytes = states * 21 * 8
    backends = importlib.import_module("onemax_runtime.backends")
    monkeypatch.setattr(backends, "MEMORY_LIMIT", band_bytes + states * 8)
    drift_module = importlib.import_module("onemax_runtime.drift")
    drift_module._float_band(10**5, range(states))
    with pytest.raises(CapacityError, match="jump tables"):
        _jump_tables(10**5, 10**5)


@pytest.mark.parametrize("engine", ENGINES)
def test_whole_chunks_are_a_prefix_of_a_longer_run(engine):
    """Chunk i draws from child i of the seed, whatever follows it, so the
    first whole chunk of a longer run is the run of that one chunk. A partial
    chunk is not a prefix: its vectorized draws depend on its size."""
    for start in ("uniform", 7):
        cfg = SimConfig(n=15, start=start, replicates=3 * 8192 + 17, seed=99, engine=engine)
        _, long = run(cfg)
        _, one = run(dataclasses.replace(cfg, replicates=8192))
        assert long[:8192].tobytes() == one.tobytes()
        _, rerun = run(cfg)
        assert long.tobytes() == rerun.tobytes()


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_records_truncation_at_the_budget(engine):
    cfg = SimConfig(n=20, start=10, replicates=500, seed=3, max_iters=3, engine=engine)
    stats, samples = run(cfg)
    assert stats.truncated == 500
    assert (samples == 3).all()


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_starts_at_optimum_with_zero_steps(engine):
    stats, samples = run(SimConfig(n=10, start=0, replicates=100, seed=1, engine=engine))
    assert stats.truncated == 0
    assert (samples == 0).all()


@pytest.mark.parametrize("engine", ENGINES)
def test_run_ending_at_the_budget_is_not_truncated(engine):
    """A budget only cuts: the runs it leaves whole keep their times.

    A lane past the budget keeps drawing while any lane of its chunk runs
    below it, so every lane draws the numbers of the uncapped run.
    """
    cfg = SimConfig(n=2, start=1, replicates=2000, seed=35, engine=engine)
    _, free = run(cfg)
    stats, capped = run(dataclasses.replace(cfg, max_iters=4))
    assert (free == 4).any()
    assert (capped == np.minimum(free, 4)).all()
    assert stats.truncated == int((free > 4).sum())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "n, start, budget",
    [(30, 15, 150), (30, "uniform", 200), (12, 6, 20), (100, 50, 1500)],
)
def test_a_budget_only_cuts_runs_of_many_rounds(engine, n, start, budget):
    """Lanes take different numbers of steps a round (jump waits, bitstring
    waits for a step that flips a zero bit), so a lane the budget stops must
    not change what the others draw."""
    for seed in (1, 2, 3):
        cfg = SimConfig(n=n, start=start, replicates=600, seed=seed, engine=engine)
        _, free = run(cfg)
        stats, capped = run(dataclasses.replace(cfg, max_iters=budget))
        assert 0 < stats.truncated < cfg.replicates
        assert (capped == np.minimum(free, budget)).all()
        assert stats.truncated == int((free > budget).sum())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, start=0, replicates=10, seed=0),
        dict(n=10, start=11, replicates=10, seed=0),
        dict(n=10, start=-1, replicates=10, seed=0),
        dict(n=10, start="sometimes", replicates=10, seed=0),
        dict(n=10, start=1.5, replicates=10, seed=0),
        dict(n=10, start=True, replicates=10, seed=0),
        dict(n=10, start=5, replicates=0, seed=0),
        dict(n=10, start=5, replicates=10, seed=-1),
        dict(n=10, start=5, replicates=10, seed=2**64),
        dict(n=10, start=5, replicates=10, seed=0, engine="quantum"),
        dict(n=10, start=5, replicates=10, seed=0, max_iters=0),
        dict(n=10, start=5, replicates=2.5, seed=0),
        dict(n=10, start=5, replicates=10.0, seed=0),
        dict(n=10, start=5, replicates=True, seed=0),
        dict(n=10, start=5, replicates=10, seed=1.0),
        dict(n=10, start=5, replicates=10, seed=False),
        dict(n=10, start=5, replicates=10, seed=0, max_iters=2.5),
        dict(n=10, start=5, replicates=10, seed=0, max_iters=True),
        dict(n=10, start=5, replicates=10, seed=0, engine="statechain"),
        dict(n=10, start=5, replicates=10, seed=0, max_iters=2**63),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize("engine", ENGINES)
def test_run_draws_the_samples_of_the_reference_steps(engine):
    """``run`` equals, byte for byte, a run of the verbatim earlier steps in
    ``reference_sims``: uniform and fixed starts, budgets that cut about
    half the runs and one run of three chunks. A change to the draws
    replaces this test."""
    grid = [
        (7, "uniform", 300, None),
        (60, 30, 300, None),
        (60, "uniform", 300, 550),
        (200, 1, 300, 500),
        (20, "uniform", 2 * 8192 + 17, None),
    ]
    for n, start, reps, budget in grid:
        cfg = SimConfig(n, start, reps, seed=n, engine=engine, max_iters=budget)
        stats, samples = run(cfg)
        expected, truncated = reference_run(cfg)
        assert samples.tobytes() == expected.tobytes()
        assert stats.truncated == truncated
