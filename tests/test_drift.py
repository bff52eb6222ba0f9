"""Drift values, transition kernel, and the identities tying them together."""

import importlib
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from onemax_runtime import (
    CapacityError,
    SimConfig,
    build_drift_table,
    build_kernel,
    drift,
    normalized_drift,
    normalized_drift_gf,
    run,
    runtime_profile,
    transition_prob,
    transition_tail,
)
from onemax_runtime.asymptotics import _expansion_grid
from onemax_runtime.backends import pow_base
from reference_sums import float_kernel_row, plain_fraction_drift, plain_fraction_normalized_drift

drift_module = importlib.import_module("onemax_runtime.drift")
_float_band = drift_module._float_band
_band_width = drift_module._band_width


def brute_kernel_row(n, k):
    """Accepted-step law by full enumeration of all flip patterns.

    The parent is any string with k zero bits (symmetry makes the choice
    irrelevant); every one of the 2^n flip masks gets its exact probability
    and the offspring is kept iff its one-count does not drop.
    """
    p = F(1, n)
    row = [F(0)] * (k + 1)
    for mask in itertools.product((0, 1), repeat=n):
        flips = sum(mask)
        prob = p**flips * (1 - p) ** (n - flips)
        a = sum(mask[:k])
        b = sum(mask[k:])
        child = k - a + b if b <= a else k
        row[child] += prob
    return row


def test_drift_n2_rational_values():
    assert drift(2, 0, "rational") == 0
    assert drift(2, 1, "rational") == F(1, 4)
    assert drift(2, 2, "rational") == 1


def test_normalized_drift_n2_values():
    assert normalized_drift(2, 0, "rational") == 0
    assert normalized_drift(2, 1, "rational") == F(1, 2)
    assert normalized_drift(2, 2, "rational") == F(13, 8)
    assert normalized_drift(2, 3, "rational") == F(27, 8)


def test_kernel_row_n2_values():
    assert [transition_prob(2, 2, j, "rational") for j in range(3)] == [
        F(1, 4),
        F(1, 2),
        F(1, 4),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_matches_brute_force_enumeration(n):
    band = build_kernel(n, "rational").band
    assert band.shape == (n + 1, n + 1)
    for k in range(n + 1):
        expected = brute_kernel_row(n, k)
        got = [transition_prob(n, k, j, "rational") for j in range(k + 1)]
        assert got == expected
        assert list(band[k]) == [expected[k - d] if d <= k else 0 for d in range(n + 1)]
        assert all(type(v) is F for v in band[k])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10, 17])
def test_generating_function_route_matches_double_sum(n):
    for k in range(n + 2):
        assert normalized_drift_gf(n, k) == normalized_drift(n, k, "rational")


@pytest.mark.parametrize("n, k", [(9, 3), (9, 5), (40, 0), (40, 41)])
def test_exact_normalized_drift_builds_the_row_of_its_state_alone(n, k, monkeypatch):
    """Only the float kernel pairs a state with its mirror n + 1 - k; the
    exact value reads one row of the band of n + 1 bits."""
    seen = []
    build = drift_module._exact_numerators

    def spy(m, states):
        seen.append(list(states))
        return build(m, states)

    monkeypatch.setattr(drift_module, "_exact_numerators", spy)
    assert normalized_drift(n, k, "rational") == normalized_drift_gf(n, k)
    assert seen == [[k]]


@pytest.mark.parametrize("n", range(2, 17))
def test_exact_normalized_drift_is_the_plain_double_sum(n):
    """The exact normalized drift, read from the band of n + 1 bits, against
    its defining double sum in plain Fractions, which shares no code with
    the band or with the generating-function route."""
    for k in range(n + 2):
        assert normalized_drift(n, k, "rational") == plain_fraction_normalized_drift(n, k)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_renormalization_identity(n):
    factor = F(n - 1, n) ** n
    for k in range(n + 1):
        assert drift(n, k, "rational") == normalized_drift(n - 1, k, "rational") * factor


@pytest.mark.parametrize("n", [3, 5, 9, 64, 1000, 4096])
def test_float_renormalization_identity(n):
    """The float band's drift column against the float normalized-drift
    kernel of n - 1 bits times (1 - 1/n)^n, to n 2^-53 relative at every
    state (the largest measured is 0.8 n 2^-53, at n = 5)."""
    delta = build_drift_table(n).delta
    factor = (1 - 1 / n) ** n
    dstar = build_drift_table(n - 1).delta_star
    assert delta[0] == dstar[0] == 0.0
    for k in range(1, n + 1):
        assert abs(delta[k] - dstar[k] * factor) <= n * 2.0**-53 * delta[k], k


@pytest.mark.parametrize("n", [2, 4, 7])
def test_drift_is_mean_jump_of_kernel(n):
    for k in range(n + 1):
        row = [transition_prob(n, k, j, "rational") for j in range(k + 1)]
        expected = plain_fraction_drift(n, k)
        assert sum((k - j) * row[j] for j in range(k + 1)) == expected
        assert drift(n, k, "rational") == expected


@pytest.mark.parametrize("n", [2, 3, 10, 64, 1000, 1500])
def test_drift_is_the_drift_table_entry(n):
    """drift() reads the same band row as the drift column, bit for bit."""
    delta = build_drift_table(n).delta
    assert [drift(n, k) for k in range(n + 1)] == list(delta)
    if n <= 16:
        exact = build_drift_table(n, "rational").delta
        got = [drift(n, k, "rational") for k in range(n + 1)]
        assert got == list(exact)
        assert all(type(v) is F for v in got)


def test_float_matches_rational_to_1e13():
    n = 12
    for k in range(n + 1):
        exact = plain_fraction_drift(n, k)
        if exact:
            assert abs(drift(n, k) / float(exact) - 1) < 1e-13
    for k in range(n + 2):
        exact = normalized_drift(n, k, "rational")
        if exact:
            assert abs(normalized_drift(n, k) / float(exact) - 1) < 1e-13


def full_normalized_drift_factors(n, k):
    """u_l and w_l = l cv0[l-1] - cv1[l-1] for l = 1..k, by their full O(n)
    sums: the normalized drift of state k is sum_l u_l w_l."""
    m = n + 1 - k
    u = np.cumprod((k - np.arange(1.0, k + 1) + 1.0) / (np.arange(1.0, k + 1) * n))
    v = np.ones(m + 1)
    j = np.arange(1.0, m + 1)
    v[1:] = np.cumprod((m - j + 1.0) / (j * n))
    cv0 = np.cumsum(v)
    cv1 = np.cumsum(v * np.arange(m + 1))
    l = np.arange(1, k + 1)
    idx = np.minimum(l - 1, m)
    return u, l * cv0[idx] - cv1[idx]


def full_normalized_drift(n, k):
    """The float normalized drift by its full O(n) sums, no cut."""
    return float(np.dot(*full_normalized_drift_factors(n, k)))


@pytest.mark.parametrize("n", [2, 3, 64, 512])
def test_cut_normalized_drift_column_is_bit_identical_to_full_sums(n):
    """Terms past the band width are exact zeros, so the cut changes nothing."""
    column = build_drift_table(n).delta_star
    assert column[0] == 0.0
    for k in range(1, n + 2):
        full = full_normalized_drift(n, k)
        assert column[k] == full
        assert normalized_drift(n, k) == full


@pytest.mark.parametrize("block", [512, 6])
@pytest.mark.parametrize("n", [3, 64, 300])
def test_normalized_drift_is_bit_identical_for_any_state_set(n, block, monkeypatch):
    """The kernel takes mirror-closed state sets: the column, and each
    state's pair {k, n + 1 - k}. Blocks of mirror pairs share their
    cumulative products, and blocks below the cut form fewer columns; none
    of it moves a value, whether the column, one state's pair or a grid
    prefix reads it."""
    monkeypatch.setattr(drift_module, "_BLOCK", block)
    full = [0.0] + [full_normalized_drift(n, k) for k in range(1, n + 2)]
    assert drift_module._normalized_drift_float(n, range(n + 2)).tolist() == full
    # Every k, the self-mirror state (n + 1)/2 of odd n included.
    assert [normalized_drift(n, k) for k in range(n + 2)] == full
    for k_hi in (n // 3, 7 * n // 8, n):
        exact = [row[1] for row in _expansion_grid(n, k_hi)]
        assert exact == full[1 : k_hi + 1]


@pytest.mark.parametrize("n", [64, 1000, 4095])
def test_normalized_drift_width_rule_omits_at_most_2_to_the_minus_80(n):
    """Past the rule's width the full sums' terms add at most 2^-80 of the
    value at every state, and the column, cut after whole dot-product
    blocks, equals the full sums bit for bit."""
    width = drift_module._normalized_drift_terms(n)
    assert width == 25
    full = []
    for k in range(1, n + 2):
        u, w = full_normalized_drift_factors(n, k)
        terms = u * w
        full.append(float(np.dot(u, w)))
        assert terms[width:].sum() <= 2.0**-80 * full[-1], k
    assert drift_module._normalized_drift_float(n, range(n + 2))[1:].tolist() == full


def test_kernel_rows_sum_to_one():
    kern = build_kernel(9, "rational")
    for row in kern.rows:
        assert sum(row) == 1
        assert all(type(v) is F for v in row)
    kern_f = build_kernel(40)
    for row in kern_f.rows:
        assert abs(float(np.sum(row)) - 1.0) < 1e-14


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_kernel_rows_are_read_only(backend):
    kern = build_kernel(6, backend)
    with pytest.raises(ValueError):
        kern.rows[3][0] = 0.5
    with pytest.raises(ValueError):
        kern.band[3, 0] = 0.5


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_kernels_of_one_chain_compare_equal(backend):
    kern = build_kernel(6, backend, max_state=4)
    assert kern == build_kernel(6, backend, max_state=4)
    assert hash(kern) == hash(build_kernel(6, backend, max_state=4))
    assert kern != build_kernel(6, backend)


@pytest.mark.parametrize("n", range(2, 13))
def test_rational_kernel_views_are_its_numerators_over_n_to_the_n(n):
    """band and rows of a rational kernel are Fractions made from the
    integer numerators of ``_exact_numerators``, entry for entry."""
    scale = n**n
    for max_state in sorted({n // 2, n}):
        kern = build_kernel(n, "rational", max_state=max_state)
        nums = drift_module._exact_numerators(n, range(max_state + 1))
        assert kern.band.shape == (max_state + 1, max_state + 1)
        assert len(kern.rows) == max_state + 1
        for k, row in enumerate(nums):
            assert list(kern.band[k]) == [F(x, scale) for x in row]
            assert list(kern.rows[k]) == [F(row[k - j], scale) for j in range(k + 1)]
            assert all(type(v) is F for v in kern.band[k])
            assert all(type(v) is F for v in kern.rows[k])


def test_drift_strictly_increasing_in_k():
    table = build_drift_table(100)
    for k in range(1, 101):
        assert table.delta[k] > table.delta[k - 1]
    for k in range(1, 102):
        assert table.delta_star[k] > table.delta_star[k - 1]


def test_table_shapes():
    table = build_drift_table(17)
    assert len(table.delta) == 18
    assert len(table.delta_star) == 19
    kern = build_kernel(17, max_state=5)
    assert kern.max_state == 5
    assert len(kern.rows) == 6
    assert len(kern.rows[5]) == 6
    sliced = kern.rows[2:5]
    assert len(sliced) == 3
    for row, k in zip(sliced, range(2, 5)):
        assert row.tolist() == kern.rows[k].tolist()


def test_transition_tail_is_cumulative_row():
    n = 7
    for k in range(n + 1):
        acc = F(0)
        for j in range(k + 1):
            acc += transition_prob(n, k, j, "rational")
            assert transition_tail(n, k, j, "rational") == acc
    assert transition_tail(7, 3, 5, "rational") == 1
    assert type(transition_tail(7, 3, 5, "rational")) is F
    assert transition_tail(7, 3, 6) == 1.0


def test_upward_transitions_are_impossible():
    assert transition_prob(6, 2, 5, "rational") == 0
    assert type(transition_prob(6, 2, 5, "rational")) is F
    assert transition_prob(6, 2, 5) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: drift(1, 0),
        lambda: drift(5, 6),
        lambda: drift(5, -1),
        lambda: drift(5, 2, "decimal"),
        lambda: normalized_drift(5, 7),
        lambda: normalized_drift_gf(1, 0),
        lambda: transition_prob(5, 2, 6),
        lambda: build_kernel(5, max_state=6),
    ],
)
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()


def test_rational_cap_enforced():
    with pytest.raises(CapacityError):
        build_drift_table(65, "rational")
    with pytest.raises(CapacityError):
        build_kernel(10, "rational", rational_cap=9)
    build_kernel(10, "rational", rational_cap=10)


def test_normalized_drift_allows_n_plus_one():
    assert normalized_drift(5, 6, "rational") == F(6, 5) ** 5 * F(6, 5)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_band_matches_full_rows(n):
    """Band entries equal full rows to 1e-13 relative (absolutely below the
    smallest normal double), the chain band drops at most 2^-60 of a row's
    move probability, and nothing past a single row's width
    ``_band_width(n, k, 1078)`` is positive."""
    band = build_kernel(n).band
    width = band.shape[1] - 1
    tiny = np.finfo(float).tiny
    for k in range(1, n + 1):
        full = float_kernel_row(n, k)[::-1]  # full[d] = p(k, k - d)
        d_max = min(k, width)
        np.testing.assert_allclose(band[k, 1 : d_max + 1], full[1 : d_max + 1], rtol=1e-13, atol=tiny)
        assert not band[k, d_max + 1 :].any()
        dropped = math.fsum(full[width + 1 :].tolist())
        assert dropped <= 2.0**-60 * math.fsum(full[1:].tolist())
        assert not full[_band_width(n, k, 1078) + 1 :].any()
        assert band[k, 0] == pytest.approx(1.0 - math.fsum(full[1:].tolist()), abs=1e-15)


@pytest.mark.parametrize("n", [1500, 4096])
def test_chain_band_matches_full_rows_on_sampled_rows(n):
    """Off powers of two too, the blocked band agrees with full rows to
    2e-15 relative, and the columns it cuts carry at most 2^-60 of a row's
    move probability, at every sampled state up to k = n."""
    band = build_kernel(n).band
    width = band.shape[1] - 1
    assert width == 20
    rng = np.random.default_rng(8)
    sampled = {1, 2, 3, width - 1, width, width + 1, n // 3, n // 2, n // 2 + 1, n - 1, n}
    sampled |= set(rng.integers(1, n + 1, size=12).tolist())
    for k in sorted(sampled):
        full = float_kernel_row(n, k)[::-1]  # full[d] = p(k, k - d)
        d_max = min(k, width)
        rel = np.abs(band[k, 1 : d_max + 1] / full[1 : d_max + 1] - 1.0)
        assert rel.max() <= 2e-15, (k, rel.max())
        dropped = math.fsum(full[width + 1 :].tolist())
        assert dropped <= 2.0**-60 * math.fsum(full[1:].tolist())


def test_chain_band_width_is_the_dropped_mass_rule():
    for n in (64, 1500, 4096, 10**5, 10**6):
        assert drift_module._band_width(n, n // 2) == 16
        assert drift_module._band_width(n, n) == 20
    assert drift_module._band_width(8, 8) == 8
    assert drift_module._band_width(8, 0) == 0


def test_pmf_bases_equal_pow_base_bit_for_bit():
    base = 1.0 - 1.0 / 1500
    exponents = range(10**6 + 1)
    got = drift_module._pow_bases(base, np.array(exponents))
    assert got.tolist() == [pow_base(base, m) for m in exponents]
    assert drift_module._pow_bases(base, np.array([7])).tolist() == [pow_base(base, 7)]
    big = [10**6 + 1, 3 * 10**6 + 7]
    assert drift_module._pow_bases(base, np.array(big)).tolist() == [pow_base(base, m) for m in big]


def test_pow_bases_of_a_fraction_are_exact():
    for n in range(2, 17):
        base = F(n + 1, n)
        got = drift_module._pow_bases(base, range(n + 1)).tolist()
        assert got == [base**m for m in range(n + 1)]
        assert all(type(v) is F for v in got)


def test_float_transition_prob_keeps_jumps_past_the_chain_band():
    """Single-row float probabilities keep every positive entry, also jumps
    far past the chain band's 20 columns."""
    n, k = 100, 100
    assert drift_module._band_width(n, k) < 30
    for j in (79, 70, 60):
        exact = transition_prob(n, k, j, "rational")
        assert transition_prob(n, k, j) == pytest.approx(float(exact), rel=1e-13)
        tail = transition_tail(n, k, j, "rational")
        assert transition_tail(n, k, j) == pytest.approx(float(tail), rel=1e-13)
    assert transition_prob(n, k, 70) > 0.0


def test_exact_band_matches_float_band():
    n = 32
    exact = build_kernel(n, "rational").band
    band = build_kernel(n).band
    width = band.shape[1] - 1
    as_float = np.array([[float(v) for v in row[: width + 1]] for row in exact])
    np.testing.assert_allclose(band, as_float, rtol=1e-13, atol=np.finfo(float).tiny)
    for k, row in enumerate(exact):
        assert all(float(v) == 0.0 for v in row[_band_width(n, k, 1078) + 1 :])


def single_row_states():
    """(n, k) pairs: every state for n = 2..40, sampled states at larger n,
    where the single-row width cuts the row."""
    rng = np.random.default_rng(34)
    for n in range(2, 41):
        for k in range(n + 1):
            yield n, k
    for n in (1000, 4096, 10**5):
        sampled = {0, 1, 2, 155, 156, 157, 177, 178, 179, n // 2, n // 2 + 1, n - 1, n}
        sampled |= set(rng.integers(1, n + 1, size=12).tolist())
        for k in sorted(sampled):
            yield n, k


def test_single_row_width_keeps_every_positive_entry():
    """A row cut at ``_band_width(n, k, 1078)``, as ``transition_prob`` and
    ``transition_tail`` read it, drops no positive entry of the full row
    ``_float_band(n, [k], k)`` and equals its kept columns bit for bit."""
    for n, k in single_row_states():
        full = _float_band(n, [k], k)[0]
        wide = _band_width(n, k, 1078)
        assert not full[wide + 1 :].any(), (n, k)
        assert _float_band(n, [k], wide)[0].tolist() == full[: wide + 1].tolist(), (n, k)


def test_band_recurrence_matches_exact_hitting_time():
    n, half = 94, 47
    exact = runtime_profile(n, "rational", up_to=half, rational_cap=n).g[half]
    assert abs(runtime_profile(n, up_to=half).g[half] / float(exact) - 1) < 1e-14


def test_pow_base_accuracy():
    assert pow_base(0.9, 0) == 1.0
    assert abs(pow_base(0.9, 17) / 0.9**17 - 1) < 1e-14
    big = pow_base(0.9999999, 2 * 10**6)
    assert abs(big / (0.9999999 ** (2 * 10**6)) - 1) < 1e-12
    with pytest.raises(ValueError):
        pow_base(0.5, -1)


_row_fsums = drift_module._row_fsums


def fsum_rows(x):
    return [math.fsum(row) for row in x.tolist()]


@pytest.mark.parametrize("n", [*range(2, 70), 1024, 1500, 4096, 12345])
def test_row_fsums_equal_fsum_on_the_band_rows(n):
    """The s_k rows and the drift rows of the n/2 and n bands, bit for bit."""
    for max_state in (n // 2, n):
        band = _float_band(n, range(max_state + 1))
        d = np.arange(band.shape[1], dtype=float)
        assert _row_fsums(band[:, 1:]).tolist() == fsum_rows(band[:, 1:])
        assert _row_fsums(band, d).tolist() == fsum_rows(band * d)


def test_row_fsums_fall_back_to_fsum_where_the_rounding_is_close(monkeypatch):
    """Rows at or near a tie reach ``math.fsum`` and come back correct."""
    rows = np.array(
        [
            # A tie: 1 + 2^-53 rounds to even, 1.0.
            [1.0, 2.0**-53, 0.0],
            # Past the tie, but the float error sum drops 2^-110: 1 + 2^-52.
            [1.0, 2.0**-53, 2.0**-110],
            # A tie below 1.0, which rounds up to the power of two 1.0.
            [1.0 - 2.0**-53, 2.0**-54, 0.0],
            # Past the tie by 2^-80, which the error sum holds exactly, so the
            # compensated sum decides it alone: 1 + 2^-52.
            [1.0, 2.0**-53, 2.0**-80],
        ]
    )
    fsum = math.fsum
    expected = fsum_rows(rows)
    assert expected == [1.0, 1.0 + 2.0**-52, 1.0, 1.0 + 2.0**-52]
    fallbacks = []

    def spy(terms):
        fallbacks.append(list(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", spy)
    assert _row_fsums(rows).tolist() == expected
    assert fallbacks == rows[:3].tolist()


def test_row_fsums_sum_negative_rows_by_fsum(monkeypatch):
    """The certificate's bound holds for nonnegative terms only."""
    rows = np.array([[1.0, -1.0, 1e-20], [0.5, 0.25, 0.125]])
    fsum = math.fsum
    fallbacks = []

    def spy(terms):
        fallbacks.append(list(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", spy)
    assert _row_fsums(rows).tolist() == [1e-20, 0.875]
    assert fallbacks == [[1.0, -1.0, 1e-20]]


def test_row_fsums_do_not_depend_on_the_block_size(monkeypatch):
    n = 300
    band = _float_band(n, range(n + 1))
    d = np.arange(band.shape[1], dtype=float)
    rows = np.random.default_rng(3).random((50, 21)) * 2.0 ** -np.arange(21.0)
    cases = [(band[:, 1:], None), (band, d), (rows, None)]
    expected = [_row_fsums(x, weights).tolist() for x, weights in cases]
    monkeypatch.setattr(drift_module, "_ROW_BLOCK", 7)
    got = [_row_fsums(x, weights).tolist() for x, weights in cases]
    assert got == expected
    assert expected[2] == fsum_rows(rows)


def test_a_band_with_no_move_columns_sums_to_zeros():
    band = _float_band(8, [0])
    assert band.shape == (1, 1)
    assert drift_module._band_improvement(8, "float", band).tolist() == [0.0]
    assert drift_module._band_drift(8, "float", band).tolist() == [0.0]
    assert runtime_profile(8, up_to=0).g == (0.0,)
    stats, samples = run(SimConfig(n=8, start=0, replicates=4, seed=1))
    assert samples.tolist() == [0, 0, 0, 0]
