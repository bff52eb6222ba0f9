"""Drift values, transition kernel, and the identities tying them together."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from onemax_runtime import (
    CapacityError,
    build_drift_table,
    build_kernel,
    drift,
    normalized_drift,
    normalized_drift_gf,
    runtime_profile,
    transition_prob,
    transition_tail,
)
from onemax_runtime.backends import pow_base


def float_pmf(m, n):
    """Pmf of Bin(m, 1/n), all m + 1 terms, by the float ratio recurrence."""
    out = np.empty(m + 1)
    out[0] = pow_base(1.0 - 1.0 / n, m)
    i = np.arange(1.0, m + 1)
    out[1:] = out[0] * np.cumprod((m - i + 1.0) / (i * (n - 1.0)))
    return out


def full_jump_row(n, k):
    """jumps[d] = p(k, k - d) for d = 1..k from untruncated flip-count pmfs."""
    pa = float_pmf(k, n)
    pb = float_pmf(n - k, n)
    return np.correlate(pa, pb, mode="full")[len(pb) - 1 :]


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
    for k in range(n + 1):
        expected = brute_kernel_row(n, k)
        got = [transition_prob(n, k, j, "rational") for j in range(k + 1)]
        assert got == expected


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_generating_function_route_matches_double_sum(n):
    for k in range(n + 2):
        assert normalized_drift_gf(n, k) == normalized_drift(n, k, "rational")


@pytest.mark.parametrize("n", [3, 5, 9])
def test_renormalization_identity(n):
    factor = F(n - 1, n) ** n
    for k in range(n + 1):
        assert drift(n, k, "rational") == normalized_drift(n - 1, k, "rational") * factor


@pytest.mark.parametrize("n", [2, 4, 7])
def test_drift_is_mean_jump_of_kernel(n):
    for k in range(n + 1):
        row = [transition_prob(n, k, j, "rational") for j in range(k + 1)]
        assert drift(n, k, "rational") == sum((k - j) * row[j] for j in range(k + 1))


def test_float_matches_rational_to_1e13():
    n = 12
    for k in range(n + 1):
        exact = drift(n, k, "rational")
        if exact:
            assert abs(drift(n, k) / float(exact) - 1) < 1e-13
    for k in range(n + 2):
        exact = normalized_drift(n, k, "rational")
        if exact:
            assert abs(normalized_drift(n, k) / float(exact) - 1) < 1e-13


def full_normalized_drift(n, k):
    """The float normalized drift by its full O(n) sums, no cut."""
    m = n + 1 - k
    u = np.cumprod((k - np.arange(1.0, k + 1) + 1.0) / (np.arange(1.0, k + 1) * n))
    v = np.ones(m + 1)
    j = np.arange(1.0, m + 1)
    v[1:] = np.cumprod((m - j + 1.0) / (j * n))
    cv0 = np.cumsum(v)
    cv1 = np.cumsum(v * np.arange(m + 1))
    l = np.arange(1, k + 1)
    idx = np.minimum(l - 1, m)
    return float(np.dot(u, l * cv0[idx] - cv1[idx]))


@pytest.mark.parametrize("n", [2, 3, 64, 512])
def test_cut_normalized_drift_column_is_bit_identical_to_full_sums(n):
    """Terms past the band width are exact zeros, so the cut changes nothing."""
    column = build_drift_table(n).delta_star
    assert column[0] == 0.0
    for k in range(1, n + 2):
        full = full_normalized_drift(n, k)
        assert column[k] == full
        assert normalized_drift(n, k) == full


def test_kernel_rows_sum_to_one():
    kern = build_kernel(9, "rational")
    for row in kern.rows:
        assert sum(row) == 1
    kern_f = build_kernel(40)
    for row in kern_f.rows:
        assert abs(float(np.sum(row)) - 1.0) < 1e-14


def test_float_kernel_rows_are_read_only():
    kern = build_kernel(6)
    with pytest.raises(ValueError):
        kern.rows[3][0] = 0.5


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


def test_transition_tail_is_cumulative_row():
    n = 7
    for k in range(n + 1):
        acc = F(0)
        for j in range(k + 1):
            acc += transition_prob(n, k, j, "rational")
            assert transition_tail(n, k, j, "rational") == acc
    assert transition_tail(7, 3, 5, "rational") == 1
    assert transition_tail(7, 3, 6) == 1.0


def test_upward_transitions_are_impossible():
    assert transition_prob(6, 2, 5, "rational") == 0
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
    smallest normal double), and nothing outside the band is positive."""
    band = build_kernel(n).band
    width = band.shape[1] - 1
    tiny = np.finfo(float).tiny
    for k in range(1, n + 1):
        full = full_jump_row(n, k)
        d_max = min(k, width)
        np.testing.assert_allclose(band[k, 1 : d_max + 1], full[1 : d_max + 1], rtol=1e-13, atol=tiny)
        assert not band[k, d_max + 1 :].any()
        dropped = math.fsum(full[width + 1 :].tolist())
        assert dropped <= 2.0**-60 * math.fsum(full[1:].tolist())
        assert not full[width + 1 :].any()
        assert band[k, 0] == pytest.approx(1.0 - math.fsum(full[1:].tolist()), abs=1e-15)


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
