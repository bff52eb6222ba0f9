"""The eta potential and the inequality verification suite."""

import importlib
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import onemax_runtime.bounds as bounds_mod
from onemax_runtime import (
    build_drift_table,
    build_kernel,
    drift,
    eta,
    eta_star,
    hitting_profile,
    inverse_drift_sum,
    normalized_drift,
    runtime_profile,
    transition_prob,
    transition_tail,
    verify_inequalities,
)
from onemax_runtime.backends import pow_base
from reference_sums import float_kernel_row, plain_fraction_drift

drift_mod = importlib.import_module("onemax_runtime.drift")
hitting_mod = importlib.import_module("onemax_runtime.hitting")


ALL_CHECK_IDS = {
    "delta-diff-lower",
    "delta-diff-upper",
    "delta-star-diff-lower",
    "delta-star-diff-upper",
    "delta-sandwich-lower",
    "delta-sandwich-upper",
    "delta-star-sandwich-lower",
    "delta-star-sandwich-upper",
    "tail-factorial",
    "inv-drift-diff-upper",
    "inv-drift-diff-lower",
    "eta-unit-lower",
    "eta-upper",
    "eta-lower",
    "theorem-lower",
    "theorem-upper",
    "corridor-lower",
    "corridor-upper",
    "q-harmonic-envelope",
}

SMALL_N_SKIPPED = {"inv-drift-diff-lower", "eta-lower", "corridor-lower", "corridor-upper"}


def test_eta_at_state_one_is_exactly_one():
    kern = build_kernel(6)
    table = build_drift_table(6)
    assert eta(kern, table, 1) == 1.0
    kern_r = build_kernel(6, "rational")
    table_r = build_drift_table(6, "rational")
    assert eta(kern_r, table_r, 1) == F(1)


def test_eta_bracket_at_n4():
    kern = build_kernel(4, "rational")
    table = build_drift_table(4, "rational")
    value = eta(kern, table, 2)
    assert 1 <= value <= 1 + 2 * math.exp(2.5) / 3
    assert value >= 1 + math.exp(-2) / 16


def test_eta_star_extrema():
    n = 12
    kern = build_kernel(n)
    table = build_drift_table(n)
    vals = [eta(kern, table, k) for k in range(1, n + 1)]
    assert eta_star(kern, table, 1, n, "max") == max(vals)
    assert eta_star(kern, table, 1, n, "min") == min(vals)
    with pytest.raises(ValueError):
        eta_star(kern, table, 3, 2, "max")
    with pytest.raises(ValueError):
        eta_star(kern, table, 1, n + 1, "max")
    with pytest.raises(ValueError):
        eta_star(kern, table, 1, n, "median")


def test_eta_domain():
    kern = build_kernel(8)
    table = build_drift_table(8)
    with pytest.raises(ValueError):
        eta(kern, table, 0)
    with pytest.raises(ValueError):
        eta(kern, table, 9)
    with pytest.raises(ValueError):
        eta(build_kernel(8), build_drift_table(9), 1)


def test_report_structure():
    report = verify_inequalities(16)
    assert {rec.check_id for rec in report.checks} == ALL_CHECK_IDS
    assert len(report.eta) == 17
    assert report.eta_star_max_range == (1, 8)
    assert report.eta_star_min_range == (2, 16)
    assert report.eta_star_max >= report.eta_star_min >= 1.0
    with pytest.raises(KeyError):
        report.check("nonexistent")


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_float_suite_passes(n):
    report = verify_inequalities(n)
    for rec in report.checks:
        assert rec.applicable
        assert rec.passed, rec


@pytest.mark.parametrize("n", [2, 3])
def test_small_n_marks_unprovable_checks_not_applicable(n):
    report = verify_inequalities(n)
    for rec in report.checks:
        if rec.check_id in SMALL_N_SKIPPED:
            assert not rec.applicable
            assert rec.passed is None
            assert rec.observed is None
        else:
            assert rec.applicable
            assert rec.passed, rec


def test_rational_suite_passes():
    report = verify_inequalities(8, "rational")
    assert report.backend == "rational"
    assert isinstance(report.eta_star_max, F)
    for rec in report.checks:
        if rec.applicable:
            assert rec.passed, rec


def test_equality_points_survive_float_noise():
    """The normalized-drift sandwich is tight at k = 1 and k = n + 1.

    At some sizes the float value lands a few ulp on the wrong side there;
    those states are decided by their identity, so the verdict is a pass,
    and ``observed`` still shows the rounding.
    """
    for n in (64, 256):
        report = verify_inequalities(n)
        for cid in ("delta-star-sandwich-lower", "delta-star-sandwich-upper"):
            rec = report.check(cid)
            assert rec.passed, rec
            assert abs(rec.observed) < 1e-12


@pytest.mark.parametrize("n", [10001, 10004])
def test_identity_points_pass_past_the_rounding_of_large_n(n):
    """Float rounding at delta*(n + 1) grows like n 2^-52: at these sizes it
    puts a delta* sandwich value more than 1e-12 past its bound."""
    report = verify_inequalities(n)
    for rec in report.checks:
        assert rec.applicable
        assert rec.passed, rec


def test_identity_points_hold_exactly():
    """The identities the verdict takes as proved, in exact arithmetic."""
    for n in range(2, 65):
        assert drift(n, n, "rational") == 1
        assert normalized_drift(n, 1, "rational") == F(1, n)
        assert normalized_drift(n, n + 1, "rational") == F(n + 1, n) ** (n + 1)
        kern = build_kernel(n, "rational", max_state=1)
        assert eta(kern, build_drift_table(n, "rational"), 1) == 1


@pytest.mark.parametrize(
    "n, backend", [(2, "float"), (3, "float"), (64, "float"), (1024, "float"), (8, "rational")]
)
def test_delta_star_diff_lower_lists_its_identity_state(n, backend, monkeypatch):
    """delta*(1) - delta*(0) = 1/n is passed as the identity state 1, and
    the record still observes the smallest difference over every state."""
    seen = {}
    decide = bounds_mod._decide

    def spy(check_id, k_lo, k_hi, direction, bound, values, equal_at=()):
        seen[check_id] = (values, list(equal_at))
        return decide(check_id, k_lo, k_hi, direction, bound, values, equal_at)

    monkeypatch.setattr(bounds_mod, "_decide", spy)
    rec = verify_inequalities(n, backend).check("delta-star-diff-lower")
    values, equal_at = seen["delta-star-diff-lower"]
    assert equal_at == [1]
    assert values[0] == (F(1, n) if backend == "rational" else 1.0 / n)
    assert rec.observed == float(min(values))
    assert rec.passed


def test_tail_factorial_covers_every_positive_tail():
    """The ratios cover the same (k, l) pairs as full rows: all with a
    positive tail P[step from k drops at least l]. At n = 128 that is every
    l <= k, and the underflow width is n."""
    n = 128
    expected = 0
    for k in range(1, n + 1):
        cums = np.cumsum(float_kernel_row(n, k))
        expected += sum(1 for l in range(1, k + 1) if cums[k - l] > 0.0)

    assert len(float_tail_ratios(n)) == expected
    assert verify_inequalities(n).check("tail-factorial").passed


@pytest.mark.parametrize("n", [*range(2, 65), 1024])
def test_tail_factorial_decides_on_the_largest_ratio_of_each_state(n, monkeypatch):
    """The float suite hands the verdict one value per state, the largest of
    its ratios, so the check's extremum is that of every ratio."""
    values = float_check_values(n, monkeypatch)["tail-factorial"]
    ratios = float_tail_ratios(n)
    assert values.max() == ratios.max()
    # State k has min(k, W) ratios, W the underflow width.
    counts = np.minimum(np.arange(1, n + 1), drift_mod._underflow_width(n, n))
    assert counts.sum() == len(ratios)
    starts = np.cumsum(counts) - counts
    assert values.tolist() == np.maximum.reduceat(ratios, starts).tolist()


def test_eta_matches_full_row_sum():
    n = 40
    kern = build_kernel(n)
    table = build_drift_table(n)
    q = [0.0]
    for k in range(1, n + 1):
        q.append(q[-1] + 1.0 / table.delta[k])
    for k in range(1, n + 1):
        row = float_kernel_row(n, k)
        expected = math.fsum(row[l] * (q[k] - q[l]) for l in range(k))
        assert eta(kern, table, k) == pytest.approx(expected, rel=1e-14)


def plain_fraction_eta(n):
    """eta(0..n) summed in Fractions over full rows of transition_prob, with
    q from the drift as a plain Fraction double sum over flip counts."""
    q = [F(0)]
    for k in range(1, n + 1):
        q.append(q[-1] + 1 / plain_fraction_drift(n, k))
    return [F(0)] + [
        sum((transition_prob(n, k, l, "rational") * (q[k] - q[l]) for l in range(k)), F(0))
        for k in range(1, n + 1)
    ]


def test_rational_eta_matches_full_row_sum():
    n = 12
    expected = plain_fraction_eta(n)
    kern = build_kernel(n, "rational")
    table = build_drift_table(n, "rational")
    got = [eta(kern, table, k) for k in range(1, n + 1)]
    assert got == expected[1:]
    assert all(type(v) is F for v in got)
    short = build_kernel(n, "rational", max_state=7)
    assert [eta(short, table, k) for k in range(1, 8)] == expected[1:8]
    assert eta_star(kern, table, 1, n // 2) == max(expected[1 : n // 2 + 1])
    assert eta_star(kern, table, 2, n, "min") == min(expected[2:])
    report = verify_inequalities(n, "rational")
    assert list(report.eta) == expected
    assert all(type(v) is F for v in report.eta)
    assert type(report.eta_star_max) is F and type(report.eta_star_min) is F


def test_eta_rejects_a_drift_table_of_the_other_backend():
    with pytest.raises(ValueError):
        eta(build_kernel(6, "rational"), build_drift_table(6), 2)
    with pytest.raises(ValueError):
        eta_star(build_kernel(6), build_drift_table(6, "rational"), 1, 3)


def test_rational_check_values_match_plain_fractions(monkeypatch):
    """The exact tail ratios and theorem ratios, value for value, against
    plain Fraction sums."""
    n = 12
    half = n // 2
    seen = {}
    decide = bounds_mod._decide

    def spy(check_id, k_lo, k_hi, direction, bound, values, *args, **kwargs):
        seen[check_id] = values
        return decide(check_id, k_lo, k_hi, direction, bound, values, *args, **kwargs)

    monkeypatch.setattr(bounds_mod, "_decide", spy)
    verify_inequalities(n, "rational")
    tails = [
        transition_tail(n, k, k - l, "rational") * math.factorial(l) * F(n, k) ** l
        for k in range(1, n + 1)
        for l in range(1, k + 1)
    ]
    assert seen["tail-factorial"] == tails
    assert all(type(v) is F for v in seen["tail-factorial"])
    etas = plain_fraction_eta(n)
    delta = [plain_fraction_drift(n, k) for k in range(n + 1)]
    g_half = runtime_profile(n, "rational", up_to=half).g[half]
    lower = sum((1 / (max(etas[1 : half + 1]) * delta[k]) for k in range(1, half + 1)), F(0))
    upper = 1 / delta[1] + sum((1 / (min(etas[2:]) * delta[k]) for k in range(2, half + 1)), F(0))
    assert seen["theorem-lower"] == [g_half / lower]
    assert seen["theorem-upper"] == [g_half / upper]


def test_records_expose_auditable_slack():
    report = verify_inequalities(32)
    rec = report.check("eta-upper")
    assert rec.direction == "le"
    assert rec.observed < rec.bound
    rec = report.check("corridor-lower")
    assert rec.direction == "ge"
    assert rec.observed > rec.bound
    assert rec.k_lo == rec.k_hi == 16


def float_check_values(n, monkeypatch):
    """The raw values of every check of the float suite at n, by check id."""
    seen = {}
    decide = bounds_mod._decide

    def spy(check_id, k_lo, k_hi, direction, bound, values, *args, **kwargs):
        seen[check_id] = values
        return decide(check_id, k_lo, k_hi, direction, bound, values, *args, **kwargs)

    monkeypatch.setattr(bounds_mod, "_decide", spy)
    verify_inequalities(n)
    return seen


def float_tail_ratios(n):
    """Every float tail ratio, by state and then by l: the blocks of
    ``_float_tail_ratios`` concatenated, each cut to its l <= k entries."""
    blocks = []
    for ks, ratios in bounds_mod._float_tail_ratios(n):
        l = np.arange(1, len(ratios) + 1)
        blocks.append(ratios.T[l <= ks[:, None]])
    return np.concatenate(blocks)


def identity_points(n, dstar):
    """(check id, state, bound, size of the terms compared) for each state
    where a check of the suite holds with equality by an identity; every
    one of these checks starts at k = 1."""
    return [
        ("delta-star-diff-lower", 1, 1.0 / n, dstar[1]),
        ("delta-sandwich-upper", n, 1.0, 1.0),
        ("delta-star-sandwich-lower", 1, 0.0, dstar[1]),
        ("delta-star-sandwich-lower", n + 1, 0.0, dstar[n + 1]),
        ("delta-star-sandwich-upper", n + 1, 0.0, dstar[n + 1]),
        ("eta-unit-lower", 1, 1.0, 1.0),
    ]


@pytest.mark.parametrize("n", [*range(2, 71), 1024, 10001, 10004])
def test_float_values_at_identity_states_stay_within_rounding(n, monkeypatch):
    """The verdict does not read the float value at an identity state; it
    must still lie within (n + 1) 2^-52 max(1, size) of the bound, where
    size is that of the terms compared: delta*(k) for the sandwich
    differences, 1 for the ratios and eta."""
    seen = float_check_values(n, monkeypatch)
    for check_id, k, bound, size in identity_points(n, build_drift_table(n).delta_star):
        value = float(seen[check_id][k - 1])
        assert abs(value - bound) <= (n + 1) * 2.0**-52 * max(1.0, size), (check_id, k)


def largest_pair_ratios(inv, coef):
    """For k = 2..n, the largest over j = 1..k-1 of
    (inv[j] - inv[k]) / (coef (k - j) / (k j)), one k at a time."""
    out = []
    for k in range(2, len(inv)):
        l = np.arange(1, k)
        out.append(float(((inv[k - l] - inv[k]) / (coef * l / (k * (k - l)))).max()))
    return out


def adjacent_ratios(inv, coef):
    """For k = 2..n, the ratio of the adjacent pair (k - 1, k)."""
    return [float((inv[k - 1] - inv[k]) / (coef / (k * (k - 1)))) for k in range(2, len(inv))]


@pytest.mark.parametrize("n", [2, 3, 5, 64, 700])
def test_inv_drift_diff_upper_equals_the_per_k_loop(n, monkeypatch):
    """The check reads the adjacent ratios, and their largest is bit for bit
    the largest ratio over all pairs j < k."""
    delta = build_drift_table(n).delta
    inv = np.array([0.0] + [1 / d for d in delta[1:]])
    coef = 2.0 * math.e * math.e * n * n / (n - 1)
    got = float_check_values(n, monkeypatch)["inv-drift-diff-upper"]
    assert got.tolist() == adjacent_ratios(inv, coef)
    assert got.max() == max(largest_pair_ratios(inv, coef))


@pytest.mark.parametrize("n", [3, 64, 300, 1000])
def test_largest_pair_ratio_is_the_largest_adjacent_ratio(n):
    """A pair's ratio is a mean of its adjacent ratios with positive weights
    1/i - 1/(i + 1), for any sequence inv. On the chain's inverse drifts the
    largest ratio of every k > 2 sits at j = 1; random inverse drifts move
    it across all j."""
    inv = np.random.default_rng(n).uniform(0.5, 2.0, n + 1)
    coef = 3.0
    assert max(largest_pair_ratios(inv, coef)) == max(adjacent_ratios(inv, coef))


@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_delta_star_envelopes_equal_scalar_pow_base(n, monkeypatch):
    dstar = build_drift_table(n).delta_star
    lo_env = [pow_base(1.0 + 1.0 / n, k - 1) * k / n for k in range(1, n + 2)]
    hi_env = [pow_base(1.0 + 1.0 / n, n) * k / n for k in range(1, n + 2)]
    seen = float_check_values(n, monkeypatch)
    assert seen["delta-star-sandwich-lower"].tolist() == [
        dstar[k] - lo_env[k - 1] for k in range(1, n + 2)
    ]
    assert seen["delta-star-sandwich-upper"].tolist() == [
        dstar[k] - hi_env[k - 1] for k in range(1, n + 2)
    ]


@pytest.mark.parametrize("n", [2, 50, 600])
def test_tail_ratios_do_not_depend_on_the_block_size(n, monkeypatch):
    expected = float_tail_ratios(n).tolist()
    monkeypatch.setattr(bounds_mod, "_BLOCK", 7)
    assert float_tail_ratios(n).tolist() == expected
    monkeypatch.setattr(bounds_mod, "_BLOCK", n + 1)
    assert float_tail_ratios(n).tolist() == expected


@pytest.mark.parametrize("n", [2, 3, 5, 16, 33, 64])
def test_float_tail_ratios_are_within_1e_14_of_the_exact_ones(n, monkeypatch):
    """Every (k, l) pair, in the order of the rational suite: at these n the
    underflow width is n, so the float ratios cover every l <= k too."""
    seen = {}
    decide = bounds_mod._decide

    def spy(check_id, k_lo, k_hi, direction, bound, values, *args, **kwargs):
        seen[check_id] = values
        return decide(check_id, k_lo, k_hi, direction, bound, values, *args, **kwargs)

    monkeypatch.setattr(bounds_mod, "_decide", spy)
    verify_inequalities(n, "rational")
    exact = seen["tail-factorial"]
    got = float_tail_ratios(n).tolist()
    assert len(got) == len(exact) == n * (n + 1) // 2
    assert all(abs(F(v) - x) <= F(1, 10**14) * x for v, x in zip(got, exact))


def test_float_theorem_values_are_within_1e_13_of_the_exact_ones():
    """Both backends sum 1/(eta delta(k)) over k <= n/2 as q(n/2)/eta."""
    for n in range(4, 65):
        exact = verify_inequalities(n, "rational")
        got = verify_inequalities(n)
        for check_id in ("theorem-lower", "theorem-upper"):
            x = exact.check(check_id).observed
            assert abs(got.check(check_id).observed - x) <= 1e-13 * x, (n, check_id)


def test_float_tail_ratios_at_thirty_thousand_stay_below_one():
    """Formed as floats, 6 of the tails here round to the smallest subnormal
    and their ratios read up to 1.0267; in scaled form none is formed."""
    assert float_tail_ratios(30_000).max() <= 1.0


@pytest.mark.parametrize("n", [5, 64, 1024])
def test_float_eta_is_within_1e_15_of_the_compensated_row_sum(n):
    """The blocked row sums of eta stay within 1e-15 relative of math.fsum
    over the same products; eta(1) is one product, so it is exact."""
    band = drift_mod._float_band(n, range(n + 1))
    delta = build_drift_table(n).delta
    q = [0.0]
    for k in range(1, n + 1):
        q.append(q[-1] + 1 / delta[k])
    got = verify_inequalities(n).eta
    width = band.shape[1] - 1
    for k in range(1, n + 1):
        d_max = min(k, width)
        drops = q[k] - np.array(q[k - d_max : k][::-1])
        expected = math.fsum((band[k, 1 : d_max + 1] * drops).tolist())
        assert abs(got[k] - expected) <= 1e-15 * expected, k
    assert got[1] == math.fsum([band[1, 1] * q[1]])


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_suite_memory_grows_by_under_1000_bytes_per_state():
    """The suite holds O(n) values and arrays of a block's size: from
    n = 10^4 to 2 10^4 its traced peak grows by under 1000 bytes a state.
    An array of every tail ratio alone would add 8 W = 1416 bytes a state."""
    small, large = 10_000, 20_000
    growth = traced_peak(verify_inequalities, large) - traced_peak(verify_inequalities, small)
    assert growth < 1000 * (large - small)


def test_float_suite_at_ten_thousand_stays_small():
    """The tails and eta sums are built in blocks: no n x 180 array and no
    list of every tail ratio is held."""
    tracemalloc.start()
    try:
        report = verify_inequalities(10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert all(rec.passed for rec in report.checks if rec.applicable)


def count_calls(monkeypatch, name, modules):
    """Wrap the function ``name`` in every module that holds it; returns the
    list the wrapper appends to on each call."""
    calls = []
    for module in modules:
        if hasattr(module, name):
            original = getattr(module, name)

            def counted(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("n", [2, 9, 64])
def test_each_call_builds_q_once(n, backend, monkeypatch):
    """verify_inequalities, runtime_profile and hitting_profile each build
    the inverse-drift sums q once, and the suite builds no drift table."""
    kern, table = build_kernel(n, backend), build_drift_table(n, backend)
    modules = (drift_mod, hitting_mod, bounds_mod)
    q_calls = count_calls(monkeypatch, "_inverse_drift_prefix", modules)
    table_calls = count_calls(monkeypatch, "_drift_table", modules)
    verify_inequalities(n, backend)
    assert (len(q_calls), len(table_calls)) == (1, 0)
    runtime_profile(n, backend)
    assert len(q_calls) == 2
    hitting_profile(kern, table)
    assert len(q_calls) == 3


@pytest.mark.parametrize("n", [2, 9, 64])
def test_public_float_values_are_python_floats(n):
    """Every float a public result carries is a ``float``, not a numpy
    scalar."""
    kern, table = build_kernel(n), build_drift_table(n)
    report = verify_inequalities(n)
    values = [*table.delta, *table.delta_star]
    for prof in (runtime_profile(n), hitting_profile(kern, table)):
        values += [*prof.g, *prof.q]
    values += [*report.eta, report.eta_star_max, report.eta_star_min]
    for rec in report.checks:
        values += [rec.bound] + ([rec.observed] if rec.applicable else [])
    values += [drift(n, k) for k in range(n + 1)]
    values += [normalized_drift(n, k) for k in range(n + 2)]
    values += [inverse_drift_sum(table, k) for k in range(n + 1)]
    values += [eta(kern, table, k) for k in range(1, n + 1)]
    values += [eta_star(kern, table, 1, n, mode) for mode in ("max", "min")]
    assert {type(v) for v in values} == {float}
