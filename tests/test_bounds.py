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
    eta,
    eta_star,
    runtime_profile,
    transition_prob,
    transition_tail,
    verify_inequalities,
)
from onemax_runtime.backends import FLOAT, RATIONAL, pow_base
from reference_sums import plain_fraction_drift

drift_mod = importlib.import_module("onemax_runtime.drift")


def full_row_float(n, k):
    """Kernel row p(k, 0..k) from untruncated float flip-count pmfs."""

    def pmf(m):
        out = np.empty(m + 1)
        out[0] = pow_base(1.0 - 1.0 / n, m)
        i = np.arange(1.0, m + 1)
        out[1:] = out[0] * np.cumprod((m - i + 1.0) / (i * (n - 1.0)))
        return out

    pa, pb = pmf(k), pmf(n - k)
    jumps = np.correlate(pa, pb, mode="full")[len(pb) - 1 :]
    row = jumps[::-1].copy()
    row[k] = 1.0 - row[:k].sum()
    return row

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

    At some sizes the float margin lands a few ulp negative there; the
    verdict must still be a pass (exact re-check below the rational cap, a
    relative roundoff allowance above it).
    """
    for n in (64, 256):
        report = verify_inequalities(n)
        for cid in ("delta-star-sandwich-lower", "delta-star-sandwich-upper"):
            rec = report.check(cid)
            assert rec.passed, rec
            assert abs(rec.observed) < 1e-12


def test_exact_recheck_covers_only_near_boundary_states(monkeypatch):
    """At n = 64 the float delta-star sandwich lands a few ulp below its
    bound; the exact re-check evaluates the tight points, not all n + 1
    states."""
    n = 64
    evaluated = []
    for name in ("drift", "normalized_drift"):
        original = getattr(bounds_mod, name)

        def counting(n_, k, backend=FLOAT, original=original):
            if backend == RATIONAL:
                evaluated.append(k)
            return original(n_, k, backend)

        monkeypatch.setattr(bounds_mod, name, counting)
    report = verify_inequalities(n)
    assert all(rec.passed for rec in report.checks if rec.applicable)
    assert evaluated
    assert set(evaluated) <= {1, n, n + 1}
    assert len(evaluated) <= 4


def test_tail_factorial_covers_every_positive_tail(monkeypatch):
    """The band evaluates the same (k, l) pairs as full rows: all with a
    positive tail P[step from k drops at least l]."""
    n = 128
    expected = 0
    for k in range(1, n + 1):
        cums = np.cumsum(full_row_float(n, k))
        expected += sum(1 for l in range(1, k + 1) if cums[k - l] > 0.0)

    seen = {}
    decide = bounds_mod._decide

    def spy(check, *args):
        seen[check.check_id] = len(check.values)
        return decide(check, *args)

    monkeypatch.setattr(bounds_mod, "_decide", spy)
    report = verify_inequalities(n)
    assert seen["tail-factorial"] == expected
    assert report.check("tail-factorial").passed


def test_eta_matches_full_row_sum():
    n = 40
    kern = build_kernel(n)
    table = build_drift_table(n)
    q = [0.0]
    for k in range(1, n + 1):
        q.append(q[-1] + 1.0 / table.delta[k])
    for k in range(1, n + 1):
        row = full_row_float(n, k)
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
    assert bounds_mod._exact_eta_unit(n, [1, 2, n])


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

    def spy(check, *args):
        seen[check.check_id] = check.values
        return decide(check, *args)

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

    def spy(check, *args):
        seen[check.check_id] = check.values
        return decide(check, *args)

    monkeypatch.setattr(bounds_mod, "_decide", spy)
    verify_inequalities(n)
    return seen


@pytest.mark.parametrize("n", [2, 3, 5, 64, 700])
def test_inv_drift_diff_upper_equals_the_per_k_loop(n, monkeypatch):
    """The blocked pair ratios are bit for bit the per-k loop over
    l = 1..k-1; n = 700 spans 16 pair blocks, the last one partial."""
    delta = build_drift_table(n).delta
    inv = np.array([0.0] + [1 / d for d in delta[1:]])
    coef = 2.0 * math.e * math.e * n * n / (n - 1)
    expected = []
    for k in range(2, n + 1):
        l = np.arange(1, k)
        lhs = inv[k - l] - inv[k]
        rhs = coef * l / (k * (k - l))
        expected.append(float((lhs / rhs).max()))
    got = float_check_values(n, monkeypatch)["inv-drift-diff-upper"]
    assert got.tolist() == expected


@pytest.mark.parametrize("n, pair_block", [(3, 2**15), (64, 2**15), (300, 2**15), (300, 1000)])
def test_inv_drift_diff_ratios_keep_every_pair(n, pair_block, monkeypatch):
    """On the chain's inverse drifts the largest ratio of every k > 2 sits at
    j = 1, so those values alone cannot show a pair lost elsewhere. Random
    inverse drifts move the largest ratio across all j, and a small
    ``_PAIR_BLOCK`` gives many blocks of both the rectangle and the triangle."""
    monkeypatch.setattr(bounds_mod, "_PAIR_BLOCK", pair_block)
    inv = np.random.default_rng(n).uniform(0.5, 2.0, n + 1)
    coef = 3.0
    expected = []
    for k in range(2, n + 1):
        l = np.arange(1, k)
        expected.append(float(((inv[k - l] - inv[k]) / (coef * l / (k * (k - l)))).max()))
    assert bounds_mod._inv_drift_diff_ratios(inv, coef).tolist() == expected


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


def whole_array_tail_ratios(n):
    """The tail-factorial ratios from one band of every state at once."""
    width = drift_mod._underflow_width(n, n)
    band = drift_mod._float_band(n, range(1, n + 1), width)
    tails = np.cumsum(band[:, :0:-1], axis=1)[:, ::-1]
    l = np.arange(1, width + 1)
    log_kn = np.array([math.log(k / n) for k in range(1, n + 1)])
    log_fact = np.array([math.lgamma(x + 1) for x in range(1, width + 1)])
    positive = tails > 0.0
    log_bound = l * log_kn[:, None] - log_fact
    return np.exp(np.log(tails[positive]) - log_bound[positive]).tolist()


@pytest.mark.parametrize("n", [2, 50, 600])
def test_tail_ratios_do_not_depend_on_the_block_size(n, monkeypatch):
    expected = whole_array_tail_ratios(n)
    assert bounds_mod._float_tail_ratios(n).tolist() == expected
    monkeypatch.setattr(bounds_mod, "_BLOCK", 7)
    monkeypatch.setattr(drift_mod, "_BLOCK", 7)
    assert bounds_mod._float_tail_ratios(n).tolist() == expected


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


def test_float_suite_at_ten_thousand_stays_small():
    """The tails, pair ratios and eta sums are built in blocks: no n x 180
    array and no list of every tail ratio is held."""
    tracemalloc.start()
    try:
        report = verify_inequalities(10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert all(rec.passed for rec in report.checks if rec.applicable)
