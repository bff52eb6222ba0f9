"""Hitting-time recurrence, closed forms, inverse-drift sums."""

import math
from fractions import Fraction as F
from functools import cache

import mpmath
import numpy as np
import pytest

from onemax_runtime import (
    CORRIDOR_C1,
    CORRIDOR_C2,
    build_drift_table,
    build_kernel,
    closed_form_g,
    eta,
    eta_star,
    harmonic,
    hitting_profile,
    inverse_drift_sum,
    runtime_profile,
    transition_prob,
    verify_inequalities,
)
from onemax_runtime import hitting
from onemax_runtime.backends import DomainError
from onemax_runtime.drift import _band_improvement, _band_width, _float_band
from onemax_runtime.simulate import _jump_tables
from conftest import traced_peak


def test_known_exact_values_n3():
    prof = runtime_profile(3, "rational")
    assert prof.g[0] == 0
    assert prof.g[1] == F(27, 4)
    assert prof.g[2] == F(351, 44)
    assert prof.g[3] == F(189, 22)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_closed_forms_match_recurrence(n):
    prof = runtime_profile(n, "rational", up_to=min(3, n))
    for k in range(min(3, n) + 1):
        assert closed_form_g(n, k) == prof.g[k]


def test_start_one_is_inverse_escape_probability():
    for n in (2, 5, 9):
        assert closed_form_g(n, 1) == 1 / transition_prob(n, 1, 0, "rational")


def test_closed_form_domain():
    assert closed_form_g(7, 0) == 0
    with pytest.raises(ValueError):
        closed_form_g(7, 4)
    with pytest.raises(ValueError):
        closed_form_g(2, 3)
    with pytest.raises(ValueError):
        closed_form_g(1, 1)


def test_hitting_profile_matches_runtime_profile():
    n = 10
    kern = build_kernel(n, "rational")
    table = build_drift_table(n, "rational")
    via_parts = hitting_profile(kern, table)
    direct = runtime_profile(n, "rational")
    assert via_parts.g == direct.g
    assert via_parts.q == direct.q


def test_profile_respects_kernel_max_state():
    n = 20
    kern = build_kernel(n, max_state=7)
    table = build_drift_table(n)
    prof = hitting_profile(kern, table)
    assert len(prof.g) == 8
    assert prof.g == runtime_profile(n, up_to=7).g


def test_mismatched_inputs_rejected():
    with pytest.raises(ValueError):
        hitting_profile(build_kernel(5), build_drift_table(6))
    with pytest.raises(ValueError):
        hitting_profile(build_kernel(5), build_drift_table(5, "rational"))


def test_float_profile_tracks_rational():
    n = 32
    pf = runtime_profile(n)
    pr = runtime_profile(n, "rational")
    for k in range(n + 1):
        if pr.g[k]:
            assert abs(pf.g[k] / float(pr.g[k]) - 1) < 1e-12
            assert abs(pf.q[k] / float(pr.q[k]) - 1) < 1e-12


def test_g_and_q_strictly_increasing():
    prof = runtime_profile(64)
    for k in range(1, 65):
        assert prof.g[k] > prof.g[k - 1]
        assert prof.q[k] > prof.q[k - 1]


def test_q_dominates_g():
    prof = runtime_profile(11, "rational")
    assert prof.q[1] == prof.g[1]
    for k in range(2, 12):
        assert prof.q[k] > prof.g[k]


@pytest.mark.parametrize(
    "n, backend", [(15, "rational"), (15, "float"), (64, "float"), (512, "float")]
)
def test_inverse_drift_sum_matches_profile(n, backend):
    table = build_drift_table(n, backend)
    prof = runtime_profile(n, backend)
    for k in range(n + 1):
        assert inverse_drift_sum(table, k) == prof.q[k]
    with pytest.raises(ValueError):
        inverse_drift_sum(table, n + 1)


@pytest.mark.parametrize("n, up_to", [(2, 0), (9, 9), (20, 10)])
def test_rational_values_are_fractions(n, up_to):
    """Exact results are Fractions at every state, the optimum included."""
    prof = runtime_profile(n, "rational", up_to=up_to)
    assert all(type(v) is F for v in prof.g + prof.q)
    assert len(prof.g) == len(prof.q) == up_to + 1
    table = build_drift_table(n, "rational")
    assert all(type(v) is F for v in table.delta + table.delta_star)


def plain_fraction_g(n):
    """g(0..n) by the jump recurrence summed in Fractions over full rows of
    transition_prob."""
    g = [F(0)]
    for k in range(1, n + 1):
        row = [transition_prob(n, k, j, "rational") for j in range(k)]
        hit = sum((row[j] * g[j] for j in range(1, k)), F(0))
        g.append((1 + hit) / sum(row, F(0)))
    return g


@pytest.mark.parametrize("n", range(2, 13))
def test_rational_g_matches_plain_fraction_recurrence(n):
    expected = plain_fraction_g(n)
    assert list(runtime_profile(n, "rational").g) == expected
    via_kernel = hitting_profile(build_kernel(n, "rational"), build_drift_table(n, "rational"))
    assert list(via_kernel.g) == expected
    assert list(runtime_profile(n, "rational", up_to=n // 2).g) == expected[: n // 2 + 1]


def test_harmonic_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert abs(harmonic(5) - 137.0 / 60.0) < 1e-15
    direct = harmonic(10**6)
    asymptotic = (
        math.log(10**6)
        + 0.57721566490153286061
        + 1.0 / (2.0 * 10**6)
        - 1.0 / (12.0 * 10**12)
    )
    assert abs(direct - asymptotic) < 1e-12
    # Past 10**6 terms the asymptotic expansion answers.
    m = 10**6 + 1
    assert abs(harmonic(m) - math.fsum(1.0 / i for i in range(1, m + 1))) < 4e-15
    with pytest.raises(ValueError):
        harmonic(-1)


def test_corridor_constants():
    assert CORRIDOR_C1 == pytest.approx(132.4618, abs=1e-3)
    assert CORRIDOR_C2 == pytest.approx(1.0 / 91.6687, rel=1e-5)


def test_profile_up_to_validation():
    with pytest.raises(ValueError):
        runtime_profile(10, up_to=11)
    with pytest.raises(ValueError):
        runtime_profile(10, up_to=-1)


def reference_half_runtime(n):
    """g(n/2) by the jump recurrence in 40-digit arithmetic.

    The band keeps the columns d <= D with e (k/n)^D / (D+1)! below 1e-40,
    so each row drops under 1e-40 of its move probability, and each entry
    sums pair terms until 4^-l / (l! (l+1)!) is below 1e-41 of the first.
    """
    with mpmath.workdps(40):
        half = n // 2
        tol = mpmath.mpf(10) ** -40
        width = 0
        while mpmath.e * (mpmath.mpf(half) / n) ** width / mpmath.factorial(width + 1) > tol:
            width += 1
        pairs = 0
        while mpmath.mpf(4) ** -pairs / (mpmath.factorial(pairs) * mpmath.factorial(pairs + 1)) > tol / 10:
            pairs += 1
        base = 1 - mpmath.mpf(1) / n

        def pmf(m, terms):
            out = [base**m]
            for i in range(1, min(m, terms - 1) + 1):
                out.append(out[-1] * (m - i + 1) / (i * (n - 1)))
            return out + [mpmath.mpf(0)] * (terms - len(out))

        g = [mpmath.mpf(0)]
        for k in range(1, half + 1):
            pa = pmf(k, width + pairs + 1)
            pb = pmf(n - k, pairs)
            jumps = [mpmath.fdot(pa[d : d + pairs], pb) for d in range(1, width + 1)]
            hit = mpmath.fdot(jumps[: k - 1], g[k - 1 : max(k - 1 - width, 0) : -1])
            g.append((1 + hit) / mpmath.fsum(jumps))
        return float(g[half])


def test_half_start_runtime_matches_40_digit_reference():
    """n = 1024 is a power of two, so fl(1 - 1/n) is exact and the distance
    measures the float band and recurrence alone."""
    n = 1024
    ref = reference_half_runtime(n)
    got = runtime_profile(n, up_to=n // 2).g[n // 2]
    assert abs(got - ref) / ref < 2e-14


def test_rational_chain_leaves_the_kernel_fraction_view_unbuilt():
    """A kernel of either backend is built holding nothing but its three
    numbers, and hitting_profile reads the pass, not the kernel. eta and
    eta_star read the kernel's float band or integer numerators, built once
    and kept; ``band`` and ``rows`` are made only when read. Building the
    float kernel of n = 10^5 traces 304 bytes (17.5 MB when it built the
    band at once)."""
    kern, peak = traced_peak(build_kernel, 10**5)
    assert peak < 2**20
    assert vars(kern) == {"n": 10**5, "backend": "float", "max_state": 10**5}
    for backend in ("rational", "float"):
        kern = build_kernel(12, backend, max_state=8)
        table = build_drift_table(12, backend)
        fields = {"n": 12, "backend": backend, "max_state": 8}
        assert vars(kern) == fields
        hitting_profile(kern, table)
        assert vars(kern) == fields
        eta(kern, table, 5)
        eta_star(kern, table, 1, 8)
        assert vars(kern).keys() == {*fields, "_band"}
        assert kern.rows[8][8] == kern.band[8, 0]
        assert "band" in vars(kern)
        assert (kern.band is kern._band) == (backend == "float")


def test_the_kernel_and_table_composition_never_holds_the_whole_band():
    """hitting_profile reads the pass over the chain, not a kernel band, so
    the composition with build_drift_table holds one block of the band at a
    time: from n = 10^5 to 2 10^5 its traced peak grows by about 152 bytes a
    state, under 200. Building the band for the kernel and again for the
    table grew it by 320."""

    def compose(n):
        return hitting_profile(build_kernel(n), build_drift_table(n))

    small, large = 100_000, 200_000
    growth = traced_peak(compose, large)[1] - traced_peak(compose, small)[1]
    assert growth < 200 * (large - small)


_BAD_STATES = {
    "runtime_profile-float": lambda kern, table: runtime_profile(10, up_to=2.5),
    "runtime_profile-bool": lambda kern, table: runtime_profile(10, up_to=True),
    "runtime_profile-above": lambda kern, table: runtime_profile(10, up_to=11),
    "inverse_drift_sum-float": lambda kern, table: inverse_drift_sum(table, 2.5),
    "inverse_drift_sum-below": lambda kern, table: inverse_drift_sum(table, -1),
    "eta-float": lambda kern, table: eta(kern, table, 1.5),
    "eta-zero": lambda kern, table: eta(kern, table, 0),
    "eta_star-float-lo": lambda kern, table: eta_star(kern, table, 1.5, 3),
    "eta_star-float-hi": lambda kern, table: eta_star(kern, table, 1, 3.0),
    "eta_star-reversed": lambda kern, table: eta_star(kern, table, 4, 3),
    "closed_form_g-bool": lambda kern, table: closed_form_g(5, True),
    "closed_form_g-float": lambda kern, table: closed_form_g(5, 2.0),
    "harmonic-float": lambda kern, table: harmonic(2.5),
    "harmonic-bool": lambda kern, table: harmonic(True),
}


@pytest.mark.parametrize("call", _BAD_STATES.values(), ids=_BAD_STATES.keys())
def test_state_arguments_must_be_integers_in_range(call):
    with pytest.raises(DomainError):
        call(build_kernel(10), build_drift_table(10))


def test_profile_to_half_of_a_hundred_thousand_peaks_under_10_4_mib():
    """The pass over the chain holds one block of the band (6.5 MiB for all
    50001 states) at a time, so the band and the g and q tuples (3.1 MiB)
    are never held together: with both, the traced peak was 10.7 MiB."""
    prof, peak = traced_peak(lambda: runtime_profile(10**5, up_to=5 * 10**4))
    assert peak < 10.4 * 2**20
    assert len(prof.g) == len(prof.q) == 5 * 10**4 + 1


def exact_band_solve(band, diag, rhs):
    """The system of ``_solve_runs`` over states 0..len(band) - 1, from
    x_0 = 0, solved in Fractions on the very floats of its band, diag and
    rhs."""
    width = band.shape[1] - 1
    x = [F(0)]
    for k in range(1, len(band)):
        acc = F(float(rhs[k] if np.ndim(rhs) else rhs))
        for d in range(1, min(k, width) + 1):
            acc += F(float(band[k, d])) * x[k - d]
        x.append(acc / F(float(diag[k])))
    return x


@cache
def float_system(n):
    """The float band of all states of n, its s_k, and g solved exactly on
    them."""
    band = _float_band(n, range(n + 1))
    diag = _band_improvement(n, "float", band)
    return band, diag, exact_band_solve(band, diag, 1.0)


def assert_within_ulps(got, exact, ulps):
    """Every state past 0 within ``ulps`` units of 2^-53, relative."""
    assert got[0] == 0
    worst = max(abs(F(float(a)) - b) / b for a, b in zip(got[1:], exact[1:]))
    assert worst <= ulps * F(1, 2**53)


@pytest.mark.parametrize("n", [2, 3, 8, 40, 64, 300])
def test_float_g_is_within_n_ulps_of_the_exact_solve_of_its_band(n):
    """n 2^-53 relative is the scale of the error every band entry carries
    from the base fl(1 - 1/n)."""
    assert_within_ulps(runtime_profile(n).g, float_system(n)[2], n)


def test_solve_runs_takes_a_per_state_right_hand_side():
    n = 40
    band, diag, _ = float_system(n)
    rhs = np.sqrt(np.arange(n + 1.0)) + 1.0 / 3.0
    before = np.zeros(band.shape[1] - 1)
    runs = hitting._solve_runs(band[1:], diag[1:], rhs[1:], before)
    got = [0.0, *runs.ravel()[:n]]
    assert_within_ulps(got, exact_band_solve(band, diag, rhs), n)


@pytest.mark.parametrize("n", [300, 4097])
def test_blocks_of_the_chain_do_not_change_values(n, monkeypatch):
    """Blocks of two solver runs each, against the default of about 4096
    states: every profile, table, suite and jump table value is the same,
    bit for bit."""

    def results():
        kernel, table = build_kernel(n), build_drift_table(n)
        rate, cdf = _jump_tables(n, n)
        return (
            runtime_profile(n),
            runtime_profile(n, up_to=n // 2),
            hitting_profile(kernel, table),
            table,
            verify_inequalities(n),
            rate.tobytes(),
            cdf.tobytes(),
        )

    default = results()
    monkeypatch.setattr(hitting, "_SPAN", 2 * _band_width(n, n))
    assert results() == default


@pytest.mark.parametrize("up_to", [15, 4095, 4096, 4097, 8193, 9999])
def test_float_g_hardly_depends_on_the_states_solved(up_to):
    """A shorter profile has a narrower band, and so other runs, and its g
    differs in the last bits; with the same width it is the same."""
    n = 20000
    full = runtime_profile(n, up_to=10000).g
    part = runtime_profile(n, up_to=up_to).g
    if up_to == 9999:
        assert part == full[:10000]
        return
    worst = max(abs(a - b) / b for a, b in zip(part[1:], full[1:]))
    assert worst < 1e-14
