"""Hitting-time recurrence, closed forms, inverse-drift sums."""

import math
from fractions import Fraction as F

import pytest

from onemax_runtime import (
    CORRIDOR_C1,
    CORRIDOR_C2,
    build_drift_table,
    build_kernel,
    closed_form_g,
    harmonic,
    hitting_profile,
    inverse_drift_sum,
    runtime_profile,
    transition_prob,
)


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
