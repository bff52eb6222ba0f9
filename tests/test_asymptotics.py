"""Series evaluation, expansion quality, runtime constants."""

import math
from fractions import Fraction as F

import pytest
import scipy.integrate
import scipy.special

from onemax_runtime import (
    C2_ET,
    EULER_GAMMA,
    asymptotic_et,
    asymptotic_q,
    bessel_i,
    build_drift_table,
    constant_c0,
    constant_c1,
    evaluate_expansion,
    expansion_delta_star,
    expansion_inverse_delta_star,
    figure1_rows,
    figure2_rows,
    normalized_drift,
    runtime_estimate,
    runtime_profile,
    s_r,
    t1,
    t2,
)
from onemax_runtime.asymptotics import _c0_integrand
from onemax_runtime.backends import DomainError


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 1.0, 2.0])
def test_bessel_series_matches_scipy(nu, x):
    assert bessel_i(nu, x) == pytest.approx(float(scipy.special.iv(nu, x)), rel=1e-14)


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_i(2, 1.0)
    with pytest.raises(ValueError):
        bessel_i(0, -0.5)


def test_series_special_values():
    assert s_r(1, 0.0) == 0.0
    assert s_r(0, 0.0) == 0.0
    assert s_r(1, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert s_r(0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_series_domain():
    with pytest.raises(ValueError):
        s_r(2, 0.5)
    with pytest.raises(ValueError):
        s_r(1, 1.5)
    with pytest.raises(ValueError):
        t1(-0.1)
    with pytest.raises(ValueError):
        t2(1.2)


def test_corrections_vanish_at_zero():
    assert t1(0.0) == pytest.approx(0.0, abs=1e-15)
    assert t2(0.0) == pytest.approx(0.0, abs=1e-15)


def test_constants():
    assert constant_c0() == pytest.approx(-0.6962272155, abs=1e-9)
    assert constant_c1() == pytest.approx(1.89254, abs=5e-5)
    assert constant_c1() == pytest.approx(-math.e * constant_c0(), rel=1e-15)
    assert C2_ET == 0.59789875
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, rel=1e-15)


def test_constant_c0_matches_adaptive_quadrature():
    """Fixed Gauss-Legendre against scipy's adaptive quad (a test-only reference)."""
    val, _ = scipy.integrate.quad(
        _c0_integrand, 0.0, 0.5, epsabs=1e-13, epsrel=1e-13, limit=200
    )
    assert abs(constant_c0() - (EULER_GAMMA - math.log(2.0) + val)) <= 1e-14
    # The same integral in 30-digit arithmetic (mpmath quad over the series).
    assert abs(constant_c0() - -0.696227215489845461683966987236) <= 2e-16


def test_expansion_orders_improve():
    n, k = 64, 16
    exact = normalized_drift(n, k)
    ev = evaluate_expansion(n, k)
    errs = [abs(exact - a) for a in ev.approx]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4
    assert ev.alpha == k / n
    assert ev.approx[0] == ev.s1
    assert ev.approx[1] == pytest.approx(ev.s1 + ev.t1 / n, rel=1e-15)


@pytest.mark.parametrize("n", [2, 7, 64, 299])
def test_expansion_fields_equal_the_separate_series(n):
    for k in range(1, n + 1):
        ev = evaluate_expansion(n, k)
        alpha = k / n
        assert (ev.s0, ev.s1, ev.t1, ev.t2) == (s_r(0, alpha), s_r(1, alpha), t1(alpha), t2(alpha))


def test_expansion_gate():
    assert expansion_delta_star(16, 14) == evaluate_expansion(16, 14).approx[2]
    with pytest.raises(ValueError):
        expansion_delta_star(16, 15)
    with pytest.raises(ValueError):
        expansion_delta_star(16, 0)
    with pytest.raises(ValueError):
        expansion_delta_star(16, 8, order=3)
    with pytest.raises(ValueError):
        expansion_delta_star(16, 8, eps=0)
    expansion_delta_star(16, 8, eps=F(1, 2))
    with pytest.raises(ValueError):
        expansion_delta_star(16, 9, eps=F(1, 2))


_BAD_STATES = {
    "evaluate_expansion-float": lambda: evaluate_expansion(10, 2.5),
    "evaluate_expansion-bool": lambda: evaluate_expansion(10, True),
    "expansion_delta_star-float": lambda: expansion_delta_star(10, 2.5),
    "expansion_delta_star-bool": lambda: expansion_delta_star(10, True),
    "expansion_inverse_delta_star-float": lambda: expansion_inverse_delta_star(10, 2.0),
}


@pytest.mark.parametrize("call", _BAD_STATES.values(), ids=_BAD_STATES.keys())
def test_state_arguments_must_be_integers(call):
    with pytest.raises(DomainError):
        call()


def test_inverse_expansion_is_taylor_inverse():
    n, k = 64, 16
    exact = 1.0 / normalized_drift(n, k)
    errs = [abs(exact - expansion_inverse_delta_star(n, k, order=m)) for m in range(3)]
    assert errs[0] > errs[1] > errs[2]
    ev = evaluate_expansion(n, k)
    taylor = 1.0 / ev.s1 - ev.t1 / (n * ev.s1**2) + (ev.t1**2 - ev.t2 * ev.s1) / (
        n**2 * ev.s1**3
    )
    assert expansion_inverse_delta_star(n, k) == pytest.approx(taylor, rel=1e-15)
    assert expansion_inverse_delta_star(n, k) != pytest.approx(
        1.0 / ev.approx[2], rel=1e-12
    )


def test_asymptotic_q_tracks_exact_sum():
    n = 64
    prof = runtime_profile(n, up_to=n // 2)
    assert abs(prof.q[n // 2] - asymptotic_q(n)) < 10.0


def test_asymptotic_et_tracks_exact_runtime():
    prof = runtime_profile(100, up_to=50)
    assert abs(prof.g[50] - asymptotic_et(100)) < 10.0


def test_runtime_estimate_bundle():
    est = runtime_estimate(128)
    assert est.n == 128
    assert est.q_asym == asymptotic_q(128)
    assert est.et_asym == asymptotic_et(128)
    assert set(est.constants) == {"gamma", "c0", "c1", "c2"}
    with pytest.raises(ValueError):
        runtime_estimate(1)


def test_figure1_grid():
    rows = figure1_rows(2, 6)
    assert len(rows) == 2 + 3 + 4 + 5 + 6
    for row in rows:
        assert len(row) == 13
        n, k, alpha, exact = row[0], row[1], row[2], row[3]
        assert alpha == k / n
        assert exact == build_drift_table(n).delta_star[k]
        assert row[7] == abs(exact - row[4])
        assert row[9] == abs(exact - row[6])


def test_figure2_grid():
    rows = figure2_rows(10, 14)
    assert [r[0] for r in rows] == [10, 11, 12, 13, 14]
    for n, q, g, diff, flat in rows:
        assert diff == q - g > 0
        assert flat == diff - 0.5 * math.e * math.log(n)


def test_figure_range_validation():
    with pytest.raises(ValueError):
        figure1_rows(6, 2)
    with pytest.raises(ValueError):
        figure2_rows(1, 5)
