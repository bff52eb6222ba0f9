"""Verification lab for every inequality behind the runtime corridor.

The corridor argument rests on a ladder of intermediate inequalities about
the drift, the transition kernel and the potential eta. Each one is checked
here numerically over its stated range and reported as a record carrying the
analytic bound, the observed extremal value and the verdict, so the slack is
auditable instead of a bare boolean.

The potential is

    eta(k) = sum_{l=0..k-1} p(k, l) (q(k) - q(l)),

the expected one-step drop of the inverse-drift sum q from state k. It is
at least 1 everywhere; over k <= n/2 it stays within 1 + O(1/n) of 1, which
is what pins g(k) to q(k) up to Theta(log n).

Margins are evaluated in the backend's own arithmetic, so the rational
backend decides rational-bound checks exactly. Float comparisons at a true
equality point (the normalized-drift sandwich is tight at k = 1 and
k = n + 1, and eta(1) = 1 exactly) can land a few ulp on the wrong side; a
float verdict within 1e-9 of the bound is re-checked in exact arithmetic
when the instance fits the rational cap and the bound is itself rational,
and otherwise gets a relative 1e-12 roundoff allowance. Genuine violations
report as failures, not raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .backends import (
    DEFAULT_RATIONAL_CAP,
    FLOAT,
    DomainError,
    RATIONAL,
    Scalar,
    check_backend,
    check_n,
    check_rational_cap,
    pow_base,
)
from .drift import (
    DriftTable,
    TransitionKernel,
    _band_drift,
    _drift_table,
    _sum,
    build_kernel,
    drift,
    normalized_drift,
)
from .hitting import (
    CORRIDOR_C1,
    CORRIDOR_C2,
    _harmonic_prefix,
    _inverse_drift_prefix,
    _profile_from_parts,
)

__all__ = [
    "CheckRecord",
    "BoundReport",
    "eta",
    "eta_star",
    "verify_inequalities",
]

_NEAR_BOUNDARY = 1e-9
_ROUNDOFF_REL = 1e-12


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality: identifier, range, bound, observed extremum.

    ``direction`` is "le" when the observed value must stay at or below the
    bound and "ge" when it must stay at or above it. Checks whose range is
    empty at the given n carry ``applicable=False`` and ``passed=None``.
    """

    check_id: str
    k_lo: int
    k_hi: int
    direction: str
    bound: float
    observed: float | None
    passed: bool | None
    applicable: bool


@dataclass(frozen=True)
class BoundReport:
    """Everything verify_inequalities measured for one problem size."""

    n: int
    backend: str
    eta: tuple
    eta_star_max: Scalar
    eta_star_max_range: tuple[int, int]
    eta_star_min: Scalar
    eta_star_min_range: tuple[int, int]
    checks: tuple[CheckRecord, ...]

    def check(self, check_id: str) -> CheckRecord:
        for rec in self.checks:
            if rec.check_id == check_id:
                return rec
        raise KeyError(f"no check named {check_id!r}")


def _eta(kernel: TransitionKernel, q, k: int) -> Scalar:
    """eta(k) = sum_d p(k, k - d) (q(k) - q(k - d)), from row k of the band."""
    d_max = min(k, kernel.band.shape[1] - 1)
    drops = q[k] - np.array(q[k - d_max : k][::-1])
    return _sum(kernel.band[k, 1 : d_max + 1] * drops)


def _check_same_n(kernel: TransitionKernel, drift_table: DriftTable) -> None:
    if kernel.n != drift_table.n:
        raise DomainError(
            f"kernel has n = {kernel.n} but drift table has n = {drift_table.n}"
        )


def eta(kernel: TransitionKernel, drift_table: DriftTable, k: int) -> Scalar:
    """Expected one-step drop of the inverse-drift sum from state k."""
    _check_same_n(kernel, drift_table)
    if k < 1 or k > kernel.max_state:
        raise DomainError(f"state k = {k} outside [1, {kernel.max_state}]")
    q = _inverse_drift_prefix(drift_table.delta[: k + 1])
    return _eta(kernel, q, k)


def eta_star(
    kernel: TransitionKernel,
    drift_table: DriftTable,
    k_lo: int,
    k_hi: int,
    mode: str = "max",
) -> Scalar:
    """Extremum of eta over the state range k_lo..k_hi (inclusive)."""
    if mode not in ("max", "min"):
        raise DomainError(f"mode must be 'max' or 'min', got {mode!r}")
    if k_lo < 1 or k_hi > kernel.max_state or k_lo > k_hi:
        raise DomainError(
            f"state range [{k_lo}, {k_hi}] invalid for max_state {kernel.max_state}"
        )
    _check_same_n(kernel, drift_table)
    q = _inverse_drift_prefix(drift_table.delta[: k_hi + 1])
    values = [_eta(kernel, q, k) for k in range(k_lo, k_hi + 1)]
    return max(values) if mode == "max" else min(values)


@dataclass
class _Check:
    """Raw material of one record: values still in backend arithmetic."""

    check_id: str
    k_lo: int
    k_hi: int
    direction: str
    bound: object
    values: list | None
    exact: object = None


def _decide(check: _Check, n: int, backend: str, rational_cap: int) -> CheckRecord:
    if not check.values:
        return CheckRecord(
            check_id=check.check_id,
            k_lo=check.k_lo,
            k_hi=check.k_hi,
            direction=check.direction,
            bound=float(check.bound),
            observed=None,
            passed=None,
            applicable=False,
        )
    obs = max(check.values) if check.direction == "le" else min(check.values)
    if check.direction == "le":
        diff = check.bound - obs
    else:
        diff = obs - check.bound
    if diff >= 0:
        passed = True
    elif float(diff) > -_NEAR_BOUNDARY:
        if backend == FLOAT and check.exact is not None and n <= rational_cap:
            passed = bool(check.exact())
        else:
            passed = float(diff) >= -_ROUNDOFF_REL * max(1.0, abs(float(check.bound)))
    else:
        passed = False
    return CheckRecord(
        check_id=check.check_id,
        k_lo=check.k_lo,
        k_hi=check.k_hi,
        direction=check.direction,
        bound=float(check.bound),
        observed=float(obs),
        passed=passed,
        applicable=True,
    )


def _float_tail_ratios(n: int, band: np.ndarray) -> list[float]:
    """P[the step from k drops at least l] / ((k/n)^l / l!) for every state
    k >= 1 and every l whose tail is positive.

    The tails are running sums over the band from its far end, which adds
    the entries in the order a full row's cumulative sum does.
    """
    width = band.shape[1] - 1
    tails = np.cumsum(band[1:, :0:-1], axis=1)[:, ::-1]
    l = np.arange(1, width + 1)
    log_kn = np.array([math.log(k / n) for k in range(1, len(band))])
    log_fact = np.array([math.lgamma(x + 1) for x in range(1, width + 1)])
    positive = tails > 0.0
    log_bound = l * log_kn[:, None] - log_fact
    return np.exp(np.log(tails[positive]) - log_bound[positive]).tolist()


def _exact_delta_sandwich_upper(n: int) -> bool:
    return all(drift(n, k, RATIONAL) <= Fraction(k, n) for k in range(1, n + 1))


def _exact_dstar_sandwich(n: int, upper: bool) -> bool:
    grow = Fraction(n + 1, n)
    for k in range(1, n + 2):
        ds = normalized_drift(n, k, RATIONAL)
        if upper and ds > grow**n * Fraction(k, n):
            return False
        if not upper and ds < grow ** (k - 1) * Fraction(k, n):
            return False
    return True


def _exact_eta_unit(n: int) -> bool:
    kernel = build_kernel(n, RATIONAL, rational_cap=n)
    q = _inverse_drift_prefix(_band_drift(kernel.band))
    return all(_eta(kernel, q, k) >= 1 for k in range(1, n + 1))


def verify_inequalities(
    n: int,
    backend: str = FLOAT,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> BoundReport:
    """Check the full inequality suite at one problem size.

    Returns a report whose records are data: a failed check is a result, not
    an exception. Checks needing n >= 4 (the eta lower bound, the refined
    inverse-drift difference and the corridor itself) are marked not
    applicable below that.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)

    rational = backend == RATIONAL
    kernel = build_kernel(n, backend, rational_cap=rational_cap)
    table = _drift_table(n, backend, kernel.band)
    profile = _profile_from_parts(kernel, table.delta)
    g = profile.g
    q = profile.q
    half = n // 2
    e = math.e
    one = Fraction(1) if rational else 1.0

    eta_vals = [Fraction(0) if rational else 0.0]
    eta_vals += [_eta(kernel, q, k) for k in range(1, n + 1)]

    delta = table.delta
    dstar = table.delta_star
    invd = [None] + [1 / delta[k] for k in range(1, n + 1)]

    checks: list[_Check] = []

    diffs = [delta[k] - delta[k - 1] for k in range(1, n + 1)]
    checks.append(_Check("delta-diff-lower", 1, n, "ge", 1.0 / (e * n), diffs))
    checks.append(_Check("delta-diff-upper", 1, n, "le", 2.0 / (n - 1), diffs))

    sdiffs = [dstar[k] - dstar[k - 1] for k in range(1, n + 2)]
    lo_bound = Fraction(1, n) if rational else 1.0 / n
    checks.append(_Check("delta-star-diff-lower", 1, n + 1, "ge", lo_bound, sdiffs))
    checks.append(_Check("delta-star-diff-upper", 1, n + 1, "le", 2.0 * e / n, sdiffs))

    ratios = [delta[k] * n / k for k in range(1, n + 1)]
    checks.append(_Check("delta-sandwich-lower", 1, n, "ge", 1.0 / e, ratios))
    checks.append(
        _Check(
            "delta-sandwich-upper", 1, n, "le", one, ratios,
            exact=lambda: _exact_delta_sandwich_upper(n),
        )
    )

    if rational:
        grow = Fraction(n + 1, n)
        lo_env = [grow ** (k - 1) * Fraction(k, n) for k in range(1, n + 2)]
        hi_env = [grow**n * Fraction(k, n) for k in range(1, n + 2)]
    else:
        lo_env = [pow_base(1.0 + 1.0 / n, k - 1) * k / n for k in range(1, n + 2)]
        hi_env = [pow_base(1.0 + 1.0 / n, n) * k / n for k in range(1, n + 2)]
    zero = Fraction(0) if rational else 0.0
    checks.append(
        _Check(
            "delta-star-sandwich-lower", 1, n + 1, "ge", zero,
            [dstar[k] - lo_env[k - 1] for k in range(1, n + 2)],
            exact=lambda: _exact_dstar_sandwich(n, upper=False),
        )
    )
    checks.append(
        _Check(
            "delta-star-sandwich-upper", 1, n + 1, "le", zero,
            [dstar[k] - hi_env[k - 1] for k in range(1, n + 2)],
            exact=lambda: _exact_dstar_sandwich(n, upper=True),
        )
    )

    if rational:
        tail_ratios: list = []
        for k in range(1, n + 1):
            row = kernel.band[k]
            factor = Fraction(1)
            step = Fraction(n, k)
            cum = Fraction(1)
            for l in range(1, k + 1):
                cum -= row[l - 1]
                factor *= l * step
                tail_ratios.append(cum * factor)
    else:
        tail_ratios = _float_tail_ratios(n, kernel.band)
    checks.append(_Check("tail-factorial", 1, n, "le", one, tail_ratios))

    # One value per k, the largest ratio over l: the pairs are O(n^2), so
    # they are formed a row at a time to keep memory O(n).
    diff_upper_ratios: list[float] = []
    coef = 2.0 * e * e * n * n / (n - 1)
    inv_arr = np.array([0.0] + [float(x) for x in invd[1:]])
    for k in range(2, n + 1):
        l = np.arange(1, k)
        lhs = inv_arr[k - l] - inv_arr[k]
        rhs = coef * l / (k * (k - l))
        diff_upper_ratios.append(float((lhs / rhs).max()))
    checks.append(_Check("inv-drift-diff-upper", 2, n, "le", 1.0, diff_upper_ratios))

    diff_lower_ratios: list[float] = []
    for k in range(2, half + 1):
        lhs = float(invd[k - 1]) - float(invd[k])
        rhs = n / (e * k * k)
        diff_lower_ratios.append(lhs / rhs)
    checks.append(
        _Check(
            "inv-drift-diff-lower", 2, half, "ge", 1.0,
            diff_lower_ratios if half >= 2 else None,
        )
    )

    checks.append(
        _Check(
            "eta-unit-lower", 1, n, "ge", one, eta_vals[1:],
            exact=lambda: _exact_eta_unit(n),
        )
    )
    checks.append(
        _Check(
            "eta-upper", 1, half, "le", 1.0 + 2.0 * math.exp(2.5) / (n - 1),
            eta_vals[1 : half + 1],
        )
    )
    checks.append(
        _Check(
            "eta-lower", 2, half, "ge", 1.0 + math.exp(-2.0) / (4.0 * n),
            eta_vals[2 : half + 1] if half >= 2 else None,
        )
    )

    eta_star_max = max(eta_vals[1 : half + 1])
    eta_star_min = min(eta_vals[2 : n + 1])
    delta_arr = np.array(delta)
    lower_sum = _sum(1 / (eta_star_max * delta_arr[1 : half + 1]))
    upper_sum = invd[1] + _sum(1 / (eta_star_min * delta_arr[2 : half + 1]))
    checks.append(_Check("theorem-lower", 1, half, "ge", one, [g[half] / lower_sum]))
    checks.append(_Check("theorem-upper", 1, half, "le", one, [g[half] / upper_sum]))

    if n >= 4:
        q_half = float(q[half])
        g_half = float(g[half])
        logn = math.log(n)
        checks.append(
            _Check("corridor-lower", half, half, "ge", q_half - CORRIDOR_C1 * logn, [g_half])
        )
        checks.append(
            _Check("corridor-upper", half, half, "le", q_half - CORRIDOR_C2 * logn, [g_half])
        )
    else:
        checks.append(_Check("corridor-lower", half, half, "ge", 0.0, None))
        checks.append(_Check("corridor-upper", half, half, "le", 0.0, None))

    harmonics = _harmonic_prefix(n)
    checks.append(
        _Check(
            "q-harmonic-envelope", 1, n, "le", 1.0,
            [float(q[k]) / (e * n * harmonics[k]) for k in range(1, n + 1)],
        )
    )

    records = tuple(_decide(c, n, backend, rational_cap) for c in checks)
    return BoundReport(
        n=n,
        backend=backend,
        eta=tuple(eta_vals),
        eta_star_max=eta_star_max,
        eta_star_max_range=(1, half),
        eta_star_min=eta_star_min,
        eta_star_min_range=(2, n),
        checks=records,
    )
