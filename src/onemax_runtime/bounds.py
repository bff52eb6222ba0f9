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
and otherwise gets a relative 1e-12 roundoff allowance. The exact re-check
covers only the states whose float margin is below 1e-9 (at the tight
points that is one or two states), not the whole range. Genuine violations
report as failures, not raises.

The float suite works on whole arrays, a block of states at a time. Its own
per-state Python work is one ``math.log(k / n)`` per state for the tail
bounds, kept because numpy's vectorised log does not always round the same
way. What it reads from ``drift`` and ``hitting`` is computed there as
before: the compensated row sums of the drift, the improvement probability
and the hitting recurrence (run only up to n/2, where g is checked), and the
running sums q and H. The check columns are numpy arrays:

* the ``tail-factorial`` ratios come from a band of the underflow width that
  is built, summed and turned into ratios ``_BLOCK`` states at a time; one
  flat array of the positive ratios (at most n times the width) is kept,
  while the band, tails and log bounds exist for one block only;
* the O(n^2) ``inv-drift-diff-upper`` pairs are all evaluated, as (k, j)
  blocks of about ``_PAIR_BLOCK`` pairs (about 1 MB of working memory);
* eta(k) is one 2-D product of band rows and drops per block of states,
  summed along the rows;
* the (1 + 1/n)^(k-1) envelopes come from ``_pow_bases``.

Each block does the operations of the per-state loop it replaces, so every
check value is the same bit for bit, except eta and the checks derived from
it: numpy's row sum replaces ``math.fsum`` there, and stays within 1e-15
relative of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

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
    _BANDS,
    _BLOCK,
    DriftTable,
    TransitionKernel,
    _band_drift,
    _check_state,
    _drift_table,
    _exact_numerators,
    _float_band,
    _pow_bases,
    _underflow_width,
    drift,
    normalized_drift,
)
from .hitting import (
    CORRIDOR_C1,
    CORRIDOR_C2,
    _check_same_chain,
    _harmonic_prefix,
    _inverse_drift_prefix,
    _profile,
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

# (k, j) pairs per block of the inverse-drift difference ratios: 256 KB per
# array of the block, about 1 MB of working memory in all, for any n.
_PAIR_BLOCK = 2**15


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


def _exact_etas(n: int, nums: list[list[int]], delta, states) -> list[Fraction]:
    """eta(k) for each k of ``states`` from the integer numerators P[k][d]
    of p(k, k - d) over N = n^n and the exact drift column ``delta``.

    Swapping the sums gives eta(k) = sum_{i=1..k} T_k(k-i+1) / (N delta(i))
    with the tail numerator T_k(m) = sum_{d>=m} P[k][d]. With
    delta(i) = a_i / b_i and L_i = a_1 ... a_i, the sum times N L_k is the
    integer E_k, which runs by Horner over i: E <- E a_i + T_k(k-i+1) b_i
    L_{i-1}. Each eta(k) is one Fraction.
    """
    scale = n**n
    prods = [1]
    for d in delta[1 : max(states) + 1]:
        prods.append(prods[-1] * d.numerator)
    out = []
    for k in states:
        row = nums[k]
        tail = acc = 0
        for i in range(1, k + 1):
            tail += row[k - i + 1]
            acc = acc * delta[i].numerator + tail * delta[i].denominator * prods[i - 1]
        out.append(Fraction(acc, scale * prods[k]))
    return out


def _etas(n: int, backend: str, band, delta, states) -> list:
    """eta(k) for each k of ``states`` from a ``_BANDS`` band and the drift
    column ``delta``; a float eta(k) is sum_d p(k, k - d) (q(k) - q(k - d))
    over row k of the band, summed for a block of states as one 2-D product
    of band rows and drops with a row sum. Band entries past d = k are exact
    zeros, so the drops there, read at the clamped index 0, add nothing."""
    if backend == RATIONAL:
        return _exact_etas(n, band, delta, states)
    q = np.array(_inverse_drift_prefix(delta[: max(states) + 1]))
    d = np.arange(1, band.shape[1])
    out = []
    for lo in range(0, len(states), _BLOCK):
        ks = np.asarray(states[lo : lo + _BLOCK])[:, None]
        drops = q[ks] - q[np.maximum(ks - d, 0)]
        out.append((band[ks[:, 0], 1:] * drops).sum(axis=1))
    return np.concatenate(out).tolist()


def eta(kernel: TransitionKernel, drift_table: DriftTable, k: int) -> Scalar:
    """Expected one-step drop of the inverse-drift sum from state k.

    A float eta(k) is numpy's row sum of the band row times the drops, not a
    compensated sum, so it can differ from ``math.fsum`` of the same terms in
    the last bits (within 1e-15 relative); ``eta_star`` reads the same sums.
    """
    _check_same_chain(kernel, drift_table)
    _check_state(kernel.n, k, kernel.max_state, lo=1)
    return _etas(kernel.n, kernel.backend, kernel._chain, drift_table.delta, [k])[0]


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
    _check_state(kernel.n, k_lo, kernel.max_state, lo=1)
    _check_state(kernel.n, k_hi, kernel.max_state, lo=k_lo)
    _check_same_chain(kernel, drift_table)
    states = range(k_lo, k_hi + 1)
    values = _etas(kernel.n, kernel.backend, kernel._chain, drift_table.delta, states)
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

    def near_boundary_states(self) -> list[int]:
        """States whose float margin is below ``_NEAR_BOUNDARY``; values[i]
        belongs to state k_lo + i. Float error is far smaller than that
        margin, so only these states can fail in exact arithmetic."""
        sign = 1 if self.direction == "le" else -1
        return [
            self.k_lo + i
            for i, v in enumerate(self.values)
            if sign * (self.bound - v) < _NEAR_BOUNDARY
        ]


def _decide(check: _Check, n: int, backend: str, rational_cap: int) -> CheckRecord:
    if check.values is None or len(check.values) == 0:
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
    obs = np.max(check.values) if check.direction == "le" else np.min(check.values)
    if check.direction == "le":
        diff = check.bound - obs
    else:
        diff = obs - check.bound
    if diff >= 0:
        passed = True
    elif float(diff) > -_NEAR_BOUNDARY:
        if backend == FLOAT and check.exact is not None and n <= rational_cap:
            passed = bool(check.exact(check.near_boundary_states()))
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


def _float_tail_ratios(n: int) -> np.ndarray:
    """P[the step from k drops at least l] / ((k/n)^l / l!) for every state
    k >= 1 and every l whose tail is positive, by state and then by l.

    The tails are read from a band of the underflow width, which keeps every
    positive entry of a row, not from the narrower chain band. They are
    running sums over the band from its far end, which adds the entries in
    the order a full row's cumulative sum does. The band is built, summed
    and turned into ratios ``_BLOCK`` states at a time, each block at the
    underflow width of its largest state (entries past it are exact zeros,
    which add nothing to a tail). The only array kept across blocks is the
    flat one of the positive-tail ratios, sized for every (k, l) pair (at
    most n times the width).
    """
    width = _underflow_width(n, n)
    l = np.arange(1, width + 1)
    log_fact = np.array([math.lgamma(x + 1) for x in range(1, width + 1)])
    out = np.empty(n * width)
    filled = 0
    for lo in range(1, n + 1, _BLOCK):
        states = range(lo, min(lo + _BLOCK, n + 1))
        cols = _underflow_width(n, states[-1])
        tails = np.cumsum(_float_band(n, states, cols)[:, :0:-1], axis=1)[:, ::-1]
        positive = tails > 0.0
        log_kn = np.array([math.log(k / n) for k in states])
        log_bound = np.multiply.outer(log_kn, l[:cols])
        log_bound -= log_fact[:cols]
        logs = np.log(tails[positive])
        logs -= log_bound[positive]
        np.exp(logs, out=out[filled : filled + len(logs)])
        filled += len(logs)
    return out[:filled]


def _inv_drift_diff_ratios(inv: np.ndarray, coef: float) -> np.ndarray:
    """For k = 2..n, the largest over j = 1..k-1 of
    (inv[j] - inv[k]) / (coef (k - j) / (k j)), from the float inverse
    drifts inv[k] = 1/delta(k) (inv[0] unused).

    Every pair is evaluated, in blocks of about ``_PAIR_BLOCK`` pairs: a
    block of rows k = lo..hi-1 against every j below its last row. The
    j < lo pair with every row of the block; the triangle lo <= j < k is
    divided where j < k only. k and j are exact integers in floats, so
    k - j and k j are the values integer arithmetic gives. One masked divide
    over the whole block would be shorter, but ``where=`` over the whole
    block, not only the triangle, made this function about 20% slower at
    n = 1024.
    """
    n = len(inv) - 1
    out = np.empty(n - 1)
    step = max(1, _PAIR_BLOCK // n)
    for lo in range(2, n + 1, step):
        hi = min(lo + step, n + 1)
        k = np.arange(lo, hi, dtype=float)[:, None]
        inv_k = inv[lo:hi, None]
        j = np.arange(1.0, lo)
        best = ((inv[1:lo] - inv_k) / (coef * (k - j) / (k * j))).max(axis=1)
        j = np.arange(float(lo), hi - 1)
        tri = np.full((len(k), len(j)), -np.inf)
        np.divide(inv[lo : hi - 1] - inv_k, coef * (k - j) / (k * j), out=tri, where=j < k)
        out[lo - 2 : hi - 2] = np.maximum(best, tri.max(axis=1, initial=-np.inf))
    return out


def _exact_delta_sandwich_upper(n: int, states: list[int]) -> bool:
    return all(drift(n, k, RATIONAL) <= Fraction(k, n) for k in states)


def _exact_dstar_sandwich(n: int, upper: bool, states: list[int]) -> bool:
    grow = Fraction(n + 1, n)
    for k in states:
        ds = normalized_drift(n, k, RATIONAL)
        if upper and ds > grow**n * Fraction(k, n):
            return False
        if not upper and ds < grow ** (k - 1) * Fraction(k, n):
            return False
    return True


def _exact_eta_unit(n: int, states: list[int]) -> bool:
    nums = _exact_numerators(n, range(max(states) + 1))
    delta = _band_drift(n, RATIONAL, nums)
    return all(e >= 1 for e in _exact_etas(n, nums, delta, states))


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
    band = _BANDS[backend](n, range(n + 1))
    table = _drift_table(n, backend, band)
    half = n // 2
    # The checks read g at n/2 only, and the recurrence runs up in k, so it
    # stops there.
    g_half = _profile(n, backend, band[: half + 1], table.delta).g[half]
    q = _inverse_drift_prefix(table.delta)
    e = math.e
    one = Fraction(1) if rational else 1.0

    eta_vals = [Fraction(0) if rational else 0.0]
    eta_vals += _etas(n, backend, band, table.delta, range(1, n + 1))

    # The drift columns as arrays: float64, or objects holding the Fractions.
    delta = np.array(table.delta)
    dstar = np.array(table.delta_star)
    ks = np.arange(1, n + 2)
    inv = np.concatenate(([0.0], (1 / delta[1:]).astype(float)))

    checks: list[_Check] = []

    diffs = np.diff(delta)
    checks.append(_Check("delta-diff-lower", 1, n, "ge", 1.0 / (e * n), diffs))
    checks.append(_Check("delta-diff-upper", 1, n, "le", 2.0 / (n - 1), diffs))

    sdiffs = np.diff(dstar)
    lo_bound = Fraction(1, n) if rational else 1.0 / n
    checks.append(_Check("delta-star-diff-lower", 1, n + 1, "ge", lo_bound, sdiffs))
    checks.append(_Check("delta-star-diff-upper", 1, n + 1, "le", 2.0 * e / n, sdiffs))

    ratios = delta[1:] * n / ks[:-1]
    checks.append(_Check("delta-sandwich-lower", 1, n, "ge", 1.0 / e, ratios))
    checks.append(
        _Check(
            "delta-sandwich-upper", 1, n, "le", one, ratios,
            exact=partial(_exact_delta_sandwich_upper, n),
        )
    )

    if rational:
        grow = Fraction(n + 1, n)
        lo_env = [grow ** (k - 1) * Fraction(k, n) for k in range(1, n + 2)]
        hi_env = [grow**n * Fraction(k, n) for k in range(1, n + 2)]
    else:
        lo_env = _pow_bases(1.0 + 1.0 / n, ks - 1) * ks / n
        hi_env = pow_base(1.0 + 1.0 / n, n) * ks / n
    zero = Fraction(0) if rational else 0.0
    checks.append(
        _Check(
            "delta-star-sandwich-lower", 1, n + 1, "ge", zero, dstar[1:] - lo_env,
            exact=partial(_exact_dstar_sandwich, n, False),
        )
    )
    checks.append(
        _Check(
            "delta-star-sandwich-upper", 1, n + 1, "le", zero, dstar[1:] - hi_env,
            exact=partial(_exact_dstar_sandwich, n, True),
        )
    )

    if rational:
        # P[drop >= l] l! (n/k)^l = T l! n^l / (n^n k^l) with the integer tail
        # numerator T = n^n minus the row's numerators below l.
        scale = n**n
        tail_ratios: list = []
        for k in range(1, n + 1):
            row = band[k]
            tail = scale
            num = den = 1
            for l in range(1, k + 1):
                tail -= row[l - 1]
                num *= l * n
                den *= k
                tail_ratios.append(Fraction(tail * num, scale * den))
    else:
        tail_ratios = _float_tail_ratios(n)
    checks.append(_Check("tail-factorial", 1, n, "le", one, tail_ratios))

    # One value per k, the largest ratio over its k - 1 pairs.
    coef = 2.0 * e * e * n * n / (n - 1)
    diff_upper_ratios = _inv_drift_diff_ratios(inv, coef)
    checks.append(_Check("inv-drift-diff-upper", 2, n, "le", 1.0, diff_upper_ratios))

    lower_ks = ks[1:half]
    diff_lower_ratios = (inv[lower_ks - 1] - inv[lower_ks]) / (n / (e * lower_ks * lower_ks))
    checks.append(
        _Check(
            "inv-drift-diff-lower", 2, half, "ge", 1.0,
            diff_lower_ratios if half >= 2 else None,
        )
    )

    checks.append(
        _Check(
            "eta-unit-lower", 1, n, "ge", one, eta_vals[1:],
            exact=partial(_exact_eta_unit, n),
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
    if rational:
        # sum_{k<=h} 1 / (eta delta(k)) = q(h) / eta, exactly.
        lower_sum = q[half] / eta_star_max
        upper_sum = 1 / delta[1] + (q[half] - q[1]) / eta_star_min
    else:
        lower_sum = math.fsum((1 / (eta_star_max * delta[1 : half + 1])).tolist())
        upper_sum = 1 / delta[1] + math.fsum((1 / (eta_star_min * delta[2 : half + 1])).tolist())
    checks.append(_Check("theorem-lower", 1, half, "ge", one, [g_half / lower_sum]))
    checks.append(_Check("theorem-upper", 1, half, "le", one, [g_half / upper_sum]))

    if n >= 4:
        q_half = float(q[half])
        logn = math.log(n)
        checks.append(
            _Check("corridor-lower", half, half, "ge", q_half - CORRIDOR_C1 * logn, [float(g_half)])
        )
        checks.append(
            _Check("corridor-upper", half, half, "le", q_half - CORRIDOR_C2 * logn, [float(g_half)])
        )
    else:
        checks.append(_Check("corridor-lower", half, half, "ge", 0.0, None))
        checks.append(_Check("corridor-upper", half, half, "le", 0.0, None))

    harmonics = np.array(_harmonic_prefix(n)[1:])
    checks.append(
        _Check(
            "q-harmonic-envelope", 1, n, "le", 1.0,
            np.array(q[1:], dtype=float) / (e * n * harmonics),
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
