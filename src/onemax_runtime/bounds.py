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

Every verdict is reached the same way: a value passes when it is on the
bound's side in the arithmetic it was computed in (exact for the rational
backend's drift, eta, tail and theorem values), with no tolerance. Four
bounds hold with equality at an endpoint, by an identity:
Delta(n) = E[Bin(n, 1/n)] = 1, delta*(1) = 1/n,
delta*(n + 1) = ((n + 1)/n)^(n + 1) and eta(1) = s_1 / Delta(1) = 1. The
call that states such a check lists those states, and they pass as proved,
whatever their float value rounds to (its error grows like n 2^-52 at
delta*(n + 1)). Genuine violations report as failures, not raises.
``_decide`` is the one place a verdict is reached: ``verify_inequalities``
states each check as one call with its id, range, direction, bound, values
and identity states, if it has any, and keeps the ``CheckRecord`` that
comes back.

The float suite works on whole arrays, a block of states at a time, with no
per-state Python loop of its own. What it reads from ``drift`` and
``hitting`` is computed there: the correctly rounded row sums of the drift
and the improvement probability, the hitting recurrence (run only up to
n/2, where g is checked), and the running sums q and H. The check columns
are numpy arrays:

* the ``tail-factorial`` ratios are built in scaled form, ``_BLOCK`` states
  at a time, by a backward recurrence in l over scaled pmf terms that stay
  normal numbers (``_float_tail_ratios``): no tail is formed as a float, so
  none underflows, and no band of the underflow width is built; each block
  is reduced to one value per state, its largest ratio, and dropped;
* ``inv-drift-diff-upper`` bounds (inv(j) - inv(k)) / (coef (1/j - 1/k))
  by 1 for every pair j < k, with inv = 1/Delta. Both differences telescope
  over the adjacent pairs (i, i + 1), i = j..k-1, and every weight
  1/i - 1/(i + 1) is positive, so each pair's ratio is a weighted mean of
  its adjacent ratios: the largest ratio over all pairs is the largest of
  the n - 1 adjacent ones, for any sequence inv. The check reads those, one
  per k = 2..n, from the differences inv(k - 1) - inv(k) that
  ``inv-drift-diff-lower`` reads too;
* eta(k) is one 2-D product of band rows and drops per block of states,
  summed along the rows.

Both backends run one body. The backend is read only where the band, the
drift columns, g, eta and the tail ratios are built (``_BANDS``,
``_band_drift``, ``_normalized_drift_column``, ``_profile``, ``_etas``,
``_tail_ratios``); the scalar zero and one come from the drift column. The
rest is the same code for floats and Fractions:

* the (1 + 1/n)^(k-1) envelopes come from one ``_pow_bases`` call, exact
  powers for a Fraction base; its last entry, (1 + 1/n)^n, is the upper
  envelope's factor;
* the theorem sums use the identity sum_{k<=h} 1/(eta delta(k)) = q(h)/eta.

A float eta(k) is numpy's row sum, within 1e-15 relative of ``math.fsum``
of its terms, and the float tail ratios are within 1e-14 relative of the
exact ones at n <= 64.

So the float suite holds O(n) values and a few block-sized arrays, under
``_SUITE_BYTES_PER_STATE`` bytes a state, and ``verify_inequalities``
refuses an n whose suite would exceed ``MEMORY_LIMIT`` before it builds
anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .backends import (
    DEFAULT_RATIONAL_CAP,
    FLOAT,
    DomainError,
    RATIONAL,
    Scalar,
    check_backend,
    check_memory,
    check_n,
    check_rational_cap,
)
from .drift import (
    _BANDS,
    _BLOCK,
    DriftTable,
    TransitionKernel,
    _PAIR_TERMS,
    _binom_pmfs,
    _band_drift,
    _check_state,
    _normalized_drift_column,
    _pow_bases,
    _underflow_width,
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

# Memory the float suite may hold per state, checked against MEMORY_LIMIT:
# its peak RSS above the interpreter's is 830-880 bytes a state from n = 10^5
# to 10^6 (2-core x86_64 host).
_SUITE_BYTES_PER_STATE = 1000


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
    """eta(k) for each k of the ascending ``states`` from the integer
    numerators P[k][d] of p(k, k - d) over N = n^n and the exact drift
    column ``delta``.

    Swapping the sums gives eta(k) = sum_{i=1..k} T_k(k-i+1) / (N delta(i))
    with the tail numerator T_k(m) = sum_{d>=m} P[k][d]. With
    delta(i) = a_i / b_i and L_i = a_1 ... a_i, the sum times N L_k is the
    integer E_k, which runs by Horner over i: E <- E a_i + T_k(k-i+1) b_i
    L_{i-1}. Each eta(k) is one Fraction.
    """
    scale = n**n
    prods = [1]
    for d in delta[1 : states[-1] + 1]:
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


def _etas(n: int, backend: str, band, delta, q, states) -> np.ndarray:
    """eta(k) for each k of the ascending ``states`` as an array, from a
    ``_BANDS`` band, the drift column ``delta`` and its sums ``q``: an exact
    eta(k) reads ``delta``, and a float eta(k) is
    sum_d p(k, k - d) (q(k) - q(k - d)) over row k of the band, summed for
    a block of states as one 2-D product of band rows and drops with a row
    sum. Band entries past d = k are exact zeros, so the drops there, read
    at the clamped index 0, add nothing."""
    if backend == RATIONAL:
        return np.array(_exact_etas(n, band, delta, states), dtype=object)
    d = np.arange(1, band.shape[1])
    out = []
    for lo in range(0, len(states), _BLOCK):
        ks = np.asarray(states[lo : lo + _BLOCK])[:, None]
        drops = q[ks] - q[np.maximum(ks - d, 0)]
        out.append((band[ks[:, 0], 1:] * drops).sum(axis=1))
    return np.concatenate(out)


def _tail_ratios(n: int, backend: str, band) -> list | np.ndarray:
    """The ``tail-factorial`` values, from the ratios
    P[the step from k drops at least l] l! (n/k)^l.

    Exact: every ratio, for every state k >= 1 and every l <= k, by state
    and then by l; a ratio is T l! n^l / (n^n k^l) with the integer tail
    numerator T, n^n minus the band row's numerators below l. Float: one
    value per state k >= 1, the largest ratio over l <= min(k, W) of
    ``_float_tail_ratios``, so only one block of ratios is held at a time.
    """
    if backend != RATIONAL:
        largest = []
        for ks, ratios in _float_tail_ratios(n):
            l = np.arange(1, len(ratios) + 1)[:, None]
            largest.append(np.max(ratios, axis=0, where=l <= ks, initial=-np.inf))
        return np.concatenate(largest)
    scale = n**n
    out = []
    for k in range(1, n + 1):
        row = band[k]
        tail = scale
        num = den = 1
        for l in range(1, k + 1):
            tail -= row[l - 1]
            num *= l * n
            den *= k
            out.append(Fraction(tail * num, scale * den))
    return out


def eta(kernel: TransitionKernel, drift_table: DriftTable, k: int) -> Scalar:
    """Expected one-step drop of the inverse-drift sum from state k.

    A float eta(k) is numpy's row sum of the band row times the drops, not a
    compensated sum, so it can differ from ``math.fsum`` of the same terms in
    the last bits (within 1e-15 relative). It is ``eta_star`` over k alone.
    """
    return eta_star(kernel, drift_table, k, k)


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
    delta = drift_table.delta[: k_hi + 1]
    q = _inverse_drift_prefix(delta)
    values = _etas(kernel.n, kernel.backend, kernel._chain, delta, q, states).tolist()
    return max(values) if mode == "max" else min(values)


def _decide(
    check_id: str,
    k_lo: int,
    k_hi: int,
    direction: str,
    bound,
    values,
    equal_at=(),
) -> CheckRecord:
    """The record of one check, the one place a verdict is reached.

    ``values`` holds the check's values in backend arithmetic; ``None`` or
    an empty list marks the check not applicable. Most checks hand over one
    value per state, values[i] belonging to state k_lo + i, and only those
    pass ``equal_at``, the states where the check holds with equality by an
    identity: they pass without arithmetic. The others hand over values of
    another shape: the rational ``tail-factorial`` every (k, l) ratio, the
    theorem checks one value for the whole range 1..n/2. Every value that is
    not at an identity state passes only when it is on the bound's side,
    with no tolerance. ``observed`` is the extremum over every value, the
    identity states included, so it shows the rounding there.
    """
    observed = passed = None
    if values is not None and len(values) > 0:
        extremum = np.max if direction == "le" else np.min
        holds = (lambda v: v <= bound) if direction == "le" else (lambda v: v >= bound)
        worst = extremum(values)
        observed = float(worst)
        if equal_at and not holds(worst):
            # The extremum may sit at an identity state: decide on the others.
            rest = np.delete(values, [k - k_lo for k in equal_at])
            worst = extremum(rest) if len(rest) > 0 else bound
        passed = bool(holds(worst))
    return CheckRecord(
        check_id=check_id,
        k_lo=k_lo,
        k_hi=k_hi,
        direction=direction,
        bound=float(bound),
        observed=observed,
        passed=passed,
        applicable=observed is not None,
    )


def _float_tail_ratios(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """P[the step from k drops at least l] / ((k/n)^l / l!) for every state
    k >= 1 and every l <= min(k, W), where W is the underflow width of
    state n: past it every tail is 0.0 in double precision.

    Yields one pair (ks, ratios) per block of states, in ascending k:
    ratios[l - 1, i] is R_l of state ks[i] for l = 1..W, and its entries
    with l > k are not ratios (they are zeros). Read by state and then by
    l, the entries with l <= k are the ratios in (k, l) order.

    No tail is formed as a float, so none underflows. With A ~ Bin(k, 1/n)
    the flipped zero-bits, B ~ Bin(n - k, 1/n) the flipped one-bits and
    x = k/n, the ratio R_l = P[A - B >= l] l! / x^l runs backward in l:

        R_l = E_l + x / (l + 1) R_(l+1),
        E_l = P[A - B = l] l! / x^l
            = sum_(m < 10) Ah_(l+m) x^m l! / (l+m)! P[B = m],

    where Ah_a = P[A = a] a! / x^a = (k)_a / k^a (1 - 1/n)^(k-a) is a
    cumulative product of (k - a + 1) n / (k (n - 1)) from the base
    (1 - 1/n)^k of ``_pow_bases``. E_l is the band entry p(k, k - l) scaled
    by l! / x^l, with the band's ``_PAIR_TERMS`` pair terms; those it omits
    are below 2^-66 of it. The factor l! / (l+m)! is G(l) / (G(l+m) c^m)
    with G(a) = a! / c^a and c = (L + 9) / e, so G stays between about e^-c
    and 40 for every index used, and Ah_a / G(a) and x^m / c^m are normal
    numbers. The recurrence starts from R_(L+1) = 0 with L = W + 16 for
    every block: R_(L+1) reaches R_l, l <= W, only through 16 or more
    factors below 1 / W, or is exactly 0 when L > k.

    The ratios are built ``_BLOCK`` states at a time, with l along the
    first axis; each state's column is its own sequence of operations, so
    the ratios do not depend on ``_BLOCK``. Every block is built in the same
    arrays, so a block's ratios are valid until the next block is asked for.
    """
    width = _underflow_width(n, n)
    cols = width + 16
    a = np.arange(cols + _PAIR_TERMS, dtype=float)
    c = a[-1] / math.e
    scaled_fact = np.ones(len(a))
    scaled_fact[1:] = np.cumprod(a[1:] / c)
    m = np.arange(_PAIR_TERMS, dtype=float)[:, None]
    # One set of block arrays serves every block; the last may be shorter.
    size = min(_BLOCK, n)
    hat_buf = np.empty((len(a), size))
    ratios_buf = np.empty((cols, size))
    term_buf = np.empty((cols, size))
    for lo in range(1, n + 1, _BLOCK):
        ks = np.arange(lo, min(lo + _BLOCK, n + 1))
        k = ks.astype(float)
        x = k / n
        # hat[a] = Ah_a / G(a), one row per a and one column per state.
        hat = hat_buf[:, : len(ks)]
        hat[0] = _pow_bases(1.0 - 1.0 / n, ks)
        factors = hat[1:]
        np.add.outer(1.0 - a[1:], k, out=factors)
        np.maximum(factors, 0.0, out=factors)
        factors *= n
        factors /= k * (n - 1.0)
        np.multiply.accumulate(hat, axis=0, out=hat)
        hat /= scaled_fact[:, None]
        weights = _binom_pmfs(n - ks, n, _PAIR_TERMS).T * (x / c) ** m
        ratios = np.multiply(hat[1 : cols + 1], weights[0], out=ratios_buf[:, : len(ks)])
        term = term_buf[:, : len(ks)]
        for j in range(1, _PAIR_TERMS):
            np.multiply(hat[1 + j : cols + 1 + j], weights[j], out=term)
            ratios += term
        ratios *= scaled_fact[1 : cols + 1, None]
        # R_l = E_l + x / (l + 1) R_(l+1), with l = a[i + 1] on row i.
        for i in range(cols - 2, -1, -1):
            np.divide(x, a[i + 1] + 1.0, out=term[i])
            term[i] *= ratios[i + 1]
            ratios[i] += term[i]
        yield ks, ratios[:width]


def verify_inequalities(
    n: int,
    backend: str = FLOAT,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> BoundReport:
    """Check the full inequality suite at one problem size.

    Returns a report whose records are data: a failed check is a result, not
    an exception. Checks needing n >= 4 (the eta lower bound, the refined
    inverse-drift difference and the corridor itself) are marked not
    applicable below that. ``rational_cap`` only gates the rational backend;
    no float verdict reads it. Raises :class:`CapacityError` before anything
    is built when ``_SUITE_BYTES_PER_STATE`` bytes a state exceed
    ``MEMORY_LIMIT`` (from n = 2147484).

    ``inv-drift-diff-upper`` holds for every pair j < k exactly when it holds
    for the n - 1 adjacent pairs (k - 1, k): a pair's ratio is a mean of its
    adjacent ratios with the positive weights 1/i - 1/(i + 1), i = j..k-1.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    check_memory(n * _SUITE_BYTES_PER_STATE, f"the inequality suite at n = {n}")
    band = _BANDS[backend](n, range(n + 1))
    # The drift columns as arrays: float64, or objects holding the Fractions.
    delta = _band_drift(n, backend, band)
    dstar = np.concatenate((delta[:1], _normalized_drift_column(n, backend)))
    q = _inverse_drift_prefix(delta)
    half = n // 2
    # The checks read g at n/2 only, and the recurrence runs up in k, so it
    # stops there.
    g_half = _profile(n, backend, band[: half + 1], q).g[half]
    e = math.e
    zero = delta.item(0)
    one = zero + 1

    eta_vals = np.concatenate(([zero], _etas(n, backend, band, delta, q, range(1, n + 1))))
    eta_tuple = tuple(eta_vals.tolist())
    ks = np.arange(1, n + 2)
    inv = np.concatenate(([0.0], (1 / delta[1:]).astype(float)))

    records: list[CheckRecord] = []

    def record(*check) -> None:
        records.append(_decide(*check))

    diffs = np.diff(delta)
    record("delta-diff-lower", 1, n, "ge", 1.0 / (e * n), diffs)
    record("delta-diff-upper", 1, n, "le", 2.0 / (n - 1), diffs)

    sdiffs = np.diff(dstar)
    # delta*(1) - delta*(0) = 1/n.
    record("delta-star-diff-lower", 1, n + 1, "ge", one / n, sdiffs, [1])
    record("delta-star-diff-upper", 1, n + 1, "le", 2.0 * e / n, sdiffs)

    ratios = delta[1:] * n / ks[:-1]
    record("delta-sandwich-lower", 1, n, "ge", 1.0 / e, ratios)
    # Delta(n) = E[Bin(n, 1/n)] = 1.
    record("delta-sandwich-upper", 1, n, "le", one, ratios, [n])

    # (1 + 1/n)^(k-1) for k = 1..n+1; the last one is (1 + 1/n)^n.
    grows = _pow_bases(one + one / n, ks - 1)
    lo_env = grows * ks / n
    hi_env = grows[-1] * ks / n
    # delta*(1) = 1/n, and delta*(n+1) = sum_l C(n+1, l) l n^-l = ((n+1)/n)^(n+1).
    record("delta-star-sandwich-lower", 1, n + 1, "ge", zero, dstar[1:] - lo_env, [1, n + 1])
    # delta*(n+1) = ((n+1)/n)^(n+1), as above.
    record("delta-star-sandwich-upper", 1, n + 1, "le", zero, dstar[1:] - hi_env, [n + 1])

    # Float: one value per k, the largest ratio over l; exact: every ratio.
    record("tail-factorial", 1, n, "le", one, _tail_ratios(n, backend, band))

    # inv(k - 1) - inv(k) for k = 2..n. The adjacent ratios bound every pair's.
    inv_ks = ks[1:n]
    inv_drops = inv[1:n] - inv[2:]
    coef = 2.0 * e * e * n * n / (n - 1)
    record("inv-drift-diff-upper", 2, n, "le", 1.0, inv_drops / (coef / (inv_ks * (inv_ks - 1))))

    lower_ks = inv_ks[: half - 1]
    diff_lower_ratios = inv_drops[: half - 1] / (n / (e * lower_ks * lower_ks))
    record("inv-drift-diff-lower", 2, half, "ge", 1.0, diff_lower_ratios if half >= 2 else None)

    # eta(1) = p(1, 0) q(1) = s_1 / Delta(1) = 1: the one move from state 1 is to 0.
    record("eta-unit-lower", 1, n, "ge", one, eta_vals[1:], [1])
    eta_hi = 1.0 + 2.0 * math.exp(2.5) / (n - 1)
    record("eta-upper", 1, half, "le", eta_hi, eta_vals[1 : half + 1])
    eta_lo = 1.0 + math.exp(-2.0) / (4.0 * n)
    record("eta-lower", 2, half, "ge", eta_lo, eta_vals[2 : half + 1] if half >= 2 else None)

    eta_star_max = max(eta_tuple[1 : half + 1])
    eta_star_min = min(eta_tuple[2 : n + 1])
    # sum_{k<=h} 1 / (eta delta(k)) = q(h) / eta.
    lower_sum = q[half] / eta_star_max
    upper_sum = 1 / delta[1] + (q[half] - q[1]) / eta_star_min
    record("theorem-lower", 1, half, "ge", one, [g_half / lower_sum])
    record("theorem-upper", 1, half, "le", one, [g_half / upper_sum])

    if n >= 4:
        q_half = float(q[half])
        logn = math.log(n)
        g_obs = [float(g_half)]
        c1_bound, c2_bound = q_half - CORRIDOR_C1 * logn, q_half - CORRIDOR_C2 * logn
    else:
        g_obs = None
        c1_bound = c2_bound = 0.0
    record("corridor-lower", half, half, "ge", c1_bound, g_obs)
    record("corridor-upper", half, half, "le", c2_bound, g_obs)

    harmonics = np.array(_harmonic_prefix(n)[1:])
    envelope = np.array(q[1:], dtype=float) / (e * n * harmonics)
    record("q-harmonic-envelope", 1, n, "le", 1.0, envelope)

    return BoundReport(
        n=n,
        backend=backend,
        eta=eta_tuple,
        eta_star_max=eta_star_max,
        eta_star_max_range=(1, half),
        eta_star_min=eta_star_min,
        eta_star_min_range=(2, n),
        checks=tuple(records),
    )
