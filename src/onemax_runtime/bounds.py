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
comes back. A check over a range of states hands it one value per state in
both backends.

The float suite works on whole arrays, a block of states at a time, with no
per-state Python loop of its own. It reads the chain in one pass of blocks
(``hitting._chain``), which hands it each block's band rows, the correctly
rounded row sums of the drift and the improvement probability s_k, and g,
solved only up to n/2, where g is checked. From these the suite fills its
columns of every state block by block: s_k, the drift, q, a running sum
carried from block to block, and eta. The check columns are numpy arrays:

* ``tail-factorial`` bounds R_l = P[the step from k drops at least l] l! /
  x^l, x = k/n, by 1 for l = 1..k, and R_(l+1) <= R_l for every l. With
  A ~ Bin(k, 1/n) the flipped zero bits, B ~ Bin(n - k, 1/n) the flipped
  one bits and the drop D = A - B: for a >= m >= 1,
  P[A = a + 1] / P[A = a] = (k - a) / ((a + 1)(n - 1)) <= x / (m + 1), so
  P[A >= m + 1] <= x / (m + 1) P[A >= m], and m = l + b given B = b gives
  P[D >= l + 1] <= x / (l + 1) P[D >= l]. So the largest ratio of state k
  is R_1 = n s_k / k, and the check reads the improvement probability s_k,
  one value per state;
* ``inv-drift-diff-upper`` bounds (inv(j) - inv(k)) / (coef (1/j - 1/k))
  by 1 for every pair j < k, with inv = 1/Delta. Both differences telescope
  over the adjacent pairs (i, i + 1), i = j..k-1, and every weight
  1/i - 1/(i + 1) is positive, so each pair's ratio is a weighted mean of
  its adjacent ratios: the largest ratio over all pairs is the largest of
  the n - 1 adjacent ones, for any sequence inv. The check reads those, one
  per k = 2..n, from the differences inv(k - 1) - inv(k) that
  ``inv-drift-diff-lower`` reads too;
* eta(k) is one 2-D product of band rows and drops per block of states,
  summed along the rows, in the pass.

Both backends run one body. The backend is read only where the chain, the
normalized drift and eta are computed (``_chain``, ``_NORMALIZED``,
``_etas``) and where the columns take their scalar type; the scalar zero
and one come from the drift column. The rest is the same code for floats
and Fractions:

* the (1 + 1/n)^(k-1) envelopes come from one ``_pow_bases`` call, exact
  powers for a Fraction base; its last entry, (1 + 1/n)^n, is the upper
  envelope's factor;
* the theorem sums use the identity sum_{k<=h} 1/(eta delta(k)) = q(h)/eta.

A float eta(k) is numpy's row sum, within 1e-15 relative of ``math.fsum``
of its terms. The float ``tail-factorial`` values carry the rounding of
s_k, whose band entries carry about n 2^-53 from the base 1 - 1/n: they
are within 1e-14 relative of the exact ones at n <= 64 (4.0e-15 measured).

So the float suite holds O(n) values and a few block-sized arrays: the
band, 168 bytes a state, is never held whole, and each check's arrays are
dropped after its verdict. Its peak stays under ``_SUITE_BYTES_PER_STATE``
bytes a state, and ``verify_inequalities`` refuses an n whose suite would
exceed ``MEMORY_LIMIT`` before it builds anything.
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
    check_memory,
    check_n,
    check_rational_cap,
)
from .drift import (
    _BLOCK,
    _NORMALIZED,
    DriftTable,
    TransitionKernel,
    _check_state,
    _pow_bases,
)
from .hitting import (
    CORRIDOR_C1,
    CORRIDOR_C2,
    _chain,
    _check_same_chain,
    _inverse_drift_prefix,
)

__all__ = [
    "CheckRecord",
    "BoundReport",
    "eta",
    "eta_star",
    "verify_inequalities",
]

# Memory the float suite may hold per state, checked against MEMORY_LIMIT:
# its peak RSS above the interpreter's is 89-114 bytes a state from n = 10^5
# to 10^6 (2-core x86_64 host), 197-204 when the band was held whole; the
# value is kept from then, so the same n are admitted and refused.
_SUITE_BYTES_PER_STATE = 250


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


def _exact_etas(nums: list[list[int]], states) -> list[Fraction]:
    """eta(k) for each k of the ascending ``states`` from the integer
    numerators P[k][d] of p(k, k - d) over N = n^n.

    Swapping the sums gives eta(k) = sum_{i=1..k} T_k(k-i+1) / (N delta(i))
    with the tail numerator T_k(m) = sum_{d>=m} P[k][d]. N delta(i) is the
    band's drift numerator D_i = sum_d d P[i][d], so N cancels. With
    L_i = D_1 ... D_i, the sum times L_k is the integer E_k, which runs by
    Horner over i: E <- E D_i + T_k(k-i+1) L_(i-1). Each eta(k) is one
    Fraction.
    """
    drifts, prods = [0], [1]
    for row in nums[1 : states[-1] + 1]:
        drifts.append(sum(d * x for d, x in enumerate(row)))
        prods.append(prods[-1] * drifts[-1])
    out = []
    for k in states:
        row = nums[k]
        tail = acc = 0
        for i in range(1, k + 1):
            tail += row[k - i + 1]
            acc = acc * drifts[i] + tail * prods[i - 1]
        out.append(Fraction(acc, prods[k]))
    return out


def _etas(backend: str, band, q, states) -> np.ndarray:
    """eta(k) for each k of the range ``states`` as an array, from ``band``,
    rows of the chain that end with that of states[-1] (a block, or a
    kernel's first rows), and the sums ``q`` of its drift column, by state.
    An exact eta(k) reads the drift numerators of every state before it, so
    its rows start at state 0, and does not read q. A float eta(k) is
    sum_d p(k, k - d) (q(k) - q(k - d)) over the row of k, summed for a
    block of states as one 2-D product of band rows and drops with a row
    sum. Band entries past d = k are exact zeros, so the drops there, read
    at the clamped index 0, add nothing, and eta(0) is the empty sum 0."""
    if backend == RATIONAL:
        return np.array(_exact_etas(band, states), dtype=object)
    rows = band[len(band) - len(states) :, 1:]
    d = np.arange(1, band.shape[1])
    out = np.empty(len(states))
    for lo in range(0, len(states), _BLOCK):
        ks = np.asarray(states[lo : lo + _BLOCK])[:, None]
        drops = q[ks] - q[np.maximum(ks - d, 0)]
        out[lo : lo + len(ks)] = (rows[lo : lo + len(ks)] * drops).sum(axis=1)
    return out


def _extremum(values: np.ndarray, mode: str) -> Scalar:
    """The largest ("max") or smallest ("min") entry of a float64 array or
    an object array of Fractions, as a Python float or a Fraction."""
    return values.item(values.argmax() if mode == "max" else values.argmin())


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
    q = _inverse_drift_prefix(drift_table.delta[: k_hi + 1]) if kernel.backend == FLOAT else None
    return _extremum(_etas(kernel.backend, kernel._chain[: k_hi + 1], q, states), mode)


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
    identity: they pass without arithmetic. The theorem checks hand over one
    value for the whole range 1..n/2. Every value that is not at an identity
    state passes only when it is on the bound's side, with no tolerance.
    ``observed`` is the extremum over every value, the identity states
    included, so it shows the rounding there.
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
    ``MEMORY_LIMIT`` (from n = 8589935).

    ``inv-drift-diff-upper`` holds for every pair j < k exactly when it holds
    for the n - 1 adjacent pairs (k - 1, k): a pair's ratio is a mean of its
    adjacent ratios with the positive weights 1/i - 1/(i + 1), i = j..k-1.
    ``tail-factorial`` holds for every drop l <= k exactly when it holds at
    l = 1, that is, s_k <= k/n: the ratio P[drop >= l] l! (n/k)^l does not
    grow with l.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    check_memory(n * _SUITE_BYTES_PER_STATE, f"the inequality suite at n = {n}")
    half = n // 2
    # Columns of every state, filled block by block: float64, or Fractions.
    scalar = object if backend == RATIONAL else float
    delta, improve, q, eta_vals = (np.empty(n + 1, dtype=scalar) for _ in range(4))
    # The checks read g at n/2 only, so the pass solves g up to there.
    for states, band, s_k, drifts, g in _chain(n, backend, n, half):
        lo, hi = states.start, states.stop
        delta[lo:hi], improve[lo:hi] = drifts, s_k
        q[lo:hi] = _inverse_drift_prefix(drifts, q[lo - 1] if lo else None)
        eta_vals[lo:hi] = _etas(backend, band, q, states)
        if half in states:
            g_half = g.item(half - lo)
    e = math.e
    zero = delta.item(0)
    one = zero + 1
    ks = np.arange(1, n + 2)

    records: list[CheckRecord] = []

    def record(*check) -> None:
        records.append(_decide(*check))

    diffs = np.diff(delta)
    record("delta-diff-lower", 1, n, "ge", 1.0 / (e * n), diffs)
    record("delta-diff-upper", 1, n, "le", 2.0 / (n - 1), diffs)
    del diffs

    dstar = _NORMALIZED[backend](n, range(n + 2))
    sdiffs = np.diff(dstar)
    # delta*(1) - delta*(0) = 1/n.
    record("delta-star-diff-lower", 1, n + 1, "ge", one / n, sdiffs, [1])
    record("delta-star-diff-upper", 1, n + 1, "le", 2.0 * e / n, sdiffs)
    del sdiffs

    ratios = delta[1:] * n / ks[:-1]
    record("delta-sandwich-lower", 1, n, "ge", 1.0 / e, ratios)
    # Delta(n) = E[Bin(n, 1/n)] = 1.
    record("delta-sandwich-upper", 1, n, "le", one, ratios, [n])
    del ratios

    # (1 + 1/n)^(k-1) for k = 1..n+1; the last one is (1 + 1/n)^n.
    grows = _pow_bases(one + one / n, ks - 1)
    lo_env = grows * ks / n
    hi_env = grows[-1] * ks / n
    # delta*(1) = 1/n, and delta*(n+1) = sum_l C(n+1, l) l n^-l = ((n+1)/n)^(n+1).
    record("delta-star-sandwich-lower", 1, n + 1, "ge", zero, dstar[1:] - lo_env, [1, n + 1])
    # delta*(n+1) = ((n+1)/n)^(n+1), as above.
    record("delta-star-sandwich-upper", 1, n + 1, "le", zero, dstar[1:] - hi_env, [n + 1])
    del dstar, grows, lo_env, hi_env

    # One value per k, its largest ratio over l, which is the one at l = 1.
    record("tail-factorial", 1, n, "le", one, improve[1:] * n / ks[:-1])
    del improve

    # inv(k - 1) - inv(k) for k = 2..n. The adjacent ratios bound every pair's.
    inv = np.concatenate(([0.0], (1 / delta[1:]).astype(float)))
    inv_ks = ks[1:n]
    inv_drops = inv[1:n] - inv[2:]
    del inv
    coef = 2.0 * e * e * n * n / (n - 1)
    record("inv-drift-diff-upper", 2, n, "le", 1.0, inv_drops / (coef / (inv_ks * (inv_ks - 1))))

    lower_ks = inv_ks[: half - 1]
    diff_lower_ratios = inv_drops[: half - 1] / (n / (e * lower_ks * lower_ks))
    record("inv-drift-diff-lower", 2, half, "ge", 1.0, diff_lower_ratios if half >= 2 else None)
    del inv_drops, diff_lower_ratios

    # eta(1) = p(1, 0) q(1) = s_1 / Delta(1) = 1: the one move from state 1 is to 0.
    record("eta-unit-lower", 1, n, "ge", one, eta_vals[1:], [1])
    eta_hi = 1.0 + 2.0 * math.exp(2.5) / (n - 1)
    record("eta-upper", 1, half, "le", eta_hi, eta_vals[1 : half + 1])
    eta_lo = 1.0 + math.exp(-2.0) / (4.0 * n)
    record("eta-lower", 2, half, "ge", eta_lo, eta_vals[2 : half + 1] if half >= 2 else None)

    eta_star_max = _extremum(eta_vals[1 : half + 1], "max")
    eta_star_min = _extremum(eta_vals[2 : n + 1], "min")
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

    # H_1..H_n, summed in order as q is.
    envelope = np.array(q[1:], dtype=float) / (e * n * np.cumsum(1.0 / ks[:-1]))
    record("q-harmonic-envelope", 1, n, "le", 1.0, envelope)

    return BoundReport(
        n=n,
        backend=backend,
        eta=tuple(eta_vals.tolist()),
        eta_star_max=eta_star_max,
        eta_star_max_range=(1, half),
        eta_star_min=eta_star_min,
        eta_star_min_range=(2, n),
        checks=tuple(records),
    )
