"""Exact drift and transition structure of the (1+1) EA on OneMax.

The chain state is k, the number of zero bits in the current search point on
n bits. One step flips every bit independently with probability 1/n and keeps
the offspring iff its one-count did not drop, so the accepted state never
increases. With a ~ Bin(k, 1/n) zero-bits flipped and b ~ Bin(n-k, 1/n)
one-bits flipped, the step is accepted iff b <= a and then moves to k - a + b.

Everything here is an explicit finite sum over mutation outcomes:

* ``drift``: the exact one-step progress E[(a - b)^+],
* ``normalized_drift``: the same quantity with the mutation null factor
  (1 - 1/n)^n divided out and re-indexed, which is the form the asymptotic
  expansion targets; ``drift(n, k) == normalized_drift(n-1, k) * (1-1/n)**n``,
* ``normalized_drift_gf``: an independent generating-function route to the
  normalized drift, used to cross-check the double sum,
* ``transition_prob`` / ``build_kernel``: the accepted-step law p(k, j),
* ``build_drift_table``: dense drift tables consumed by the hitting-time
  recurrence and the bound checks.

All operations take a ``backend`` flag: ``"float"`` for IEEE doubles with
numpy vectorization, ``"rational"`` for exact ``fractions.Fraction``
arithmetic. Builders cap the rational backend (default n <= 64) because exact
entries carry denominators of order n^n.

Both backends store the kernel as a band, band[i, d] = p(k, k - d) for
k = states[i] and d = 0..D, where column 0 is the stay probability, and every
quantity of the chain reads it: the improvement probability s_k is the row
sum over d >= 1, the drift is the row's first moment, and the hitting times,
eta and the transition tails read the same rows. The two bands differ only in
their scalars, and one summation helper (``_sum``: ``math.fsum`` for floats,
an exact sum for Fractions) is the single place that tells them apart.

The exact band is a Fraction array of full width D = max(states). Each entry
comes from the integer numerator

    p(k, k-d) n^n = sum_l C(k, d+l) C(n-k, l) (n-1)^(n-d-2l),

and column 0 is the integer complement n^n minus the row's other numerators.

The float band is cut. Its entries decay like p(k, k-d) <= (k/n)^d / d!,
so the width D is the smallest one for which that bound puts every entry
with d > D below 2^-1078; the dropped entries are exactly the ones that are
0.0 in double precision anyway: at most about 180 columns for any n, about
160 for starts k <= n/2, so memory is O(n D) instead of O(n^2). Each row is
the same correlation of the two flip-count pmfs that a full row would use,
cut to the first D + 41 terms of Bin(k, 1/n) and the first 41 of
Bin(n-k, 1/n). Every omitted term carries a factor below 1/41! of a kept
one, far under one ulp, so the band entries equal full-row entries bit for
bit (checked at n up to 2048).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .backends import (
    DEFAULT_RATIONAL_CAP,
    FLOAT,
    RATIONAL,
    DomainError,
    Scalar,
    check_backend,
    check_memory,
    check_n,
    check_rational_cap,
    pow_base,
)

__all__ = [
    "DriftTable",
    "TransitionKernel",
    "drift",
    "normalized_drift",
    "normalized_drift_gf",
    "transition_prob",
    "transition_tail",
    "build_drift_table",
    "build_kernel",
]


def _check_state(n: int, k: int, hi: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"state must be an integer, got {k!r}")
    if k < 0 or k > hi:
        raise DomainError(f"state k = {k} outside [0, {hi}] for n = {n}")
    return k


def _binom_pmf_float(m: int, n: int, terms: int | None = None) -> np.ndarray:
    """Pmf of Bin(m, 1/n) as a float vector: all m + 1 terms, or the first
    ``terms`` of them.

    Built by the ratio recurrence pmf[i] = pmf[i-1] * (m-i+1) / (i (n-1)),
    which is stable because every factor is positive and the mass decays. A
    truncated pmf is a prefix of the full one, bit for bit.
    """
    size = m + 1 if terms is None else min(m + 1, terms)
    out = np.empty(size)
    out[0] = pow_base(1.0 - 1.0 / n, m)
    if size > 1:
        i = np.arange(1.0, size)
        out[1:] = out[0] * np.cumprod((m - i + 1.0) / (i * (n - 1.0)))
    return out


def _binom_pmf_rational(m: int, n: int) -> list[Fraction]:
    """Pmf of Bin(m, 1/n) as exact Fractions."""
    p = Fraction(1, n)
    q = 1 - p
    base = q**m
    out = [base]
    for i in range(1, m + 1):
        base = base * (m - i + 1) / i * p / q
        out.append(base)
    return out


def drift(n: int, k: int, backend: str = FLOAT) -> Scalar:
    """Exact one-step drift E[k - next | state k] of the (1+1) EA on OneMax.

    Equals sum over flip counts (l zero-bits, j one-bits, j < l) of
    (l - j) C(k, l) C(n-k, j) (1/n)^(l+j) (1 - 1/n)^(n-l-j). Zero at k = 0.
    """
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n)
    if k == 0:
        return Fraction(0) if backend == RATIONAL else 0.0
    if backend == RATIONAL:
        pa = _binom_pmf_rational(k, n)
        pb = _binom_pmf_rational(n - k, n)
        total = Fraction(0)
        for l in range(1, k + 1):
            jhi = min(l - 1, n - k)
            total += pa[l] * sum((l - j) * pb[j] for j in range(jhi + 1))
        return total
    pa = _binom_pmf_float(k, n)
    pb = _binom_pmf_float(n - k, n)
    cs0 = np.cumsum(pb)
    cs1 = np.cumsum(pb * np.arange(len(pb)))
    l = np.arange(1, k + 1)
    idx = np.minimum(l - 1, n - k)
    return float(np.dot(pa[1:], l * cs0[idx] - cs1[idx]))


def normalized_drift(n: int, k: int, backend: str = FLOAT) -> Scalar:
    """Normalized drift: the mutation null factor divided out, index shifted.

    Defined for 0 <= k <= n + 1 as

        sum_{l=1..k} C(k, l) sum_{j=0..l-1} (l - j) C(n+1-k, j) n^-(j+l),

    with value 0 at k = 0, and related to the plain drift by
    ``drift(n, k) == normalized_drift(n - 1, k) * (1 - 1/n)**n``.
    """
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n + 1)
    if k == 0:
        return Fraction(0) if backend == RATIONAL else 0.0
    m = n + 1 - k
    if backend == RATIONAL:
        inv = Fraction(1, n)
        total = Fraction(0)
        u = Fraction(1)
        for l in range(1, k + 1):
            u = u * (k - l + 1) / l * inv
            jhi = min(l - 1, m)
            v = Fraction(1)
            inner = Fraction(l)
            for j in range(1, jhi + 1):
                v = v * (m - j + 1) / j * inv
                inner += (l - j) * v
            total += u * inner
        return total
    return _normalized_drift_float(n, [k])[0]


# States per block of the vectorized normalized drift: bounds its scratch
# arrays at a few MB for any n.
_DRIFT_BLOCK = 512


def _normalized_drift_float(n: int, states: Sequence[int]) -> list[float]:
    """Float normalized drift of each state in ``states`` (all in 1..n + 1).

    With u_l = C(k, l) n^-l and v_j = C(m, j) n^-j, m = n + 1 - k, the value
    is sum_l u_l (l cv0[l-1] - cv1[l-1]) over the prefix sums cv0, cv1 of v_j
    and j v_j, j <= m. Both sequences decay like x^l / l! with
    x <= (n + 1)/(n - 1), so past the band width for state n + 1 their
    cumulative products are exact zeros: they are cut there, which leaves
    every value bit for bit as the full O(n) sums give it. Blocks of states
    run as 2-D cumulative products, which are sequential along each row; the
    final sum stays one dot product per state, cut to the state's own length,
    so its summation order is that of the single-state sum.
    """
    width = _band_width(n, n + 1)
    i = np.arange(1.0, width + 1)
    out = []
    for lo in range(0, len(states), _DRIFT_BLOCK):
        ks = np.asarray(states[lo : lo + _DRIFT_BLOCK], dtype=float)[:, None]
        m = n + 1.0 - ks
        u = np.cumprod((ks - i + 1.0) / (i * n), axis=1)
        v = np.ones((len(ks), width))
        v[:, 1:] = np.cumprod((m - i[:-1] + 1.0) / (i[:-1] * n), axis=1)
        # v_j is an exact (signed) zero for j > m, so the prefix sums stop at m.
        terms = i * np.cumsum(v, axis=1) - np.cumsum(v * (i - 1.0), axis=1)
        for row_u, row_t, k in zip(u, terms, ks[:, 0].astype(int).tolist()):
            size = min(k, width)
            out.append(float(np.dot(row_u[:size], row_t[:size])))
    return out


def _poly_mul(a: list[Fraction], b: list[Fraction], cap: int) -> list[Fraction]:
    """Product of two coefficient lists, truncated to degree cap."""
    out = [Fraction(0)] * (cap + 1)
    for i, ai in enumerate(a[: cap + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: cap + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def normalized_drift_gf(n: int, k: int) -> Fraction:
    """Normalized drift by generating-function coefficient extraction.

    Independent route: the normalized drift equals the coefficient of
    z^(k-1) in (z + 1/n)^k (1 - z)^-2 (1 + z/n)^(n+1-k), all expanded as
    exact truncated power series. Rational-only; exists to cross-check
    ``normalized_drift``.
    """
    check_n(n)
    _check_state(n, k, n + 1)
    if k == 0:
        return Fraction(0)
    deg = k - 1
    inv = Fraction(1, n)
    a = [comb(k, i) * inv ** (k - i) for i in range(min(k, deg) + 1)]
    b = [Fraction(j + 1) for j in range(deg + 1)]
    m = n + 1 - k
    c = [comb(m, j) * inv**j for j in range(min(m, deg) + 1)]
    prod = _poly_mul(_poly_mul(a, b, deg), c, deg)
    return prod[deg]


# Terms of Bin(n-k, 1/n) kept per band entry, and the extra terms of
# Bin(k, 1/n) beyond the band they pair with. The first omitted product
# carries a factor below 1/41! of a kept one.
_PAIR_TERMS = 40


@lru_cache(maxsize=256)
def _band_width(n: int, max_state: int) -> int:
    """Smallest D such that every p(k, k-d) with d > D, k <= max_state, is 0.0.

    The pmf recurrence computes Bin(k, 1/n)(d) as (1-1/n)^k times a product
    below (k/(n-1))^d / d!, and p(k, k-d) sums such terms of index >= d. Once
    that bound drops below 2^-1078, a factor 8 under half the smallest
    subnormal, the term and everything after it rounds to zero.
    """
    if max_state == 0:
        return 0
    log_ratio = math.log(max_state / (n - 1))
    floor = -1078.0 * math.log(2.0)
    d = 1
    while d < max_state and (d + 1) * log_ratio - math.lgamma(d + 2) > floor:
        d += 1
    return d


def _float_band(n: int, states: Sequence[int]) -> np.ndarray:
    """Accepted-step law of the given ascending states as a band, float.

    Row i holds band[i, d] = p(k, k - d) for k = states[i] and d = 0..D; the
    off-diagonal entries are the correlation of the two flip-count pmfs,
    p(k, k-d) = sum_l pa[d+l] pb[l], and column 0 is the complement of their
    compensated sum. The array is read-only. A band above ``MEMORY_LIMIT``
    raises ``CapacityError`` before it is allocated.
    """
    width = _band_width(n, states[-1])
    check_memory(len(states) * (width + 1) * 8, f"the kernel band of {len(states)} states")
    band = np.zeros((len(states), width + 1))
    for row, k in zip(band, states):
        if k:
            pa = _binom_pmf_float(k, n, width + _PAIR_TERMS + 1)
            pb = _binom_pmf_float(n - k, n, _PAIR_TERMS + 1)
            jumps = np.correlate(pa, pb, mode="full")[len(pb):]
            d_max = min(k, width)
            row[1 : d_max + 1] = jumps[:d_max]
        row[0] = 1.0 - math.fsum(row[1:].tolist())
    band.setflags(write=False)
    return band


def _exact_band(n: int, states: Sequence[int]) -> np.ndarray:
    """Accepted-step law of the given states as a band of Fractions.

    Same layout as the float band, at full width D = max(states). Row k is
    built on integers over the common denominator n^n: the numerator of
    p(k, k-d) is sum_l C(k, d+l) C(n-k, l) (n-1)^(n-d-2l), and that of the
    stay probability is n^n minus the others. The array is read-only.
    """
    width = max(states)
    scale = n**n
    powers = [(n - 1) ** e for e in range(n + 1)]
    band = np.empty((len(states), width + 1), dtype=object)
    for i, k in enumerate(states):
        nums = [0] * (width + 1)
        for d in range(1, k + 1):
            nums[d] = sum(
                comb(k, d + l) * comb(n - k, l) * powers[n - d - 2 * l]
                for l in range(min(k - d, n - k) + 1)
            )
        nums[0] = scale - sum(nums)
        band[i] = [Fraction(x, scale) for x in nums]
    band.setflags(write=False)
    return band


# The kernel band of given states, per backend: band = _BANDS[backend](n, states).
_BANDS = {FLOAT: _float_band, RATIONAL: _exact_band}


def _sum(values: np.ndarray):
    """Sum of a vector read off a band: exact for Fractions, compensated
    (``math.fsum``) for floats. The empty sum is the typed zero."""
    if values.dtype == object:
        return sum(values.tolist(), Fraction(0))
    return math.fsum(values.tolist())


def _band_improvement(band: np.ndarray) -> list:
    """s_k = P[an accepted step moves from k], the row sum over d >= 1."""
    return [_sum(row[1:]) for row in band]


def _band_drift(band: np.ndarray) -> list:
    """The drift of each row: its first moment sum_d d p(k, k - d)."""
    d = np.arange(band.shape[1])
    return [_sum(d * row) for row in band]


class _BandRows(Sequence):
    """Full kernel rows p(k, 0..k), expanded from a band on access."""

    def __init__(self, band: np.ndarray):
        self._band = band

    def __len__(self) -> int:
        return len(self._band)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = range(len(self))[k]
        d_max = min(k, self._band.shape[1] - 1)
        row = np.zeros(k + 1, dtype=self._band.dtype)
        row[k - d_max :] = self._band[k, d_max::-1]
        row.setflags(write=False)
        return row


def transition_prob(n: int, k: int, j: int, backend: str = FLOAT) -> Scalar:
    """p(k, j): probability the accepted step moves from k zeros to j zeros.

    Zero for j > k (worse offspring are rejected). For j < k this is
    sum_{l=0..min(j, n-k)} C(k, k-j+l) C(n-k, l) (1/n)^(k-j+2l)
    (1 - 1/n)^(n-(k-j)-2l); p(k, k) is defined by complement and therefore
    also carries the rejection mass.
    """
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n)
    _check_state(n, j, n)
    row = _BANDS[backend](n, [k])[0]
    return _sum(row[k - j : k - j + 1] if j <= k else row[:0])


def transition_tail(n: int, k: int, j: int, backend: str = FLOAT) -> Scalar:
    """P[accepted step from k lands at or below j]: partial row sum."""
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n)
    _check_state(n, j, n)
    row = _BANDS[backend](n, [k])[0]
    return _sum(row[k - j :]) if j < k else 1 + _sum(row[:0])


@dataclass(frozen=True)
class DriftTable:
    """Dense drift values for one problem size.

    ``delta[k]`` is the plain drift for k = 0..n; ``delta_star[k]`` is the
    normalized drift for k = 0..n+1 (one more entry, since the normalized
    form is defined through n + 1).
    """

    n: int
    backend: str
    delta: tuple
    delta_star: tuple


@dataclass(frozen=True)
class TransitionKernel:
    """Accepted-step law rows p(k, .) for k = 0..max_state.

    ``band`` holds band[k, d] = p(k, k - d) in the backend's scalars (see the
    module notes): floats cut to the width D, or Fractions at full width.
    ``rows[k]`` is the read-only row p(k, 0..k), expanded from the band on
    access; it has length k + 1 and sums to one (exactly, for Fractions).
    """

    n: int
    backend: str
    max_state: int
    rows: Sequence
    band: np.ndarray


def build_drift_table(
    n: int,
    backend: str = FLOAT,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> DriftTable:
    """Compute both drift columns for all states of one problem size."""
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    return _drift_table(n, backend, _BANDS[backend](n, range(n + 1)))


def _normalized_drift_column(n: int, backend: str) -> list:
    """The normalized drift of the states 1..n + 1 in one backend."""
    if backend == RATIONAL:
        return [normalized_drift(n, k, RATIONAL) for k in range(1, n + 2)]
    return _normalized_drift_float(n, range(1, n + 2))


def _drift_table(n: int, backend: str, band: np.ndarray) -> DriftTable:
    """Drift table whose drift column is the first moment of ``band``."""
    delta = tuple(_band_drift(band))
    delta_star = (delta[0], *_normalized_drift_column(n, backend))
    return DriftTable(n=n, backend=backend, delta=delta, delta_star=delta_star)


def build_kernel(
    n: int,
    backend: str = FLOAT,
    max_state: int | None = None,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> TransitionKernel:
    """Compute kernel rows p(k, .) for k = 0..max_state (default n).

    The chain is non-increasing, so hitting times from a start state k0 only
    need rows up to k0; passing ``max_state`` keeps large sweeps quadratic
    instead of cubic.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    if max_state is None:
        max_state = n
    _check_state(n, max_state, n)
    band = _BANDS[backend](n, range(max_state + 1))
    return TransitionKernel(
        n=n, backend=backend, max_state=max_state, rows=_BandRows(band), band=band
    )
