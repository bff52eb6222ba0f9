"""Exact drift and transition structure of the (1+1) EA on OneMax.

The chain state is k, the number of zero bits in the current search point on
n bits. One step flips every bit independently with probability 1/n and keeps
the offspring iff its one-count did not drop, so the accepted state never
increases. With a ~ Bin(k, 1/n) zero-bits flipped and b ~ Bin(n-k, 1/n)
one-bits flipped, the step is accepted iff b <= a and then moves to k - a + b.

Everything here is an explicit finite sum over mutation outcomes:

* ``drift``: the exact one-step progress E[(a - b)^+], the first moment of
  the state's band row,
* ``normalized_drift``: the same quantity with the mutation null factor
  (1 - 1/n)^n divided out and re-indexed, which is the form the asymptotic
  expansion targets; ``drift(n, k) == normalized_drift(n-1, k) * (1-1/n)**n``,
  so the exact value is read from the band of n + 1 bits,
* ``normalized_drift_gf``: an independent generating-function route to the
  exact normalized drift, used to cross-check it,
* ``transition_prob`` / ``build_kernel``: the accepted-step law p(k, j),
* ``build_drift_table``: both drift columns of every state, the table the
  ``drift`` command prints and that ``hitting_profile``,
  ``inverse_drift_sum``, ``eta`` and ``eta_star`` take.

All operations take a ``backend`` flag: ``"float"`` for IEEE doubles with
numpy vectorization, ``"rational"`` for exact values as
``fractions.Fraction``. Builders cap the rational backend (default n <= 64)
because exact values carry denominators of order n^n and beyond.

Both backends read the chain from a band, band[i, d] = p(k, k - d) for
k = states[i] and d = 0..D, where column 0 is the stay probability, and every
quantity of the chain reads it: the improvement probability s_k is the row
sum over d >= 1, the drift is the row's first moment, and the hitting times,
eta and the transition tails read the same rows.

The exact band has full width D = max(states) and is kept on integers
(``_exact_numerators``): every entry is a numerator over the one common
denominator N = n^n. A row is built the way a float row is, from the
integer numerators a_i = C(k, i) (n-1)^(k-i) and b_l = C(n-k, l)
(n-1)^(n-k-l) of the two flip-count pmfs:

    p(k, k-d) n^n = sum_l a_(d+l) b_l = sum_l C(k, d+l) C(n-k, l) (n-1)^(n-d-2l),

and column 0 is the integer complement n^n minus the row's other numerators.
Rational quantities are sums of such numerators over a denominator whose
structure is known in advance (N for row sums, N times a running product of
row sums for the recurrence in ``hitting``, a running product of drift
numerators for eta in ``bounds``), so the work is integer addition and
multiplication, and each returned value is one ``Fraction``, reduced once.
A rational ``TransitionKernel`` builds these numerators when first read; its
``band`` and ``rows`` are Fraction views of them.

The float band is cut. A jump of d needs at least d flipped zero-bits, so a
row drops at most (k/n)^(D+1) / (D+1)! of mass past column D, while it moves
with probability s_k >= k / (e n). The chain width D (``_band_width``) is the
smallest that keeps this below 2^-60 s_k on every row: D = 16 for states up
to n/2 and D = 20 up to n, at every n >= 64, so memory is O(n D) instead of
O(n^2), and the chain computations of ``hitting._chain`` hold one block of
it at a time. The dropped mass stays in column 0, so rows still sum to one.
The band is built in blocks of states from 2-D pmf arrays whose states run
along the contiguous axis: each block takes its (1 - 1/n)^m bases from one
vectorised binary exponentiation, bit for bit the scalar ``pow_base``, then
the ratio recurrence as a cumulative product down each state's column; each
entry p(k, k-d) = sum_l pa[d+l] pb[l] adds its first 10 pair terms in
ascending l, one product of whole rows per term, and the terms it omits are
below 2^-66 of it. Band entries agree with full rows to 6.7e-16 relative
(n = 1500 and 4096).

Row sums of the float band are correctly rounded and equal ``math.fsum``
bit for bit, but are taken over one block of rows at once (``_row_fsums``):
a compensated sum carries the rounding error of every addition, and a
bound on what it still misses certifies that the result rounds as the exact
sum does. The rare row it cannot certify, state 0 in practice, is summed
by ``math.fsum``. The improvement probability s_k and the drift column are
such sums.

Single rows, the ``transition_prob`` and ``transition_tail`` of one state
(``_row_sum``), promise every positive entry, so they take the same rule at
2^-1078 in place of 2^-60: every entry it drops rounds to 0.0 in double
precision. That is at most 156 columns for states up to n/2 and 178 up
to n.

The float normalized-drift column has its own, narrower cut: its terms decay
like x^l / l! with x <= (n + 1)/n, and past the 25 of
``_normalized_drift_terms`` they add at most 2^-80 of the value. The sums
take 32 columns, that width rounded up to whole blocks of the dot product
(``_DOT_BLOCK``), and equal the full O(n) sums bit for bit. Its kernel takes
only state sets closed under the mirror k -> n + 1 - k, whose u row is k's v
row, so one cumulative product serves a state and its mirror: the column
0..n + 1, or one state read through its pair {k, n + 1 - k}.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from operator import mul

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


def _check_state(n: int, k: int, hi: int, lo: int = 0) -> int:
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"state must be an integer, got {k!r}")
    if k < lo or k > hi:
        raise DomainError(f"state k = {k} outside [{lo}, {hi}] for n = {n}")
    return k


def _pow_bases(base: Scalar, exponents) -> np.ndarray:
    """``pow_base(base, m)`` for every m of an integer array, bit for bit.

    One loop over the bits of the largest exponent, up to 10**6: bit j
    multiplies base^(2^j) into the results whose exponent has it set,
    starting from 1.0, which are the multiplications ``pow_base`` does in
    the same order. A ``Fraction`` base gives exact powers, m = 0 included,
    on an object array. Exponents above 10**6, where ``pow_base`` switches
    to exp/log, take it one by one.
    """
    m = np.asarray(exponents, dtype=np.int64)
    top = int(m.max(initial=0))
    if top > 10**6:
        return np.array([pow_base(base, e) for e in m.tolist()], dtype=float)
    out = np.full(len(m), base**0)
    square = base
    for j in range(top.bit_length()):
        np.multiply(out, square, out=out, where=(m >> j) & 1 == 1)
        square = square * square
    return out


def _binom_pmfs(ms: np.ndarray, n: int, terms: int) -> np.ndarray:
    """Pmfs of Bin(m, 1/n) for each m of an integer array, as a (terms,
    states) array: column i holds the terms 0..terms-1 of Bin(ms[i], 1/n),
    exact zeros past ms[i].

    Built by the ratio recurrence pmf[t] = pmf[t-1] * (m-t+1) / (t (n-1)),
    which is stable because every factor is positive and the mass decays:
    term t is (1 - 1/n)^m times the cumulative product of the first t
    ratios. The states run along the contiguous axis, so each step of the
    product is one multiplication of whole rows, and a column is the same
    sequence of operations for any number of states or terms.
    """
    m = np.asarray(ms, dtype=float)
    out = np.empty((terms, len(m)))
    out[0] = _pow_bases(1.0 - 1.0 / n, ms)
    t = np.arange(1.0, terms)[:, None]
    # m - t + 1 is an exact integer, so the one rounding is the division.
    ratios = np.maximum(m - t + 1.0, 0.0)
    ratios /= t * (n - 1.0)
    np.cumprod(ratios, axis=0, out=ratios)
    np.multiply(out[:1], ratios, out=out[1:])
    return out


def drift(n: int, k: int, backend: str = FLOAT) -> Scalar:
    """Exact one-step drift E[k - next | state k] of the (1+1) EA on OneMax.

    The first moment sum_d d p(k, k - d) of the chain band's row of state k,
    built with state n, which gives a float band the chain width for states
    up to n, so the value equals ``build_drift_table(n, backend).delta[k]``
    exactly. Zero at k = 0.
    """
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n)
    return _band_drift(n, backend, _BANDS[backend](n, [k, n])).item(0)


def normalized_drift(n: int, k: int, backend: str = FLOAT) -> Scalar:
    """Normalized drift: the mutation null factor divided out, index shifted.

    Defined for 0 <= k <= n + 1 as

        sum_{l=1..k} C(k, l) sum_{j=0..l-1} (l - j) C(n+1-k, j) n^-(j+l),

    with value 0 at k = 0, and related to the plain drift by
    ``drift(n, k) == normalized_drift(n - 1, k) * (1 - 1/n)**n``, which
    the exact value reads backwards; the float one reads k with its mirror.
    """
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n + 1)
    ks = sorted({k, n + 1 - k}) if backend == FLOAT else [k]
    return _NORMALIZED[backend](n, ks).item(ks.index(k))


# States per block of the float band, of eta in ``bounds`` and of the
# normalized drift (``_BLOCK // 2`` mirror pairs): at the chain width the
# band's pmf arrays take about 0.1 MB, and the normalized drift's three
# arrays of 512 rows at its 32-column width 0.39 MB, for any n.
_BLOCK = 512

# Terms that the dot products of the normalized drift add in vector lanes, a
# whole block at a time; the terms past the last whole block are added one by
# one (scipy-openblas 0.3.31's ddot, which numpy's ``vecdot`` and ``dot``
# call). A sum cut inside the first block adds its leading terms in another
# order than the full sum does, and moves values: cut at 18 to 31 columns,
# the same 242 of 1002 values moved at n = 1000 at every cut, 281 of 1026 at
# 1024 and 1090 of 4097 at 4095 (more at 16 and 17). Cut at 32 to 65 columns,
# none moved, so the column is cut after a whole block.
_DOT_BLOCK = 32


def _normalized_drift_float(n: int, ks: Sequence[int]) -> np.ndarray:
    """Float normalized drift of each state of ``ks``, as a float64 array.

    ``ks`` is ascending and closed under the mirror k -> n + 1 - k, that is
    ks[i] + ks[-1 - i] == n + 1: the column 0..n + 1, or one state's pair
    {k, n + 1 - k}.

    With u_l = C(k, l) n^-l and v_j = C(m, j) n^-j, m = n + 1 - k, the value
    is sum_l u_l (l cv0[l-1] - cv1[l-1]) over the prefix sums cv0, cv1 of v_j
    and j v_j, j <= m. The sums over l are cut at the width of
    ``_normalized_drift_terms``, past which the terms add at most 2^-80 of
    the value, rounded up to a multiple of ``_DOT_BLOCK``: 32 columns for
    every n >= 31. Every value is then bit for bit what the full O(n) sums
    give: the terms cut are far below an ulp of every partial sum they would
    join, and the dot product adds the terms it keeps in the same order.

    The v row of state k is 1 followed by the u row of its mirror, so one
    cumulative product per row serves both. A block takes ``_BLOCK // 2``
    states from each end of ``ks``, which are each other's mirrors. Only the
    columns up to the block's largest state are formed, so a pair below the
    cut builds that many columns, not the full width. Cumulative products
    and sums are sequential along each row, so every prefix is the same for
    any number of rows or columns. The final sum is one dot product per
    state, cut to the state's own length: ``np.vecdot`` over the rows that
    span the block's columns, ``np.dot`` on the shorter ones.
    """
    width = -(-_normalized_drift_terms(n) // _DOT_BLOCK) * _DOT_BLOCK
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty(len(ks))
    size, mid = len(ks), (len(ks) + 1) // 2
    for lo in range(0, mid, _BLOCK // 2):
        hi = min(lo + _BLOCK // 2, mid)
        front, back = slice(lo, hi), slice(max(size - hi, hi), size - lo)
        block = np.concatenate((ks[front], ks[back]))
        cols = min(int(block[-1]), width)
        i = np.arange(1.0, cols + 1)
        u = np.subtract(block[:, None], i)
        u += 1.0
        u /= i * n
        np.cumprod(u, axis=1, out=u)
        # The mirror of row r is row len(block) - 1 - r; v_j is an exact
        # (signed) zero for j > m, so the prefix sums stop at m.
        v = np.empty_like(u)
        v[:, :1] = 1.0
        v[:, 1:] = u[::-1, :-1]
        # terms = i cumsum(v) - cumsum(v (i - 1)), the second sum formed in v.
        terms = np.cumsum(v, axis=1)
        terms *= i
        v *= i - 1.0
        np.cumsum(v, axis=1, out=v)
        terms -= v
        values = np.vecdot(u, terms)
        for r in np.flatnonzero(block < cols).tolist():
            values[r] = np.dot(u[r, : block[r]], terms[r, : block[r]])
        out[front] = values[: hi - lo]
        out[back] = values[hi - lo :]
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


# Terms of Bin(n-k, 1/n) paired with each band entry. For d >= 1 and any n,
# pair term l of p(k, k-d) is at most 4^-l / (l! (l+1)!) times term 0, so the
# omitted terms l >= 10 add below 2^-66 of the entry.
_PAIR_TERMS = 10


@lru_cache(maxsize=256)
def _band_width(n: int, max_state: int, bits: int = 60) -> int:
    """Width D of a float band: the smallest D, capped at max_state, with
    e (max_state/n)^D / (D+1)! <= 2^-bits.

    A jump of d > D needs a >= D + 1 flipped zero-bits, so the mass a row
    drops is at most P[a >= D+1] <= (k/n)^(D+1) / (D+1)!, while the row
    moves with s_k >= P[a = 1, b = 0] >= k / (e n). The chain width, at
    bits = 60, keeps the dropped mass of every row k <= max_state below
    2^-60 s_k: D = 16 for max_state <= n/2 and D = 20 for max_state <= n,
    at every n >= 64. At bits = 1078 a row keeps every positive entry: the
    pmf recurrence forms Bin(k, 1/n)(d) as (1-1/n)^k times a product below
    (k/(n-1))^d / d!, which for d > D is below 2^-1078 whenever D + 1 < n
    (at D = max_state nothing is dropped), a factor 8 under half the
    smallest subnormal, so every entry past D rounds to 0.0.
    """
    if max_state == 0:
        return 0
    log_ratio = math.log(max_state / n)
    floor = -bits * math.log(2.0)
    d = 0
    while d < max_state and 1.0 + d * log_ratio - math.lgamma(d + 2) > floor:
        d += 1
    return d


@lru_cache(maxsize=256)
def _normalized_drift_terms(n: int) -> int:
    """Smallest D, capped at n + 1, such that the terms l > D of each
    normalized drift sum_l u_l w_l (``_normalized_drift_float``) add at most
    2^-80 of its value, at every state k = 1..n + 1.

    With y = k/n <= x = (n + 1)/n: u_l = C(k, l) n^-l <= y^l / l!, and
    w_l = sum_(j<l) (l - j) v_j <= l (1 + 1/n)^m < l e, as m <= n. So term l
    is at most e y^l / (l-1)!, while the value is at least its first term,
    u_1 w_1 = y. The omitted terms are therefore at most
    e sum_(i>=D) x^i / i! <= e x^D (D + 1) / (D! (D + 1 - x)) of the value,
    which the rule keeps below 2^-80: D = 25 at every n >= 64.
    """
    x = (n + 1) / n
    floor = -80.0 * math.log(2.0)
    d = 1
    while d < n + 1 and (
        1.0 + d * math.log(x) - math.lgamma(d + 1) + math.log((d + 1) / (d + 1 - x)) > floor
    ):
        d += 1
    return d


def _float_band(n: int, states: Sequence[int], width: int | None = None) -> np.ndarray:
    """Accepted-step law of the given ascending states as a band, float.

    Row i holds band[i, d] = p(k, k - d) for k = states[i] and d = 0..D,
    D = ``width``, by default the chain width ``_band_width``. Each block of
    states takes both flip-count pmfs as (terms, states) arrays
    (``_binom_pmfs``), so its jumps form one (D, states) array whose rows
    are contiguous: jump d is the pair sum pa[d+l] pb[l] over
    l < ``_PAIR_TERMS``, accumulated in ascending l, one product of whole
    rows per l. Column 0 is one minus the row's jumps, added from the
    largest d down, smallest entries first (within 2 ulp of the complement
    of their exact sum): the last row of one sequential cumulative sum over
    the jumps in reverse. The jumps are then copied into the block's band
    rows. The array is read-only. A band above ``MEMORY_LIMIT`` raises
    ``CapacityError`` before it is allocated.
    """
    if width is None:
        width = _band_width(n, states[-1])
    check_memory(len(states) * (width + 1) * 8, f"the kernel band of {len(states)} states")
    band = np.empty((len(states), width + 1))
    for lo in range(0, len(states), _BLOCK):
        ks = np.asarray(states[lo : lo + _BLOCK], dtype=np.int64)
        pa = _binom_pmfs(ks, n, width + _PAIR_TERMS)
        pb = _binom_pmfs(n - ks, n, _PAIR_TERMS)
        jumps = pa[1 : 1 + width] * pb[0]
        term = np.empty_like(jumps)
        for l in range(1, _PAIR_TERMS):
            jumps += np.multiply(pa[1 + l : 1 + l + width], pb[l], out=term)
        moves = np.cumsum(jumps[::-1], axis=0, out=term)[-1] if width else 0.0
        block = band[lo : lo + len(ks)]
        block[:, 0] = 1.0 - moves
        block[:, 1:] = jumps.T
    band.setflags(write=False)
    return band


def _exact_numerators(n: int, states: Sequence[int]) -> list[list[int]]:
    """The exact band of the given states on integers, over n^n.

    Row i holds the numerators of p(k, k - d) over the common denominator
    n^n, for k = states[i] and d = 0..max(states) (full width; zeros past
    d = k). A row is built the way ``_float_band`` builds a float row, from
    the flip-count pmf numerators a_i = C(k, i) (n-1)^(k-i) of Bin(k, 1/n)
    over n^k and b_l = C(n-k, l) (n-1)^(n-k-l) of Bin(n-k, 1/n) over
    n^(n-k): the numerator of a jump is the pair sum sum_l a_(d+l) b_l, and
    that of the stay probability is n^n minus the others, so every row sums
    to n^n.
    """
    width = max(states)
    scale = n**n
    powers = [(n - 1) ** e for e in range(n + 1)]
    rows = []
    for k in states:
        a = [comb(k, i) * powers[k - i] for i in range(k + 1)]
        b = [comb(n - k, l) * powers[n - k - l] for l in range(n - k + 1)]
        nums = [0] * (width + 1)
        for d in range(1, k + 1):
            nums[d] = sum(map(mul, a[d:], b))
        nums[0] = scale - sum(nums)
        rows.append(nums)
    return rows


# The band the chain computations read, per backend: band = _BANDS[backend](n,
# states) is the float band, or for the rational backend the integer
# numerators over n^n, which exact sums add as ints.
_BANDS = {FLOAT: _float_band, RATIONAL: _exact_numerators}


def _normalized_drift_exact(n: int, ks: Sequence[int]) -> np.ndarray:
    """Exact normalized drift of each state of the ascending ``ks``, as an
    object array of Fractions: by ``drift(n + 1, k) == normalized_drift(n,
    k) * (n/(n + 1))**(n + 1)``, the first moment of the exact band of
    n + 1 bits times ((n + 1)/n)^(n + 1)."""
    band = _exact_numerators(n + 1, ks)
    return _band_drift(n + 1, RATIONAL, band) * Fraction(n + 1, n) ** (n + 1)


# The normalized drift per backend, of ascending states: for the float
# kernel, closed under the mirror k -> n + 1 - k.
_NORMALIZED = {FLOAT: _normalized_drift_float, RATIONAL: _normalized_drift_exact}


def _row_fsums(x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """``math.fsum`` of every row of x * weights (weights per column, default
    none), bit for bit, as a float64 array.

    The rows are summed column by column, all at once, on a copy of x with
    its columns contiguous, so callers hand it a few rows or one block of
    the pass over the chain (``hitting._chain``). It uses error-free
    transformations (Ogita, Rump and Oishi, "Accurate sum and dot product",
    SIAM J. Sci. Comput. 26(6), 2005): s <- fl(s + x_j), and the exact error
    of each step, by TwoSum, is added into e. Then (r, t) = TwoSum(s, e), so
    r + t = s + e exactly. For m nonnegative terms, the exact sum S is
    r + t + rho, where rho is the rounding of the float sum e, and
    |rho| <= gamma_(m-1) m u S < 2 m^2 u^2 r (u = 2^-53). So r is the correctly
    rounded sum, which is what ``math.fsum`` returns, whenever t + rho stays
    inside half the gap to either neighbour of r: spacing(r)/2 above, and
    below as well unless r is a power of two, where the gap below is half as
    wide. A row this does not certify, near a tie or summing to 0.0 (whose
    half gap rounds to 0), or a row with a negative term, is summed by
    ``math.fsum``. A band has about one such row, its state 0. An array with
    no columns sums to zeros.
    """
    rows, m = x.shape
    if m == 0:
        return np.zeros(rows)
    # 2 m^2 u^2, and the smallest subnormal, which keeps the bound on rho an
    # upper bound where r * rel underflows.
    rel = 2.0 * m * m * 2.0**-106
    tiny = 2.0**-1074
    cols = x.T * weights[:, None] if weights is not None else np.ascontiguousarray(x.T)
    s = cols[0].copy()
    e = np.zeros_like(s)
    total, back, err = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    for term in cols[1:]:
        # TwoSum: total + (s - (total - back)) + (term - back) = s + term.
        np.add(s, term, out=total)
        np.subtract(total, s, out=back)
        np.subtract(total, back, out=err)
        np.subtract(s, err, out=err)
        np.subtract(term, back, out=back)
        err += back
        e += err
        s, total = total, s
    r = s + e
    back = r - s
    t = (s - (r - back)) + (e - back)
    bound = r * rel + tiny
    up = np.spacing(r) / 2
    down = np.where(np.frexp(r)[0] == 0.5, up / 2, up)
    ok = (t + bound < up) & (bound - t < down) & ~(cols < 0).any(axis=0)
    for i in np.flatnonzero(~ok).tolist():
        r[i] = math.fsum(cols[:, i].tolist())
    return r


def _band_improvement(n: int, backend: str, band) -> np.ndarray:
    """s_k = P[an accepted step moves from k] of each row of a ``_BANDS``
    band, as a float64 array or an object array of Fractions: a float row's
    sum over d >= 1, correctly rounded, or n^n minus a rational row's stay
    numerator, over n^n."""
    if backend == RATIONAL:
        scale = n**n
        return np.array([Fraction(scale - row[0], scale) for row in band], dtype=object)
    return _row_fsums(band[:, 1:])


def _band_drift(n: int, backend: str, band) -> np.ndarray:
    """The drift of each row of a ``_BANDS`` band: its first moment
    sum_d d p(k, k - d), as a float64 array or an object array of Fractions.
    A float row is the correctly rounded sum of the products d p(k, k - d);
    a rational row is summed on its integer numerators and divided by n^n
    once."""
    if backend == RATIONAL:
        scale = n**n
        drifts = [Fraction(sum(d * x for d, x in enumerate(row)), scale) for row in band]
        return np.array(drifts, dtype=object)
    return _row_fsums(band, np.arange(band.shape[1], dtype=float))


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


def _row_sum(n: int, k: int, backend: str, lo: int, hi: int | None = None) -> Scalar:
    """sum_{lo <= d < hi} p(k, k - d) over the full row of state k: a float
    row is cut at ``_band_width(n, k, 1078)``, not the chain width, so it
    keeps every positive entry; a rational row is summed on its integer
    numerators."""
    if backend == RATIONAL:
        return Fraction(sum(_exact_numerators(n, [k])[0][lo:hi]), n**n)
    return math.fsum(_float_band(n, [k], _band_width(n, k, 1078))[0][lo:hi].tolist())


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
    if j > k:
        return Fraction(0) if backend == RATIONAL else 0.0
    return _row_sum(n, k, backend, k - j, k - j + 1)


def transition_tail(n: int, k: int, j: int, backend: str = FLOAT) -> Scalar:
    """P[accepted step from k lands at or below j]: partial row sum."""
    check_n(n)
    check_backend(backend)
    _check_state(n, k, n)
    _check_state(n, j, n)
    if j >= k:
        return Fraction(1) if backend == RATIONAL else 1.0
    return _row_sum(n, k, backend, k - j)


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

    A kernel is its three numbers, which fix its rows, so kernels compare
    and hash by them. Its band (see the module notes), the float band cut
    to the width D or the integer numerators over n^n at full width, is
    built by ``_BANDS`` when ``band``, ``rows``, ``eta`` or ``eta_star``
    first reads it, and kept; a float band above ``MEMORY_LIMIT`` raises
    ``CapacityError`` then, before it is allocated. ``band`` holds
    band[k, d] = p(k, k - d) in the backend's scalars: the float band
    itself, or read-only Fractions made from the numerators. ``rows[k]`` is
    the read-only row p(k, 0..k) of length k + 1, expanded from ``band`` on
    access; it sums to one (exactly, for Fractions).
    """

    n: int
    backend: str
    max_state: int

    @cached_property
    def _band(self) -> np.ndarray | list[list[int]]:
        return _BANDS[self.backend](self.n, range(self.max_state + 1))

    @cached_property
    def band(self) -> np.ndarray:
        if self.backend == FLOAT:
            return self._band
        scale = self.n**self.n
        band = np.array([[Fraction(x, scale) for x in row] for row in self._band], dtype=object)
        band.setflags(write=False)
        return band

    @cached_property
    def rows(self) -> Sequence:
        return _BandRows(self.band)


# Bytes a state that ``build_drift_table`` holds, checked against MEMORY_LIMIT
# before anything is built: both drift columns and their tuples, beside one
# block of the band; tracemalloc measured 88.0 at n = 4*10^5. The value is
# kept from when the band was held whole, so the same n are admitted.
_TABLE_BYTES_PER_STATE = 176


def build_drift_table(
    n: int,
    backend: str = FLOAT,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> DriftTable:
    """Compute both drift columns for all states of one problem size.

    The drift column is the first moment of the band of states 0..n, summed
    block by block in the pass over the chain, so no more than a block of
    the band is ever held.
    """
    from .hitting import _chain  # here, as ``hitting`` imports this module

    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    check_memory((n + 1) * _TABLE_BYTES_PER_STATE, f"the drift table at n = {n}")
    delta = np.concatenate([_band_drift(n, backend, rows) for _, rows, *_ in _chain(n, backend, n)])
    delta_star = _NORMALIZED[backend](n, range(n + 2))
    return DriftTable(
        n=n, backend=backend, delta=tuple(delta.tolist()), delta_star=tuple(delta_star.tolist())
    )


def build_kernel(
    n: int,
    backend: str = FLOAT,
    max_state: int | None = None,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> TransitionKernel:
    """The kernel of rows p(k, .) for k = 0..max_state (default n).

    The chain is non-increasing, so hitting times from a start state k0 only
    need rows up to k0. Nothing is built here: the band of those rows,
    O(max_state D) for the band width D (at most 20 in floats, max_state in
    exact arithmetic), is built when first read, which raises
    ``CapacityError`` before allocating a float band above ``MEMORY_LIMIT``.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    if max_state is None:
        max_state = n
    _check_state(n, max_state, n)
    return TransitionKernel(n, backend, max_state)
