"""Expected hitting times of the all-ones string, exactly.

With g(k) the expected number of mutation steps to reach the optimum from k
zero bits, conditioning on the first accepted jump gives the triangular
recurrence

    g(0) = 0,
    g(k) = (1 + sum_{j=1..k-1} p(k, j) g(j)) / sum_{j=0..k-1} p(k, j),

because the chain never moves up. Both backends solve it over the kernel
band. The float backend takes correctly rounded row sums, equal to
``math.fsum``: s_k from the whole-array row sums of ``drift``, and the sum
over the earlier states of each row one state at a time. The rational
backend runs it on the band's integer numerators over n^n: g(k) = G_k / D_k,
where D_k is the running product of the numerators of the row sums s_k and
G_k is an integer, so each g(k) is one Fraction, reduced once. The companion
quantity

    q(k) = sum_{j=1..k} 1 / delta(j)

is the inverse-drift sum: the estimate variable drift arguments produce, and
the reference point of the corridor below. For starts k <= 3 the recurrence
collapses to closed forms, implemented in :func:`closed_form_g` as an
independent cross-check.

The corridor: for n >= 4 and the half start k = floor(n/2),

    q(k) - C1 log n <= g(k) <= q(k) - C2 log n

with C1 = 4 e^(7/2) and C2 = e^-2 / (12 (1 + e^-2 / 4)). The inverse-drift
sum therefore overestimates the true expectation by Theta(log n), never more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .backends import (
    DEFAULT_RATIONAL_CAP,
    FLOAT,
    RATIONAL,
    DomainError,
    Scalar,
    check_backend,
    check_n,
    check_rational_cap,
)
from .drift import (
    _BANDS,
    DriftTable,
    TransitionKernel,
    _band_drift,
    _band_improvement,
    _check_state,
)

__all__ = [
    "CORRIDOR_C1",
    "CORRIDOR_C2",
    "HittingProfile",
    "hitting_profile",
    "runtime_profile",
    "inverse_drift_sum",
    "closed_form_g",
    "harmonic",
]

CORRIDOR_C1 = 4.0 * math.exp(3.5)
CORRIDOR_C2 = math.exp(-2.0) / (12.0 * (1.0 + math.exp(-2.0) / 4.0))


@dataclass(frozen=True)
class HittingProfile:
    """Hitting times g(k) and inverse-drift sums q(k) for k = 0..max_state."""

    n: int
    backend: str
    g: tuple
    q: tuple


def harmonic(m: int) -> float:
    """The m-th harmonic number, by direct compensated summation.

    Beyond 10**6 terms the asymptotic expansion takes over; its omitted term
    is below 1/(252 m^6), far under double precision there.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"harmonic number needs an integer m >= 0, got {m!r}")
    if m <= 10**6:
        return math.fsum(1.0 / i for i in range(1, m + 1))
    from .asymptotics import EULER_GAMMA

    return (
        math.log(m)
        + EULER_GAMMA
        + 1.0 / (2.0 * m)
        - 1.0 / (12.0 * m**2)
        + 1.0 / (120.0 * m**4)
    )


def _harmonic_prefix(m: int) -> list[float]:
    """H_0..H_m by one compensated running sum, each within an ulp or two."""
    out = [0.0]
    total = carry = 0.0
    for i in range(1, m + 1):
        term = 1.0 / i
        step = total + term
        carry += (total - step) + term  # exact: total >= term after i = 1
        total = step
        out.append(total + carry)
    return out


def _inverse_drift_prefix(delta) -> np.ndarray:
    """q(k) = sum_{j=1..k} 1/delta(j) for every k of a drift column, as an
    array of the column's scalars.

    The running sum starts from delta(0), which is the zero of the column's
    scalar type, and adds in order, so Fractions stay exact.
    """
    return np.cumsum(np.concatenate((delta[:1], 1 / np.asarray(delta[1:]))))


def _band_hitting_times(band: np.ndarray) -> np.ndarray:
    """g(k) from a float band: the recurrence of order D, one row sum per
    state."""
    improve = _band_improvement(band)
    width = band.shape[1] - 1
    g = np.zeros(len(band))
    for k in range(1, len(band)):
        d_max = min(k - 1, width)
        hit = math.fsum((band[k, 1 : d_max + 1] * g[k - d_max : k][::-1]).tolist())
        g[k] = (1 + hit) / improve[k]
    return g


def _exact_hitting_times(n: int, nums: list[list[int]]) -> list[Fraction]:
    """g(k) from the integer numerators P[k][d] of p(k, k - d) over N = n^n.

    With S_k = N - P[k][0] the numerator of s_k, g(k) = G_k / D_k over
    D_k = S_1 ... S_k, where G_k = N D_{k-1} + sum_{j<k} P[k][k-j] G_j
    S_{j+1} ... S_{k-1}, and the sum runs by Horner over j. Only integers
    are added and multiplied; each g(k) is one Fraction.
    """
    scale = n**n
    big_g = [0]
    moves = [0]
    den = 1
    g = [Fraction(0)]
    for k in range(1, len(nums)):
        row = nums[k]
        hit = 0
        for j in range(1, k):
            hit = hit * moves[j] + row[k - j] * big_g[j]
        big_g.append(scale * den + hit)
        moves.append(scale - row[0])
        den *= moves[k]
        g.append(Fraction(big_g[k], den))
    return g


def _profile(n: int, backend: str, band, q) -> HittingProfile:
    """g over the states of a ``_BANDS`` band, and the inverse-drift sums
    ``q`` cut to the same states."""
    if backend == RATIONAL:
        g = _exact_hitting_times(n, band)
    else:
        g = _band_hitting_times(band).tolist()
    return HittingProfile(n=n, backend=backend, g=tuple(g), q=tuple(q[: len(band)].tolist()))


def _check_same_chain(kernel: TransitionKernel, drift_table: DriftTable) -> None:
    """Reject a kernel and a drift table of different n or backends."""
    if kernel.n != drift_table.n:
        raise DomainError(
            f"kernel has n = {kernel.n} but drift table has n = {drift_table.n}"
        )
    if kernel.backend != drift_table.backend:
        raise DomainError(
            f"kernel backend {kernel.backend!r} does not match "
            f"drift table backend {drift_table.backend!r}"
        )


def hitting_profile(kernel: TransitionKernel, drift_table: DriftTable) -> HittingProfile:
    """Solve the hitting-time recurrence over the kernel's rows.

    The profile covers k = 0..kernel.max_state; the drift table supplies the
    denominators of the inverse-drift sums.
    """
    _check_same_chain(kernel, drift_table)
    q = _inverse_drift_prefix(drift_table.delta[: kernel.max_state + 1])
    return _profile(kernel.n, kernel.backend, kernel._chain, q)


def runtime_profile(
    n: int,
    backend: str = FLOAT,
    up_to: int | None = None,
    rational_cap: int = DEFAULT_RATIONAL_CAP,
) -> HittingProfile:
    """Hitting profile for one n, building only the rows it needs.

    Equivalent to composing :func:`~onemax_runtime.drift.build_kernel` and
    :func:`~onemax_runtime.drift.build_drift_table` with
    :func:`hitting_profile`, but stops at ``up_to`` (default n). The drift
    column is the first moment of the kernel band, so the float work is
    O(up_to D) for the band width D.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    if up_to is None:
        up_to = n
    _check_state(n, up_to, n)
    band = _BANDS[backend](n, range(up_to + 1))
    return _profile(n, backend, band, _inverse_drift_prefix(_band_drift(n, backend, band)))


def inverse_drift_sum(drift_table: DriftTable, k0: int) -> Scalar:
    """q(k0) = sum_{j=1..k0} 1/delta(j) from a prebuilt drift table."""
    _check_state(drift_table.n, k0, drift_table.n)
    return _inverse_drift_prefix(drift_table.delta[: k0 + 1]).item(k0)


def closed_form_g(n: int, k: int) -> Fraction:
    """Exact hitting time from starts k <= 3, in closed form.

    All three nontrivial cases share the prefactor (1 - 1/n)^-n; the rest is
    a ratio of polynomials in n. Cross-checked against the recurrence in the
    test suite. The start must be an integer state of the chain, so k = 3
    needs n >= 3.
    """
    check_n(n)
    _check_state(n, k, min(n, 3))
    if k == 0:
        return Fraction(0)
    pf = Fraction(n, n - 1) ** n
    if k == 1:
        return n * Fraction(n, n - 1) ** (n - 1)
    if k == 2:
        num = 3 * n**3 - 8 * n**2 + 6 * n - 1
        den = 2 * n**2 - 2 * n - 1
        return Fraction(num, den) * pf
    num = 22 * n**7 - 114 * n**6 + 203 * n**5 - 117 * n**4 - 38 * n**3 + 49 * n**2 - 7 * n + 2
    den = 12 * n**6 - 36 * n**5 + 4 * n**4 + 60 * n**3 - 23 * n**2 - 21 * n - 2
    return Fraction(num, den) * pf
