"""Expected hitting times of the all-ones string, exactly.

With g(k) the expected number of mutation steps to reach the optimum from k
zero bits, conditioning on the first accepted jump gives the triangular
recurrence

    g(0) = 0,
    g(k) = (1 + sum_{j=1..k-1} p(k, j) g(j)) / sum_{j=0..k-1} p(k, j),

because the chain never moves up. The companion quantity

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
from itertools import accumulate

import numpy as np

from .backends import (
    DEFAULT_RATIONAL_CAP,
    FLOAT,
    DomainError,
    Scalar,
    check_backend,
    check_n,
    check_rational_cap,
)
from .drift import (
    DriftTable,
    TransitionKernel,
    _band_drift,
    _band_improvement,
    _sum,
    build_kernel,
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
    if m < 0:
        raise DomainError(f"harmonic number needs m >= 0, got {m}")
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


def _inverse_drift_prefix(delta) -> list:
    """q(k) = sum_{j=1..k} 1/delta(j) for every k of a drift column.

    The running sum starts from delta(0), which is the zero of the column's
    scalar type.
    """
    return list(accumulate((1 / d for d in delta[1:]), initial=delta[0]))


def _band_hitting_times(band: np.ndarray) -> list:
    """g(k) from the band recurrence of order D, one row sum per state."""
    improve = _band_improvement(band)
    width = band.shape[1] - 1
    g = band[:, 0] * 0  # zeros of the band's scalar type
    for k in range(1, len(band)):
        d_max = min(k - 1, width)
        hit = _sum(band[k, 1 : d_max + 1] * g[k - d_max : k][::-1])
        g[k] = (1 + hit) / improve[k]
    return g.tolist()


def _profile_from_parts(kernel: TransitionKernel, delta) -> HittingProfile:
    g = _band_hitting_times(kernel.band)
    q = _inverse_drift_prefix(delta[: kernel.max_state + 1])
    return HittingProfile(n=kernel.n, backend=kernel.backend, g=tuple(g), q=tuple(q))


def hitting_profile(kernel: TransitionKernel, drift_table: DriftTable) -> HittingProfile:
    """Solve the hitting-time recurrence over the kernel's rows.

    The profile covers k = 0..kernel.max_state; the drift table supplies the
    denominators of the inverse-drift sums.
    """
    if kernel.n != drift_table.n:
        raise DomainError(
            f"kernel has n = {kernel.n} but drift table has n = {drift_table.n}"
        )
    if kernel.backend != drift_table.backend:
        raise DomainError(
            f"kernel backend {kernel.backend!r} does not match "
            f"drift table backend {drift_table.backend!r}"
        )
    return _profile_from_parts(kernel, drift_table.delta)


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
    if up_to < 0 or up_to > n:
        raise DomainError(f"up_to = {up_to} outside [0, {n}]")
    kernel = build_kernel(n, backend, max_state=up_to, rational_cap=rational_cap)
    return _profile_from_parts(kernel, _band_drift(kernel.band))


def inverse_drift_sum(drift_table: DriftTable, k0: int) -> Scalar:
    """q(k0) = sum_{j=1..k0} 1/delta(j) from a prebuilt drift table."""
    if k0 < 0 or k0 > drift_table.n:
        raise DomainError(f"start k0 = {k0} outside [0, {drift_table.n}]")
    return _inverse_drift_prefix(drift_table.delta[: k0 + 1])[k0]


def closed_form_g(n: int, k: int) -> Fraction:
    """Exact hitting time from starts k <= 3, in closed form.

    All three nontrivial cases share the prefactor (1 - 1/n)^-n; the rest is
    a ratio of polynomials in n. Cross-checked against the recurrence in the
    test suite (and the k = 3 case needs n >= 3 so the start is a valid
    state).
    """
    check_n(n)
    if k not in (0, 1, 2, 3):
        raise DomainError(f"closed forms exist for starts 0..3, got k = {k}")
    if k == 3 and n < 3:
        raise DomainError(f"start k = 3 needs n >= 3, got n = {n}")
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
