"""Asymptotic expansion of the normalized drift and runtime constants.

On the scale alpha = k/n the normalized drift has the expansion

    delta*_n(k) = S1(alpha) + T1(alpha)/n + T2(alpha)/n^2 + O(n^-3),

where, with w = sqrt(alpha (1 - alpha)) and I0, I1 modified Bessel functions,

    S_r(z)    = sum_{l>=1} z^l/l! sum_{j=0..l-1} (l-j)^r (1-z)^j/j!,
    T1(alpha) = S1/2 - 2 alpha S0 - alpha I0(2w) - w^2 (I1(2w)/w),
    T2(alpha) = -S1/24 + alpha S0 + (1+6 alpha)/12 I0(2w)
                - (1 - 10 alpha + 4 alpha^2)/12 (I1(2w)/w).

I1(2w)/w is kept as a single even power series so nothing blows up at the
endpoints. Every series here is summed to relative precision 1e-17 with a
hard cap of 400 terms.

Integrating the inverse expansion yields the runtime constants: with

    C0 = gamma - log 2 + int_0^(1/2) (1/S1(t) - 1/t) dt,
    C1 = -e C0,

the inverse-drift sum from the half start behaves like
e n log n - C1 n + e log n + O(1), and the expected optimization time of the
uniformly initialized EA like e n log n - C1 n + (e/2) log n + C2 + o(1)
with C2 = 0.59789875. The integrand of C0 is evaluated in a cancellation
free form: S1(t) - t is summed from its quadratic term on (the linear term
of S1 is exactly t), which keeps full precision down to t = 0 where the
integrand tends to -3/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from numpy.polynomial.legendre import leggauss

from .backends import DomainError, NumericError, check_n, resolve_threads
from .drift import _normalized_drift_float
from .hitting import runtime_profile

__all__ = [
    "EULER_GAMMA",
    "C2_ET",
    "ExpansionEval",
    "RuntimeEstimate",
    "s_r",
    "t1",
    "t2",
    "bessel_i",
    "evaluate_expansion",
    "expansion_delta_star",
    "expansion_inverse_delta_star",
    "constant_c0",
    "constant_c1",
    "asymptotic_q",
    "asymptotic_et",
    "runtime_estimate",
    "figure1_rows",
    "figure2_rows",
]

EULER_GAMMA = 0.57721566490153286061

C2_ET = 0.59789875

_REL_TOL = 1e-17
_MAX_TERMS = 400


def s_r(r: int, z: float) -> float:
    """The drift series S_r(z) for r in {0, 1} and z in [0, 1].

    S1 is the leading term of the normalized drift on the alpha scale; S0
    appears in its corrections. Special values: S0(1) = e - 1, S1(1) = e.
    """
    if r not in (0, 1):
        raise DomainError(f"series order r must be 0 or 1, got {r}")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"series argument z = {z} outside [0, 1]")
    total = 0.0
    zl = 1.0
    wj = 1.0
    cum0 = 0.0
    inner1 = 0.0
    for l in range(1, _MAX_TERMS + 1):
        cum0 += wj
        wj *= (1.0 - z) / l
        inner1 += cum0
        zl *= z / l
        term = zl * (cum0 if r == 0 else inner1)
        total += term
        if term <= _REL_TOL * total:
            return total
    raise NumericError(f"S_{r}({z}) did not converge in {_MAX_TERMS} terms")


def _s1_minus_z(z: float) -> float:
    """S1(z) - z without cancellation: summed from the quadratic term on."""
    total = 0.0
    zl = 1.0
    wj = 1.0
    cum0 = 0.0
    inner1 = 0.0
    for l in range(1, _MAX_TERMS + 1):
        cum0 += wj
        wj *= (1.0 - z) / l
        inner1 += cum0
        zl *= z / l
        if l >= 2:
            term = zl * inner1
            total += term
            if term <= _REL_TOL * (total + z):
                return total
    raise NumericError(f"S_1({z}) - z did not converge in {_MAX_TERMS} terms")


def bessel_i(nu: int, x: float) -> float:
    """Modified Bessel function I_nu(x) for nu in {0, 1}, x >= 0, by series."""
    if nu not in (0, 1):
        raise DomainError(f"Bessel order nu must be 0 or 1, got {nu}")
    if x < 0.0:
        raise DomainError(f"Bessel argument must be nonnegative, got {x}")
    h = 0.5 * x
    term = h if nu else 1.0
    total = 0.0
    for m in range(_MAX_TERMS + 1):
        total += term
        if term <= _REL_TOL * total:
            return total
        term *= h * h / ((m + 1.0) * (m + 1.0 + nu))
    raise NumericError(f"I_{nu}({x}) did not converge in {_MAX_TERMS} terms")


def _i1_ratio(wsq: float) -> float:
    """I1(2w)/w as a power series in w^2, finite (value 1) at w = 0."""
    term = 1.0
    total = 0.0
    for m in range(_MAX_TERMS + 1):
        total += term
        if term <= _REL_TOL * total:
            return total
        term *= wsq / ((m + 1.0) * (m + 2.0))
    raise NumericError(f"I1 ratio at w^2 = {wsq} did not converge")


def _check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha = {alpha} outside [0, 1]")
    return alpha


def t1(alpha: float) -> float:
    """First-order correction term of the normalized-drift expansion."""
    _check_alpha(alpha)
    wsq = alpha * (1.0 - alpha)
    i0 = bessel_i(0, 2.0 * math.sqrt(wsq))
    return (
        0.5 * s_r(1, alpha)
        - 2.0 * alpha * s_r(0, alpha)
        - alpha * i0
        - wsq * _i1_ratio(wsq)
    )


def t2(alpha: float) -> float:
    """Second-order correction term of the normalized-drift expansion."""
    _check_alpha(alpha)
    wsq = alpha * (1.0 - alpha)
    i0 = bessel_i(0, 2.0 * math.sqrt(wsq))
    return (
        -s_r(1, alpha) / 24.0
        + alpha * s_r(0, alpha)
        + (1.0 + 6.0 * alpha) / 12.0 * i0
        - (1.0 - 10.0 * alpha + 4.0 * alpha**2) / 12.0 * _i1_ratio(wsq)
    )


@dataclass(frozen=True)
class ExpansionEval:
    """All expansion ingredients at one grid point alpha = k/n.

    ``approx`` holds the order-0, order-1 and order-2 approximations of the
    normalized drift (partial sums of the expansion).
    """

    alpha: float
    s0: float
    s1: float
    t1: float
    t2: float
    approx: tuple[float, float, float]


def evaluate_expansion(n: int, k: int) -> ExpansionEval:
    """Evaluate every expansion term at alpha = k/n, for any 1 <= k <= n.

    This is the raw evaluator behind figures and diagnostics; it does not
    apply the validity threshold that :func:`expansion_delta_star` enforces.
    """
    check_n(n)
    if not 1 <= k <= n:
        raise DomainError(f"state k = {k} outside [1, {n}]")
    alpha = k / n
    s0v = s_r(0, alpha)
    s1v = s_r(1, alpha)
    t1v = t1(alpha)
    t2v = t2(alpha)
    a0 = s1v
    a1 = s1v + t1v / n
    a2 = s1v + t1v / n + t2v / n**2
    return ExpansionEval(alpha=alpha, s0=s0v, s1=s1v, t1=t1v, t2=t2v, approx=(a0, a1, a2))


def _check_expansion_domain(n: int, k: int, order: int, eps) -> None:
    check_n(n)
    if order not in (0, 1, 2):
        raise DomainError(f"expansion order must be 0, 1 or 2, got {order}")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DomainError(f"validity threshold eps = {eps} outside (0, 1)")
    if k < 1 or Fraction(k) > (1 - eps) * n:
        raise DomainError(
            f"state k = {k} outside the expansion's validity range "
            f"1 <= k <= (1 - {eps}) * {n}"
        )


def expansion_delta_star(n: int, k: int, order: int = 2, eps=Fraction(1, 8)) -> float:
    """Approximate the normalized drift at k by the expansion through order.

    Valid for 1 <= k <= (1 - eps) n; outside that range the expansion is not
    a controlled approximation and a domain error is raised rather than
    silently extrapolating.
    """
    _check_expansion_domain(n, k, order, eps)
    return evaluate_expansion(n, k).approx[order]


def _inverse_orders(n: int, s1v: float, t1v: float, t2v: float) -> tuple[float, float, float]:
    i0 = 1.0 / s1v
    i1 = i0 - t1v / (n * s1v**2)
    i2 = i1 + (t1v**2 - t2v * s1v) / (n**2 * s1v**3)
    return (i0, i1, i2)


def expansion_inverse_delta_star(n: int, k: int, order: int = 2, eps=Fraction(1, 8)) -> float:
    """Approximate 1/delta* at k by the inverted expansion through order.

    The order-2 correction is (T1^2 - T2 S1) / (n^2 S1^3), i.e. the Taylor
    inverse of the direct expansion, not the reciprocal of its partial sum.
    """
    _check_expansion_domain(n, k, order, eps)
    ev = evaluate_expansion(n, k)
    return _inverse_orders(n, ev.s1, ev.t1, ev.t2)[order]


def _c0_integrand(t: float) -> float:
    if t == 0.0:
        return -1.5
    d = _s1_minus_z(t)
    return -d / (t * (t + d))


# Gauss-Legendre node counts for the C0 integral: the value and its check.
_C0_NODES = (32, 64)


def _c0_integral(nodes: int) -> float:
    """int_0^(1/2) (1/S1(t) - 1/t) dt by Gauss-Legendre with ``nodes`` nodes."""
    x, w = leggauss(nodes)
    t = 0.25 * (x + 1.0)
    return 0.25 * math.fsum(wi * _c0_integrand(ti) for ti, wi in zip(t.tolist(), w.tolist()))


@lru_cache(maxsize=None)
def constant_c0() -> float:
    """C0 = gamma - log 2 + int_0^(1/2) (1/S1(t) - 1/t) dt, to ~1e-12.

    The integrand is analytic on [0, 1/2], so fixed Gauss-Legendre rules
    converge geometrically; the 32- and 64-node values agree to an ulp or two,
    and their difference is the error estimate.
    """
    coarse, fine = (_c0_integral(nodes) for nodes in _C0_NODES)
    if abs(fine - coarse) > 1e-12:
        raise NumericError(f"C0 quadrature error estimate {abs(fine - coarse)} above 1e-12")
    return EULER_GAMMA - math.log(2.0) + fine


@lru_cache(maxsize=None)
def constant_c1() -> float:
    """C1 = -e C0: the linear-term constant of the runtime expansion."""
    return -math.e * constant_c0()


def asymptotic_q(n: int) -> float:
    """Closed-form estimate of the half-start inverse-drift sum q(n/2)."""
    check_n(n)
    return math.e * n * math.log(n) - constant_c1() * n + math.e * math.log(n)


def asymptotic_et(n: int) -> float:
    """Closed-form estimate of the expected optimization time.

    This is the expansion e n log n - C1 n + (e/2) log n + C2 of the run
    started from a uniformly random string. A deterministic half start sits
    about 1.1 steps above it at practical n (curvature of the hitting time
    around the mean of Bin(n, 1/2)); see the corridor constants for bounds
    that hold exactly.
    """
    check_n(n)
    return (
        math.e * n * math.log(n)
        - constant_c1() * n
        + 0.5 * math.e * math.log(n)
        + C2_ET
    )


@dataclass(frozen=True)
class RuntimeEstimate:
    """Asymptotic runtime estimates for one n, with the constants used."""

    n: int
    q_asym: float
    et_asym: float
    constants: dict


def runtime_estimate(n: int) -> RuntimeEstimate:
    check_n(n)
    return RuntimeEstimate(
        n=n,
        q_asym=asymptotic_q(n),
        et_asym=asymptotic_et(n),
        constants={
            "gamma": EULER_GAMMA,
            "c0": constant_c0(),
            "c1": constant_c1(),
            "c2": C2_ET,
        },
    )


def _check_grid(n_lo: int, n_hi: int, threads: int | None) -> None:
    """Validate a grid's size range and thread count.

    The grids are bound by the interpreter lock, so they run serially; the
    thread count is still validated, as the command line promises.
    """
    check_n(n_lo)
    check_n(n_hi)
    if n_hi < n_lo:
        raise DomainError(f"empty size range {n_lo}:{n_hi}")
    resolve_threads(threads)


def figure1_rows(n_lo: int, n_hi: int, threads: int | None = 1) -> list[tuple]:
    """Expansion quality grid: one row per (n, k), k = 1..n.

    Columns: n, k, alpha, exact normalized drift, the three direct
    approximations with their absolute errors, then the three inverse
    approximation errors |1/delta* - inverse approx|.
    """
    _check_grid(n_lo, n_hi, threads)
    rows = []
    for n in range(n_lo, n_hi + 1):
        column = _normalized_drift_float(n, range(1, n + 1))
        for k, exact in enumerate(column, start=1):
            ev = evaluate_expansion(n, k)
            inv = _inverse_orders(n, ev.s1, ev.t1, ev.t2)
            rows.append(
                (
                    n,
                    k,
                    ev.alpha,
                    exact,
                    ev.approx[0],
                    ev.approx[1],
                    ev.approx[2],
                    abs(exact - ev.approx[0]),
                    abs(exact - ev.approx[1]),
                    abs(exact - ev.approx[2]),
                    abs(1.0 / exact - inv[0]),
                    abs(1.0 / exact - inv[1]),
                    abs(1.0 / exact - inv[2]),
                )
            )
    return rows


def figure2_rows(n_lo: int, n_hi: int, threads: int | None = 1) -> list[tuple]:
    """Half-start overestimate grid: one row per n.

    Columns: n, q(n/2), g(n/2), their difference, and the difference minus
    (e/2) log n. The last column is flat in n, which is the visible form of
    the corridor.
    """
    _check_grid(n_lo, n_hi, threads)
    rows = []
    for n in range(n_lo, n_hi + 1):
        k0 = n // 2
        prof = runtime_profile(n, up_to=k0)
        q = prof.q[k0]
        g = prof.g[k0]
        diff = q - g
        rows.append((n, q, g, diff, diff - 0.5 * math.e * math.log(n)))
    return rows
