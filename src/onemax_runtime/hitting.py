"""Expected hitting times of the all-ones string, exactly.

With g(k) the expected number of mutation steps to reach the optimum from k
zero bits, conditioning on the first accepted jump gives the triangular
recurrence

    g(0) = 0,
    g(k) = (1 + sum_{j=1..k-1} p(k, j) g(j)) / sum_{j=0..k-1} p(k, j),

because the chain never moves up. Both backends solve it over the kernel
band, which one pass over the chain (``_chain``) builds a block of states
at a time, for every reader of a whole chain: g, s_k, the drift, q and eta
are running reductions in ascending k, so no whole band is held. The float
backend takes s_k from the correctly rounded row sums of ``drift`` and
solves s_k g(k) - sum_d p(k, k - d) g(k - d) = 1 in runs of D states at
once, D the band width (``_solve_runs``), joined in order. Every term is
nonnegative, so nothing cancels: against the exact solution of the same
float band, g is within n units of 2^-53, relative, at every state for
n <= 300 (a test checks it), within 19 over the states of n = 700, and
within 246 up to n/2 at n = 10^6 (43 at n/2, where a ``math.fsum`` per
state read 930), far below the n 2^-53 every band entry carries from the
base fl(1 - 1/n). The rational backend runs the recurrence on the band's
integer numerators over n^n: g(k) = G_k / D_k, where D_k is the running
product of the numerators of the row sums s_k and G_k is an integer, so
each g(k) is one Fraction, reduced once. The companion quantity

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
from collections.abc import Iterator
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
    check_memory,
    check_n,
    check_rational_cap,
)
from .drift import (
    DriftTable,
    TransitionKernel,
    _band_drift,
    _band_improvement,
    _band_width,
    _check_state,
    _exact_numerators,
    _float_band,
)

__all__ = [
    "EULER_GAMMA",
    "CORRIDOR_C1",
    "CORRIDOR_C2",
    "HittingProfile",
    "hitting_profile",
    "runtime_profile",
    "inverse_drift_sum",
    "closed_form_g",
    "harmonic",
]

EULER_GAMMA = 0.57721566490153286061

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
    is below 1/(252 m^6), far under double precision there. Library API only:
    no code of the package calls it, and the tests check it directly.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"harmonic number needs an integer m >= 0, got {m!r}")
    if m <= 10**6:
        return math.fsum(1.0 / i for i in range(1, m + 1))
    return (
        math.log(m)
        + EULER_GAMMA
        + 1.0 / (2.0 * m)
        - 1.0 / (12.0 * m**2)
        + 1.0 / (120.0 * m**4)
    )


def _inverse_drift_prefix(delta, before=None) -> np.ndarray:
    """q(k) = sum_{j=1..k} 1/delta(j) for every k of a drift column, as an
    array of the column's scalars.

    The running sum starts from delta(0), which is the zero of the column's
    scalar type, or for a later block of a column from ``before``, q of the
    state before it, and adds in order, so Fractions stay exact and blocks
    end bit for bit where the whole column does.
    """
    if before is None:
        return np.cumsum(np.concatenate((delta[:1], 1 / np.asarray(delta[1:]))))
    return np.cumsum(np.concatenate(([before], 1 / np.asarray(delta))))[1:]


# States per block of ``_chain``, cut to whole runs: a block's band rows (168
# bytes a state) and the solver's arrays (about 400) live one at a time.
_SPAN = 4096


def _solve_runs(band: np.ndarray, diag: np.ndarray, rhs, before: np.ndarray) -> np.ndarray:
    """x at consecutive states k of the system diag_k x_k - sum_{d=1..W}
    band[k, d] x_(k-d) = rhs_k of a float band of width W, as one row of W
    values per run of W states, from the W values ``before`` the first; a
    last run past the states is padded. ``rhs`` is a scalar or one value per
    state.

    Inside a run every x is an affine function a + H h of the W values h
    just before the run. For all runs at once, W steps build the coefficient
    rows (a, H) state by state: a step is one batched product of each run's
    band row with its last W coefficient rows, plus rhs, over diag. A run
    holds W states, so its values are the next run's h: a loop walks the
    runs in order, one (W x (W + 1)) product each. With a nonnegative band,
    diag and rhs nothing cancels, and with diag the band's row sums each
    value is a weighted mean of the W values before its run plus its rhs
    part, so a rounding error is carried on but not grown.
    """
    width = band.shape[1] - 1
    runs = -(-len(band) // width)
    # The band rows in reversed order of d, so that column d pairs with the
    # coefficient row of x_(k-d); padded states get zero rows over a unit
    # diag.
    rows = np.zeros((runs * width, width))
    rows[: len(band)] = band[:, :0:-1]
    rows = rows.reshape(runs, width, width)
    piv = np.ones(runs * width)
    piv[: len(band)] = diag
    piv = piv.reshape(runs, width)
    if np.ndim(rhs):
        rhs = np.concatenate((rhs, np.zeros(runs * width - len(band)))).reshape(runs, width)
    # coef[r, i] = (a, H) of the i-th of the 2W states that end run r; the
    # first W are the h themselves.
    coef = np.zeros((runs, 2 * width, width + 1))
    coef[:, np.arange(width), np.arange(1, width + 1)] = 1.0
    for i in range(width):
        step = np.matmul(rows[:, i, None, :], coef[:, i : i + width])[:, 0]
        step[:, 0] += rhs[:, i] if np.ndim(rhs) else rhs
        step /= piv[:, i, None]
        coef[:, width + i] = step
    # vals[r] = (1, h) of run r, and vals[r + 1] holds run r's own values.
    vals = np.empty((runs + 1, width + 1))
    vals[:, 0] = 1.0
    vals[0, 1:] = before
    for r in range(runs):
        np.dot(coef[r, width:], vals[r], out=vals[r + 1, 1:])
    return vals[1:, 1:]


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


def _chain(n: int, backend: str, top: int, solve_to: int = -1) -> Iterator[tuple]:
    """The chain of n bits over states 0..top in ascending blocks: for each,
    its states (a range), its rows of a ``_BANDS`` band at the chain width
    of top, their s_k and their g, solved over states 0..solve_to (empty
    past them); readers sum the drift of the rows (``_band_drift``).

    The exact chain is one block: its g and eta read every earlier row.
    Float block 0 holds state 0 and one span of ``_SPAN`` states cut to
    whole runs of the band width W, and each later block one span, so each
    starts a run. Band entries and row sums do not depend on the block a
    row is in, and a run's values only on its rows and the W values before
    it, which the pass carries on: every value is bit for bit the whole
    band's.
    """
    if backend == RATIONAL:
        nums = _exact_numerators(n, range(top + 1))
        g = _exact_hitting_times(n, nums[: solve_to + 1])[: solve_to + 1]
        yield range(top + 1), nums, _band_improvement(n, backend, nums), np.array(g, dtype=object)
        return
    width = _band_width(n, top)
    span = _SPAN // width * width if width else 1
    before = np.zeros(width)
    lo = 0
    for hi in [*range(1 + span, top + 1, span), top + 1]:
        rows = _float_band(n, range(lo, hi), width)
        improve = _band_improvement(n, backend, rows)
        g = np.zeros(max(min(hi, solve_to + 1) - lo, 0))
        # State 0 is in no run: g(0) = 0.
        first = 0 if lo else 1
        if len(g) > first:
            runs = _solve_runs(rows[first : len(g)], improve[first : len(g)], 1.0, before)
            g[first:] = runs.ravel()[: len(g) - first]
            before = runs[-1]
        yield range(lo, hi), rows, improve, g
        lo = hi


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


# Bytes a state that ``runtime_profile`` and ``hitting_profile`` hold, checked
# against MEMORY_LIMIT before anything is built: g, drift and q columns and g
# and q tuples beside one block of the band, 96.0 traced at n = 10^5 and 2 10^5.
# Kept from when the whole band was held, so the same n are admitted.
_PROFILE_BYTES_PER_STATE = 192


def hitting_profile(kernel: TransitionKernel, drift_table: DriftTable) -> HittingProfile:
    """Solve the hitting-time recurrence over the kernel's rows.

    The profile covers k = 0..kernel.max_state, read in the pass over the
    chain, so the kernel's band is not built; the drift table supplies the
    denominators of the inverse-drift sums.
    """
    _check_same_chain(kernel, drift_table)
    n, backend, top = kernel.n, kernel.backend, kernel.max_state
    check_memory((top + 1) * _PROFILE_BYTES_PER_STATE, f"the hitting profile at n = {n}")
    q = _inverse_drift_prefix(drift_table.delta[: top + 1])
    g = np.concatenate([g for *_, g in _chain(n, backend, top, top)])
    return HittingProfile(n, backend, tuple(g.tolist()), tuple(q.tolist()))


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
    O(up_to D) for the band width D, and the band is read one block at a
    time.
    """
    check_n(n)
    check_backend(backend)
    check_rational_cap(n, backend, rational_cap)
    if up_to is None:
        up_to = n
    _check_state(n, up_to, n)
    check_memory((up_to + 1) * _PROFILE_BYTES_PER_STATE, f"the hitting profile at n = {n}")
    blocks = _chain(n, backend, up_to, up_to)
    pairs = ((g, _band_drift(n, backend, rows)) for _, rows, _, g in blocks)
    g, delta = (np.concatenate(c) for c in zip(*pairs))
    q = _inverse_drift_prefix(delta)
    return HittingProfile(n, backend, tuple(g.tolist()), tuple(q.tolist()))


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
