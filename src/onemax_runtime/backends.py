"""Shared backend plumbing: scalar kinds, argument validation, errors.

Every quantity in this package can be computed in one of two scalar backends.
The float backend uses IEEE double arithmetic and numpy vectorization; the
rational backend uses ``fractions.Fraction`` and is exact but slow, so table
builders cap it (default n <= 64) and raise :class:`CapacityError` beyond the
cap. Both backends run the same code on the chain: the kernel band holds
floats or Fractions, and the quantities read from it differ only in how a row
is summed. Invalid arguments raise :class:`DomainError`, so that a caller can
tell its own mistakes from faults inside a computation.

Simulation runs its chunks on a thread pool sized by :func:`worker_count`;
the result is the same for every thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Sequence, TypeVar, Union

FLOAT = "float"
RATIONAL = "rational"
BACKENDS = (FLOAT, RATIONAL)

DEFAULT_RATIONAL_CAP = 64

THREADS_ENV_VAR = "ONEMAX_RUNTIME_THREADS"

Scalar = Union[float, Fraction]

_T = TypeVar("_T")
_U = TypeVar("_U")


class DomainError(ValueError):
    """Raised when an argument lies outside the domain of a computation."""


class CapacityError(DomainError):
    """Raised when the rational backend is asked for more than its cap."""


class NumericError(ArithmeticError):
    """Raised when a floating-point computation fails to converge."""


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise DomainError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def check_n(n: int) -> int:
    """Validate a problem size. The smallest supported instance is n = 2."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    return n


def check_rational_cap(n: int, backend: str, cap: int = DEFAULT_RATIONAL_CAP) -> None:
    if backend == RATIONAL and n > cap:
        raise CapacityError(
            f"rational backend capped at n <= {cap}, got n = {n}; "
            f"raise the cap explicitly or use the float backend"
        )


def pow_base(base: float, m: int) -> float:
    """base**m for integer m >= 0, by binary exponentiation.

    Switches to exp(m * log(base)) for exponents above 10**6, where the
    accumulated rounding of repeated squaring would exceed the transcendental
    route's error. Exponents in this package stay below n + 2, so the switch
    is a guard rather than a hot path.
    """
    if m < 0:
        raise ValueError(f"exponent must be nonnegative, got {m}")
    if m > 10**6:
        if base == 0.0:
            return 0.0
        return math.exp(m * math.log(base))
    result = 1.0
    acc = base
    e = m
    while e:
        if e & 1:
            result *= acc
        e >>= 1
        if e:
            acc *= acc
    return result


def resolve_threads(threads: int | None) -> int:
    """Requested thread count: flag value, else env override, else cores."""
    env = os.environ.get(THREADS_ENV_VAR)
    if threads is None and env is not None:
        try:
            threads = int(env)
        except ValueError:
            raise DomainError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise DomainError(f"threads must be positive, got {threads}")
    return threads


def worker_count(threads: int | None, n_items: int) -> int:
    """Pool size for n_items tasks: the requested threads, never more than
    there are tasks or cores."""
    return max(1, min(resolve_threads(threads), n_items, os.cpu_count() or 1))


def thread_map(fn: Callable[[_T], _U], items: Sequence[_T], threads: int | None) -> list[_U]:
    """Map fn over items, in order, optionally on a thread pool.

    Collection is ordered, so output is identical for any thread count.
    """
    workers = worker_count(threads, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
