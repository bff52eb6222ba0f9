"""Shared backend plumbing: scalar kinds, argument validation, errors.

Every quantity in this package can be computed in one of two scalar backends.
The float backend uses IEEE double arithmetic and numpy vectorization; the
rational backend returns exact ``fractions.Fraction`` values. Its exact
values carry denominators of order n^n and beyond, so table builders cap it
(default n <= 64) and raise :class:`CapacityError` beyond the cap. Work whose
memory grows with its inputs (the float kernel band, the inequality suite,
the kept simulation samples, the ``asym`` and ``figures`` tables of the
command line) is checked against :data:`MEMORY_LIMIT` before it is
allocated and raises :class:`CapacityError` above it. Both backends read the chain from one
kernel band: floats, or for the rational backend integer numerators over the
common denominator n^n. Rational quantities add and multiply those integers
over a denominator known in advance and build one Fraction per returned
value. Invalid arguments raise :class:`DomainError`, so that a caller can
tell its own mistakes from faults inside a computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "BACKENDS",
    "DEFAULT_RATIONAL_CAP",
    "FLOAT",
    "RATIONAL",
    "CapacityError",
    "DomainError",
    "NumericError",
]

FLOAT = "float"
RATIONAL = "rational"
BACKENDS = (FLOAT, RATIONAL)

DEFAULT_RATIONAL_CAP = 64

# Largest array, in bytes, that one request may allocate: 2 GiB. It admits
# the float kernel band of all 10^6 + 1 states of n = 10^6 (0.17 GB) and the
# jump tables of a uniform-start ``sim --n 1000000`` (also 0.17 GB).
MEMORY_LIMIT = 2 * 1024**3

Scalar = Union[float, Fraction]


class DomainError(ValueError):
    """Raised when an argument lies outside the domain of a computation."""


class CapacityError(DomainError):
    """Raised when a request exceeds a documented capacity: the rational
    backend's cap on n, or :data:`MEMORY_LIMIT` for one array or for the
    inequality suite. It is raised before anything is allocated."""


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


def check_memory(nbytes: int, what: str) -> None:
    """Raise :class:`CapacityError` if an array of ``nbytes`` would exceed
    :data:`MEMORY_LIMIT`."""
    if nbytes > MEMORY_LIMIT:
        raise CapacityError(
            f"{what} would take {nbytes / 2**30:.3g} GiB, above the "
            f"{MEMORY_LIMIT / 2**30:g} GiB limit"
        )


def pow_base(base: float, m: int) -> float:
    """base**m for integer m >= 0, by binary exponentiation.

    Switches to exp(m * log(base)) for exponents above 10**6, where the
    accumulated rounding of repeated squaring would exceed the transcendental
    route's error. Above n = 10**6 the band's bases take it, one call per
    exponent: 1.1 of 3.1-3.7 s of ``runtime_profile(2 * 10**6, up_to=10**6)``.
    At base 1 - 1/n, n <= 8 * 10**6, it errs by up to 1.8e-10 relative.
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

