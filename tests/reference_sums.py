"""Reference values summed in plain Fractions, independent of the package."""

from fractions import Fraction as F
from math import comb


def plain_fraction_drift(n, k):
    """Drift of state k as the double sum over flip counts (l zero-bits,
    j < l one-bits) of (l - j) C(k, l) C(n-k, j) (1/n)^(l+j)
    (1 - 1/n)^(n-l-j)."""
    p = F(1, n)
    return sum(
        (
            (l - j) * comb(k, l) * comb(n - k, j) * p ** (l + j) * (1 - p) ** (n - l - j)
            for l in range(1, k + 1)
            for j in range(min(l, n - k + 1))
        ),
        F(0),
    )
