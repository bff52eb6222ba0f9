"""Reference values for the tests, computed without the kernel band.

``plain_fraction_drift`` and ``plain_fraction_normalized_drift`` sum in
plain Fractions, independent of the package.
``float_kernel_row`` builds an untruncated float row from flip-count pmfs;
it shares only the package's ``pow_base`` for (1 - 1/n)^m.
"""

from fractions import Fraction as F
from math import comb

import numpy as np

from onemax_runtime.backends import pow_base


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


def plain_fraction_normalized_drift(n, k):
    """Normalized drift of state k as the double sum over l = 1..k and
    j < l of (l - j) C(k, l) C(n+1-k, j) n^-(j+l)."""
    p = F(1, n)
    return sum(
        (
            (l - j) * comb(k, l) * comb(n + 1 - k, j) * p ** (j + l)
            for l in range(1, k + 1)
            for j in range(l)
        ),
        F(0),
    )


def float_kernel_row(n, k):
    """Kernel row p(k, 0..k) from the untruncated float pmfs of Bin(k, 1/n)
    and Bin(n - k, 1/n), each by the ratio recurrence from pow_base(1 - 1/n,
    m); p(k, k) is one minus the rest of the row."""

    def pmf(m):
        out = np.empty(m + 1)
        out[0] = pow_base(1.0 - 1.0 / n, m)
        i = np.arange(1.0, m + 1)
        out[1:] = out[0] * np.cumprod((m - i + 1.0) / (i * (n - 1.0)))
        return out

    pa, pb = pmf(k), pmf(n - k)
    jumps = np.correlate(pa, pb, mode="full")[len(pb) - 1 :]
    row = jumps[::-1].copy()
    row[k] = 1.0 - row[:k].sum()
    return row
