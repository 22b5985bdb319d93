"""Symmetric Fock basis of N bosons on three modes.

Basis elements are occupation triples (n0, n1, n2) with n0 + n1 + n2 = N.
The canonical enumeration order is lexicographically descending on
(n0, n1), so (N, 0, 0) is first and (0, 0, N) is last; the dimension is
(N + 1)(N + 2) / 2.  The same enumeration is used for both the lattice-site
and the quasi-momentum representation; only the meaning of the three slots
changes.

Factorial weights are computed through a log-gamma table so that amplitudes
stay finite well beyond the particle numbers where 64-bit factorials
overflow.

The per-n tables here, in ``modes`` and in ``protocol`` are cached for the
last n only, so a run over many n holds one n's tables at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "dimension",
    "enumerate_basis",
    "rank",
    "unrank",
    "log_factorials",
    "multinomial_amplitude",
    "multinomial_amplitudes",
    "pair_counts",
]

LOG3 = math.log(3.0)


def dimension(n: int) -> int:
    """Number of occupation triples summing to ``n`` (stars and bars)."""
    if n < 0:
        raise ValueError(f"particle number must be >= 0, got {n}")
    return ((n + 1) * (n + 2)) // 2


@lru_cache(maxsize=1)
def enumerate_basis(n: int) -> np.ndarray:
    """All occupation triples for ``n`` particles, canonical order.

    Returns an integer array of shape ``(dimension(n), 3)``.  Row ``i`` is
    the triple with rank ``i``; the array is read-only and cached.
    """
    dim = dimension(n)
    # the closed form of ``unrank``: m = n - n0 and n2 = i - m(m+1)/2 at rank i
    m = np.repeat(np.arange(n + 1, dtype=np.int64), np.arange(1, n + 2))
    n2 = np.arange(dim, dtype=np.int64) - m * (m + 1) // 2
    occ = np.stack([n - m, m - n2, n2], axis=1)
    occ.setflags(write=False)
    return occ


def rank(state) -> int:
    """Ordinal of an occupation triple in the canonical order."""
    n0, n1, n2 = (int(v) for v in state)
    if n0 < 0 or n1 < 0 or n2 < 0:
        raise ValueError(f"occupations must be >= 0, got {(n0, n1, n2)}")
    n = n0 + n1 + n2
    m = n - n0
    return (m * (m + 1)) // 2 + (m - n1)


def unrank(i: int, n: int) -> tuple[int, int, int]:
    """Occupation triple at ordinal ``i`` for ``n`` particles."""
    if not 0 <= i < dimension(n):
        raise ValueError(f"index {i} out of range for dimension {dimension(n)}")
    m = int((math.isqrt(8 * i + 1) - 1) // 2)
    n0 = n - m
    n1 = m - (i - (m * (m + 1)) // 2)
    return n0, n1, n - n0 - n1


@lru_cache(maxsize=1)
def log_factorials(n: int) -> np.ndarray:
    """Table of log(k!) for k = 0..n, one lgamma call per entry."""
    table = np.array([math.lgamma(k + 1) for k in range(n + 1)], dtype=np.float64)
    table.setflags(write=False)
    return table


def multinomial_amplitude(p: int, q: int, r: int) -> float:
    """sqrt(N! / (p! q! r!)) / sqrt(3^N) for N = p + q + r.

    These are the coefficients of the even superposition of N particles
    spread over three modes; they square-sum to one over the whole basis.
    """
    if p < 0 or q < 0 or r < 0:
        raise ValueError(f"occupations must be >= 0, got {(p, q, r)}")
    n = p + q + r
    lf = log_factorials(n)
    return math.exp(0.5 * (lf[n] - lf[p] - lf[q] - lf[r]) - 0.5 * n * LOG3)


@lru_cache(maxsize=1)
def multinomial_amplitudes(n: int) -> np.ndarray:
    """Vector of ``multinomial_amplitude`` over the whole basis for ``n``."""
    occ = enumerate_basis(n)
    lf = log_factorials(n)
    amps = np.exp(
        0.5 * (lf[n] - lf[occ[:, 0]] - lf[occ[:, 1]] - lf[occ[:, 2]]) - 0.5 * n * LOG3
    )
    amps.setflags(write=False)
    return amps


@lru_cache(maxsize=1)
def pair_counts(n: int) -> np.ndarray:
    """Vector of sum_k n_k (n_k - 1) over the basis (pairwise interaction weight)."""
    occ = enumerate_basis(n)
    counts = np.sum(occ * (occ - 1), axis=1)
    counts.setflags(write=False)
    return counts
