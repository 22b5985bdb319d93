"""Exact readout probabilities of the hold-phase series, in Python integers.

An oracle for the float code.  The even condensate has amplitude
sqrt(m(s)) / 3^(N/2) on ket s = (p, q, r), with m(s) = N! / (p! q! r!); the
hold multiplies it by exp(-i theta u(s)), u(s) = C(p, 2) + C(q, 2) + C(r, 2);
and the ket with every particle in mode k has site amplitudes
sqrt(m(s)) omega^(-k (q + 2 r)) / 3^(N/2), omega = exp(2 pi i / 3).  So the
readout amplitude of mode k is

    A_k(theta) = 3^-N * sum_s m(s) omega^(k (q + 2 r)) exp(-i theta u(s)).

At theta = 2 pi / 3 the hold factor is omega^(-u(s)), so 3^N A_k is
c0 + c1 omega + c2 omega^2 with integers c_e, and since |omega| = 1 and
omega + omega^2 = -1,

    P_k = (c0^2 + c1^2 + c2^2 - c0 c1 - c1 c2 - c2 c0) / 9^N,

an exact rational.  At any other float theta the same integer weights,
grouped by u, are summed in 40-digit mpmath (``mp_probabilities``).
"""

from fractions import Fraction
from math import comb


def series_weights(n: int) -> dict[int, list[list[int]]]:
    """w[u][k][e]: the summed m(s) over the kets s with pair count u and omega^e in mode k's column.

    So 3^N A_k(theta) = sum_u exp(-i theta u) sum_e w[u][k][e] omega^e.
    """
    weights = {}
    for p in range(n + 1):
        for q in range(n - p + 1):
            r = n - p - q
            m = comb(n, p) * comb(n - p, q)
            w = weights.setdefault(comb(p, 2) + comb(q, 2) + comb(r, 2), [[0, 0, 0] for _ in range(3)])
            for k in range(3):
                w[k][k * (q + 2 * r) % 3] += m
    return weights


def cat_probabilities(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (P_alpha, P_beta, P_gamma) after one protocol run with ``n`` particles at theta = 2 pi / 3."""
    folded = [[0, 0, 0] for _ in range(3)]  # folded[k][e]: the summed m(s) on omega^e in 3^N A_k
    for u, w in series_weights(n).items():
        for k in range(3):
            for e in range(3):
                folded[k][(e - u) % 3] += w[k][e]
    return tuple(
        Fraction(c0 * c0 + c1 * c1 + c2 * c2 - c0 * c1 - c1 * c2 - c2 * c0, 9**n) for c0, c1, c2 in folded
    )


def mp_probabilities(n: int, theta: float) -> list:
    """(P_alpha, P_beta, P_gamma) at the float ``theta``, summed from ``series_weights`` in 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        theta = mpmath.mpf(theta)
        omega = [mpmath.expjpi(mpmath.mpf(2 * e) / 3) for e in range(3)]
        amplitudes = [mpmath.mpc(0)] * 3
        for u, w in series_weights(n).items():
            hold = mpmath.expj(-theta * u)
            for k in range(3):
                amplitudes[k] += hold * mpmath.fsum(c * z for c, z in zip(w[k], omega))
        return [abs(a / mpmath.mpf(3) ** n) ** 2 for a in amplitudes]
