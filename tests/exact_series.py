"""Exact readout probabilities at the cat hold phase, in Python integers.

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

an exact rational.
"""

from fractions import Fraction
from math import comb


def cat_probabilities(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (P_alpha, P_beta, P_gamma) after one protocol run with ``n`` particles at theta = 2 pi / 3."""
    weights = [[0, 0, 0] for _ in range(3)]  # weights[k][e]: the summed m(s) on omega^e in 3^N A_k
    for p in range(n + 1):
        for q in range(n - p + 1):
            r = n - p - q
            m = comb(n, p) * comb(n - p, q)
            u = comb(p, 2) + comb(q, 2) + comb(r, 2)
            for k in range(3):
                weights[k][(k * (q + 2 * r) - u) % 3] += m
    return tuple(
        Fraction(c0 * c0 + c1 * c1 + c2 * c2 - c0 * c1 - c1 * c2 - c2 * c0, 9**n) for c0, c1, c2 in weights
    )
