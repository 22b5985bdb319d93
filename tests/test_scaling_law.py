"""The timing tolerance's closed-form large-N law, N*delta0 -> (9/2pi) sqrt(1/c - 1).

Write n_k = N/3 + x_k.  Since sum x_k = 0, sum n_k(n_k - 1) = |x|^2 + N^2/3 - N
exactly, so a timing error delta adds the phase (pi*delta/3)|x|^2 to each
ket, plus a constant.  The multinomial ground state has covariance
(N/3)(I - 11^T/3): isotropic with variance N/3 on the plane sum x = 0, so
|x|^2 ~ (N/3) chi^2_2 and each extremal amplitude is scaled by
E[exp(-i(pi*delta/3)|x|^2)] = 1/(1 + 2*pi*i*N*delta/9).  Hence
C(N, delta) -> 1/(1 + (2*pi*N*delta/9)^2) and N*delta0 -> (9/2pi) sqrt(1/c - 1),
3/(2pi) = 0.4775 at c = 0.9.

The measured corrections are clean 1/N terms: N*(N*delta0 - 3/2pi) is 0.217,
0.214, 0.213 and 0.212 at N = 30, 90, 150 and 252 (c = 0.9), and
N*max|C - law| on 81 points of N*delta in [0, 4] is 0.127 at N = 90 and
0.126 at N = 252.  The bounds below, 0.3/N and 0.15/N, sit above those
coefficients.
"""

import math

import numpy as np
import pytest

from ringcat.protocol import CAT_HOLD_PHASE, cattiness_curve, timing_tolerance


def law_n_delta0(c_target):
    return 9.0 / (2.0 * math.pi) * math.sqrt(1.0 / c_target - 1.0)


@pytest.mark.parametrize("n, c_target", [(30, 0.9), (90, 0.9), (150, 0.9), (252, 0.9), (90, 0.5), (90, 0.99)])
def test_tolerance_follows_the_closed_form_law(n, c_target):
    assert abs(n * timing_tolerance(n, c_target) - law_n_delta0(c_target)) <= 0.3 / n


@pytest.mark.parametrize("n", [90, 252])
def test_cattiness_curve_follows_the_closed_form_law(n):
    x = np.linspace(0.0, 4.0, 81)  # x = N*delta
    curve = cattiness_curve(n, (1.0 + x / n) * CAT_HOLD_PHASE)
    law = 1.0 / (1.0 + (2.0 * math.pi * x / 9.0) ** 2)
    assert np.max(np.abs(curve - law)) <= 0.15 / n

