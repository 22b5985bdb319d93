"""Property tests of the hold phase's symmetries; skipped without hypothesis.

The amplitude of mode k after the hold is A_k(theta) = sum_i g_i e^{-i theta u_i} c_ki,
with g the real ground, u_i the ket's half pair count (an integer) and c_k
the conjugated readout column.  So P_k is 2*pi periodic; c_alpha is real, so
P_alpha(-theta) = P_alpha(theta); and c_beta = conj(c_gamma), so
P_beta(-theta) = P_gamma(theta).  Each bound below is derived from the
rounding, not fitted to the measured gaps.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat.protocol import run_protocol, sweep_protocol_probabilities
from test_protocol import EPS

TWO_PI = 2.0 * math.pi
# As in the beta/gamma mirror test of test_protocol.py: the terms' sizes
# |g_i| |c_ki| = g_i^2 sum to 1, so either amplitude carries about 1 eps from
# its terms (the exp, the products) and 1 eps from its sum, whose roundings add
# as a random walk; two amplitudes meant to agree (up to conjugation) differ by
# at most 4 eps, and with |A| <= 1 their probabilities by at most 2 * 4 eps.
MIRROR_TOL = 8 * EPS


def probabilities(n, thetas):
    """(P_alpha, P_beta, P_gamma) at each hold phase: the sweep's rows, then one ``run_protocol`` per phase."""
    runs = [run_protocol(n, float(theta)) for theta in thetas]
    return np.vstack([sweep_protocol_probabilities(n, thetas), [(r.p_alpha, r.p_beta, r.p_gamma) for r in runs]])


def period_tol(n, thetas, shifted):
    """The largest |P(theta + 2 pi) - P(theta)| the rounding allows, per phase.

    The float hold phase theta' = fl(theta + fl(2 pi)) is off from
    theta + 2 pi by |fl(2 pi) - 2 pi| plus half an ulp of theta', and each
    product theta * u rounds once, by |theta u| eps / 2.  So ket i's phase
    moves by at most u_i * d, with d = |fl(2 pi) - 2 pi| + ulp(theta') / 2 +
    (|theta| + |theta'|) eps / 2, and the amplitude by at most
    sum_i g_i^2 u_i d = <u> d, where <u> = n(n - 1)/6 is the ground's mean
    half pair count (each site holds n/3 on average, and E[n_k(n_k - 1)] =
    n(n - 1)/9).  The two sums round differently, so add the mirror's 4 eps;
    then |P' - P| <= 2 |A' - A|.
    """
    two_pi_error = 2.0 * math.sin(math.pi)  # 2 pi - fl(2 pi): sin(pi - x) = x to within x^3/6
    d = two_pi_error + 0.5 * np.spacing(np.abs(shifted)) + 0.5 * EPS * (np.abs(thetas) + np.abs(shifted))
    return 2.0 * (n * (n - 1) / 6.0 * d + 4.0 * EPS)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 90),
    thetas=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4),
)
def test_hold_phase_symmetries(n, thetas):
    thetas = np.array(thetas)
    shifted = thetas + TWO_PI
    p = probabilities(n, thetas)
    flipped = probabilities(n, -thetas)
    # alpha is even in theta, and theta -> -theta swaps beta and gamma
    assert np.max(np.abs(flipped[:, 0] - p[:, 0])) <= MIRROR_TOL
    assert np.max(np.abs(flipped[:, 1] - p[:, 2])) <= MIRROR_TOL
    assert np.max(np.abs(flipped[:, 2] - p[:, 1])) <= MIRROR_TOL
    # every probability is 2 pi periodic
    tol = np.tile(period_tol(n, thetas, shifted), 2)[:, None]
    assert np.all(np.abs(probabilities(n, shifted) - p) <= tol)
