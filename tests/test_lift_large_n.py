"""Matrix-free lift checks at particle numbers where a dense lift is costly.

Nothing here reads ``FockLift.matrix``: every check applies the lift to
vectors, and each test asserts that no dense matrix was built on the way.
The lifts are built fresh, not taken from the ``dft_lift`` cache, which
other tests fill with dense matrices.
"""

import numpy as np
import pytest

from ringcat.basis import dimension, enumerate_basis, rank
from ringcat.modes import dft_mode_matrix, extremal_columns, lift_to_fock
from ringcat.state import Representation, StateVector, fock_state, superfluid_ground_state

SIZES = (30, 90, 150)
EPS = np.finfo(np.float64).eps
# an apply's error on a unit state, per entry: 15 to 20 eps measured at N = 30 to 300
APPLY_TOL = 64 * EPS


def haar_unitary(rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def random_site_state(n, rng):
    amps = rng.normal(size=dimension(n)) + 1j * rng.normal(size=dimension(n))
    return StateVector(n, Representation.SITE, amps / np.linalg.norm(amps))


def assert_matrix_free(*lifts):
    for lift in lifts:
        assert "matrix" not in vars(lift), f"dense lift built at n={lift.n}"


@pytest.mark.parametrize("n", SIZES)
def test_lift_preserves_norm(n):
    rng = np.random.default_rng(100 + n)
    lift = lift_to_fock(haar_unitary(rng), n)
    for _ in range(3):
        v = random_site_state(n, rng)
        assert abs(np.linalg.norm(lift.to_momentum(v).amps) - 1.0) < 1e-13
    assert_matrix_free(lift)


@pytest.mark.parametrize("n", SIZES)
def test_lift_round_trip(n):
    rng = np.random.default_rng(200 + n)
    lift = lift_to_fock(dft_mode_matrix(), n)
    v = random_site_state(n, rng)
    back = lift.to_site(lift.to_momentum(v))
    assert np.max(np.abs(back.amps - v.amps)) < 1e-13
    assert_matrix_free(lift)


@pytest.mark.parametrize("n", SIZES)
def test_lift_homomorphism_on_vectors(n):
    rng = np.random.default_rng(300 + n)
    f, g = haar_unitary(rng), haar_unitary(rng)
    lf, lg, lfg = lift_to_fock(f, n), lift_to_fock(g, n), lift_to_fock(f @ g, n)
    v = random_site_state(n, rng)
    # the lifts act on generic mode bases here, so re-tag between steps
    gv = StateVector(n, Representation.SITE, lg.to_momentum(v).amps)
    assert np.max(np.abs(lf.to_momentum(gv).amps - lfg.to_momentum(v).amps)) < 1e-11
    assert_matrix_free(lf, lg, lfg)


def test_extremal_mode_kets_match_closed_form_at_ninety():
    n = 90
    lift = lift_to_fock(dft_mode_matrix(), n)
    cols = extremal_columns(n)
    for k, occ in enumerate(((n, 0, 0), (0, n, 0), (0, 0, n))):
        site = lift.to_site(fock_state(occ, Representation.MOMENTUM))
        assert np.max(np.abs(site.amps - cols[:, k])) < 1e-12
    assert_matrix_free(lift)


@pytest.mark.parametrize("n", [30, 90, 300])
def test_dft_lift_squared_swaps_the_flow_modes_and_takes_the_ground_to_one_ket(n):
    # F @ F is the real permutation that swaps modes beta and gamma, so
    # L(F)^2 takes the ket (n0, n1, n2) to (n0, n2, n1) with no phase: an
    # exact oracle at any n
    lift = lift_to_fock(dft_mode_matrix(), n)
    rng = np.random.default_rng(400 + n)
    x = rng.normal(size=(2, dimension(n))) + 1j * rng.normal(size=(2, dimension(n)))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    swapped = np.empty_like(x)
    swapped[:, [rank((n0, n2, n1)) for n0, n1, n2 in enumerate_basis(n).tolist()]] = x
    assert np.max(np.abs(lift.forward.apply(lift.forward.apply(x)) - swapped)) < APPLY_TOL
    # the ground is the n-fold occupation of mode alpha, so it goes to the one
    # ket (n, 0, 0), with the ground's own norm defect (its log-gamma weights:
    # 1.3e-14 at n = 90) and a phase of about 1.1 * n * eps measured, the
    # Givens phases' rounding summed over n particles
    ground = superfluid_ground_state(n).amps
    out = lift.forward.apply(ground[None])[0]
    assert abs(abs(out[0]) - np.linalg.norm(ground)) < 8 * EPS
    assert abs(np.angle(out[0])) < 4 * n * EPS
    assert np.max(np.abs(out[1:])) < APPLY_TOL
    assert_matrix_free(lift)
