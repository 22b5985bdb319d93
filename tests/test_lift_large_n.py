"""Matrix-free lift checks at particle numbers where a dense lift is costly.

Nothing here reads ``FockLift.matrix``: every check applies the lift to
vectors, and each test asserts that no dense matrix was built on the way.
The lifts are built fresh, not taken from the ``dft_lift`` cache, which
other tests fill with dense matrices.
"""

import numpy as np
import pytest

from ringcat.basis import dimension
from ringcat.modes import dft_mode_matrix, extremal_columns, lift_to_fock
from ringcat.state import Representation, StateVector, fock_state

SIZES = (30, 90, 150)


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
