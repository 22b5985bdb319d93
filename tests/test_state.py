import math

import numpy as np
import pytest

from ringcat.basis import dimension, rank
from ringcat.evolution import evolve_interaction_phase
from ringcat.hamiltonian import HubbardParams, build_bose_hubbard
from ringcat.modes import extremal_mode_probabilities
from ringcat.state import (
    NumericalHealthError,
    Representation,
    StateVector,
    fock_state,
    overlap,
    site_number_distribution,
    superfluid_ground_state,
)


def test_ground_state_three_particles_matches_closed_amplitudes():
    g = superfluid_ground_state(3)
    amps = g.amps.real
    extreme = 1.0 / (3.0 * math.sqrt(3.0))
    assert amps[rank((3, 0, 0))] == pytest.approx(extreme, abs=1e-15)
    assert amps[rank((0, 3, 0))] == pytest.approx(extreme, abs=1e-15)
    assert amps[rank((0, 0, 3))] == pytest.approx(extreme, abs=1e-15)
    assert amps[rank((1, 1, 1))] == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-15)
    for mixed in ((1, 2, 0), (2, 1, 0), (1, 0, 2), (2, 0, 1), (0, 1, 2), (0, 2, 1)):
        assert amps[rank(mixed)] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.max(np.abs(g.amps.imag)) == 0.0


def test_ground_state_single_particle_is_even():
    g = superfluid_ground_state(1)
    assert np.allclose(g.amps, np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-15)


def test_ground_state_is_the_alpha_condensate():
    for n in (1, 3, 10, 30):
        pa, pb, pg = extremal_mode_probabilities(superfluid_ground_state(n))
        assert pa == pytest.approx(1.0, abs=1e-12)
        assert abs(pb) < 1e-12 and abs(pg) < 1e-12


def test_ground_state_is_hopping_eigenvector():
    for n in range(1, 13):
        j = 0.85
        h = build_bose_hubbard(HubbardParams(n=n, J=j, U=0.0)).to_dense()
        g = superfluid_ground_state(n)
        residual = h @ g.amps - (-2.0 * j * n) * g.amps
        assert np.max(np.abs(residual)) < 1e-10 * max(1.0, 2 * j * n)


def test_site_distribution_ground_three():
    dist = site_number_distribution(superfluid_ground_state(3))
    assert dist[(1, 1)] == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert dist[(3, 0)] == pytest.approx(1.0 / 27.0, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_site_distribution_pure_ket():
    dist = site_number_distribution(fock_state((0, 0, 3), Representation.SITE))
    assert dist[(0, 0)] == 1.0
    assert all(p == 0.0 for key, p in dist.items() if key != (0, 0))


def test_site_distribution_requires_site_representation():
    s = fock_state((2, 0, 0), Representation.MOMENTUM)
    with pytest.raises(ValueError):
        site_number_distribution(s)


def test_overlap_is_one_on_self_and_unevolved():
    g = superfluid_ground_state(5)
    assert overlap(g, g) == pytest.approx(1.0, abs=1e-14)
    assert abs(overlap(g, evolve_interaction_phase(g, 0.0))) == pytest.approx(1.0, abs=1e-14)


def test_overlap_with_held_state_at_resonance():
    g = superfluid_ground_state(3)
    held = evolve_interaction_phase(g, 2.0 * math.pi / 3.0)
    assert abs(overlap(g, held)) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_overlap_rejects_mismatches():
    with pytest.raises(ValueError):
        overlap(superfluid_ground_state(2), superfluid_ground_state(3))
    with pytest.raises(ValueError):
        overlap(
            fock_state((1, 0, 0), Representation.SITE),
            fock_state((1, 0, 0), Representation.MOMENTUM),
        )


def test_state_vector_validates_norm_and_shape():
    with pytest.raises(ValueError):
        StateVector(2, Representation.SITE, np.ones(dimension(2)))
    with pytest.raises(ValueError):
        StateVector(2, Representation.SITE, np.zeros(4))


def test_state_vector_rejects_nan_amplitudes():
    with pytest.raises(NumericalHealthError, match="state norm"):
        StateVector(1, Representation.SITE, [math.nan, 0.0, 0.0])


def test_state_vector_amplitudes_are_immutable():
    g = superfluid_ground_state(2)
    with pytest.raises(ValueError):
        g.amps[0] = 0.0


def test_state_vector_copies_the_callers_array():
    a = np.array([1.0 + 0.0j])
    s = StateVector(0, Representation.SITE, a)
    assert a.flags.writeable
    a[0] = 5.0
    assert s.amps[0] == 1.0


def test_distribution_sums_to_one_for_evolved_states():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9):
        held = evolve_interaction_phase(superfluid_ground_state(n), rng.uniform(0, 7))
        dist = site_number_distribution(held)
        assert len(dist) == dimension(n)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
