import math

import numpy as np
import pytest

from ringcat.basis import dimension, enumerate_basis, rank
from ringcat.evolution import SpectralPropagator, evolve_interaction_phase, evolve_spectral
from ringcat.hamiltonian import (
    HermitianOperator,
    HubbardParams,
    build_bose_hubbard,
    build_rotating_momentum_hamiltonian,
)
from ringcat.state import Representation, StateVector, fock_state, overlap, superfluid_ground_state


def dense_operator(matrix, rep=Representation.SITE):
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    rows, cols = np.indices((dim, dim))
    return HermitianOperator(dim, rows.ravel(), cols.ravel(), matrix.ravel(), rep)


def random_state(n, rng, rep=Representation.SITE):
    amps = rng.normal(size=dimension(n)) + 1j * rng.normal(size=dimension(n))
    return StateVector(n, rep, amps / np.linalg.norm(amps))


def random_hermitian(n, rng, rep=Representation.SITE):
    dim = dimension(n)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return dense_operator(0.5 * (a + a.conj().T), rep)


def test_zero_phase_is_identity():
    g = superfluid_ground_state(4)
    assert np.array_equal(evolve_interaction_phase(g, 0.0).amps, g.amps)


def test_phase_pattern_three_particles():
    ut = 0.731
    held = evolve_interaction_phase(superfluid_ground_state(3), ut)
    g = superfluid_ground_state(3)
    # magnitudes untouched
    assert np.allclose(np.abs(held.amps), np.abs(g.amps), atol=1e-15)
    # the triply occupied kets run three phase units ahead of (1,1,1)
    ratio = (held.amps[rank((3, 0, 0))] / g.amps[rank((3, 0, 0))]) / (
        held.amps[rank((1, 1, 1))] / g.amps[rank((1, 1, 1))]
    )
    assert ratio == pytest.approx(np.exp(-3j * ut), abs=1e-14)
    mixed = held.amps[rank((2, 1, 0))] / g.amps[rank((2, 1, 0))]
    assert mixed == pytest.approx(np.exp(-1j * ut), abs=1e-14)


def test_full_period_revival_three_particles():
    # brute-force phase table: every pair count is even, so a 2 pi hold
    # multiplies each basis amplitude by exactly one
    counts = [sum(x * (x - 1) for x in s) for s in enumerate_basis(3)]
    assert all(c % 2 == 0 for c in counts)
    phases = [np.exp(-0.5j * (2 * math.pi) * c) for c in counts]
    assert np.allclose(phases, 1.0, atol=1e-12)
    g = superfluid_ground_state(3)
    revived = evolve_interaction_phase(g, 2.0 * math.pi)
    assert abs(overlap(g, revived)) == pytest.approx(1.0, abs=1e-12)


def test_interaction_phase_requires_site_representation():
    s = fock_state((1, 1, 0), Representation.MOMENTUM)
    with pytest.raises(ValueError):
        evolve_interaction_phase(s, 0.3)


def test_spectral_ground_state_is_stationary():
    g = superfluid_ground_state(5)
    h = build_bose_hubbard(HubbardParams(n=5, J=1.2, U=0.0))
    for t in (0.1, 2.7, 40.0):
        evolved = evolve_spectral(g, h, t)
        assert abs(overlap(g, evolved)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_matches_phase_engine_without_hopping():
    rng = np.random.default_rng(41)
    for n in range(1, 11):
        u = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 9.0))
        h = build_bose_hubbard(HubbardParams(n=n, J=0.0, U=u))
        s = random_state(n, rng)
        via_spectral = evolve_spectral(s, h, t)
        via_phases = evolve_interaction_phase(s, u * t)
        assert np.max(np.abs(via_spectral.amps - via_phases.amps)) < 1e-12


def test_single_particle_population_oscillation():
    # spectrum {-2J, J, J} makes site populations beat at the 3J gap:
    # starting on one site, P_a(t) = 5/9 + (4/9) cos(3 J t)
    j = 0.9
    h = build_bose_hubbard(HubbardParams(n=1, J=j, U=0.0))
    start = fock_state((1, 0, 0), Representation.SITE)
    prop = SpectralPropagator(h)
    for t in np.linspace(0.0, 7.0, 29):
        evolved = prop.evolve(start, float(t))
        p_a = abs(evolved.amps[rank((1, 0, 0))]) ** 2
        assert p_a == pytest.approx(5.0 / 9.0 + (4.0 / 9.0) * math.cos(3 * j * t), abs=1e-12)


def test_unitarity_norm_and_overlap_preservation():
    rng = np.random.default_rng(43)
    for n in (2, 5, 8):
        h = random_hermitian(n, rng)
        s1, s2 = random_state(n, rng), random_state(n, rng)
        t = float(rng.uniform(0.1, 5.0))
        e1, e2 = evolve_spectral(s1, h, t), evolve_spectral(s2, h, t)
        assert abs(e1.norm - 1.0) < 1e-12
        assert abs(overlap(e1, e2) - overlap(s1, s2)) < 1e-10


def test_energy_conservation():
    rng = np.random.default_rng(47)
    for n in (3, 7):
        h = random_hermitian(n, rng)
        dense = h.to_dense()
        s = random_state(n, rng)
        before = np.vdot(s.amps, dense @ s.amps).real
        after_state = evolve_spectral(s, h, 3.7)
        after = np.vdot(after_state.amps, dense @ after_state.amps).real
        assert abs(before - after) < 1e-10


def test_composition_of_holds():
    rng = np.random.default_rng(53)
    n = 6
    h = random_hermitian(n, rng)
    s = random_state(n, rng)
    prop = SpectralPropagator(h)
    one = prop.evolve(prop.evolve(s, 1.3), 2.1)
    two = prop.evolve(s, 3.4)
    assert np.max(np.abs(one.amps - two.amps)) < 1e-10


def test_spectral_rejects_mismatches():
    rng = np.random.default_rng(61)
    h = build_bose_hubbard(HubbardParams(n=3, J=1.0, U=1.0))
    with pytest.raises(ValueError):
        evolve_spectral(random_state(2, rng), h, 1.0)
    with pytest.raises(ValueError):
        evolve_spectral(random_state(3, rng, Representation.MOMENTUM), h, 1.0)


def test_spectral_rejects_non_hermitian():
    rng = np.random.default_rng(67)
    dim = dimension(2)
    bad = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = HermitianOperator(
        dim,
        *np.indices((dim, dim)).reshape(2, -1),
        bad.ravel(),
        Representation.SITE,
    )
    with pytest.raises(ValueError):
        evolve_spectral(random_state(2, rng), op, 0.5)


def test_momentum_condensate_phase_accrual():
    # the all-in-beta ket under the rotating mode Hamiltonian picks up
    # exactly e^{-i n (J + xi) t}
    n, j, xi, t = 6, 0.8, 0.31, 1.7
    op = build_rotating_momentum_hamiltonian(HubbardParams(n=n, J=j, xi=xi))
    ket = fock_state((0, n, 0), Representation.MOMENTUM)
    evolved = evolve_spectral(ket, op, t)
    phase = evolved.amps[rank((0, n, 0))]
    assert phase == pytest.approx(np.exp(-1j * n * (j + xi) * t), abs=1e-13)
    gamma = evolve_spectral(fock_state((0, 0, n), Representation.MOMENTUM), op, t)
    assert gamma.amps[rank((0, 0, n))] == pytest.approx(np.exp(-1j * n * (j - xi) * t), abs=1e-13)


def test_diagonal_operator_with_complex_diagonal_rejected():
    dim = dimension(2)
    idx = np.arange(dim)
    op = HermitianOperator(
        dim, idx, idx, np.full(dim, 1.0 + 0.5j), Representation.MOMENTUM
    )
    with pytest.raises(ValueError):
        evolve_spectral(fock_state((2, 0, 0), Representation.MOMENTUM), op, 1.0)
