import numpy as np
import pytest

from ringcat.basis import enumerate_basis, rank
from ringcat.hamiltonian import (
    HermitianOperator,
    HubbardParams,
    build_bose_hubbard,
    build_rotating_momentum_hamiltonian,
)
from ringcat.modes import dft_lift, dft_mode_matrix
from ringcat.state import Representation


def test_params_validation():
    with pytest.raises(ValueError):
        HubbardParams(n=-1)
    with pytest.raises(ValueError):
        HubbardParams(n=2, J=float("nan"))
    p = HubbardParams(n=2, J=-1.5, U=3.0, xi=-0.2)
    assert (p.J, p.U, p.xi) == (-1.5, 3.0, -0.2)


def test_single_particle_spectrum():
    for u in (0.0, 2.3, -4.0):
        h = build_bose_hubbard(HubbardParams(n=1, J=1.7, U=u)).to_dense()
        evals = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(evals, [-3.4, 1.7, 1.7], atol=1e-12)


def test_interaction_diagonal_three_particles():
    h = build_bose_hubbard(HubbardParams(n=3, J=0.0, U=1.9)).to_dense()
    assert h[rank((3, 0, 0)), rank((3, 0, 0))] == pytest.approx(3 * 1.9, abs=1e-14)
    assert h[rank((1, 1, 1)), rank((1, 1, 1))] == pytest.approx(0.0, abs=1e-14)
    # J=0 leaves nothing off the diagonal
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_hopping_matrix_elements_follow_ladder_algebra():
    h = build_bose_hubbard(HubbardParams(n=2, J=1.0, U=0.0)).to_dense()
    # moving one of two particles from site a to site b: -J sqrt(2*1)
    assert h[rank((1, 1, 0)), rank((2, 0, 0))] == pytest.approx(-np.sqrt(2.0), abs=1e-14)
    # moving onto an occupied site: -J sqrt(1*(1+1))
    assert h[rank((0, 2, 0)), rank((1, 1, 0))] == pytest.approx(-np.sqrt(2.0), abs=1e-14)
    assert h[rank((1, 0, 1)), rank((1, 1, 0))] == pytest.approx(-1.0, abs=1e-14)


def test_hermitian_within_tolerance():
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        p = HubbardParams(n=n, J=rng.normal(), U=rng.normal())
        h = build_bose_hubbard(p).to_dense()
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_spectrum_is_real():
    h = build_bose_hubbard(HubbardParams(n=6, J=0.7, U=-1.1)).to_dense()
    evals = np.linalg.eigvals(h)
    assert np.max(np.abs(evals.imag)) < 1e-10


def test_hopping_diagonal_in_momentum_frame():
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        j = float(rng.uniform(0.2, 2.0))
        h = build_bose_hubbard(HubbardParams(n=n, J=j, U=0.0)).to_dense()
        lift = dft_lift(n).matrix
        rotated = lift @ h @ lift.conj().T
        occ = enumerate_basis(n)
        expected = -j * (2 * occ[:, 0] - occ[:, 1] - occ[:, 2])
        assert np.max(np.abs(rotated - np.diag(expected))) < 1e-10


def test_momentum_hamiltonian_diagonal_entries():
    n, j, xi = 4, 0.9, 0.3
    op = build_rotating_momentum_hamiltonian(HubbardParams(n=n, J=j, xi=xi))
    assert op.rep is Representation.MOMENTUM
    dense = op.to_dense()
    assert np.array_equal(dense - np.diag(np.diag(dense)), np.zeros_like(dense))
    diag = np.diag(dense).real
    assert diag[rank((4, 0, 0))] == pytest.approx(-2 * j * n, abs=1e-14)
    assert diag[rank((0, 4, 0))] == pytest.approx((j + xi) * n, abs=1e-14)
    assert diag[rank((0, 0, 4))] == pytest.approx((j - xi) * n, abs=1e-14)


def test_momentum_hamiltonian_matches_site_picture_single_particle():
    # conjugating the 3x3 hopping matrix by the mode matrix gives the mode energies
    j = 1.3
    f = dft_mode_matrix()
    h_site = build_bose_hubbard(HubbardParams(n=1, J=j, U=0.0)).to_dense()
    rotated = f @ h_site @ f.conj().T
    h_mode = build_rotating_momentum_hamiltonian(HubbardParams(n=1, J=j, xi=0.0)).to_dense()
    assert np.max(np.abs(rotated - h_mode)) < 1e-12


def test_operator_triplets_are_deterministic():
    a = build_bose_hubbard(HubbardParams(n=5, J=0.4, U=0.2))
    b = build_bose_hubbard(HubbardParams(n=5, J=0.4, U=0.2))
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.vals, b.vals)


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        HermitianOperator(3, np.array([0]), np.array([0, 1]), np.array([1.0]))
