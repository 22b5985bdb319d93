import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ringcat.modes as modes
from ringcat.basis import dimension, enumerate_basis, rank
from ringcat.evolution import evolve_interaction_phase
from ringcat.interferometer import _block_rows
from ringcat.modes import (
    dft_lift,
    dft_mode_matrix,
    extremal_columns,
    extremal_mode_probabilities,
    lift_to_fock,
    momentum_distribution,
)
from ringcat.state import Representation, StateVector, fock_state, superfluid_ground_state


def haar_unitary(rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def permanent_slow(a):
    """Definition-level permanent; deliberately unoptimized."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, si in enumerate(sigma):
            term *= a[i, si]
        total += term
    return total


def lift_slow(f, n):
    """Permanent-formula lift: mode kets in the site basis, column per ket."""
    occ = enumerate_basis(n)
    fc = np.conj(f)
    dim = dimension(n)
    out = np.zeros((dim, dim), dtype=complex)
    for col, m in enumerate(occ):
        mode_list = [k for k in range(3) for _ in range(m[k])]
        for row, u in enumerate(occ):
            site_list = [j for j in range(3) for _ in range(u[j])]
            a = np.array([[fc[k, j] for j in site_list] for k in mode_list]).reshape(n, n)
            norm = math.sqrt(
                math.prod(math.factorial(int(x)) for x in m)
                * math.prod(math.factorial(int(x)) for x in u)
            )
            out[row, col] = permanent_slow(a) / norm
    return out


def test_mode_matrix_rows():
    f = dft_mode_matrix()
    s = 1.0 / math.sqrt(3.0)
    assert np.allclose(f[0], [s, s, s], atol=1e-15)
    w = np.exp(2j * np.pi / 3.0)
    assert np.allclose(f[1], [s, s * w, s * w**2], atol=1e-15)
    assert np.allclose(f[2], [s, s * np.conj(w), s * np.conj(w) ** 2], atol=1e-15)


def test_mode_matrix_unitary():
    f = dft_mode_matrix()
    assert np.max(np.abs(f @ f.conj().T - np.eye(3))) < 1e-15


def test_mode_matrix_powers():
    f = dft_mode_matrix()
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.allclose(f @ f, swap, atol=1e-15)
    assert np.allclose(np.linalg.matrix_power(f, 3), f.conj().T, atol=1e-15)
    assert np.allclose(np.linalg.matrix_power(f, 4), np.eye(3), atol=1e-15)
    # the cube is a genuine matrix, not a phase times the identity
    cube = np.linalg.matrix_power(f, 3)
    off = cube - np.diag(np.diag(cube))
    assert np.max(np.abs(off)) > 0.5


def test_lift_single_particle_is_the_mode_matrix():
    f = dft_mode_matrix()
    assert np.max(np.abs(dft_lift(1).matrix - f)) < 1e-15
    rng = np.random.default_rng(2)
    g = haar_unitary(rng)
    assert np.max(np.abs(lift_to_fock(g, 1).matrix - g)) < 1e-14


def test_lift_matches_permanent_oracle():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        g = haar_unitary(rng)
        slow = lift_slow(g, n)
        fast = lift_to_fock(g, n).matrix.conj().T  # oracle builds ket columns
        assert np.max(np.abs(fast - slow)) < 1e-12, f"n={n}"


def test_lift_unitarity_through_forty_particles():
    for n in (1, 2, 3, 5, 6, 8, 12, 20, 30, 35, 40):
        m = dft_lift(n).matrix
        defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        assert defect < 1e-12, f"n={n}: defect={defect}"


def test_lift_gram_matrix_is_identity():
    lift = lift_to_fock(dft_mode_matrix(), 6).matrix
    gram = lift.conj().T @ lift
    assert np.max(np.abs(gram - np.eye(lift.shape[0]))) < 1e-12


def test_lift_of_identity_is_identity():
    for n in range(13):
        m = lift_to_fock(np.eye(3), n).matrix
        assert np.array_equal(m, np.eye(dimension(n)))


def test_lift_of_a_mode_swap_permutes_the_occupations():
    # m[0, 0] = 0: the second Givens step takes its zero-pivot branch
    swap = np.eye(3)[[1, 0, 2]]
    assert modes._givens_factors(swap)[0][1] == pytest.approx(math.pi / 2)
    for n in range(31):
        occ = enumerate_basis(n)
        swapped = np.eye(dimension(n))[:, [rank((q, p, r)) for p, q, r in occ]]
        assert np.max(np.abs(lift_to_fock(swap, n).matrix - swapped)) < 1e-12, n


def test_lift_composition_homomorphism():
    rng = np.random.default_rng(17)
    for _ in range(3):
        f, g = haar_unitary(rng), haar_unitary(rng)
        for n in (2, 4, 8):
            lf = lift_to_fock(f, n).matrix
            lg = lift_to_fock(g, n).matrix
            lfg = lift_to_fock(f @ g, n).matrix
            assert np.max(np.abs(lf @ lg - lfg)) < 1e-10, f"n={n}"


def test_applying_dft_lift_four_times_returns_state():
    rng = np.random.default_rng(23)
    for n in (2, 5):
        amps = rng.normal(size=dimension(n)) + 1j * rng.normal(size=dimension(n))
        amps /= np.linalg.norm(amps)
        lift = dft_lift(n).matrix
        assert np.max(np.abs(np.linalg.matrix_power(lift, 4) @ amps - amps)) < 1e-12
        # three applications do not: the cube of the mode matrix is not a phase
        three = np.linalg.matrix_power(lift, 3) @ amps
        assert np.max(np.abs(np.abs(np.vdot(three, amps)) - 1.0)) > 1e-3


def test_lift_rejects_non_unitary():
    with pytest.raises(ValueError):
        lift_to_fock(np.ones((3, 3)), 2)
    with pytest.raises(ValueError):
        lift_to_fock(np.eye(4), 2)


def test_extremal_probabilities_ground_state():
    for n in (1, 4, 25):
        pa, pb, pg = extremal_mode_probabilities(superfluid_ground_state(n))
        assert pa == pytest.approx(1.0, abs=1e-12)
        assert pb < 1e-12 and pg < 1e-12


def test_extremal_probabilities_resonant_hold():
    for n in (3, 30):
        held = evolve_interaction_phase(superfluid_ground_state(n), 2.0 * math.pi / 3.0)
        probs = extremal_mode_probabilities(held)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_extremal_probabilities_agree_with_full_lift_marginal():
    rng = np.random.default_rng(31)
    for n in (2, 5, 9):
        held = evolve_interaction_phase(superfluid_ground_state(n), rng.uniform(0, 6))
        pa, pb, pg = extremal_mode_probabilities(held)
        dist = momentum_distribution(held)
        assert pa == pytest.approx(dist[rank((n, 0, 0))], abs=1e-12)
        assert pb == pytest.approx(dist[rank((0, n, 0))], abs=1e-12)
        assert pg == pytest.approx(dist[rank((0, 0, n))], abs=1e-12)


def test_extremal_probabilities_momentum_representation_path():
    n = 3
    held = evolve_interaction_phase(superfluid_ground_state(n), 1.1)
    direct = extremal_mode_probabilities(held)
    via_momentum = extremal_mode_probabilities(dft_lift(n).to_momentum(held))
    assert np.allclose(direct, via_momentum, atol=1e-12)


def test_extremal_columns_are_normalized_kets():
    for n in (1, 6, 20):
        cols = extremal_columns(n)
        gram = cols.conj().T @ cols
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_extremal_columns_refuse_n_where_their_weight_overflows():
    # the closed form scales by 3^(n/2), which overflows a float from n = 1293 on
    with pytest.raises(ValueError, match="at most 1292"):
        extremal_columns(1293)


def test_resonant_momentum_distribution_is_three_point():
    held = evolve_interaction_phase(superfluid_ground_state(3), 2.0 * math.pi / 3.0)
    dist = momentum_distribution(held)
    extremal = {rank((3, 0, 0)), rank((0, 3, 0)), rank((0, 0, 3))}
    for i, p in enumerate(dist):
        if i in extremal:
            assert p == pytest.approx(1.0 / 3.0, abs=1e-12)
        else:
            assert p < 1e-12


def test_lift_round_trip_between_representations():
    n = 7
    held = evolve_interaction_phase(superfluid_ground_state(n), 0.8)
    lift = dft_lift(n)
    momentum = lift.to_momentum(held)
    back = lift.to_site(momentum)
    assert np.max(np.abs(back.amps - held.amps)) < 1e-12
    with pytest.raises(ValueError):
        lift.to_momentum(momentum)
    with pytest.raises(ValueError):
        lift.to_site(held)
    # a momentum state's distribution is its own |a|^2, with no lift
    assert momentum_distribution(momentum).tobytes() == (np.abs(momentum.amps) ** 2).tobytes()


@pytest.mark.parametrize("n", [1, 6, 30])
def test_lift_of_a_stack_of_rows_matches_each_row_bit_for_bit(n):
    rng = np.random.default_rng(41 + n)
    lift = lift_to_fock(haar_unitary(rng), n)
    dim = dimension(n)
    rows = rng.normal(size=(7, dim)) + 1j * rng.normal(size=(7, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    for row, out in zip(rows, lift.to_site_rows(rows)):
        alone = lift.to_site(StateVector(n, Representation.MOMENTUM, row)).amps
        assert out.tobytes() == alone.tobytes()
    # the dense matrix is the forward lift of stacks of basis kets
    occ = enumerate_basis(n)
    for k in {0, dim // 2, dim - 1}:
        alone = lift.to_momentum(fock_state(occ[k], Representation.SITE)).amps
        assert lift.matrix[:, k].tobytes() == alone.tobytes()


def padded_eigenbases(n):
    """T_K eigenvectors from one ``eigh`` each, all zero-padded to (n+1) x (n+1)."""
    vecs = np.zeros((n + 1, n + 1, n + 1))
    for k in range(n + 1):
        hop = np.sqrt(np.arange(1, k + 1) * (k - np.arange(1, k + 1) + 1.0))
        vecs[k, : k + 1, : k + 1] = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))[1]
    return vecs


def padded_apply(sweep, vecs, x):
    """A lift direction with one (n+1)-padded matmul per rotation step, the reference layout."""
    n = sweep.n
    gathers = modes._gathers(n)
    y = np.zeros((x.shape[0], x.shape[1] + 1), dtype=np.complex128)
    y[:, :-1] = x
    for gather, phase, turn in zip(gathers[:3], sweep.phases[:3], sweep.turns):
        y = y[:, gather]
        y *= phase
        if turn is not None:
            y = y.reshape(x.shape[0], n + 1, n + 1, 1)
            y = np.matmul(vecs.transpose(0, 2, 1), y.view(np.float64)).view(np.complex128)
            y *= turn
            y = np.matmul(vecs, y.view(np.float64)).view(np.complex128)
            y = y.reshape(x.shape[0], -1)
    y = y[:, gathers[3]]
    y *= sweep.phases[3]
    return y


@pytest.mark.parametrize(
    "n, widths", [(n, (1, 2, 3, _block_rows(n))) for n in range(3, 91, 3)] + [(150, (16, 256)), (300, (16, 256))]
)
def test_the_transposed_product_gives_each_state_its_own_bits_at_every_width(n, widths):
    # _Sweep.apply takes each eigenbasis transposed against a whole block of
    # states in one BLAS call; the rows keep their bits only because BLAS's
    # transposed product rounds each column alike at every width.  A BLAS
    # that breaks this fails here by name
    classes, _ = modes._hopping_eigenbases(n)
    rng = np.random.default_rng(700 + n)
    for rows in widths:
        for vecs in classes:
            count, s = vecs.shape[:2]
            block = rng.normal(size=(count, s, 2 * rows))
            wide = np.matmul(vecs.transpose(0, 2, 1), block)
            each = np.matmul(vecs.transpose(0, 2, 1), block.reshape(count, s, rows, 2).transpose(2, 0, 1, 3))
            assert wide.reshape(count, s, rows, 2).transpose(2, 0, 1, 3).tobytes() == each.tobytes(), (rows, s)


@pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 45, 63, 64, 65, 90, 150])
def test_eigenbasis_classes_keep_the_padded_bits(n):
    # each side of a class edge (16, 32, 64)
    rng = np.random.default_rng(500 + n)
    lift = lift_to_fock(haar_unitary(rng), n)
    vecs = padded_eigenbases(n)
    for rows in (1, 7, _block_rows(n)):
        x = rng.normal(size=(rows, dimension(n))) + 1j * rng.normal(size=(rows, dimension(n)))
        for sweep in (lift.forward, lift.adjoint):
            assert sweep.apply(x).tobytes() == padded_apply(sweep, vecs, x).tobytes(), rows


@pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 45])
def test_dense_lift_keeps_the_padded_bits(n):
    # the dense matrix runs the classes on 256-ket stacks
    lift = lift_to_fock(haar_unitary(np.random.default_rng(600 + n)), n)
    vecs = padded_eigenbases(n)
    dim = dimension(n)
    for lo in range(0, dim, 256):
        kets = np.eye(min(256, dim - lo), dim, lo, dtype=np.complex128)
        assert lift.matrix[:, lo : lo + kets.shape[0]].T.tobytes() == padded_apply(lift.forward, vecs, kets).tobytes()


@pytest.mark.parametrize("n", [1, 3, 15, 16, 17, 31, 90, 150])
def test_lift_bytes_count_every_array_a_built_lift_holds(n):
    # the classes and eigenvalues, the gathers, and both sweeps' phases and
    # turns: every array a lift at n holds, as the size budget counts it
    lift = lift_to_fock(dft_mode_matrix(), n)
    classes, lam = modes._hopping_eigenbases(n)
    held = [*classes, lam, *modes._gathers(n)]
    for sweep in (lift.forward, lift.adjoint):
        assert all(turn is not None for turn in sweep.turns)  # the Fourier matrix turns about every pair
        held += [*sweep.phases, *sweep.turns]
    assert modes._lift_bytes(n) == sum(a.nbytes for a in held)


def test_eigenbasis_classes_hold_a_third_of_the_padded_floats():
    n = 150
    # classes K = 16j..16j+15 at sizes 16, 32, ..., 144, and K = 144..150 at 151
    held = 8 * (sum(16 * (16 * j) ** 2 for j in range(1, 10)) + 7 * 151**2)
    assert held < 0.4 * 8 * (n + 1) ** 3  # 10.6 MB against 27.5 MB
    tracemalloc.start()
    try:
        classes, _ = modes._hopping_eigenbases.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c.nbytes for c in classes) == held
    # plus one eigh's workspace and the eigenvalues: 11.3 MB measured
    assert peak < 1.1 * held, f"peak {peak / held:.3f} of the classes"
