import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ringcat.basis import rank
from ringcat.evolution import _interaction_phases, _mode_energies, evolve_interaction_phase
from ringcat.hamiltonian import HubbardParams, build_rotating_momentum_hamiltonian, evolve_spectral
from ringcat.interferometer import (
    FringeSettings,
    _block_rows,
    _scan_bytes,
    cat_matrix,
    fringe_probabilities,
    fringe_scan,
    full_simulation_fringes,
    phase_matrix,
    protocol_subspace_matrix,
)
from ringcat.modes import (
    FockLift,
    _Sweep,
    dft_lift,
    extremal_columns,
    extremal_mode_probabilities,
    momentum_distribution,
)
from ringcat.protocol import CAT_HOLD_PHASE, run_protocol
from ringcat.state import Representation, StateVector, superfluid_ground_state

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)


def test_cat_matrix_is_unitary_and_cubes_to_identity():
    w = cat_matrix()
    assert np.max(np.abs(w @ w.conj().T - np.eye(3))) < 1e-14
    assert np.max(np.abs(np.linalg.matrix_power(w, 3) - np.eye(3))) < 1e-12


def test_cat_matrix_entry_structure():
    w = cat_matrix()
    assert np.allclose(np.abs(w), 1.0 / math.sqrt(3.0), atol=1e-14)
    # one hold splits the condensate evenly over the three flow branches
    assert np.allclose(np.abs(w @ E1) ** 2, 1.0 / 3.0, atol=1e-14)


def test_cat_matrix_is_what_the_hold_realizes():
    w = cat_matrix()
    for n in (3, 6, 12):
        m = protocol_subspace_matrix(n, CAT_HOLD_PHASE)
        assert np.max(np.abs(m - w)) < 1e-12, f"n={n}"


def test_doubled_hold_realizes_w_squared():
    w2 = cat_matrix() @ cat_matrix()
    for n in (3, 6, 9):
        m = protocol_subspace_matrix(n, 2.0 * CAT_HOLD_PHASE)
        assert np.max(np.abs(m - w2)) < 1e-12, f"n={n}"


def test_phase_matrix_special_values():
    assert np.allclose(phase_matrix(FringeSettings(3, 0.0, 0.0)), np.eye(3), atol=1e-15)
    q = phase_matrix(FringeSettings(3, phi_rot=math.pi, phi_hop=0.4))
    assert q[1, 1] == pytest.approx(-1.0, abs=1e-14)
    assert q[2, 2] == pytest.approx(-1.0, abs=1e-14)
    assert abs(q[0, 0]) == pytest.approx(1.0, abs=1e-15)


def test_phase_matrix_always_unitary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = phase_matrix(FringeSettings(6, *rng.uniform(-9, 9, 2)))
        assert np.max(np.abs(q @ q.conj().T - np.eye(3))) < 1e-14


def test_fringes_match_matrix_algebra():
    w = cat_matrix()
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = FringeSettings(6, *rng.uniform(0, 2 * math.pi, 2))
        closed = np.array(fringe_probabilities(s))
        algebra = np.abs(w @ w @ phase_matrix(s) @ w @ E1) ** 2
        assert np.max(np.abs(closed - algebra)) < 1e-12
        assert sum(closed) == pytest.approx(1.0, abs=1e-12)


def test_fringes_at_null_settings():
    assert np.allclose(fringe_probabilities(FringeSettings(3, 0.0, 0.0)), (1, 0, 0), atol=1e-14)


def test_full_transfer_into_one_flow_mode():
    # a rotation phase of 2*pi/3 moves every particle out of the stationary
    # branch into a single circulating one
    probs = fringe_probabilities(FringeSettings(3, phi_rot=2.0 * math.pi / 3.0, phi_hop=0.0))
    assert np.allclose(probs, (0.0, 0.0, 1.0), atol=1e-14)
    probs = fringe_probabilities(FringeSettings(3, phi_rot=-2.0 * math.pi / 3.0, phi_hop=0.0))
    assert np.allclose(probs, (0.0, 1.0, 0.0), atol=1e-14)


def test_fringes_even_under_rotation_reversal_with_branch_swap():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rot, hop = rng.uniform(-7, 7, 2)
        pa, pb, pg = fringe_probabilities(FringeSettings(9, rot, hop))
        ra, rb, rg = fringe_probabilities(FringeSettings(9, -rot, hop))
        assert (pa, pb, pg) == pytest.approx((ra, rg, rb), abs=1e-14)


def test_cat_subspace_columns_stay_normalized():
    w = cat_matrix()
    q = phase_matrix(FringeSettings(6, 1.3, 0.7))
    chain = w @ w @ q @ w
    sums = np.sum(np.abs(chain) ** 2, axis=0)
    assert np.allclose(sums, 1.0, atol=1e-13)


def test_full_simulation_identity_settings():
    probs = full_simulation_fringes(3, 0.0, 0.0, 1.0)
    assert np.allclose(probs, (1, 0, 0), atol=1e-12)


def test_full_simulation_matches_closed_forms():
    for n in (3, 6):
        j, dt = 0.23, 0.9
        for xi in np.linspace(0.0, 2.0 * math.pi / (n * dt), 25):
            sim = np.array(full_simulation_fringes(n, j, float(xi), dt))
            closed = np.array(fringe_probabilities(FringeSettings.from_physical(n, j, float(xi), dt)))
            assert np.max(np.abs(sim - closed)) < 1e-10, f"n={n}, xi={xi}"


def test_full_simulation_rejects_off_multiples():
    with pytest.raises(ValueError):
        full_simulation_fringes(4, 0.0, 1.0, 1.0)


def test_first_stage_leakage_is_negligible():
    for n in (3, 6, 9):
        held = evolve_interaction_phase(superfluid_ground_state(n), CAT_HOLD_PHASE)
        dist = momentum_distribution(held)
        extremal = dist[rank((n, 0, 0))] + dist[rank((0, n, 0))] + dist[rank((0, 0, n))]
        assert 1.0 - extremal < 1e-10, f"n={n}"


def test_scan_rows_sum_to_one_and_measure_the_period():
    scan = fringe_scan(3, 0.0, np.linspace(0.0, 2.0 * math.pi, 512), 1.0)
    assert np.max(np.abs(scan.probs_sim.sum(axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(scan.probs_sim - scan.probs_closed)) < 1e-10
    assert scan.period_xi_dt == pytest.approx(2.0 * math.pi / 3.0, rel=1e-4)


@pytest.mark.parametrize(
    "n, j, xi_max, dt",
    [(3, 0.0, 2.0 * math.pi, 1.0), (30, 1.0, 1.0, 1.0), (45, 0.25, 0.7, 1.1), (6, 1e3, 1e4, 0.3)],
)
def test_scan_closed_columns_are_fringe_probabilities_bit_for_bit(n, j, xi_max, dt):
    xi = np.linspace(-xi_max, xi_max, 9)
    scan = fringe_scan(n, j, xi, dt)
    for row, x in zip(scan.probs_closed, xi):
        want = fringe_probabilities(FringeSettings.from_physical(n, j, float(x), dt))
        assert row.tobytes() == np.array(want).tobytes(), x


def test_fringe_frequency_scales_with_n():
    grid3 = np.linspace(0.0, 2.0 * math.pi, 720)
    grid6 = np.linspace(0.0, math.pi, 720)
    p3 = fringe_scan(3, 0.0, grid3, 1.0).period_xi_dt
    p6 = fringe_scan(6, 0.0, grid6, 1.0).period_xi_dt
    assert p3 / p6 == pytest.approx(2.0, rel=1e-3)


def test_scan_with_too_few_peaks_reports_nan():
    scan = fringe_scan(3, 0.0, np.linspace(0.0, 0.3, 40), 1.0)
    assert math.isnan(scan.period_xi_dt)


def test_fringes_depend_only_on_the_two_phase_products():
    # different physical settings with equal n*xi*dt and 3*n*j*dt must give
    # identical readouts, in the closed forms and in the full pipeline
    a = full_simulation_fringes(6, 0.2, 0.5, 2.0)
    b = full_simulation_fringes(6, 0.4, 1.0, 1.0)
    assert np.allclose(a, b, atol=1e-12)
    sa = FringeSettings.from_physical(6, 0.2, 0.5, 2.0)
    sb = FringeSettings.from_physical(6, 0.4, 1.0, 1.0)
    assert (sa.phi_rot, sa.phi_hop) == pytest.approx((sb.phi_rot, sb.phi_hop), abs=1e-15)
    assert np.allclose(fringe_probabilities(sa), fringe_probabilities(sb), atol=1e-15)


def test_scan_lifts_the_cat_to_momentum_once(monkeypatch):
    calls = []
    to_momentum = FockLift.to_momentum

    def counted(self, s):
        calls.append(s.n)
        return to_momentum(self, s)

    monkeypatch.setattr(FockLift, "to_momentum", counted)
    xi_values = np.linspace(0.0, 0.5, 64)
    scan = fringe_scan(30, 0.2, xi_values, 1.1)
    assert calls == [30]
    for xi, row in zip(xi_values, scan.probs_sim):
        assert tuple(row) == full_simulation_fringes(30, 0.2, float(xi), 1.1), f"xi={xi}"


@pytest.mark.parametrize("n", [30, 90, 180])
def test_every_scan_block_gathers_into_one_work_pair(monkeypatch, n):
    # one-row blocks (n >= 90) take the same memory path as multi-row ones:
    # every block's lift gathers into the two work arrays the scan holds for
    # the whole grid, a partial last block included.  The pair and one held
    # block of phases fit the bytes the size budget counts for the scan
    seen, held = [], []
    apply = _Sweep.apply
    adjoint = dft_lift(n).adjoint

    def recorded(self, x, work=None):
        if self is adjoint:
            seen.append(work)
            held.append(x.nbytes)
        return apply(self, x, work)

    monkeypatch.setattr(_Sweep, "apply", recorded)
    rows = _block_rows(n)
    fringe_scan(n, 0.2, np.linspace(0.0, 2.0 * math.pi / n, 2 * rows + 1), 1.1)
    assert len(seen) == 3
    first = seen[0]
    assert first is not None and len(first) == 2 and first[0] is not first[1]
    assert all(a.size >= (n + 1) ** 2 * rows for a in first)
    assert sum(a.nbytes for a in first) + max(held) <= _scan_bytes(n)
    for work in seen:
        assert work is not None and work[0] is first[0] and work[1] is first[1]


@pytest.mark.parametrize("n", [90, 150])
def test_a_scan_that_builds_its_lift_peaks_no_higher_than_one_that_reuses_it(n):
    # a lift builds each direction on first use, and the scan builds its
    # adjoint before its own arrays: built inside the block loop, the
    # build's temporaries stacked on the work pair, 152 B per slot above
    # what the scan then holds against 72 B for a rerun
    dft_lift.cache_clear()
    above = []
    for _ in range(2):
        tracemalloc.start()
        try:
            fringe_scan(n, 0.0, [0.01], 1.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        above.append((peak - held) / (n + 1) ** 2)
    fresh, rerun = above
    assert fresh <= rerun + 16, (fresh, rerun)


def test_sensing_hold_phases_match_the_dense_propagator():
    # the scan applies the mode-energy phases directly; the dense reference
    # propagator on the same Hamiltonian must give the same readout
    n, j, dt = 6, 0.35, 1.3
    xi_values = np.array([0.0, 0.2, 0.7, 1.9])
    lift = dft_lift(n)
    cat = lift.to_momentum(evolve_interaction_phase(superfluid_ground_state(n), CAT_HOLD_PHASE))
    scan = fringe_scan(n, j, xi_values, dt)
    for xi, row in zip(xi_values, scan.probs_sim):
        hold = build_rotating_momentum_hamiltonian(HubbardParams(n=n, J=j, xi=float(xi)))
        state = lift.to_site(evolve_spectral(cat, hold, dt))
        dense = extremal_mode_probabilities(evolve_interaction_phase(state, 2.0 * CAT_HOLD_PHASE))
        assert np.max(np.abs(row - np.array(dense))) < 1e-12, f"xi={xi}"


def per_point_scan(n, j, xi_values, dt):
    """Simulated fringes one xi at a time, every stage a checked state.

    The one-point pipeline, kept as the oracle the block scan must match
    bit for bit.
    """
    lift = dft_lift(n)
    cat = lift.to_momentum(run_protocol(n).state)
    inverse_hold = _interaction_phases(n, 2.0 * CAT_HOLD_PHASE)
    readout = extremal_columns(n).conj().T
    sim = np.empty((len(xi_values), 3))
    for i, xi in enumerate(xi_values):
        energies = _mode_energies(n, j, float(xi))
        held = StateVector(n, Representation.MOMENTUM, cat.amps * np.exp(-1j * dt * energies))
        state = lift.to_site(held)
        final = StateVector(n, Representation.SITE, state.amps * inverse_hold)
        sim[i] = [float(abs(a)) ** 2 for a in readout @ final.amps]
    return sim


@pytest.mark.parametrize("n", [3, 9, 30, 45, 177, 180])
def test_block_scan_matches_the_per_point_oracle_bit_for_bit(n):
    # 177 and 180 sit on either side of 16,384 kets, where the one-point
    # sensing multiply changes operand order
    rows = _block_rows(n)
    grid = 2 * rows + 1 if rows > 1 else 3  # a partial last block
    xi_values = np.linspace(0.0, 2.0 * math.pi / n, grid)
    scan = fringe_scan(n, 0.2, xi_values, 1.1)
    assert scan.probs_sim.tobytes() == per_point_scan(n, 0.2, xi_values, 1.1).tobytes()


def scalar_square(a):
    """|a|^2 as a one-point scan takes it: hypot, then libm's pow."""
    try:
        return float(abs(a)) ** 2
    except OverflowError:  # Python raises where pow returns inf
        return math.inf


def test_block_squaring_is_the_scalar_squaring_bit_for_bit():
    # fringe_scan squares a whole block's amplitudes as
    # float_power(hypot(re, im), 2.0), which calls the libm hypot and pow
    # that float(abs(a)) ** 2 calls one value at a time
    rng = np.random.default_rng(23)
    tiny = np.finfo(np.float64).smallest_subnormal
    eps = np.finfo(np.float64).eps
    edges = [0.0, tiny, -tiny, 5 * tiny, -3e-310, 1e-150, -1e-150, 1e150, -1e150, 1e-300, -1e-300, 1e300, -1e300,
             1.0, -1.0, 1.0 - eps, 1.0 + 2 * eps, math.sqrt(0.5)]
    near_one = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 1000)) * (1.0 + eps * rng.integers(-8, 9, 1000))
    scale = 10.0 ** rng.uniform(-160.0, 150.0, 50_000)
    amps = np.concatenate([
        [complex(re, im) for re, im in itertools.product(edges, repeat=2)],
        near_one,
        (rng.normal(size=50_000) + 1j * rng.normal(size=50_000)) / math.sqrt(2.0),
        scale * (rng.normal(size=50_000) + 1j * rng.normal(size=50_000)),
    ])
    with np.errstate(over="ignore"):
        block = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
    assert block.tobytes() == np.array([scalar_square(a) for a in amps]).tobytes()


@pytest.mark.parametrize("j, xi", [(math.nan, 0.5), (math.inf, 0.5), (0.2, math.nan), (0.2, -math.inf)])
def test_scan_refuses_non_finite_settings(j, xi):
    with pytest.raises(ValueError, match="finite"):
        fringe_scan(3, j, [0.0, xi, 1.0], 1.0)
