import inspect
import itertools
import math
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from exact_series import cat_probabilities, mp_probabilities

import ringcat.basis as basis
import ringcat.modes as modes
import ringcat.protocol as protocol
from ringcat.basis import dimension, enumerate_basis
from ringcat.interferometer import fringe_scan
from ringcat.protocol import (
    CAT_HOLD_PHASE,
    BracketError,
    PhysicsError,
    ProtocolResult,
    analytic_P3,
    calibrate_u,
    cattiness,
    cattiness_curve,
    cattiness_sweep,
    run_protocol,
    sweep_protocol_probabilities,
    timing_tolerance,
)

def brute_force_probabilities(n, theta):
    """Mode-condensate probabilities by explicit enumeration.

    Independent of the package's vectorized paths: the amplitude for all
    particles in mode k is a multinomial-weighted character sum over the
    occupation triples.
    """
    omega = np.exp(2j * np.pi / 3.0)
    out = []
    for k in range(3):
        total = 0.0 + 0.0j
        for p, q, r in enumerate_basis(n):
            weight = math.factorial(n) / (
                math.factorial(int(p)) * math.factorial(int(q)) * math.factorial(int(r))
            ) / 3.0**n
            counts = p * (p - 1) + q * (q - 1) + r * (r - 1)
            total += weight * omega ** (k * (q + 2 * r)) * np.exp(-0.5j * theta * counts)
        out.append(abs(total) ** 2)
    return tuple(out)


def test_resonant_run_creates_even_cat():
    for n in (3, 30):
        r = run_protocol(n, CAT_HOLD_PHASE)
        assert np.allclose((r.p_alpha, r.p_beta, r.p_gamma), 1.0 / 3.0, atol=1e-12)
        assert r.cattiness == pytest.approx(1.0, abs=1e-10)


def test_zero_hold_returns_ground():
    r = run_protocol(3, 0.0)
    assert (r.p_alpha, r.cattiness) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-15))
    assert r.p_beta < 1e-15 and r.p_gamma < 1e-15


def test_off_multiple_run_matches_brute_force():
    r = run_protocol(4, CAT_HOLD_PHASE)
    expected = brute_force_probabilities(4, CAT_HOLD_PHASE)
    assert r.p_alpha == pytest.approx(expected[0], abs=1e-13)
    assert r.p_alpha == pytest.approx(1.0 / 27.0, abs=1e-13)
    assert r.p_beta < 1e-15 and r.p_gamma < 1e-15
    assert r.cattiness < 1e-10


def test_cat_hold_matches_the_exact_rationals():
    # the oracle sums the same amplitudes in integers over Z[omega]
    for n in range(1, 61):
        exact = cat_probabilities(n)
        r = run_protocol(n)
        assert np.allclose((r.p_alpha, r.p_beta, r.p_gamma), [float(p) for p in exact], rtol=0, atol=1e-13), n
        # the even three-branch cat, P_k = 1/3 each, exactly when 3 divides n
        assert (exact == (Fraction(1, 3),) * 3) == (n % 3 == 0), n


@pytest.mark.parametrize("n", [1, 7, 30, 45, 59, 60])
def test_sweep_matches_a_forty_digit_evaluation_of_its_series(n):
    # the same series in 40-digit mpmath at the float thetas; the worst gap
    # measured is 4.5e-14, at n = 60 and 2*pi/3
    pytest.importorskip("mpmath")
    thetas = [CAT_HOLD_PHASE, 0.7, 2.1, -1.1, 4.0]
    exact = [[float(p) for p in mp_probabilities(n, theta)] for theta in thetas]
    assert np.abs(sweep_protocol_probabilities(n, thetas) - exact).max() <= 5e-14


def test_run_protocol_matches_brute_force_generic_phase():
    for n, theta in ((2, 0.37), (5, 1.92), (6, 2.6)):
        r = run_protocol(n, theta)
        expected = brute_force_probabilities(n, theta)
        assert np.allclose((r.p_alpha, r.p_beta, r.p_gamma), expected, atol=1e-12)


EPS = np.finfo(np.float64).eps
# seeded hold phases off the special points 0 and 2*pi/3, over three periods
SEEDED_THETAS = np.random.default_rng(5).uniform(-2.0 * math.pi, 4.0 * math.pi, 32)


def beta_gamma_probabilities(n):
    """(P_beta, P_gamma) at every seeded theta: the sweep's rows, then a few single runs."""
    runs = [run_protocol(n, float(theta)) for theta in SEEDED_THETAS[:4]]
    swept = sweep_protocol_probabilities(n, SEEDED_THETAS)[:, 1:]
    return np.vstack([swept, [(r.p_beta, r.p_gamma) for r in runs]])


@pytest.mark.parametrize("n", [1, 2, 4, 5, 31, 32, 91])
def test_z3_selection_rule_empties_beta_and_gamma_at_every_theta(n):
    # The cyclic site shift commutes with the hold and fixes the ground state,
    # and the n-fold mode-k ket has Z3 charge k*n mod 3, so for 3 not dividing
    # n the beta and gamma amplitudes vanish exactly at every theta and the
    # floats hold only rounding.  Each amplitude is a dim-term sum whose terms
    # g_i * exp(-i*theta*u_i/2) * conj(c_i) have |g_i| = |c_i|, so their sizes
    # sum to |g|^2 = 1.  Summing dim terms errs by at most (dim - 1)*eps of
    # that total (Higham, Accuracy and Stability, section 3.1); the terms' own
    # few eps (the exp, the products, the columns' powers) fit in the one eps
    # left because a sum's roundings add as a random walk, about sqrt(dim)*eps,
    # not dim*eps.  So |A| <= dim*eps and P <= (dim*eps)^2.
    assert np.max(beta_gamma_probabilities(n)) <= (dimension(n) * EPS) ** 2


@pytest.mark.parametrize("n", [3, 6, 30, 90])
def test_beta_and_gamma_mirror_each_other_at_every_theta(n):
    # The mirror q <-> r fixes the ground state and every pair count and maps
    # the beta column onto the gamma one, so P_beta = P_gamma exactly and in
    # floats the gamma amplitude sums the beta amplitude's terms in mirrored
    # order, each rounded alike up to the columns' closed-form powers.  The
    # term sizes sum to 1 (as above), so each amplitude carries about 1 eps
    # from its terms and about 1 eps from its sum, whose roundings add as a
    # random walk: |A_beta - A_gamma| <= 4*eps.  With |A| <= 1,
    # |P_beta - P_gamma| = (|A_beta| + |A_gamma|) * ||A_beta| - |A_gamma||
    # <= 2 * 4*eps = 8*eps.
    p_beta, p_gamma = beta_gamma_probabilities(n).T
    assert np.max(np.abs(p_beta - p_gamma)) <= 8 * EPS


def test_protocol_preserves_norm():
    r = run_protocol(9, 1.234)
    assert abs(r.state.norm - 1.0) < 1e-12


def test_analytic_endpoints():
    pa, pb = analytic_P3(0.0)
    assert pa == pytest.approx(1.0, abs=1e-15)
    assert pb == pytest.approx(0.0, abs=1e-15)
    pa, pb = analytic_P3(CAT_HOLD_PHASE)
    assert pa == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert pb == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_analytic_matches_simulator_on_grid():
    thetas = np.linspace(0.0, 2.0 * np.pi, 211)
    probs = sweep_protocol_probabilities(3, thetas)
    pa, pb = analytic_P3(thetas)
    assert np.max(np.abs(probs[:, 0] - pa)) < 1e-12
    assert np.max(np.abs(probs[:, 1] - pb)) < 1e-12
    assert np.max(np.abs(probs[:, 2] - pb)) < 1e-12


def test_beta_constant_term_pinned_by_brute_force():
    # solve for the constant in 81*P_beta = c - 12 cos t - 6 cos 2t + 4 cos 3t
    # using only the brute-force enumeration; normalization demands c = 14
    thetas = np.linspace(0.0, 2.0 * np.pi, 101)
    residuals = []
    for theta in thetas:
        _, pb, _ = brute_force_probabilities(3, theta)
        residuals.append(
            81.0 * pb + 12.0 * math.cos(theta) + 6.0 * math.cos(2 * theta) - 4.0 * math.cos(3 * theta)
        )
    residuals = np.asarray(residuals)
    assert np.max(np.abs(residuals - 14.0)) < 1e-12
    # and the printed-alpha-style constant 41 is inconsistent with P_beta(0) = 0
    assert abs((41.0 - 12.0 - 6.0 + 4.0) / 81.0) > 0.3


def test_cattiness_values():
    assert cattiness(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    assert cattiness(1.0, 0.0, 0.0) == 0.0
    assert cattiness(0.4, 0.3, 0.3) == pytest.approx(3.0 * 0.036 ** (1.0 / 3.0), abs=1e-14)
    with pytest.raises(ValueError):
        cattiness(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        cattiness(-0.1, 0.5, 0.5)


def test_cattiness_sweep_comb_pattern():
    rows = cattiness_sweep(range(1, 32))
    assert rows.shape == (31, 4) and rows.dtype == np.float64
    by_n = dict(zip(range(1, 32), rows))
    for n in range(3, 31, 3):
        assert by_n[n][3] == pytest.approx(1.0, abs=1e-10), f"n={n}"
    for n in range(1, 32):
        if n % 3:
            assert by_n[n][3] < 1.0 - 1e-3, f"n={n}"
    # smallest case: a single particle picks up no pair phases at all
    assert by_n[1][0] == pytest.approx(1.0, abs=1e-14)
    assert by_n[1][3] == pytest.approx(0.0, abs=1e-15)


def test_cattiness_sweep_rows_are_the_protocol_numbers():
    rows = cattiness_sweep([7, 3], 1.3)
    for row, n in zip(rows, (7, 3)):
        r = run_protocol(n, 1.3)
        assert tuple(row) == (r.p_alpha, r.p_beta, r.p_gamma, r.cattiness)
    assert cattiness_sweep([]).shape == (0, 4)


def test_cattiness_sweep_frees_each_final_state_before_the_next_n(monkeypatch):
    states = []
    hold = protocol.evolve_interaction_phase

    def tracked(s, theta):
        assert all(ref() is None for ref in states), f"a final state is still alive when n={s.n} starts"
        final = hold(s, theta)
        states.append(weakref.ref(final))
        return final

    monkeypatch.setattr(protocol, "evolve_interaction_phase", tracked)
    cattiness_sweep(range(1, 7))
    assert len(states) == 6


def test_cattiness_is_even_and_periodic_in_theta():
    thetas = np.linspace(0.05, 2 * np.pi, 39)
    for n in (3, 6, 9):
        assert np.max(np.abs(cattiness_curve(n, thetas) - cattiness_curve(n, -thetas))) < 1e-12
        assert np.max(np.abs(cattiness_curve(n, thetas) - cattiness_curve(n, thetas + 2 * np.pi))) < 1e-12


def test_cattiness_asymmetry_about_resonance_is_small_but_real():
    # the curve is even in theta but not in the fractional error delta;
    # the asymmetry is a higher-order effect and stays tiny near the peak
    deltas = np.linspace(0.005, 0.12, 24)
    plus = cattiness_curve(6, (1.0 + deltas) * CAT_HOLD_PHASE)
    minus = cattiness_curve(6, (1.0 - deltas) * CAT_HOLD_PHASE)
    gap = np.max(np.abs(plus - minus))
    assert 1e-9 < gap < 1e-3


def test_timing_tolerance_against_analytic_oracle():
    # independent search on the closed three-particle forms
    def c3(theta):
        pa, pb = analytic_P3(theta)
        return 3.0 * np.cbrt(pa * pb * pb)

    lo, hi, step = 0.0, None, 1e-5
    d = 0.0
    while hi is None:
        d += step
        if c3((1.0 + d) * CAT_HOLD_PHASE) < 0.9:
            lo, hi = d - step, d
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if c3((1.0 + mid) * CAT_HOLD_PHASE) >= 0.9:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert timing_tolerance(3) == pytest.approx(oracle, abs=1e-8)


def test_timing_tolerance_basics():
    d0 = timing_tolerance(6)
    assert d0 > 0
    curve = cattiness_curve(6, np.array([(1.0 + d0) * CAT_HOLD_PHASE]))
    assert curve[0] == pytest.approx(0.9, abs=1e-6)
    # delta = 0 always satisfies the target
    assert cattiness_curve(6, np.array([CAT_HOLD_PHASE]))[0] >= 0.9


def test_timing_tolerance_scales_inversely_with_n():
    d6 = timing_tolerance(6)
    d30 = timing_tolerance(30)
    assert 4.0 < d6 / d30 < 6.5


def test_timing_tolerance_rejects_bad_input():
    with pytest.raises(ValueError):
        timing_tolerance(4)
    with pytest.raises(ValueError):
        timing_tolerance(6, c_target=1.5)


@pytest.mark.parametrize("n", [-3, 0, 4, 5, 31])
def test_every_cat_search_refuses_a_particle_number_off_the_multiples_of_3(n):
    # the Z3 selection rule empties P_beta and P_gamma at every theta for
    # these n, so a search there would only chase rounding noise
    assert issubclass(PhysicsError, ValueError) and issubclass(BracketError, PhysicsError)
    message = f"particle number must be a positive multiple of 3, got {n}$"
    with pytest.raises(PhysicsError, match=message):
        timing_tolerance(n)
    with pytest.raises(PhysicsError, match=message):
        calibrate_u(n, np.linspace(0.5 * np.pi, 5 * np.pi / 6, 121))
    with pytest.raises(PhysicsError, match=message):
        fringe_scan(n, 0.0, [0.1], 1.0)


def arrays_in(result):
    """Every array a cached result holds, through nested tuples and a lift's sweeps."""
    if isinstance(result, modes.FockLift):
        result = tuple(s.phases + s.turns for s in (result.forward, result.adjoint))
    if isinstance(result, tuple):
        for item in result:
            yield from arrays_in(item)
    elif isinstance(result, np.ndarray):
        yield result


def test_cached_per_n_arrays_are_read_only():
    # a write through any of them would corrupt every later call for that n;
    # n = 33 puts the lift's eigenbases in three classes.  Each cache is
    # bounded, so a run over many n holds a bounded number of them
    values = {"n": 33, "p": 0, "q": 1}
    checked = {}
    for module in (basis, modes, protocol):
        for name, func in vars(module).items():
            if not hasattr(func, "cache_info") or func.__module__ != module.__name__:
                continue
            assert func.cache_info().maxsize is not None, f"{name} keeps every n it sees"
            result = func(*(values[p] for p in inspect.signature(func).parameters))
            for a in arrays_in(result):
                assert not a.flags.writeable, name
                checked[name] = checked.get(name, 0) + 1
    assert {"enumerate_basis", "_hopping_eigenbases", "_sweep_inputs", "_series_coefficients", "dft_lift",
            "_extremal_readout"} <= set(checked)
    assert checked["_hopping_eigenbases"] == 4  # three classes and the eigenvalues


def test_sweep_and_readout_share_one_cached_table():
    # the sweep, its series and the extremal readout all read one conjugated
    # table per n, conjugated in place from a fresh extremal_columns(n), and
    # one cached ground.  A caller who alternates n, with the sweep inputs of
    # the first n still cached, then holds one table and one ground of that
    # n, not two
    n = 30
    protocol._sweep_inputs.cache_clear()
    protocol._sweep_inputs(n)
    first = weakref.ref(modes._extremal_readout(n))
    ground = weakref.ref(basis.multinomial_amplitudes(n))  # the one the sweep inputs were built beside
    run_protocol(60)
    assert first() is None, "a second reference keeps the N = 30 table of the first call alive"
    assert ground() is None, "a second reference keeps the N = 30 ground of the first call alive"
    run_protocol(30)
    readout = modes._extremal_readout(n)
    assert readout.shape == (dimension(n), 3) and readout.flags.c_contiguous and not readout.flags.writeable
    kets = modes.extremal_columns(n)
    assert kets is not modes.extremal_columns(n)
    assert np.array_equal(kets.view(np.uint64), readout.conj().view(np.uint64))


def test_calibration_finds_the_resonance():
    # flat-top limit: a value-based search resolves the peak of the
    # quadratic cap only to about sqrt(eps / curvature), a few 1e-9 here
    samples = np.linspace(0.5 * math.pi, 0.85 * math.pi, 101)
    star = calibrate_u(6, samples)
    assert star == pytest.approx(CAT_HOLD_PHASE, abs=1e-7)


def test_calibration_peak_width_matches_timing_tolerance():
    n = 6
    d0 = timing_tolerance(n, c_target=0.9)
    half_width = d0 * CAT_HOLD_PHASE
    value = cattiness_curve(n, np.array([CAT_HOLD_PHASE + half_width]))[0]
    assert value == pytest.approx(0.9, abs=1e-6)


def test_calibration_peak_sharpens_with_n():
    ratio = timing_tolerance(6) / timing_tolerance(30)
    assert ratio == pytest.approx(5.0, rel=0.3)


def test_calibration_rejects_edge_maximum():
    with pytest.raises(BracketError):
        calibrate_u(6, np.linspace(0.1, 0.5, 21))
    with pytest.raises(BracketError):
        calibrate_u(6, [1.0, 2.0])
    # a repeated best sample leaves no strict bracket around the peak
    with pytest.raises(BracketError):
        calibrate_u(6, [1.0, CAT_HOLD_PHASE, CAT_HOLD_PHASE, 3.0])
    # a one-point tie on the right with no sample past it to widen to (the
    # samples about the peak of the 62-point grid in the scipy test)
    thetas = np.linspace(0.5 * math.pi, 5.0 * math.pi / 6.0, 62)[29:32]
    with pytest.raises(BracketError, match="not strictly above both neighbours"):
        calibrate_u(6, thetas)
    # and a widened side that is still not below the best
    values = {0.0: 0.0, 1.0: 1.0, 2.0: 1.0, 3.0: 2.0}
    with pytest.raises(BracketError, match="not strictly above both neighbours"):
        protocol._golden_maximum(values.__getitem__, list(values), 1)


def scipy_golden(n, bracket):
    """scipy's golden section for the cattiness peak of n on a three-point bracket: (x, f calls)."""
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    reference = minimize_scalar(
        lambda t: -cattiness_curve(n, np.array([t]))[0], bracket=bracket, method="golden", options={"xtol": 1e-12}
    )
    return float(reference.x), reference.nfev


def test_calibration_matches_scipy_golden_section_bit_for_bit(monkeypatch):
    # the search also takes scipy's steps: scipy evaluates the bracket's
    # middle twice, so the search makes one f call fewer, or as many when it
    # widened the bracket by one sample
    sizes = []

    def counted(n, thetas):
        sizes.append(thetas.size)
        return cattiness_curve(n, thetas)

    monkeypatch.setattr(protocol, "cattiness_curve", counted)

    def check(n, samples, bracket, widened=False):
        sizes.clear()
        star = calibrate_u(n, samples)
        x, calls = scipy_golden(n, bracket)
        assert (star, sizes.count(1)) == (x, calls - 1 + widened), f"n={n}, {samples}"

    # the default bracket of the calibrate-u command
    thetas = np.linspace(0.5 * math.pi, 5.0 * math.pi / 6.0, 121)
    for n in (3, 6, 30, 90):
        values = cattiness_curve(n, thetas)
        best = int(np.argmax(values))
        check(n, thetas, tuple(thetas[best - 1 : best + 2]))
        # five samples about the peak, gaps a fraction of its 1/n width, with
        # the wider gap on the right: the search's first step goes right
        rng = np.random.default_rng(n)
        for _ in range(10):
            left, right = np.sort(rng.uniform(0.1, 0.6, 2)) / n
            samples = CAT_HOLD_PHASE + rng.uniform(-0.02, 0.02) / n + np.array([-2 * left, -left, 0, right, 2 * right])
            assert right > left and np.argmax(cattiness_curve(n, samples)) == 2
            check(n, samples, tuple(samples[1:4]))
    # on this even grid the two samples about the peak differ by one ulp on
    # the grid, and a one-point cattiness ties them, so the bracket widens to
    # the next sample on the right and the search starts on its wider side
    thetas = np.linspace(0.5 * math.pi, 5.0 * math.pi / 6.0, 62)
    best = int(np.argmax(cattiness_curve(6, thetas)))
    assert cattiness_curve(6, thetas[best + 1 : best + 2])[0] >= cattiness_curve(6, thetas[best : best + 1])[0]
    check(6, thetas, (thetas[best - 1], thetas[best], thetas[best + 2]), widened=True)


def test_import_pulls_in_neither_scipy_nor_numba():
    # the child imports the ringcat under test, from a checkout or installed
    home = str(Path(protocol.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {home!r}); import ringcat; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_run_protocol_rejects_zero_particles():
    with pytest.raises(ValueError):
        run_protocol(0, 1.0)


def test_result_invariant_enforced():
    r = run_protocol(3)
    with pytest.raises(ValueError):
        ProtocolResult(r.n, r.theta, r.p_alpha, r.p_beta, r.p_gamma, 0.5, r.state)


def test_sweep_matches_single_runs():
    thetas = np.array([0.0, 0.9, 2.2, 4.4])
    swept = sweep_protocol_probabilities(5, thetas)
    for theta, row in zip(thetas, swept):
        r = run_protocol(5, float(theta))
        assert np.allclose(row, (r.p_alpha, r.p_beta, r.p_gamma), atol=1e-13)


def largest_piece_bytes(n, *blocks):
    """Bytes of the largest piece the floor rule makes of blocks of these row counts.

    A block of B rows runs as B // least near-equal pieces of at least
    least = ceil(2^17 / dim) rows each (N <= 124).
    """
    dim = dimension(n)
    least = -(-(1 << 17) // dim)
    return 16 * dim * max(-(-rows // (rows // least)) for rows in blocks)


def traced_peak(func, *args):
    """Peak bytes traced while ``func(*args)`` runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_reuses_one_chunk_buffer():
    # the buffer holds one piece of a 2048-row block (2.1 MB at n = 60 and
    # n = 90, against 62 and 137 MB for a whole block), plus a small
    # per-piece exp table
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * protocol._SWEEP_CHUNK)
    for n in (60, 90):
        sweep_protocol_probabilities(n, thetas[:1])  # cache the per-n inputs outside the trace
        piece = largest_piece_bytes(n, 2048)
        assert protocol._sweep_bytes(thetas.size, dimension(n)) == piece
        peak = traced_peak(sweep_protocol_probabilities, n, thetas)
        assert peak < 1.3 * piece, f"n={n}: peak {peak / piece:.2f} pieces"


def test_calibration_grid_sweep_peaks_near_one_piece():
    thetas = np.linspace(0.6 * math.pi, 0.73 * math.pi, 4001)
    sweep_protocol_probabilities(90, thetas[:1])
    piece = largest_piece_bytes(90, 2048, 4001 - 2048)
    assert protocol._sweep_bytes(thetas.size, dimension(90)) == piece
    peak = traced_peak(protocol._calibrate_on_grid, 90, thetas)
    assert peak < 1.3 * piece, f"peak {peak / piece:.2f} pieces"


def test_sweep_pieces_keep_to_the_floor_or_the_cap():
    # every basis dimension up to N = 1292's, the largest the sweep commands
    # accept, and every block of 1 to 2048 rows.  A split depends on dim only
    # through least = ceil(2^17 / dim) (floor rule, while sub >= 33) or
    # sub = max(3, 2^18 // dim) (cap rule), so each class of dims is checked
    # at both of its ends.
    dims = np.arange(1, dimension(1292) + 1)
    least = -(-(1 << 17) // dims)
    sub = np.maximum(3, (1 << 18) // dims)
    rule = np.where(sub >= 33, least, -sub)
    change = np.flatnonzero(np.diff(rule))
    ends = np.unique(np.concatenate([[0, dims.size - 1], change, change + 1]))
    rows = np.arange(1, protocol._SWEEP_CHUNK + 1)
    for i in ends:
        dim, lo, cap = int(dims[i]), int(least[i]), int(sub[i])
        pieces = np.fromiter(map(protocol._sweep_pieces, rows.tolist(), itertools.repeat(dim)), np.int64, rows.size)
        # np.array_split then covers the block in order, with no empty piece
        assert np.all((pieces >= 1) & (pieces <= rows)), dim
        smallest, largest = rows // pieces, -(-rows // pieces)
        if cap >= 33:
            whole = rows < lo
            assert np.all(pieces[whole] == 1), dim
            assert np.all(smallest[~whole] >= lo) and lo >= 17 and lo * dim >= 1 << 17, dim
            assert np.all(largest < 2 * lo), dim
        else:
            assert np.all(pieces == -(-rows // cap)) and np.all(largest <= cap), dim
            assert np.all(smallest[1:] >= 2), dim
        for points in {0, 1, 2, lo - 1, lo, 2 * lo + 1, 2047, 2048, 2049, 2048 + lo, 4096, 6001}:
            blocks = [min(points, 2048), points % 2048]
            expected = max((int(largest[b - 1]) for b in blocks if b), default=0)
            assert protocol._sweep_buffer_rows(points, dim) == expected, (dim, points)


def per_ket_exp_sweeps(n, thetas, sizes):
    """The sweep over ``thetas[:size]`` for each size, with ``exp`` taken per ket.

    The arithmetic of the sweep before ``exp`` ran on distinct pair counts
    only, and before its blocks ran in pieces: exp(-1j * outer(theta, half))
    over every ket, times the ground amplitudes, then ``@ wconj`` on each
    whole 2048-row block.  The exp is elementwise, so it runs once per block
    of the longest grid.
    """
    from ringcat.basis import multinomial_amplitudes, pair_counts
    from ringcat.modes import extremal_columns

    half = 0.5 * pair_counts(n).astype(np.float64)
    wconj = np.ascontiguousarray(extremal_columns(n).conj())
    outs = {size: np.empty((size, 3)) for size in sizes}
    for lo in range(0, max(sizes), 2048):
        phases = np.multiply(-1j, np.outer(thetas[lo : min(lo + 2048, max(sizes))], half))
        np.exp(phases, out=phases)
        phases *= multinomial_amplitudes(n)
        for size, out in outs.items():
            rows = min(size - lo, 2048)
            if rows > 0:
                out[lo : lo + rows] = np.abs(phases[:rows] @ wconj) ** 2
    return outs.items()


def piece_edge_sizes(n):
    """Grid sizes about the floor: a block of least - 1 to 2 * least + 1 rows, and a tail of least and one row either side.

    At N = 90 and 97 a cap of 2^17 values would split some of these blocks
    into pieces of 16 rows or fewer, which run on one thread.
    """
    least = -(-(1 << 17) // dimension(n))
    return tuple(range(least - 1, 2 * least + 2)) + tuple(2048 + least + d for d in (-1, 0, 1))


@pytest.mark.parametrize(
    "n, sizes",
    [(n, (0, 1, 2, 17, 2048, 2049, 4001)) for n in (1, 2, 3, 30)]
    + [(n, (0, 1, 2, 17, 31, 32, 33, 2047, 2048, 2049, 4001) + piece_edge_sizes(n)) for n in (60, 90, 45, 97)],
)
def test_distinct_pair_count_exp_keeps_every_bit(n, sizes):
    # each block's product keeps the bits of the whole 2048-row block, at
    # every size and on both sides of the floor
    thetas = np.linspace(0.1, 2.0 * math.pi + 0.3, 4001)
    for size, expected in per_ket_exp_sweeps(n, thetas, sizes):
        assert np.array_equal(sweep_protocol_probabilities(n, thetas[:size]), expected), size


def test_sweep_keeps_the_cap_rule_above_n_124():
    # a floor of 2^17 values would run N = 150's blocks as pieces of 12 and
    # 13 rows, below the 17 rows from which OpenBLAS's zgemm runs on two
    # threads, as the whole block does; on this grid that moves row 1965.  Any
    # call of 17 rows or more rounds like the whole block, so the block's last
    # 148 rows stand in for its 2048.
    from ringcat.basis import multinomial_amplitudes, pair_counts
    from ringcat.modes import extremal_columns

    n, rows = 150, slice(1900, 2048)
    thetas = np.linspace(0.1, 2.0 * math.pi + 0.3, 2051)
    phases = np.exp(np.multiply(-1j, np.outer(thetas[rows], 0.5 * pair_counts(n).astype(np.float64))))
    phases *= multinomial_amplitudes(n)
    expected = np.abs(phases @ np.ascontiguousarray(extremal_columns(n).conj())) ** 2
    assert np.array_equal(sweep_protocol_probabilities(n, thetas)[rows], expected)


def test_sweep_exponentiates_distinct_pair_counts_only():
    for n, distinct in ((30, 64), (90, 437)):
        uhalf = protocol._sweep_inputs(n)[0]
        assert uhalf.size == distinct < dimension(n)


def plain_block_scan(n, c_target):
    """``timing_tolerance`` as a plain block scan: every grid point through the exact sweep.

    The same grid, blocks, bisection and messages, with each 4096-point
    block's cattiness taken from ``cattiness_curve`` and compared directly.
    """

    def c_of_delta(deltas):
        return cattiness_curve(n, (1.0 + np.asarray(deltas)) * CAT_HOLD_PHASE)

    if c_of_delta(np.array([0.0]))[0] < c_target:
        raise ValueError(f"target {c_target} unreachable: cattiness below it at delta = 0")
    step, start = 1e-4 / n, 0.0
    while True:
        deltas = start + step * np.arange(1, 4097)
        deltas = deltas[deltas <= 1.5]
        if deltas.size == 0:
            raise ValueError(f"no crossing below {c_target} found for delta <= 1.5")
        below = np.nonzero(c_of_delta(deltas) < c_target)[0]
        if below.size:
            break
        start = deltas[-1]
    k = int(below[0])
    lo, hi = (deltas[k - 1] if k else start), float(deltas[k])
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if c_of_delta(np.array([mid]))[0] >= c_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tolerance_or_message(scan, n, c_target):
    try:
        return scan(n, c_target)
    except ValueError as err:
        return str(err)


def test_timing_scan_keeps_the_plain_block_scans_results():
    cases = [(n, c) for n in (3, 6, 24, 30, 60) for c in (0.5, 0.9, 0.99)] + [(3, 0.01)]
    for n, c_target in cases:
        got = tolerance_or_message(timing_tolerance, n, c_target)
        assert got == tolerance_or_message(plain_block_scan, n, c_target), (n, c_target)
    assert got == "no crossing below 0.01 found for delta <= 1.5"


def test_timing_scan_with_every_chunk_on_the_exact_sweep(monkeypatch):
    # an infinite margin lets the series decide nothing: each chunk falls back
    series = protocol._series_products

    def undecided(n, thetas):
        prod, margin = series(n, thetas)
        return prod, np.full_like(margin, math.inf)

    monkeypatch.setattr(protocol, "_series_products", undecided)
    for n, c_target in ((6, 0.9), (24, 0.9), (30, 0.5), (60, 0.99), (3, 0.01)):
        got = tolerance_or_message(timing_tolerance, n, c_target)
        assert got == tolerance_or_message(plain_block_scan, n, c_target), (n, c_target)


def test_timing_scan_keeps_the_sweeps_answer_for_any_series_inside_the_margin(monkeypatch):
    # the decision rule, not only the real series' accuracy: a stand-in series
    # off by up to 0.99 of a margin widened to about one grid step's change in
    # the product must still give the exact scan's answer
    rng = np.random.default_rng(11)

    def noisy(n, thetas):
        swept = np.prod(sweep_protocol_probabilities(n, thetas), axis=1)
        margin = np.full_like(swept, 1e-7 * dimension(n))
        return swept + 0.99 * margin * rng.uniform(-1.0, 1.0, swept.size), margin

    monkeypatch.setattr(protocol, "_series_products", noisy)
    for n in (3, 6):
        for c_target in np.linspace(0.3, 0.99, 20):
            got = tolerance_or_message(timing_tolerance, n, c_target)
            assert got == tolerance_or_message(plain_block_scan, n, c_target), (n, c_target)


def test_timing_scan_runs_no_exact_sweep_where_the_series_decides(monkeypatch):
    # the delta = 0 check and the bisection go through the series as one-row
    # chunks too, so the exact sweep is only the fallback
    sizes = []
    sweep = protocol.sweep_protocol_probabilities

    def counted(n, thetas):
        sizes.append(np.size(thetas))
        return sweep(n, thetas)

    monkeypatch.setattr(protocol, "sweep_protocol_probabilities", counted)
    timing_tolerance(30, c_target=0.9)
    timing_tolerance(252, c_target=0.95)
    assert sizes == [], f"exact sweeps of {sizes} points"


def scan_chunk(n, start, size):
    """Hold phases of a timing-scan chunk: ``size`` steps of 1e-4/n past ``start``, clipped at delta = 1.5."""
    deltas = start + 1e-4 / n * np.arange(1, size + 1)
    return (1.0 + deltas[deltas <= 1.5]) * CAT_HOLD_PHASE


def series_and_sweep(n, thetas):
    """The series' products and margins over a chunk, and the sweep's products, on sampled rows.

    The series runs on the whole chunk, as the scan runs it.  The sweep runs
    on every 17th row (17 is coprime to the 64 fine offsets, so every offset
    is sampled) and the last 65, one row at a time to keep its buffer small
    at n = 252.  The margin bounds the gap for any summation order, so the
    sweep's row blocking does not matter.
    """
    prod, margin = protocol._series_products(n, thetas)
    rows = np.union1d(np.arange(0, thetas.size, 17), np.arange(max(thetas.size - 65, 0), thetas.size))
    swept = np.array([np.prod(sweep_protocol_probabilities(n, thetas[j : j + 1])) for j in rows])
    return prod[rows], margin[rows], swept


# The per-row margin is a worst-case bound, not an estimate; on the scan's
# chunks the measured gap stays below margin/34 (smallest at n = 3, where dim
# is 10 and the summation bound 3*dim*eps is nearly tight), and below about
# margin/40 on random chunks up to n = 90, where rows with a small amplitude
# see the chunk's coherent theta rounding.
SERIES_RESERVE = 10


def assert_series_close(n, prod, margin, swept, where):
    """The gap lies well inside the row's margin, and within 1/1000 of 64*dim*eps.

    64*dim*eps is the absolute margin the series had when it shared the
    sweep's exp values; the factored phases must keep its accuracy.
    """
    gap = np.abs(prod - swept)
    assert np.all(gap <= margin / SERIES_RESERVE), where
    assert np.max(gap) <= 64 * dimension(n) * np.finfo(np.float64).eps / 1000, where


@pytest.mark.parametrize("n", [3, 30, 90, 150, 252])
def test_series_margin_covers_every_uniform_chunk(n):
    for size in (1, 2, 63, 64, 65, 2047, 2048):
        for start in (0.0, 1.5 - 1e-4 / n * (size + 0.5)):
            thetas = scan_chunk(n, start, size)
            assert thetas.size == size
            assert_series_close(n, *series_and_sweep(n, thetas), (size, start))
    # the last chunk of a scan is clipped at delta = 1.5
    clipped = scan_chunk(n, 1.5 - 1e-4 / n * 1000.5, 2048)
    assert clipped.size == 1000
    assert_series_close(n, *series_and_sweep(n, clipped), "clipped")


@pytest.mark.parametrize("n", [3, 30, 90, 150])
def test_series_products_stay_far_inside_the_margin(n):
    # uniform grids, as the scan feeds the series, across the whole scanned range
    for start in np.linspace(0.0, 1.4, 8):
        assert_series_close(n, *series_and_sweep(n, scan_chunk(n, start, 2048)), start)


@pytest.mark.parametrize("n", [3, 30, 90])
def test_series_margin_covers_non_uniform_thetas(n):
    # off a uniform grid the measured theta gap is large, and so is the margin
    thetas = np.random.default_rng(7).uniform(-2.0 * math.pi, 4.0 * math.pi, 256)
    prod, margin = protocol._series_products(n, thetas)
    swept = np.prod(sweep_protocol_probabilities(n, thetas), axis=1)
    assert np.all(np.abs(prod - swept) <= margin)


def test_small_target_scan_stays_on_the_series(monkeypatch):
    # the margin shrinks with the product, so a target of 0.01 (cube 3.7e-8)
    # never sends a chunk to the exact sweep; an absolute 64*dim*eps margin
    # sent one for 21 of these 30 particle numbers
    fallbacks = []
    curve = protocol.cattiness_curve

    def counted(n, thetas):
        if np.size(thetas) > 1:
            fallbacks.append(n)
        return curve(n, thetas)

    monkeypatch.setattr(protocol, "cattiness_curve", counted)
    results = {n: tolerance_or_message(timing_tolerance, n, 0.01) for n in range(3, 91, 3)}
    assert fallbacks == []
    # the plain scan sweeps ~1e5 points per n; n = 15 and 27 fell back before
    for n in (3, 15, 27):
        assert results[n] == tolerance_or_message(plain_block_scan, n, 0.01), n
