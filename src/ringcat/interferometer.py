"""Three-port flow interferometer built from two cat operations.

A full sequence is: cat creation (hold 2*pi/3), a sensing hold of duration
dt under the rotating mode Hamiltonian, then a second cat operation with a
doubled hold (4*pi/3) that inverts the first, and finally a mode-number
readout.  For particle numbers divisible by three the whole sequence stays
inside the span of the three extremal mode occupations, so it reduces to
3x3 matrix algebra.  ``fringe_scan`` runs the same sequence in Fock space,
a block of xi values at a time, with the sensing hold as direct mode-energy
phases e^{-i dt E}, and tabulates it beside those closed forms.  Each row
has the same bits as a one-point scan of its xi.

The readout fringes depend on the settings only through two dimensionless
phases: phi_rot = n*xi*dt (rotation) and phi_hop = 3*n*J*dt (hopping).
Their frequency grows linearly with n, which is what pushes the rotation
sensitivity to the 1/n quantum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import _interaction_phases, evolve_interaction_phase
from .hamiltonian import _mode_energies
from .modes import _extremal_readout, dft_lift
from .protocol import CAT_HOLD_PHASE, _require_cat_number, run_protocol
from .state import Representation, StateVector, _check_norms

__all__ = [
    "FringeSettings",
    "cat_matrix",
    "phase_matrix",
    "fringe_probabilities",
    "full_simulation_fringes",
    "protocol_subspace_matrix",
    "FringeScan",
    "fringe_scan",
]


# Bytes of one (rows x (n+1)^2) complex array of a scan block; 256 KiB keeps
# peak memory near a one-point loop's, where 4 MiB added about 20 MB.
_BLOCK_BYTES = 1 << 18
# From this many kets on, numpy evaluates cat * exp(...) of a single state in
# place in the exp temporary ("temporary elision", 256 KiB and up), that is
# as exp(...) * cat.  The AVX-512 complex multiply is not bitwise
# commutative, so a block takes the operand order a single state gets.
_ELIDE_KETS = (1 << 18) // 16


def _block_rows(n: int) -> int:
    """Rows of one ``fringe_scan`` block at n: as many as ``_BLOCK_BYTES`` holds, at least one."""
    return max(1, _BLOCK_BYTES // (16 * (n + 1) ** 2))


def _scan_bytes(n: int) -> int:
    """Bytes ``fringe_scan``'s work pair and held block take: each is ``_block_rows(n)`` rows of at most (n+1)^2."""
    return 3 * max(_BLOCK_BYTES, 16 * (n + 1) ** 2)


@dataclass(frozen=True)
class FringeSettings:
    """Interferometer settings reduced to the two phases observables depend on."""

    n: int
    phi_rot: float
    phi_hop: float = 0.0

    @classmethod
    def from_physical(cls, n: int, j: float, xi: float, dt: float) -> "FringeSettings":
        return cls(n=n, phi_rot=n * xi * dt, phi_hop=3.0 * n * j * dt)


def cat_matrix() -> np.ndarray:
    """Transfer matrix W of one cat operation on the extremal-mode subspace.

    W has modulus 1/sqrt(3) everywhere, diagonal phase -pi/2 and off-diagonal
    phase +pi/6; it is symmetric, unitary, and satisfies W^3 = identity
    exactly.  This is the matrix the Fock-space hold actually realizes,
    including its global phase, so a doubled hold realizes W^2 = W dagger.
    """
    d = np.exp(-2j * np.pi / 3.0)
    w = np.full((3, 3), 1.0 + 0.0j)
    np.fill_diagonal(w, d)
    w *= np.exp(1j * np.pi / 6.0) / np.sqrt(3.0)
    w.setflags(write=False)
    return w


def phase_matrix(s: FringeSettings) -> np.ndarray:
    """Diagonal phases accrued on the extremal kets during the sensing hold.

    Under e^{-iHt} with mode energies (-2J, J+xi, J-xi) per particle, and
    with the common e^{-i n J dt} offset dropped, the three kets pick up
    diag(e^{+i phi_hop}, e^{-i phi_rot}, e^{+i phi_rot}): raising a mode's
    energy advances its phase clockwise, so the +hbar flow mode beta carries
    the negative rotation phase.
    """
    q = np.diag(
        np.exp(1j * np.array([s.phi_hop, -s.phi_rot, s.phi_rot]))
    ).astype(np.complex128)
    q.setflags(write=False)
    return q


def fringe_probabilities(s: FringeSettings) -> tuple[float, float, float]:
    """Closed-form readout probabilities (P_alpha, P_beta, P_gamma).

    Each equals (1/9) [1 + 4 cos^2(x) + 4 cos(x) cos(phi_hop)] with
    x = phi_rot shifted by 0, +2*pi/3, -2*pi/3 for alpha, beta, gamma; they
    sum to one identically and match |W^2 Q W (1,0,0)|^2 componentwise.
    """
    pa, pb, pg = _closed_columns(np.array([s.phi_rot], dtype=np.float64), s.phi_hop)[0].tolist()
    return pa, pb, pg


def _closed_columns(phi_rot: np.ndarray, phi_hop: float) -> np.ndarray:
    """``fringe_probabilities`` at each rotation phase, shape (len(phi_rot), 3).

    Each cosine is ``math.cos`` of one value, and the arithmetic runs
    elementwise in the formula's order, so a row has the bits of the
    scalar formula.
    """
    ch = math.cos(phi_hop)
    out = np.empty((phi_rot.size, 3))
    for k, shift in enumerate((0.0, CAT_HOLD_PHASE, -CAT_HOLD_PHASE)):
        c = np.fromiter(map(math.cos, (phi_rot + shift).tolist()), np.float64, phi_rot.size)
        out[:, k] = (1.0 + 4.0 * c * c + 4.0 * c * ch) / 9.0
    return out


def full_simulation_fringes(n: int, j: float, xi: float, dt: float) -> tuple[float, float, float]:
    """Fock-space readout (P_alpha, P_beta, P_gamma) at one setting: a one-point ``fringe_scan``."""
    return tuple(map(float, fringe_scan(n, j, [xi], dt).probs_sim[0]))


def protocol_subspace_matrix(n: int, theta: float) -> np.ndarray:
    """The interaction hold restricted to the three extremal mode kets.

    Entry (m', m) is the amplitude <m'|hold|m> between n-fold mode
    occupations.  For n divisible by three and theta = 2*pi/3 this
    reproduces ``cat_matrix()`` exactly; the restriction is only a faithful
    summary of the hold when the leakage out of the subspace vanishes,
    which the tests check rather than assume.
    """
    readout = _extremal_readout(n).T
    out = np.empty((3, 3), dtype=np.complex128)
    for m in range(3):
        ket = StateVector(n, Representation.SITE, readout[m].conj())
        out[:, m] = readout @ evolve_interaction_phase(ket, theta).amps
    return out


@dataclass(frozen=True)
class FringeScan:
    """Fringe table over a rotation-phase grid, plus the measured period."""

    n: int
    xi_dt: np.ndarray = field(repr=False)
    probs_sim: np.ndarray = field(repr=False)
    probs_closed: np.ndarray = field(repr=False)
    period_xi_dt: float


def _peak_positions(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Principal local maxima of a smooth sampled curve, parabolically refined.

    Secondary ripples (the alpha fringe has a small bump between principal
    peaks) are rejected by keeping only maxima above the curve's midrange.
    """
    cutoff = 0.5 * (float(np.max(y)) + float(np.min(y)))
    peaks = []
    for i in range(1, x.size - 1):
        if y[i] >= y[i - 1] and y[i] > y[i + 1] and y[i] >= cutoff:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            peaks.append(x[i] + shift * (x[i + 1] - x[i]))
    return np.asarray(peaks)


def fringe_scan(n: int, j: float, xi_values, dt: float) -> FringeScan:
    """Sweep the rotation coupling and tabulate simulated and closed-form fringes.

    The simulated columns run the interferometer in Fock space.  The cat,
    ``run_protocol(n).state``, and its lift to momentum modes do not depend
    on xi, so they run once, as do the doubled hold's phases and the
    conjugated readout columns.  The xi values then go through in blocks of
    rows: one vectorized pass makes a block's mode energies and sensing
    phases for ``dt``, one lift takes all its rows back to sites, and the
    doubled hold, the norm checks and the extremal readout run on the
    whole block.  Each row keeps the bits of a one-point scan: the lift's
    transposed products give each column the same bits at any width, its
    other products and the readout's have the shapes of a single state,
    and the block's |a|^2 is ``float_power(hypot(re, im), 2.0)``, the libm
    hypot and pow that ``float(abs(a)) ** 2`` calls.  The closed-form
    columns come from ``fringe_probabilities``' own formula, evaluated over
    the whole grid.  Only multiples of three keep the state in the
    extremal subspace; other n are rejected, as are a non-finite ``j`` or
    xi.

    The period column is measured from the spacing of the alpha-fringe
    maxima over the scan (NaN when the grid covers fewer than two peaks);
    for these fringes it equals 2*pi/n in units of xi*dt.
    """
    _require_cat_number(n)
    xi_values = np.asarray(xi_values, dtype=np.float64)
    if not (math.isfinite(j) and np.isfinite(xi_values).all()):
        raise ValueError(f"J and every xi must be finite, got J={j!r}")
    lift = dft_lift(n)
    cat = lift.to_momentum(run_protocol(n).state).amps
    inverse_hold = _interaction_phases(n, 2.0 * CAT_HOLD_PHASE)
    readout = _extremal_readout(n).T
    rows = _block_rows(n)
    sim = np.empty((xi_values.size, 3), dtype=np.float64)
    # the lift's two gather arrays, held for the whole grid: every block's
    # gathers alternate between them, one row per block or many
    work = tuple(np.empty((n + 1) ** 2 * rows, dtype=np.complex128) for _ in range(2))
    for lo in range(0, xi_values.size, rows):
        # exp in place, and held dropped after the lift, so that a block's
        # phases stack on no other complex temporary of their size
        held = np.multiply(-1j * dt, _mode_energies(n, j, xi_values[lo : lo + rows, None]))
        np.exp(held, out=held)
        if cat.size >= _ELIDE_KETS:
            held *= cat
        else:
            np.multiply(cat, held, out=held)
        _check_norms(held)
        final = lift.to_site_rows(held, work)
        del held
        final *= inverse_hold
        _check_norms(final)
        amps = (readout @ final[:, :, None])[:, :, 0]
        sim[lo : lo + rows] = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
    closed = _closed_columns(n * xi_values * dt, 3.0 * n * j * dt)
    xi_dt = xi_values * dt
    peaks = _peak_positions(xi_dt, closed[:, 0])
    period = float(np.mean(np.diff(peaks))) if peaks.size >= 2 else math.nan
    return FringeScan(n, xi_dt, sim, closed, period)
