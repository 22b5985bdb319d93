"""The cat-creation protocol and its figures of merit.

One protocol run: prepare the even condensate with the barriers low, raise
the barriers suddenly, hold under the pairwise interaction for a
dimensionless phase theta = U*t, lower the barriers again, and read out the
probabilities of finding every particle in a single quasi-momentum mode.
All observables depend on theta only, never on U and t separately.

At theta = 2*pi/3 and particle numbers divisible by three the final state
is an even three-branch superposition of the flow modes; the geometric-mean
measure ``cattiness`` equals one exactly there and drops to zero when any
branch is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .basis import dimension, multinomial_amplitudes, pair_counts
from .evolution import evolve_interaction_phase
from .modes import _extremal_readout, extremal_mode_probabilities
from .state import StateVector, superfluid_ground_state

__all__ = [
    "CAT_HOLD_PHASE",
    "ProtocolResult",
    "PhysicsError",
    "BracketError",
    "run_protocol",
    "sweep_protocol_probabilities",
    "analytic_P3",
    "cattiness",
    "cattiness_sweep",
    "cattiness_curve",
    "timing_tolerance",
    "calibrate_u",
]

CAT_HOLD_PHASE = 2.0 * math.pi / 3.0

# Theta points per block of the sweep.  The answer is defined on these blocks,
# tail included, and on the pieces each block runs as below, since the row count
# of the ``@ wconj`` zgemm sets its bits (exp, take and *= ground are
# elementwise).  With OpenBLAS on two threads (SkylakeX core), a call of at least
# 17 rows and more than 2^16 multiply-adds runs on both threads and a smaller one
# on one, and the two round differently at N = 35 and above (not at N = 30); a
# one-row call (zgemv) differs at every N.  So a split keeps the bits when each
# row's piece falls on the same side of that line.  The split:
# - near-equal pieces of at most sub = max(3, 2 * _SWEEP_LEAST // dim) rows
#   (4 MiB), ceil(rows / sub) of them, so never one row;
# - or, where sub >= 33 (dim <= 7943, N <= 124), fewer rows with the same bits:
#   rows // least near-equal pieces of at least least = ceil(_SWEEP_LEAST / dim)
#   rows, 17 or more, so fewer than 2 * least, and a block shorter than least
#   stays whole.  With sub >= 33 a block is one call under both rules, or
#   every piece under both has 17 rows or more and about 3 * 2^17
#   multiply-adds or more, and runs on both threads.  Above N = 124 the floor
#   would cut some of the cap rule's pieces of 17 rows or more down to 16 or
#   fewer: at N = 150 on a 2051-point grid that moved one row's bits.
# The one phase buffer holds the largest piece of the grid.
_SWEEP_CHUNK = 2048
_SWEEP_LEAST = 1 << 17

# Timing-tolerance scan: grid step 1e-4/n in delta, and the largest delta scanned.
_TIMING_STEP = 1e-4
_TIMING_DELTA_MAX = 1.5

# The timing scan's hold-phase series (``_series_products``).  A chunk's rows are
# evaluated as coarse rows times fine offsets, _SERIES_FINE offsets per coarse
# row (32 coarse rows per 2048-row chunk); only the series' speed depends on it.
_SERIES_FINE = 64

# Error bounds behind the series' per-row margin, in units of eps.  ground and
# each extremal column have unit norm, so by Cauchy-Schwarz the |terms| behind
# each amplitude, like the |b[k, m]| of each series row, sum to at most 1.
# - Summation order, per unit of basis dimension: the sweep sums dim kets, the
#   series sums the kets into b and then the distinct pair counts, so their
#   amplitudes differ by ~3*dim*eps from the order of the sums alone.
# - exp, per term: the sweep's exp, the series' two, and the fold of b into
#   the coarse table.
# - Rounding, relative, all of it allowed for in ``_first_below``: forming each
#   product of three |A|^2 on either path and its margin, and the cube
#   (c/3)^3 against the sweep's 3*cbrt.
_EPS = np.finfo(np.float64).eps
_SERIES_SUM_ERROR = 3 * _EPS
_SERIES_EXP_ERROR = 8 * _EPS
_SERIES_ROUNDING = 16 * _EPS

# Closed forms for the three-particle mode-condensate probabilities as
# cosine series in theta: P = (c0 + c1 cos t + c2 cos 2t + c3 cos 3t) / 81.
# The beta constant term is pinned to 14 by normalization (P_beta(0) = 0)
# and confirmed against the brute-force simulation; see the README notes.
_P3_ALPHA = (41.0, 24.0, 12.0, 4.0)
_P3_BETA = (14.0, -12.0, -6.0, 4.0)


class PhysicsError(ValueError):
    """A physically required precondition does not hold for this input."""


class BracketError(PhysicsError):
    """A scan bracket does not contain an interior peak."""


def _require_cat_number(n: int) -> None:
    """Refuse n off the positive multiples of 3: there P_beta = P_gamma = 0 at every theta (Z3 rule)."""
    if n < 1 or n % 3 != 0:
        raise PhysicsError(f"particle number must be a positive multiple of 3, got {n}")


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol run at hold phase ``theta``."""

    n: int
    theta: float
    p_alpha: float
    p_beta: float
    p_gamma: float
    cattiness: float
    state: StateVector = field(repr=False)

    def __post_init__(self):
        total = self.p_alpha + self.p_beta + self.p_gamma
        if min(self.p_alpha, self.p_beta, self.p_gamma) < 0 or total > 1 + 1e-10:
            raise ValueError(f"inconsistent probabilities {self}")
        expected = cattiness(self.p_alpha, self.p_beta, self.p_gamma)
        if abs(self.cattiness - expected) > 1e-12:
            raise ValueError("stored cattiness disagrees with the probabilities")


def run_protocol(n: int, theta: float = CAT_HOLD_PHASE) -> ProtocolResult:
    """Run the quench-hold-quench sequence for ``n`` particles."""
    if n < 1:
        raise ValueError(f"need at least one particle, got {n}")
    final = evolve_interaction_phase(superfluid_ground_state(n), theta)
    pa, pb, pg = extremal_mode_probabilities(final)
    return ProtocolResult(n, theta, pa, pb, pg, cattiness(pa, pb, pg), final)


@lru_cache(maxsize=1)
def _sweep_inputs(n: int):
    """Per-n sweep inputs: ``uhalf`` and ``where``.

    ``uhalf`` holds the distinct half pair counts and ``uhalf[where]`` is the
    half pair count of every ket.  The ground and the readout table are not
    among them: their users read ``basis.multinomial_amplitudes(n)`` and
    ``modes._extremal_readout(n)``, so one of each per n is alive.
    """
    uhalf, where = np.unique(0.5 * pair_counts(n).astype(np.float64), return_inverse=True)
    for a in (uhalf, where):
        a.setflags(write=False)
    return uhalf, where


def _sweep_pieces(rows: int, dim: int) -> int:
    """How many near-equal pieces a sweep block of ``rows`` points runs as at basis dimension ``dim``.

    Up to N = 124, as many pieces of at least ceil(2^17 / dim) rows as fit,
    and one for a block shorter than that; above, the fewest pieces of at
    most max(3, 2^18 // dim) rows (see ``_SWEEP_CHUNK``).
    """
    sub = max(3, 2 * _SWEEP_LEAST // dim)
    if sub >= 33:  # then the cap's pieces of a split block have 17 rows or more
        return max(1, rows // -(-_SWEEP_LEAST // dim))
    return -(-rows // sub)


def _sweep_buffer_rows(points: int, dim: int) -> int:
    """Rows of the largest piece a sweep over ``points`` hold phases runs, at basis dimension ``dim``.

    The grid's blocks are whole 2048-row ones and a shorter tail, and a
    block's largest piece is ceil(rows / pieces).
    """
    blocks = {min(points, _SWEEP_CHUNK), points % _SWEEP_CHUNK} - {0}
    return max((-(-rows // _sweep_pieces(rows, dim)) for rows in blocks), default=0)


def _sweep_bytes(points: int, dim: int) -> int:
    """Bytes of ``sweep_protocol_probabilities``' phase buffer over ``points`` hold phases: its largest piece."""
    return 16 * dim * _sweep_buffer_rows(points, dim)


def _timing_bytes(dim: int) -> int:
    """Bytes of ``_first_below``'s larger stage: the exact sweep of a 2048-row chunk, or
    ``_series_products``' tables, 4096 B per distinct pair count (about dim / 11 from N = 150 on)."""
    return max(_sweep_bytes(_SWEEP_CHUNK, dim), 4096 * (dim // 11))


def sweep_protocol_probabilities(n: int, thetas) -> np.ndarray:
    """Mode-condensate probabilities (len(thetas), 3) over a hold-phase grid.

    This vectorized path exists because the tolerance and calibration
    searches evaluate thousands of grid points.

    The hold multiplies each ket by exp(-1j*theta*m/2), with m its pair
    count, and m takes few distinct values (64 at n = 30, 437 at n = 90,
    against dimensions 496 and 4186).  So ``exp`` runs on the distinct
    values only and the result is gathered onto the kets; equal arguments
    give equal bits, so this matches a per-ket ``exp`` exactly.

    The answer is defined on 2048-row blocks and the near-equal pieces each
    runs as, which keep its bits (see ``_SWEEP_CHUNK``), through one buffer
    that holds the largest piece: 32 or 33 rows at n = 90, about 2.1 MiB.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got {n}")
    uhalf, where = _sweep_inputs(n)
    ground = multinomial_amplitudes(n)
    wconj = _extremal_readout(n)
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty((thetas.size, 3), dtype=np.float64)
    buf = np.empty((_sweep_buffer_rows(thetas.size, where.size), where.size), dtype=np.complex128)
    for lo in range(0, thetas.size, _SWEEP_CHUNK):
        block = np.arange(lo, min(lo + _SWEEP_CHUNK, thetas.size))
        for rows in np.array_split(block, _sweep_pieces(block.size, where.size)):
            # one exp table per piece, formed in place: the outer product fills
            # the real parts, so -1j multiplies x + 0j, as it does a real x
            uph = np.zeros((rows.size, uhalf.size), dtype=np.complex128)
            np.outer(thetas[rows], uhalf, out=uph.real)
            np.exp(np.multiply(-1j, uph, out=uph), out=uph)
            # mode="clip" lets take write straight into the buffer; "raise" would copy
            phases = np.take(uph, where, axis=1, out=buf[: rows.size], mode="clip")
            del uph  # not held through the matmul, to keep the peak at one buffer
            phases *= ground
            out[rows] = np.abs(phases @ wconj) ** 2
    return out


@lru_cache(maxsize=1)
def _series_coefficients(n: int) -> np.ndarray:
    """Hold-phase series coefficients b, shape (3, len(uhalf)).

    b[k, m] sums ground * conj(extremal column k) over the kets whose half
    pair count is ``uhalf[m]``, so the extremal amplitudes at hold phase
    theta are b @ exp(-1j * theta * uhalf): one term per distinct pair count.
    """
    uhalf, where = _sweep_inputs(n)
    b = np.zeros((3, uhalf.size), dtype=np.complex128)
    np.add.at(b.T, where, multinomial_amplitudes(n)[:, None] * _extremal_readout(n))
    b.setflags(write=False)
    return b


def _series_products(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_alpha * P_beta * P_gamma at each hold phase, and how far the sweep's may lie.

    Returns ``(prod, margin)``: the product summed over the series, and a
    bound on its distance from the sweep's product at the same float theta.

    ``thetas`` are meant to be a uniform grid, as the timing scan's chunks
    are.  Row j = a*B + r (B = ``_SERIES_FINE``) is evaluated at theta_c + f,
    with theta_c = thetas[a*B] its coarse row and f = fl(r*h) a fine offset
    on the step h between the first and last theta.  So
    exp(-1j*(theta_c + f)*u) = exp(-1j*theta_c*u) * exp(-1j*f*u): b folds into
    the coarse table, and the three amplitudes of every row come from one
    (3 x coarse rows, distinct u) @ (distinct u, B) product, without a
    per-row exp table.

    The margin.  The sweep's term u carries the phase fl(theta_j*u), the
    series' fl(theta_c*u) + fl(f*u).  With d = |theta_c + f - theta_j|,
    measured here on the chunk's own float thetas, the two phases differ by
    at most (d + 3*eps*M) * u, where M = max|theta| + max|f|: 1.5*eps*M for
    the three products and eps*M for the sum and difference that measure d.
    |exp(-ix) - exp(-iy)| <= |x - y| and u >= 0, so with the exps' few eps
    each series term moves by at most (d + 3*eps*M) * max(u)
    + ``_SERIES_EXP_ERROR`` relative to the sweep's.  The |b| of each series
    row sum to at most 1, so that bounds the amplitude gap too, and with the
    summation-order term eps_A = ``_SERIES_SUM_ERROR`` * dim + that phase
    term bounds ||A_k| - |A_k'|| for each k.  Then the sweep's product lies between
    prod(max(|A_k| - eps_A, 0)^2) and prod((|A_k| + eps_A)^2); the second is
    the farther one, since prod(|A_k| + t) has no negative coefficient in t.
    So margin = prod((|A_k| + eps_A)^2) - prod(|A_k|^2), in exact arithmetic;
    ``_first_below`` allows for the rounding.  It shrinks with the product,
    so a small target stays on the series.  A non-uniform grid gets a large
    d and with it a wide, still valid, margin.
    """
    uhalf = _sweep_inputs(n)[0]
    rows = thetas.size
    h = (thetas[-1] - thetas[0]) / (rows - 1) if rows > 1 else 0.0
    fine = np.arange(min(rows, _SERIES_FINE)) * h
    coarse = thetas[::_SERIES_FINE]
    d = np.max(np.abs((coarse[:, None] + fine).ravel()[:rows] - thetas))
    big = np.max(np.abs(thetas)) + np.max(np.abs(fine))
    eps_a = (
        _SERIES_SUM_ERROR * dimension(n)
        + (d + 3.0 * _EPS * big) * uhalf[-1]
        + _SERIES_EXP_ERROR
    )
    table = np.exp(np.multiply(-1j, np.outer(coarse, uhalf)))
    folded = (_series_coefficients(n)[:, None, :] * table).reshape(-1, uhalf.size)
    amps = np.abs(folded @ np.exp(np.multiply(-1j, np.outer(uhalf, fine))))
    amps = amps.reshape(3, -1)[:, :rows]
    prod = np.prod(amps**2, axis=0)
    margin = np.prod((amps + eps_a) ** 2, axis=0) - prod
    return prod, margin


def _first_below(n: int, deltas: np.ndarray, c_target: float) -> int | None:
    """Index of the first timing error in ``deltas`` whose cattiness is below ``c_target``.

    Returns None when there is none.  ``deltas`` is scanned in the sweep's
    2048-row chunks, stopping at the first chunk with a crossing.  A chunk is
    decided by the series when every product up to and including its first
    one below the cube (c_target/3)^3 lies more than its row's margin, plus
    ``_SERIES_ROUNDING`` of the product's bound and of the cube, from that
    cube: then the sweep compares the same way on each of those rows.
    Otherwise the chunk runs through the exact sweep, as the same rows, so
    the answer is the sweep's either way.
    """
    cube = (c_target / 3.0) ** 3
    for lo in range(0, deltas.size, _SWEEP_CHUNK):
        thetas = (1.0 + deltas[lo : lo + _SWEEP_CHUNK]) * CAT_HOLD_PHASE
        prod, margin = _series_products(n, thetas)
        slack = margin + _SERIES_ROUNDING * (prod + margin + cube)
        below = np.flatnonzero(prod < cube)
        upto = below[0] + 1 if below.size else prod.size
        if np.any(np.abs(prod[:upto] - cube) <= slack[:upto]):
            below = np.flatnonzero(cattiness_curve(n, thetas) < c_target)
        if below.size:
            return lo + int(below[0])
    return None


def analytic_P3(theta) -> tuple:
    """Closed-form (P_alpha, P_beta) for three particles; accepts arrays.

    P_gamma equals P_beta.  The cosine series is exact for the three-atom
    protocol and is used as an independent oracle for the simulator.
    """
    theta = np.asarray(theta, dtype=np.float64)
    pa, pb = (sum(c * np.cos(k * theta) for k, c in enumerate(cs)) for cs in (_P3_ALPHA, _P3_BETA))
    if theta.ndim == 0:
        return float(pa) / 81.0, float(pb) / 81.0
    return pa / 81.0, pb / 81.0


def cattiness(p_alpha: float, p_beta: float, p_gamma: float) -> float:
    """Geometric-mean cat quality 3 (P_a P_b P_g)^(1/3), in [0, 1].

    Equals one exactly when all three probabilities are 1/3 (the largest
    value compatible with a unit total) and zero when any branch is empty.
    """
    probs = (p_alpha, p_beta, p_gamma)
    for p in probs:
        if not -1e-12 <= p <= 1 + 1e-12:
            raise ValueError(f"probabilities must lie in [0, 1], got {probs}")
    product = max(p_alpha, 0.0) * max(p_beta, 0.0) * max(p_gamma, 0.0)
    return 3.0 * float(np.cbrt(product))


def cattiness_sweep(n_values, theta: float = CAT_HOLD_PHASE) -> np.ndarray:
    """(P_alpha, P_beta, P_gamma, cattiness) per particle number, at a common hold phase.

    Returns a float64 array of shape (len(n_values), 4), one row per n in
    the given order.  Each n gets its own ``run_protocol``, one at a time:
    only its four numbers outlive the run, never its final state.
    """
    numbers = attrgetter("p_alpha", "p_beta", "p_gamma", "cattiness")
    rows = [numbers(run_protocol(int(n), theta)) for n in n_values]
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def cattiness_curve(n: int, thetas) -> np.ndarray:
    """Cattiness 3 (P_a P_b P_g)^(1/3) at each hold phase of a grid."""
    probs = sweep_protocol_probabilities(n, thetas)
    return 3.0 * np.cbrt(np.prod(probs, axis=1))


def timing_tolerance(n: int, c_target: float = 0.9) -> float:
    """Largest timing error delta keeping cattiness at or above ``c_target``.

    The hold phase is theta = (1 + delta) * 2*pi/3 and the returned value is
    the first downward crossing of the cattiness curve, located by a grid
    scan in steps of 1e-4/n up to delta = 1.5 and refined by bisection to
    1e-9.  A plain bisection from delta = 0 would risk landing on a revival
    lobe of the oscillatory curve instead of the first crossing.

    The scan only needs the sign of c - c_target at each grid point.  The
    extremal amplitudes are trigonometric series in theta, one term per
    distinct pair count (437 at n = 90, against dimension 4186), so each
    2048-point chunk is first compared through that series, evaluated on a
    phase table factored into 32 coarse rows and 64 fine offsets of the
    uniform grid.  Each row carries a proven margin: how far the sweep's
    product can lie from the series', from the order of the sums, the gap
    between the factored phases and the row's own float theta, and
    rounding.  It shrinks with the product.  Where a product lies within
    its margin, plus a few ulp, of the cube (c_target/3)^3, the series
    cannot prove the comparison and the chunk runs through the exact sweep
    instead.  The delta = 0 check and each bisection step are one-row chunks
    on the same path.  So every decision, and every output bit, is the exact
    sweep's.
    """
    _require_cat_number(n)
    if not 0.0 < c_target < 1.0:
        raise ValueError(f"cattiness target must lie in (0, 1), got {c_target}")
    step = _TIMING_STEP / n
    if _first_below(n, np.zeros(1), c_target) is not None:
        raise ValueError(f"target {c_target} unreachable: cattiness below it at delta = 0")

    # block scan until the curve first dips below the target
    start = 0.0
    while True:
        deltas = start + step * np.arange(1, 4097)
        deltas = deltas[deltas <= _TIMING_DELTA_MAX]
        if deltas.size == 0:
            raise ValueError(f"no crossing below {c_target} found for delta <= {_TIMING_DELTA_MAX}")
        k = _first_below(n, deltas, c_target)
        if k is not None:
            break
        start = deltas[-1]
    lo, hi = (deltas[k - 1] if k else start), float(deltas[k])
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _first_below(n, np.array([mid]), c_target) is None:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate_u(n: int, theta_samples) -> float:
    """Locate the cat resonance: the hold phase maximizing cattiness.

    ``theta_samples`` must bracket the peak near 2*pi/3.  The best grid
    sample seeds a golden-section refinement; running the protocol for a
    range of hold times and reading the resonance off this way pins the
    interaction strength, since the peak sharpens like 1/n.  The peak is
    flat-topped, so a search on values resolves it only to a few 1e-9.
    Raises ``PhysicsError`` unless n is a positive multiple of 3, and its
    subclass ``BracketError`` when the samples around the best one form no
    strict bracket (see ``_golden_maximum``).
    """
    return _calibrate_on_grid(n, theta_samples)[0]


def _calibrate_on_grid(n: int, theta_samples) -> tuple[float, float, np.ndarray]:
    """``calibrate_u``, the cattiness found there, and the cattiness swept at the sorted samples."""
    _require_cat_number(n)
    thetas = np.sort(np.asarray(theta_samples, dtype=np.float64))
    if thetas.size < 3:
        raise BracketError("need at least three samples to bracket a peak")
    values = cattiness_curve(n, thetas)
    best = int(np.argmax(values))
    if best == 0 or best == thetas.size - 1:
        raise BracketError("scan maximum sits on the bracket edge; no interior peak")
    star, c_star = _golden_maximum(lambda t: cattiness_curve(n, np.array([t]))[0], thetas, best)
    return float(star), float(c_star), values


# Golden-ratio conjugate 2/(1 + sqrt 5), rounded to eight digits as in the
# library golden section this search reproduces, so it visits the same points.
_GOLDEN = 0.61803399


def _golden_maximum(f, samples, best):
    """Golden-section search for the maximum of ``f`` around ``samples[best]``.

    Returns the point it picks and f there.  The bracket is xa < xb < xc, the
    sorted samples best - 1, best and best + 1.  Where f at a neighbour is not
    below f at xb, that side widens to the next sample, once: two samples set
    symmetrically about the flat peak get values that differ by rounding only,
    and a one-point f may order them unlike the grid's.  The bracket must then
    be strict: f(xb) above both f(xa) and f(xc).  A port of the standard bracketed
    golden section, run on -f with a relative tolerance of 1e-12: the same
    constant, update order, stopping test, 5000-step bound and final pick, so
    it picks the same bits as the library routine on the same bracket (the
    protocol tests check this exactly), with one f call per point.
    """
    xa, xb, xc = samples[best - 1 : best + 2]
    if not xa < xb < xc:
        raise BracketError(f"scan samples {xa}, {xb}, {xc} around the maximum are not distinct")
    fa, fb, fc = f(xa), f(xb), f(xc)
    if fa >= fb and best >= 2:
        xa = samples[best - 2]
        fa = f(xa)
    if fc >= fb and best + 2 < len(samples):
        xc = samples[best + 2]
        fc = f(xc)
    if not (fb > fa and fb > fc):
        raise BracketError("scan maximum is not strictly above both neighbours; no interior peak")
    gc = 1.0 - _GOLDEN
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
        f1, f2 = fb, f(x2)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
        f1, f2 = f(x1), fb
    for _ in range(5000):
        if abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1 = x1, x2
            x2 = _GOLDEN * x1 + gc * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GOLDEN * x2 + gc * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 > f2 else (x2, f2)
