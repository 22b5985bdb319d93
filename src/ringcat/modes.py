"""Quasi-momentum modes of the three-site ring and their N-particle lift.

The single-particle mode change is the unitary 3x3 discrete Fourier matrix
``F``: row k (mode) and column j (site) carry (1/sqrt(3)) exp(i 2 pi k j / 3).
Row 0 is the zero-momentum mode alpha; rows 1 and 2 are the flow modes beta
and gamma with angular momentum +hbar and -hbar around the ring.  The ring's
periodic boundary makes these three modes a complete basis: shifting the
momentum label by three leaves the mode unchanged.

For N particles the mode change acts on the symmetric Fock space as the
N-th symmetric tensor power of F.  The lift is never formed as a dense
matrix on the way.  Givens eliminations (Reck et al., PRL 73, 58, 1994)
factor F as D0 X D1 X D2 X D3: the Ds are diagonal phases and each X is
exp(i theta sigma_x) on one pair of modes.  A diagonal D lifts to the
phase prod_k d_k^(n_k) on each basis ket.  A two-mode X keeps the
spectator occupation fixed, and on the (K + 1) kets with K particles in
the pair it acts as exp(i theta T_K).  T_K is the real tridiagonal hopping
generator a_p^dag a_q + h.c., the Schwinger-boson 2 J_x, with exact
eigenvalues -K, -K + 2, ..., K.  One ``eigh`` of each T_K (Feng et al.,
PRE 92, 043307, 2015) therefore serves every rotation angle and both
directions.  Applying the lift costs O(N^3).  The eigenbases are kept in
classes of 16 block sizes, each zero-padded to its largest block only, so
they take about a third of the (N+1)^3 floats of one common padding.  The
norm and round-trip defects on random vectors stay at the 1e-15 level
through N = 150, which the test suite checks.  Lifts compose the way the
3x3 matrices do, which the tests check rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .basis import dimension, enumerate_basis, multinomial_amplitudes
from .state import Representation, StateVector

__all__ = [
    "dft_mode_matrix",
    "FockLift",
    "lift_to_fock",
    "dft_lift",
    "extremal_columns",
    "extremal_mode_probabilities",
    "momentum_distribution",
]

# mode pairs (p, q) of the three Givens rotations, in the order they act
_PAIRS = ((1, 2), (0, 1), (1, 2))
# kets of the dense matrix built per batch, which bounds the workspace
_MATRIX_BATCH = 256
# Block sizes K+1 per eigenbasis class.  A product's bits follow its k-length
# modulo 16 and BLAS's trans flag, not the zeros it multiplies, so each class
# pads to its own largest block and keeps the bits of one common (n+1) padding.
_CLASS_SIZE = 16


# ranks of the three extremal occupations (n,0,0), (0,n,0), (0,0,n)
def _extremal_ranks(n: int) -> tuple[int, int, int]:
    d = dimension(n)
    return 0, d - n - 1, d - 1


@lru_cache(maxsize=1)
def dft_mode_matrix() -> np.ndarray:
    """The 3x3 site-to-mode Fourier matrix, mode rows (alpha, beta, gamma)."""
    k = np.arange(3).reshape(3, 1)
    j = np.arange(3).reshape(1, 3)
    f = np.exp(2j * np.pi * k * j / 3.0) / np.sqrt(3.0)
    f.setflags(write=False)
    return f


def _givens_factors(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles of f = D0 X(t0) D1 X(t1) D2 X(t2) D3 with the X on ``_PAIRS``.

    X(t) is exp(i t sigma_x) on its mode pair and Dk = diag(exp(i phi_k)).
    Returns (thetas (3,), phis (4, 3)).  An entry that is already zero gives
    t = 0 and zero phases, so the identity factors exactly.
    """
    m = np.array(f, dtype=np.complex128)
    thetas = np.zeros(3)
    zetas = np.zeros((3, 3))  # Givens i is Z_i X Z_i^dag with Z_i = diag(exp(i zetas[i]))
    # zero m[2,0], then m[1,0], then m[2,1]: the remainder is diagonal
    for i, ((p, q), col) in enumerate(zip(_PAIRS, (0, 0, 1))):
        a, b = m[p, col], m[q, col]
        if b == 0:
            continue
        r = np.hypot(abs(a), abs(b))
        if a == 0:
            c, s = 0.0, b / abs(b)
        else:
            c = abs(a) / r
            s = (b / r) * (np.conj(a) / abs(a))
        thetas[i] = np.arctan2(abs(s), c)
        zetas[i, q] = np.angle(-1j * s)
        rows = m[[p, q]]
        m[p] = c * rows[0] + np.conj(s) * rows[1]
        m[q] = -s * rows[0] + c * rows[1]
    d = np.angle(np.diag(m))
    phis = np.stack([zetas[0], zetas[1] - zetas[0], zetas[2] - zetas[1], d - zetas[2]])
    return thetas, phis


@lru_cache(maxsize=1)
def _hopping_eigenbases(n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Eigenvectors of T_K for K = 0..n, in classes of consecutive K.

    Returns (classes, eigenvalues).  A class holds the K of one run
    K0..K0+count-1 (16 of them, the last class fewer) as a (count, s, s)
    array with s the largest K+1 in it: entry K-K0 holds the eigenvectors of
    T_K in its leading (K+1) x (K+1) block, over kets ordered by the second
    mode's occupation t, and zeros elsewhere.  The eigenvalues, (n+1, n+1) with row K zero-padded, are set
    to their exact values -K, -K+2, ..., K, the ascending order ``eigh``
    returns them in.
    """
    classes = []
    lam = np.zeros((n + 1, n + 1))
    for lo in range(0, n + 1, _CLASS_SIZE):
        hi = min(lo + _CLASS_SIZE, n + 1)
        vecs = np.zeros((hi - lo, hi, hi))
        for k in range(lo, hi):
            t = np.arange(1, k + 1)
            hop = np.sqrt(t * (k - t + 1.0))
            gen = np.diag(hop, 1) + np.diag(hop, -1)
            vecs[k - lo, : k + 1, : k + 1] = np.linalg.eigh(gen)[1]
            lam[k, : k + 1] = np.arange(-k, k + 1, 2)
        classes.append(vecs)
    for a in classes + [lam]:
        a.setflags(write=False)
    return tuple(classes), lam


def _lift_bytes(n: int) -> int:
    """Bytes a lift at n holds in ``_hopping_eigenbases``, ``_gathers`` and its two ``_Sweep``s.

    Classes of count * s^2 floats (s = 16, 32, ..., then n + 1); per slot of (n+1)^2, eigenvalues 8, gathers 24
    and each sweep's padded phases and turns 96; per ket, the last gather 8 and each sweep's canonical phases 16.
    """
    full, rest = divmod(n + 1, _CLASS_SIZE)
    classes = _CLASS_SIZE**3 * full * (full + 1) * (2 * full + 1) // 6 + rest * (n + 1) ** 2
    return 8 * classes + 224 * (n + 1) ** 2 + 40 * dimension(n)


def _pair_layout(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded block layout of the basis for a rotation of modes p and q.

    Slot (K, t) of the flat (n+1)^2 layout holds the ket with K particles
    in the pair and t of them in mode q.  Returns (occ, pos): the padded
    occupations ((n+1)^2, 3), zero on empty slots, and the slot of each
    canonical ket.  Not cached: its callers, ``_gathers`` and
    ``_Sweep.build``, run once per cached lift, and a one-entry cache would
    miss on every call as they alternate between mode pairs.
    """
    basis = enumerate_basis(n)
    pair = basis[:, p] + basis[:, q]
    pos = pair * (n + 1) + basis[:, q]
    occ = np.zeros(((n + 1) ** 2, 3), dtype=np.int64)
    occ[pos] = basis
    return occ, pos


@lru_cache(maxsize=1)
def _gathers(n: int) -> tuple[np.ndarray, ...]:
    """Gather indices that move a vector through the layouts of ``_PAIRS``.

    The first reads the canonical vector with one zero appended (index
    ``dim``); each later one reads the previous layout, sending empty slots
    to an empty slot of it; the last returns to canonical order.  Empty
    slots stay zero throughout: the eigenbases are zero-padded, and no
    product writes the slots past its class's size.
    """
    dim = dimension(n)
    src = np.arange(dim)
    empty = dim
    out = []
    for p, q in _PAIRS:
        _, pos = _pair_layout(n, p, q)
        index = np.full((n + 1) ** 2, empty, dtype=np.int64)
        index[pos] = src
        out.append(index)
        src, empty = pos, 1  # slot (K=0, t=1) is always empty when n >= 1
    out.append(src)
    for a in out:
        a.setflags(write=False)
    return tuple(out)


def _rotate(classes: tuple[np.ndarray, ...], turn: np.ndarray, y: np.ndarray, spare: np.ndarray) -> None:
    """Rotate the slot-major y, shape ((n+1)^2, m), in place, block K by block K.

    The leading s slots of block K are an (s, 2m) float matrix in the real
    view, one (s, 2) column pair per state.  Each eigenbasis class makes
    two products, with its (s, s) eigenbases transposed and then as
    stored, and multiplies ``turn`` in between.  The transposed product
    takes the whole block in one BLAS call per K (the transpose is a view
    that BLAS reads with its trans flag), which gives each column the same
    bits at every width.  It goes to ``spare``, the C-order array y was
    gathered from, so no array of a class's size is allocated.  The second
    product stays one (s, s) @ (s, 2) call per state and K, since its bits
    depend on the width (up to 1.3e-15 at some s).  Slots past a class's s
    are empty and stay zero.
    """
    rows = y.shape[1]
    side = classes[-1].shape[1]
    wide = y.view(np.float64).reshape(side, side, 2 * rows)
    each = wide.reshape(side, side, rows, 2).transpose(0, 2, 1, 3)
    spare = spare.view(np.float64).reshape(-1)
    lo = 0
    for vecs in classes:
        count, s = vecs.shape[:2]
        v = spare[: count * s * 2 * rows].reshape(count, s, 2 * rows)
        np.matmul(vecs.transpose(0, 2, 1), wide[lo : lo + count, :s], out=v)
        w = v.view(np.complex128)
        w *= turn[lo : lo + count, :s]
        v = v.reshape(count, s, rows, 2).transpose(0, 2, 1, 3)
        np.matmul(vecs[:, None], v, out=each[lo : lo + count, :, :s])
        lo += count


@dataclass(frozen=True, eq=False)
class _Sweep:
    """One direction of the factored lift: phase, rotate, phase, ..., phase.

    ``phases[i]`` (padded, in the layout of rotation i) multiplies before
    rotation i; ``phases[3]`` (canonical order) multiplies last.
    ``turns[i]`` holds exp(i theta lambda) over the eigenbasis of rotation
    i, or None for a zero angle, which is skipped so that the identity
    lifts exactly.
    """

    n: int
    phases: tuple[np.ndarray, ...]
    turns: tuple[np.ndarray | None, ...]

    @classmethod
    def build(cls, n: int, thetas, phis) -> "_Sweep":
        _, lam = _hopping_eigenbases(n)
        occs = [_pair_layout(n, p, q)[0] for p, q in _PAIRS] + [enumerate_basis(n)]
        phases = tuple(np.exp(1j * (occ @ phi)) for occ, phi in zip(occs, phis))
        turns = tuple(None if t == 0 else np.exp(1j * t * lam)[..., None] for t in thetas)
        for a in phases + turns:
            if a is not None:
                a.setflags(write=False)
        return cls(n, phases, turns)

    def apply(self, x: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Act on the rows of x, shape (m, dim): one state per row.

        The rows start in a slot-major (slots, m) array, slots = (n+1)^2.
        Each of the four steps gathers it into the next layout and
        multiplies its phases; each of the first three then rotates it (see
        ``_rotate``), with the array it was gathered from as the spare.  A
        row gets the same bits alone as in any stack.

        ``work`` is two flat complex arrays of at least slots * m entries,
        for a caller that applies many stacks: the gathers alternate between
        them, so no slot-major array is allocated, and the result is a view
        valid until the next call with them.  Without it each gather makes a
        fresh array, with at most two alive at once.  The two modes differ
        in the gather only.  The result is the transposed view of either.
        """
        n = self.n
        classes, _ = _hopping_eigenbases(n)
        rows, dim = x.shape
        bufs = None if work is None else [w[: (n + 1) ** 2 * rows].reshape(-1, rows) for w in work]
        y = np.empty(((n + 1) ** 2, rows), dtype=np.complex128) if bufs is None else bufs[0]
        y[:dim] = x.T
        y[dim : dim + 1] = 0  # the first gather reads row dim (none at n = 0) for every empty slot
        steps = zip(_gathers(n), self.phases, self.turns + (None,))
        for i, (gather, phase, turn) in enumerate(steps):
            spare = y
            if bufs is None:
                y = spare[gather]
            else:  # mode="clip" lets take write into its out; "raise" would copy
                y = np.take(spare, gather, axis=0, out=bufs[(i + 1) % 2][: gather.size], mode="clip")
            y *= phase[:, None]
            if turn is not None:
                _rotate(classes, turn, y, spare)
        return y.T


@dataclass(frozen=True, eq=False)
class FockLift:
    """N-particle unitary induced by a 3x3 mode matrix, applied matrix-free.

    ``to_momentum`` maps site-representation amplitudes to momentum
    amplitudes over the canonical basis, and ``to_site`` maps them back
    with the adjoint; ``to_site_rows`` maps a stack of momentum rows back
    without building states.  ``matrix`` is the same map as a dense
    array.  It is built on first access and cached, so it costs O(dim^2)
    memory only where it is read.
    """

    n: int
    forward: _Sweep = field(repr=False)
    adjoint: _Sweep = field(repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        dim = dimension(self.n)
        out = np.empty((dim, dim), dtype=np.complex128)
        for lo in range(0, dim, _MATRIX_BATCH):
            kets = np.eye(min(_MATRIX_BATCH, dim - lo), dim, lo, dtype=np.complex128)
            out[:, lo : lo + kets.shape[0]] = self.forward.apply(kets).T
        out.setflags(write=False)
        return out

    def to_momentum(self, s: StateVector) -> StateVector:
        if s.rep is not Representation.SITE:
            raise ValueError("to_momentum expects a site-representation state")
        return StateVector(s.n, Representation.MOMENTUM, self.forward.apply(s.amps[None])[0])

    def to_site(self, s: StateVector) -> StateVector:
        if s.rep is not Representation.MOMENTUM:
            raise ValueError("to_site expects a momentum-representation state")
        return StateVector(s.n, Representation.SITE, self.to_site_rows(s.amps[None])[0])

    def to_site_rows(self, amps: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Momentum amplitudes, one state per row, mapped back to sites.

        The rows are returned unchecked; the caller checks their norms.
        ``work`` is as for ``_Sweep.apply``: with it the result is a view
        of the work arrays, valid until the next call with them.
        """
        return self.adjoint.apply(amps, work)


def lift_to_fock(f: np.ndarray, n: int) -> FockLift:
    """Lift a unitary 3x3 mode matrix to the ``n``-particle Fock space."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (3, 3):
        raise ValueError(f"mode matrix must be 3x3, got shape {f.shape}")
    defect = np.max(np.abs(f @ f.conj().T - np.eye(3)))
    if defect > 1e-12:
        raise ValueError(f"mode matrix is not unitary (defect {defect:.3e})")
    thetas, phis = _givens_factors(f)
    forward = _Sweep.build(n, thetas[::-1], phis[::-1])
    adjoint = _Sweep.build(n, -thetas, -phis)
    return FockLift(n, forward, adjoint)


@lru_cache(maxsize=1)
def dft_lift(n: int) -> FockLift:
    """Cached lift of the Fourier mode matrix."""
    return lift_to_fock(dft_mode_matrix(), n)


def _require_finite_columns(n: int) -> None:
    """Refuse n above 1292: from n = 1293 on ``extremal_columns``' factor 3^(n/2) overflows a float."""
    if n > 1292:
        raise ValueError(f"particle number must be at most 1292, where 3^(n/2) still fits a float, got {n}")


def extremal_columns(n: int) -> np.ndarray:
    """Site-basis vectors of the three n-fold mode occupations, as columns.

    Column k is the ket with every particle in mode k.  Its site amplitudes
    have the closed form sqrt(n!/(p! q! r!)) prod_j conj(F[k, j])^(n_j),
    so no full lift is needed.  Each call makes a fresh array.
    """
    _require_finite_columns(n)
    occ = enumerate_basis(n)
    weights = multinomial_amplitudes(n) * 3.0 ** (0.5 * n)
    fc = dft_mode_matrix().conj()
    cols = np.empty((dimension(n), 3), dtype=np.complex128)
    for k in range(3):
        cols[:, k] = (
            weights
            * fc[k, 0] ** occ[:, 0]
            * fc[k, 1] ** occ[:, 1]
            * fc[k, 2] ** occ[:, 2]
        )
    return cols


@lru_cache(maxsize=1)
def _extremal_readout(n: int) -> np.ndarray:
    """``extremal_columns(n)`` conjugated in place and read-only: ``.T @ amps`` reads out the three kets."""
    table = extremal_columns(n)
    np.conjugate(table, out=table)
    table.setflags(write=False)
    return table


def extremal_mode_probabilities(s: StateVector) -> tuple[float, float, float]:
    """Probabilities of finding every particle in mode alpha, beta or gamma.

    For a site-representation state this takes three overlaps against the
    closed-form extremal kets, O(dimension) each; in the momentum
    representation the probabilities are read off directly.
    """
    if s.rep is Representation.MOMENTUM:
        probs = s.probabilities()
        ia, ib, ig = _extremal_ranks(s.n)
        return float(probs[ia]), float(probs[ib]), float(probs[ig])
    amps = _extremal_readout(s.n).T @ s.amps
    pa, pb, pg = (float(abs(a)) ** 2 for a in amps)
    return pa, pb, pg


def momentum_distribution(s: StateVector) -> np.ndarray:
    """Full mode-occupation distribution |<m|s>|^2 over the canonical basis."""
    if s.rep is Representation.MOMENTUM:
        return s.probabilities()
    return dft_lift(s.n).to_momentum(s).probabilities()
