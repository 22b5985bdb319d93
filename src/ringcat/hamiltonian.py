"""Ring-lattice Hamiltonians as explicit Hermitian operators.

Everything is expressed in units with hbar = 1: the hopping energy J, the
on-site interaction U and the rotation coupling xi all carry angular
frequency units, and only the dimensionless products J*t, U*t, xi*t enter
observables.

Operators are stored as deterministic sparse triplet lists over the
canonical Fock basis of a single particle-number sector, so they commute
with total number by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import dimension, enumerate_basis, rank
from .state import Representation

__all__ = [
    "HubbardParams",
    "HermitianOperator",
    "build_bose_hubbard",
    "build_rotating_momentum_hamiltonian",
]

# directed hops (src, dst) realizing a_dst^dag a_src for all cyclically
# adjacent pairs, in fixed order for reproducible triplet output
_HOPS = ((1, 0), (0, 1), (2, 1), (1, 2), (0, 2), (2, 0))


@dataclass(frozen=True)
class HubbardParams:
    """Model parameters: particle count n, hopping J, interaction U, rotation xi."""

    n: int
    J: float = 0.0
    U: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"particle number must be >= 0, got {self.n}")
        for name in ("J", "U", "xi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class HermitianOperator:
    """Sparse Hermitian matrix over one Fock sector, with a representation tag."""

    dim: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    rep: Representation = Representation.SITE

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        vals = np.ascontiguousarray(self.vals, dtype=np.complex128)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have matching shapes")
        for arr in (rows, cols, vals):
            arr.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim), dtype=np.complex128)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense


def build_bose_hubbard(p: HubbardParams) -> HermitianOperator:
    """Full lattice Hamiltonian -J (hops around the ring + h.c.) + (U/2) sum n(n-1).

    Site representation.  A hop moving one particle from site ``src`` to the
    cyclically adjacent ``dst`` carries amplitude -J sqrt(n_src (n_dst + 1));
    the diagonal is the pairwise interaction (U/2) sum_k n_k (n_k - 1).
    """
    occ = enumerate_basis(p.n)
    dim = dimension(p.n)
    rows, cols, vals = [], [], []
    for i in range(dim):
        state = occ[i]
        rows.append(i)
        cols.append(i)
        vals.append(0.5 * p.U * float(np.sum(state * (state - 1))))
        for src, dst in _HOPS:
            if state[src] == 0:
                continue
            target = state.copy()
            target[src] -= 1
            target[dst] += 1
            rows.append(rank(target))
            cols.append(i)
            vals.append(-p.J * math.sqrt(state[src] * (state[dst] + 1)))
    return HermitianOperator(dim, np.array(rows), np.array(cols), np.array(vals), Representation.SITE)


def build_rotating_momentum_hamiltonian(p: HubbardParams) -> HermitianOperator:
    """Mode-number Hamiltonian -2J n_alpha + (J + xi) n_beta + (J - xi) n_gamma.

    Diagonal in the momentum representation.  The zero-momentum mode sits at
    -2J per particle; rotation at coupling xi raises the +hbar flow mode
    (beta) and lowers the -hbar one (gamma) by xi per particle.
    """
    idx = np.arange(dimension(p.n), dtype=np.int64)
    energies = _mode_energies(p.n, p.J, p.xi)
    return HermitianOperator(idx.size, idx, idx, energies, Representation.MOMENTUM)


def _mode_energies(n: int, j: float, xi) -> np.ndarray:
    """Diagonal of the mode-number Hamiltonian over the canonical basis.

    ``xi`` is a float, giving shape (dim,), or a column of shape (m, 1),
    giving one row of energies per coupling with the same bits.
    """
    occ = enumerate_basis(n)
    return -2.0 * j * occ[:, 0] + (j + xi) * occ[:, 1] + (j - xi) * occ[:, 2]
