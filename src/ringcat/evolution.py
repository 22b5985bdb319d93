"""The diagonal holds the commands run (hbar = 1, e^{-iHt} throughout).

Each hold of the protocol is diagonal in a known basis, so it evolves by
exact phases: the interaction hold in the site basis, the interferometer's
rotating sensing hold by its mode energies in the momentum basis.  Quenches
are sudden: the state is unchanged while the Hamiltonian switches form.  The
dense reference propagator sits with its operators in ``hamiltonian``.
"""

from __future__ import annotations

import numpy as np

from .basis import enumerate_basis, pair_counts
from .state import Representation, StateVector

__all__ = ["evolve_interaction_phase"]


def evolve_interaction_phase(s: StateVector, ut: float) -> StateVector:
    """Hold under the pairwise interaction for dimensionless phase ut = U*t.

    The amplitude on occupation (p, q, r) picks up
    e^{-i (ut/2) [p(p-1) + q(q-1) + r(r-1)]}; magnitudes are untouched.
    """
    if s.rep is not Representation.SITE:
        raise ValueError("interaction hold is diagonal in the site representation only")
    return StateVector(s.n, s.rep, s.amps * _interaction_phases(s.n, ut))


def _interaction_phases(n: int, ut: float) -> np.ndarray:
    """The hold's per-ket phases e^{-i (ut/2) m}, with m the ket's pair count."""
    return np.exp(-0.5j * ut * pair_counts(n))


def _mode_energies(n: int, j: float, xi) -> np.ndarray:
    """Diagonal of the mode-number Hamiltonian over the canonical basis.

    ``xi`` is a float, giving shape (dim,), or a column of shape (m, 1),
    giving one row of energies per coupling with the same bits.
    """
    occ = enumerate_basis(n)
    return -2.0 * j * occ[:, 0] + (j + xi) * occ[:, 1] + (j - xi) * occ[:, 2]
