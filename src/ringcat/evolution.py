"""Time evolution engines.

The convention is e^{-iHt} throughout (hbar = 1).  Interaction-only holds
evolve by exact site-basis phases, and the interferometer's sensing hold
applies its mode-energy phases directly.  ``SpectralPropagator`` is the one
dense reference propagator: any Hermitian operator evolves through an
eigendecomposition, cheap at this basis size and exactly unitary.  Quenches
are sudden: the state is unchanged while the Hamiltonian switches form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .basis import pair_counts
from .state import Representation, StateVector

if TYPE_CHECKING:  # an annotation only: ``hamiltonian`` is not loaded with this module
    from .hamiltonian import HermitianOperator

__all__ = [
    "evolve_interaction_phase",
    "SpectralPropagator",
    "evolve_spectral",
]


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


class SpectralPropagator:
    """Reusable e^{-iHt} engine for one Hermitian operator.

    The dense reference propagator: the operator is checked for Hermiticity
    and eigendecomposed once, and the decomposition serves every time.
    """

    def __init__(self, op: HermitianOperator):
        dense = op.to_dense()
        defect = np.max(np.abs(dense - dense.conj().T))
        if defect > 1e-12:
            raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")
        self.op = op
        self._evals, self._evecs = np.linalg.eigh(dense)

    def evolve(self, s: StateVector, t: float) -> StateVector:
        if s.amps.shape[0] != self.op.dim:
            raise ValueError(f"dimension mismatch: state {s.amps.shape[0]}, operator {self.op.dim}")
        if s.rep is not self.op.rep:
            raise ValueError(f"representation mismatch: state {s.rep}, operator {self.op.rep}")
        evecs = self._evecs
        amps = evecs @ (np.exp(-1j * t * self._evals) * (evecs.conj().T @ s.amps))
        return StateVector(s.n, s.rep, amps)


def evolve_spectral(s: StateVector, op: HermitianOperator, t: float) -> StateVector:
    """One-shot e^{-iHt} evolution of ``s`` under ``op``."""
    return SpectralPropagator(op).evolve(s, t)
