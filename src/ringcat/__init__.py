"""Exact Fock-space simulator for flow-state cats on a three-site ring lattice.

The package computes everything exactly at desk scale: the symmetric Fock
basis of N bosons on three modes, the ring Bose-Hubbard operator and its
limits, the quasi-momentum mode change and its N-particle lift, sudden
quench-and-hold protocols that create three-branch flow superpositions, and
the three-port interferometer they enable.

``import ringcat`` loads ``basis``, ``state``, ``evolution``, ``modes`` and
``protocol``, which every CLI command runs.  The names of ``interferometer``
(the fringe scan and its closed forms) and of ``hamiltonian`` (the dense
reference operators and their propagator), and those two modules themselves,
load on first access (PEP 562): reading ``ringcat.fringe_scan`` imports
``ringcat.interferometer``.  Only ``fringes`` runs the interferometer, and
no command runs the reference engines; each CLI command is its own short
process, so the others neither compile nor run them.  ``__all__`` and
``dir(ringcat)`` list every name.
"""

import os

# OpenBLAS reads this once, when numpy loads it, so it is set before the
# first import below.  By default its idle worker spins for 2^28 cycles
# (~0.1 s) after start-up and after each threaded call: on a 2-vCPU Xeon that
# was 0.12-0.18 s of CPU in each short CLI run, and a spinning worker sharing
# a vCPU with the main thread stalled small `eigh` calls by up to 0.1 s.
# At 4, the minimum (2^4 cycles), it sleeps instead.  The thread count and
# how each call is split do not change, so no output bit does.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from importlib import import_module

from . import basis, evolution, modes, protocol, state
from .basis import *
from .evolution import *
from .modes import *
from .protocol import *
from .state import *

# each name loaded on first access (PEP 562), and the module it comes from
_LAZY = {
    **dict.fromkeys(("FringeScan", "FringeSettings", "cat_matrix", "fringe_probabilities", "fringe_scan",
                     "full_simulation_fringes", "phase_matrix", "protocol_subspace_matrix"), "interferometer"),
    **dict.fromkeys(("HermitianOperator", "HubbardParams", "SpectralPropagator", "build_bose_hubbard",
                     "build_rotating_momentum_hamiltonian", "evolve_spectral"), "hamiltonian"),
}
_LAZY_MODULES = ("hamiltonian", "interferometer")

__all__ = [*basis.__all__, *state.__all__, *evolution.__all__, *modes.__all__, *protocol.__all__, *_LAZY,
           "basis", "state", "evolution", "modes", "protocol", *_LAZY_MODULES]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a name of ``interferometer`` or ``hamiltonian``, or the module itself, on first access."""
    if name in _LAZY_MODULES:
        return import_module(f".{name}", __name__)  # importing binds it on the package
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
