"""Exact Fock-space simulator for flow-state cats on a three-site ring lattice.

The package computes everything exactly at desk scale: the symmetric Fock
basis of N bosons on three modes, the ring Bose-Hubbard operator and its
limits, the quasi-momentum mode change and its N-particle lift, sudden
quench-and-hold protocols that create three-branch flow superpositions, and
the three-port interferometer they enable.
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

from .basis import (
    dimension,
    enumerate_basis,
    log_factorials,
    multinomial_amplitude,
    multinomial_amplitudes,
    pair_counts,
    rank,
    unrank,
)
from .evolution import SpectralPropagator, evolve_interaction_phase, evolve_spectral
from .hamiltonian import (
    HermitianOperator,
    HubbardParams,
    build_bose_hubbard,
    build_rotating_momentum_hamiltonian,
)
from .interferometer import (
    FringeScan,
    FringeSettings,
    cat_matrix,
    fringe_probabilities,
    fringe_scan,
    full_simulation_fringes,
    phase_matrix,
    protocol_subspace_matrix,
)
from .modes import (
    FockLift,
    dft_lift,
    dft_mode_matrix,
    extremal_columns,
    extremal_mode_probabilities,
    lift_to_fock,
    momentum_distribution,
)
from .protocol import (
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
from .state import (
    NumericalHealthError,
    Representation,
    StateVector,
    fock_state,
    overlap,
    site_number_distribution,
    superfluid_ground_state,
)

__version__ = "0.1.0"
