"""Hot numeric kernel: numba-jitted fast path with a pure-numpy fallback.

Scanning protocol probabilities over dense hold-phase grids dominates the
runtime of the timing and calibration searches, so it exists in a numba
and a numpy variant with identical semantics.  (The Fock lift, the other
hot path, is plain numpy in the modes module.)

Backend selection happens at import time.  Set the environment variable
``RINGCAT_DISABLE_NUMBA=1`` to force the numpy path; otherwise numba is used
when importable.  ``BACKEND`` records the active choice.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "protocol_sweep",
    "protocol_sweep_numpy",
]

_env = os.environ.get("RINGCAT_DISABLE_NUMBA", "").strip().lower()
_DISABLED = _env not in ("", "0", "false", "no")

try:
    if _DISABLED:
        raise ImportError("numba disabled via RINGCAT_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    njit = None
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numpy reference implementation
# ---------------------------------------------------------------------------

def protocol_sweep_numpy(
    ground: np.ndarray,
    counts: np.ndarray,
    wconj: np.ndarray,
    thetas: np.ndarray,
    chunk: int = 2048,
) -> np.ndarray:
    """Mode-condensate probabilities of the quenched state on a theta grid.

    ``ground`` is the real starting amplitude vector, ``counts`` the
    pairwise interaction weights sum n(n-1), ``wconj`` the conjugated
    site-basis vectors of the three extremal mode states (dim x 3).  Returns
    an array (len(thetas), 3); theta chunking caps the size of the
    intermediate phase matrix.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty((thetas.size, 3), dtype=np.float64)
    half = 0.5 * counts.astype(np.float64)
    for lo in range(0, thetas.size, chunk):
        th = thetas[lo : lo + chunk]
        phases = np.exp(-1j * np.outer(th, half))
        amps = (phases * ground) @ wconj
        out[lo : lo + th.size] = np.abs(amps) ** 2
    return out


# ---------------------------------------------------------------------------
# numba fast path
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _protocol_sweep_jit(ground, half, wconj, thetas, out):
        dim = ground.shape[0]
        for t in range(thetas.shape[0]):
            th = thetas[t]
            a0 = 0.0 + 0.0j
            a1 = 0.0 + 0.0j
            a2 = 0.0 + 0.0j
            for s in range(dim):
                ph = ground[s] * (math.cos(th * half[s]) - 1j * math.sin(th * half[s]))
                a0 += wconj[s, 0] * ph
                a1 += wconj[s, 1] * ph
                a2 += wconj[s, 2] * ph
            out[t, 0] = a0.real * a0.real + a0.imag * a0.imag
            out[t, 1] = a1.real * a1.real + a1.imag * a1.imag
            out[t, 2] = a2.real * a2.real + a2.imag * a2.imag

    def protocol_sweep(ground, counts, wconj, thetas):
        thetas = np.ascontiguousarray(thetas, dtype=np.float64)
        out = np.empty((thetas.size, 3), dtype=np.float64)
        half = 0.5 * counts.astype(np.float64)
        _protocol_sweep_jit(
            np.ascontiguousarray(ground, dtype=np.float64),
            half,
            np.ascontiguousarray(wconj),
            thetas,
            out,
        )
        return out

else:
    protocol_sweep = protocol_sweep_numpy
