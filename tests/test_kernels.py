import os
import subprocess
import sys

import numpy as np
import pytest

from ringcat import _kernels
from ringcat.basis import multinomial_amplitudes, pair_counts
from ringcat.modes import dft_mode_matrix, extremal_columns, lift_to_fock


def test_backend_reports_a_known_value():
    assert _kernels.BACKEND in ("numba", "numpy")
    assert _kernels.HAVE_NUMBA is (_kernels.BACKEND == "numba")


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba backend not active")
def test_sweep_backends_agree():
    thetas = np.linspace(0.0, 2 * np.pi, 357)
    for n in (1, 5, 12):
        ground = multinomial_amplitudes(n)
        counts = pair_counts(n)
        wconj = np.ascontiguousarray(extremal_columns(n).conj())
        fast = _kernels.protocol_sweep(ground, counts, wconj, thetas)
        ref = _kernels.protocol_sweep_numpy(ground, counts, wconj, thetas)
        assert np.max(np.abs(fast - ref)) < 1e-13, f"n={n}"


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, RINGCAT_DISABLE_NUMBA="1")
    code = "from ringcat import _kernels; print(_kernels.BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"


def test_lift_gram_matrix_is_identity():
    lift = lift_to_fock(dft_mode_matrix(), 6).matrix
    gram = lift.conj().T @ lift
    assert np.max(np.abs(gram - np.eye(lift.shape[0]))) < 1e-12
