import numpy as np

from ringcat.modes import dft_mode_matrix, lift_to_fock


def test_lift_gram_matrix_is_identity():
    lift = lift_to_fock(dft_mode_matrix(), 6).matrix
    gram = lift.conj().T @ lift
    assert np.max(np.abs(gram - np.eye(lift.shape[0]))) < 1e-12
