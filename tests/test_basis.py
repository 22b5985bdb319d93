import math

import numpy as np
import pytest

from ringcat.basis import (
    dimension,
    enumerate_basis,
    multinomial_amplitude,
    multinomial_amplitudes,
    pair_counts,
    rank,
    unrank,
)


def brute_force_basis(n):
    """Independent triple-loop enumeration, sorted the canonical way."""
    states = [
        (p, q, r)
        for p in range(n + 1)
        for q in range(n + 1)
        for r in range(n + 1)
        if p + q + r == n
    ]
    return sorted(states, key=lambda s: (-s[0], -s[1]))


def test_dimension_counts():
    assert dimension(3) == 10
    assert dimension(30) == 496
    assert dimension(0) == 1


def test_dimension_rejects_negative():
    with pytest.raises(ValueError):
        dimension(-1)


def test_enumeration_matches_brute_force():
    for n in (*range(13), 40):
        occ = enumerate_basis(n)
        assert occ.shape == (dimension(n), 3)
        assert occ.dtype == np.int64
        assert [tuple(row) for row in occ] == brute_force_basis(n)


def test_enumeration_has_no_duplicates_and_sums_to_n():
    for n in (0, 1, 7, 12):
        occ = enumerate_basis(n)
        assert len({tuple(r) for r in occ}) == dimension(n)
        assert np.all(occ.sum(axis=1) == n)
        assert np.all(occ >= 0)


def test_canonical_order_endpoints():
    assert tuple(enumerate_basis(3)[0]) == (3, 0, 0)
    assert tuple(enumerate_basis(3)[-1]) == (0, 0, 3)
    assert rank((3, 0, 0)) == 0
    assert rank((0, 0, 30)) == 495


def test_rank_unrank_round_trip():
    for n in (0, 1, 3, 9, 30):
        for i in range(dimension(n)):
            assert rank(unrank(i, n)) == i
        for state in enumerate_basis(n):
            assert unrank(rank(state), n) == tuple(state)


def test_rank_rejects_negative_occupation():
    with pytest.raises(ValueError):
        rank((2, -1, 2))


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        unrank(10, 3)
    with pytest.raises(ValueError):
        unrank(-1, 3)


def test_amplitude_three_particle_values():
    assert multinomial_amplitude(3, 0, 0) == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), abs=1e-15)
    assert multinomial_amplitude(1, 1, 1) == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-15)
    assert multinomial_amplitude(2, 1, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_amplitude_always_in_unit_interval():
    for n in (1, 5, 40, 100):
        amps = multinomial_amplitudes(n)
        assert np.all(amps > 0)
        assert np.all(amps <= 1.0 + 1e-15)


def test_amplitude_normalization_up_to_sixty_particles():
    for n in range(61):
        total = float(np.sum(multinomial_amplitudes(n) ** 2))
        assert abs(total - 1.0) < 1e-12, f"n={n}: sum={total}"


def test_amplitude_survives_large_n_without_overflow():
    # 100! overflows float64 badly; the log-gamma route must not
    value = multinomial_amplitude(34, 33, 33)
    assert 0.0 < value < 1.0
    assert math.isfinite(value)


def test_amplitude_rejects_negative():
    with pytest.raises(ValueError):
        multinomial_amplitude(-1, 2, 2)


def test_pair_counts_values():
    counts = pair_counts(3)
    occ = enumerate_basis(3)
    for state, c in zip(occ, counts):
        assert c == sum(int(x) * (int(x) - 1) for x in state)
    assert counts[0] == 6  # (3,0,0)
    assert counts[rank((1, 1, 1))] == 0


def test_enumeration_is_read_only():
    occ = enumerate_basis(4)
    with pytest.raises(ValueError):
        occ[0, 0] = 99
