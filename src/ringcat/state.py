"""State vectors over the three-mode Fock basis.

A :class:`StateVector` is a normalized complex amplitude array over the
canonical occupation basis, tagged with its particle number and with the
representation the amplitudes refer to: lattice sites (a, b, c) or
quasi-momentum modes (alpha, beta, gamma).  Values are immutable; every
operation returns a new state.

Global phase carries no meaning here.  All public comparisons go through
overlaps or probability distributions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .basis import dimension, enumerate_basis, multinomial_amplitudes, rank

__all__ = [
    "Representation",
    "StateVector",
    "superfluid_ground_state",
    "fock_state",
    "overlap",
    "site_number_distribution",
    "NumericalHealthError",
]

NORM_TOL = 1e-9


class NumericalHealthError(ValueError):
    """A computed quantity broke an invariant it holds in exact arithmetic."""


class Representation(enum.Enum):
    """Which physical modes the amplitude slots index."""

    SITE = "site"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the canonical Fock basis for ``n`` particles."""

    n: int
    rep: Representation
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)  # own copy: the caller's array stays theirs
        if amps.shape != (dimension(self.n),):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, "
                f"expected ({dimension(self.n)},) for n={self.n}"
            )
        _check_norms(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 over the canonical basis order."""
        return np.abs(self.amps) ** 2


def _check_norms(amps: np.ndarray) -> None:
    """Refuse amplitudes, one state per row (or one 1-D state), off norm 1.

    Raises ``NumericalHealthError`` naming the first norm that is not 1
    within ``NORM_TOL``; a nan norm fails too.
    """
    norms = np.atleast_1d(np.linalg.norm(amps, axis=-1))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        raise NumericalHealthError(f"state norm {float(norms[bad[0]])!r} is not 1 within {NORM_TOL}")


def superfluid_ground_state(n: int) -> StateVector:
    """Even condensate of ``n`` particles over the three sites.

    This is the n-fold occupation of the zero-momentum mode written in the
    site representation: the amplitude on occupation (p, q, r) is
    sqrt(n!/(p! q! r!)) / sqrt(3^n), with all phases zero.
    """
    return StateVector(n, Representation.SITE, multinomial_amplitudes(n).astype(np.complex128))


def fock_state(occ, rep: Representation) -> StateVector:
    """Single basis ket with the given occupation triple."""
    occ = tuple(int(v) for v in occ)
    n = sum(occ)
    amps = np.zeros(dimension(n), dtype=np.complex128)
    amps[rank(occ)] = 1.0
    return StateVector(n, rep, amps)


def overlap(s1: StateVector, s2: StateVector) -> complex:
    """Hermitian inner product <s1|s2>; its squared magnitude is a probability."""
    if s1.n != s2.n:
        raise ValueError(f"particle numbers differ: {s1.n} vs {s2.n}")
    if s1.rep is not s2.rep:
        raise ValueError(f"representations differ: {s1.rep} vs {s2.rep}")
    return complex(np.vdot(s1.amps, s2.amps))


def site_number_distribution(s: StateVector) -> dict[tuple[int, int], float]:
    """Joint distribution P(N_a, N_b) of the particle numbers on sites a and b.

    The third site is fixed by the total, so the two leading occupations
    determine the basis ket: P(N_a, N_b) = |amplitude(N_a, N_b, n-N_a-N_b)|^2.
    """
    if s.rep is not Representation.SITE:
        raise ValueError("site number distribution requires the site representation")
    occ = enumerate_basis(s.n)
    probs = s.probabilities()
    return {(int(a), int(b)): float(p) for (a, b), p in zip(occ[:, :2], probs)}
