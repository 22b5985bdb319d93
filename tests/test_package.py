"""The names ``import ringcat`` exports, eager or loaded on first access."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ringcat

SUBMODULES = ("basis", "evolution", "hamiltonian", "interferometer", "modes", "protocol", "state")
# every public name of ``ringcat`` when it imported all seven modules eagerly, but ``os``
EXPORTED = sorted([
    "BracketError", "CAT_HOLD_PHASE", "FockLift", "FringeScan", "FringeSettings", "HermitianOperator",
    "HubbardParams", "NumericalHealthError", "PhysicsError", "ProtocolResult", "Representation",
    "SpectralPropagator", "StateVector", "analytic_P3", "build_bose_hubbard", "build_rotating_momentum_hamiltonian",
    "calibrate_u", "cat_matrix", "cattiness", "cattiness_curve", "cattiness_sweep", "dft_lift", "dft_mode_matrix",
    "dimension", "enumerate_basis", "evolve_interaction_phase", "evolve_spectral", "extremal_columns",
    "extremal_mode_probabilities", "fock_state", "fringe_probabilities", "fringe_scan", "full_simulation_fringes",
    "lift_to_fock", "log_factorials", "momentum_distribution", "multinomial_amplitude", "multinomial_amplitudes",
    "overlap", "pair_counts", "phase_matrix", "protocol_subspace_matrix", "rank", "run_protocol",
    "site_number_distribution", "superfluid_ground_state", "sweep_protocol_probabilities", "timing_tolerance",
    "unrank", *SUBMODULES,
])


def test_every_exported_name_resolves_to_its_modules_object_and_is_listed():
    star = {}
    exec("from ringcat import *", star)
    modules = [importlib.import_module(f"ringcat.{name}") for name in SUBMODULES]
    for name in EXPORTED:
        value = getattr(ringcat, name)
        if name in SUBMODULES:
            assert value is modules[SUBMODULES.index(name)], name
        else:
            (home,) = [module for module in modules if name in module.__all__]
            assert value is getattr(home, name), name
        assert name in dir(ringcat), name
        assert star[name] is value, name
    assert sorted(ringcat.__all__) == EXPORTED
    assert {name for module in modules for name in module.__all__} <= set(EXPORTED)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'ringcat' has no attribute 'no_such_name'"):
        ringcat.no_such_name
    assert getattr(ringcat, "BACKEND", None) is None


def test_a_lazy_name_loads_its_module_on_first_access():
    # a fresh process, so that neither module is loaded yet
    home = str(Path(ringcat.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {home!r}); import ringcat; "
        "lazy = ('ringcat.hamiltonian', 'ringcat.interferometer'); "
        "print(*(m in sys.modules for m in lazy)); "
        "scan = ringcat.fringe_scan; "
        "print(*(m in sys.modules for m in lazy), scan is sys.modules['ringcat.interferometer'].fringe_scan); "
        "prop = ringcat.SpectralPropagator; "
        "print(*(m in sys.modules for m in lazy), prop is sys.modules['ringcat.hamiltonian'].SpectralPropagator); "
        "print(ringcat.hamiltonian is sys.modules['ringcat.hamiltonian'])"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    # the interferometer runs its holds from ``evolution``, so it loads no hamiltonian
    assert child.stdout.splitlines() == ["False False", "False True True", "True True True", "True"]
