"""Golden output digests: the CLI's stdout bytes and exit codes, pinned.

Each command in ``tests/golden.json`` runs in-process through
``ringcat.cli.main``.  Its exit code and the numbers parsed from its stdout
(summary scalars, plus a sum and a row-weighted sum of every column) must
match the record at 1e-12, except ``theta_star``, which the calibration
resolves only to a few 1e-9; a recorded NaN (a fringe period the grid
cannot measure) must come back as NaN.  On the machine the record was
taken on (same numpy, BLAS build, active OpenBLAS core and thread count,
SIMD extensions and architecture) the sha256 of stdout must match as well; elsewhere BLAS
may pick other kernels and round the last bits differently, so only the
numbers are compared.

Regenerate the record with ``PYTHONPATH=src python tests/test_golden.py``,
and only in a change that names the output bytes it moves and why.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringcat.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

COMMANDS = [
    "ground --n 30",
    "cat --n 3 --theta-pi 2/3 --format json",
    "cat --n 3 --delta 0.05",
    "cattiness-sweep --n-min 1 --n-max 31",
    "timing --n 3,6,9,12,15,18,21,24,27,30 --c-target 0.9",
    "calibrate-u --n 6 --grid 121",
    "fringes --n 3 --j 0 --xi 6.283185307179586 --dt 1 --grid 256",
    "cat --n 90 --format json",
    "fringes --n 30 --xi 1 --grid 256",
    "fringes --n 9 --j 0.3 --xi 0.9 --dt 1.3 --grid 64 --format json",
    "calibrate-u --n 6 --theta-min-pi 0.6666666666666666 --theta-max-pi 0.6666666666666667 --grid 121",
    "ground --n 30 --format json",
    "cattiness-sweep --n-min 1 --n-max 31 --format json",
    "timing --n 3,6,9 --format json",
    "calibrate-u --n 6 --grid 121 --format json",
    "cat --n 30 --delta 0.05 --format json",
    "timing --n 3 --c-target 0.01",
    "timing --n 30,60,90 --format json",
    "timing --n 15 --c-target 0.01 --format json",
    "fringes --n 180 --xi 0.05 --grid 4",
    "fringes --n 45 --xi 0.7 --grid 64 --format json",
    "timing --n 150",
    "timing --n 252 --c-target 0.95",
    "timing --n 15,30,60 --c-target 0.01",
]

TOL = 1e-12
# flat-topped peak: a value-comparing search pins it only to a few 1e-9
LOOSE_TOL = {"theta_star": 1e-8, "theta_star_pi": 1e-8}


def openblas_query(symbol: str, restype):
    """One query of numpy's bundled scipy-openblas through ctypes, or None if it cannot be made."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            query = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
        query.restype = restype
        return query()
    return None


def openblas_core() -> str:
    """The core a DYNAMIC_ARCH OpenBLAS picked at load time, or "" if it cannot be read.

    The build facts do not name it: the same build runs SkylakeX kernels on
    one AVX-512 machine and Haswell kernels under OPENBLAS_CORETYPE=Haswell,
    and the two round some outputs' last bits differently.
    """
    core = openblas_query("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "" if core is None else core.decode()


def openblas_threads() -> str:
    """OpenBLAS's thread count, or "" if it cannot be read.

    Two stages round according to it, so OPENBLAS_NUM_THREADS=1 moves last
    bits on a 2-thread machine.  The sweep's zgemm: a call runs on one
    thread or on both by its size.  And the lift's ``eigh`` eigenbases: under
    one thread they are bit-identical for K <= 200, but 44 of K = 201..300
    differ, the first at K = 201.  OpenBLAS's idle-spin timeout
    (OPENBLAS_THREAD_TIMEOUT, which ``import ringcat`` sets to 4) moves no
    byte: it changes how long an idle worker spins, not how a call is split.
    """
    threads = openblas_query("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return "" if threads is None else str(threads)


def machine_facts() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in ("name", "version", "openblas configuration")),
        "openblas_core": openblas_core(),
        "openblas_threads": openblas_threads(),
        "simd": " ".join(config["SIMD Extensions"]["found"]),
        "machine": platform.machine(),
    }


def run(command: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, out.getvalue()


def numbers(text: str) -> dict:
    """Summary scalars and per-column sums parsed from CSV or JSON output."""
    if not text:
        return {}
    if text.startswith("{"):
        payload = json.loads(text)
        columns, rows, summary = payload["columns"], payload["rows"], payload.get("summary", {})
    else:
        lines = text.splitlines()
        columns = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:] if not line.startswith("#")]
        summary = dict(line[1:].split("=") for line in lines[1:] if line.startswith("#"))
        summary = {key.strip(): float(value) for key, value in summary.items()}
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
    weights = np.arange(1, len(rows) + 1) / len(rows)
    found = {key: float(value) for key, value in summary.items()}
    for k, name in enumerate(columns):
        found[f"sum({name})"] = math.fsum(table[:, k])
        found[f"moment({name})"] = math.fsum(weights * table[:, k])
    return found


def record() -> dict:
    outputs = {}
    for command in COMMANDS:
        code, text = run(command)
        outputs[command] = {
            "exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "numbers": numbers(text),
        }
    return {"machine": machine_facts(), "outputs": outputs}


def test_cli_output_matches_the_golden_record():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["outputs"]) == sorted(COMMANDS)
    same_machine = golden["machine"] == machine_facts()
    for command, expected in record()["outputs"].items():
        want = golden["outputs"][command]
        assert expected["exit"] == want["exit"], command
        assert sorted(expected["numbers"]) == sorted(want["numbers"]), command
        for key, value in want["numbers"].items():
            tol = LOOSE_TOL.get(key, TOL)
            want_value = pytest.approx(value, rel=tol, abs=tol, nan_ok=True)
            assert expected["numbers"][key] == want_value, (command, key)
        if same_machine:
            assert expected["sha256"] == want["sha256"], f"stdout bytes moved: {command}"


def run_child(code: str, env: dict) -> subprocess.CompletedProcess:
    """``python -c code`` in this directory, with ``src`` on its path and ``env`` over this process's."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=GOLDEN.parent, text=True, timeout=300,
                          env={**env, "PYTHONPATH": path}, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def test_golden_numbers_hold_under_forced_kernels():
    """Other SIMD kernels round some last bits differently, but every number stays in tolerance.

    The record runs in one child process under OpenBLAS's Haswell kernels
    and, on a machine with X86_V4, in another with numpy's X86_V4 dispatch
    disabled: each variable is set on its child only, so that child's
    machine facts differ from the record's and it compares the numbers.
    One more child runs under OPENBLAS_THREAD_TIMEOUT=4, the package's
    setting, which this process (numpy loaded before ringcat) lacks; its
    facts equal the record's, so on the machine of record it compares the
    bytes too.  The children run one after the other: two at once contend
    for the BLAS threads and take several times as long.
    """
    forced = [{"OPENBLAS_THREAD_TIMEOUT": "4"}, {"OPENBLAS_CORETYPE": "Haswell"}]
    if "X86_V4" in machine_facts()["simd"].split():
        forced.append({"NPY_DISABLE_CPU_FEATURES": "X86_V4"})
    code = "import test_golden; test_golden.test_cli_output_matches_the_golden_record()"
    for env in forced:
        child = run_child(code, {**os.environ, **env})
        assert child.returncode == 0, (env, child.stdout[-4000:])


def test_import_sets_the_openblas_thread_timeout_unless_preset():
    """``import ringcat`` before numpy leaves OpenBLAS's idle worker a 2^4-cycle spin; a preset value is kept."""
    code = ("import ringcat, ctypes, test_golden; "
            "print(test_golden.openblas_query('openblas_thread_timeout', ctypes.c_int))")
    unset = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
    for preset, expected in ((None, "4"), ("28", "28")):
        child = run_child(code, unset if preset is None else {**unset, "OPENBLAS_THREAD_TIMEOUT": preset})
        assert child.returncode == 0, child.stdout[-4000:]
        assert child.stdout.split() == [expected], child.stdout


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
