"""Golden output digests: the CLI's stdout bytes and exit codes, pinned.

Each command in ``tests/golden.json`` runs in-process through
``ringcat.cli.main``.  Its exit code and the numbers parsed from its stdout
(summary scalars, plus a sum and a row-weighted sum of every column) must
match the record at 1e-12, except ``theta_star``, which the calibration
resolves only to a few 1e-9; a recorded NaN (a fringe period the grid
cannot measure) must come back as NaN.  On the machine the record was
taken on (same numpy, BLAS build, active OpenBLAS core, SIMD extensions
and architecture) the sha256 of stdout must match as well; elsewhere BLAS
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
import platform
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


def openblas_core() -> str:
    """The core a DYNAMIC_ARCH OpenBLAS picked at load time, or "" if it cannot be read.

    The build facts do not name it: the same build runs SkylakeX kernels on
    one AVX-512 machine and Haswell kernels under OPENBLAS_CORETYPE=Haswell,
    and the two round some outputs' last bits differently.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return ""


def machine_facts() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in ("name", "version", "openblas configuration")),
        "openblas_core": openblas_core(),
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
