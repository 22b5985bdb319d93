"""Command-line front end: run each experiment, emit deterministic tables.

Every run is fully determined by its flags; there is no randomness and no
hidden state, so repeated runs produce byte-identical files.  Angles are
given in units of pi (``--theta-pi 2/3`` means 2*pi/3) and rational strings
are accepted so configs stay exact.  CSV floats carry 17 significant
digits; JSON mirrors the same fields.

Exit codes: 0 success, 2 invalid configuration, 3 physics precondition
violated (for example a particle number that is not a multiple of three
where the protocol requires one), 4 numerical health check failed (a
state norm or a probability sum drifted from 1 beyond its tolerance).
Malformed flags, including non-finite or zero-denominator angles, are
refused by the argument parser with exit code 2, and settings whose largest
phase overflows a float are refused with exit code 2 before any work.

So are settings whose largest structure, estimated in closed form from
``--n`` and ``--grid``, would exceed ``SIZE_BUDGET`` (1 GiB): the lift's
(n+1)^3 eigenbases for ``cat`` and ``fringes``, the hold-phase sweep's
min(points, 2048) x dim phase buffer for ``timing`` and ``calibrate-u``, the
per-n cached arrays ``cattiness-sweep`` keeps (it keeps no n's final state),
and the emitted table at 200 bytes per value, a conservative bound (about
45 measured in CSV and JSON).  The largest accepted N is 1890 for
``ground``, 511 for ``cat``, 510 for ``fringes``, 252 for ``timing`` and for
``calibrate-u`` at 2048 or more grid points, and 416 for ``cattiness-sweep``
from ``--n-min 1``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .basis import dimension, enumerate_basis
from .interferometer import fringe_scan
from .modes import momentum_distribution
from .protocol import (
    _SWEEP_CHUNK,
    CAT_HOLD_PHASE,
    BracketError,
    _calibrate_on_grid,
    cattiness_sweep,
    run_protocol,
    timing_tolerance,
)
from .state import NumericalHealthError, superfluid_ground_state

__all__ = ["main"]

SUM_TOL = 1e-10

# Memory a command's largest structure may take; see _check_size.
SIZE_BUDGET = 1 << 30
# Bytes per emitted table value, a conservative bound (measured ~45 in CSV
# and JSON: the Python objects of one row tuple list; the text is streamed).
_CELL_BYTES = 200
# Bytes kept per ket for each n a cattiness sweep visits: the cached basis,
# amplitudes, pair counts and extremal columns (24 + 8 + 8 + 48).
_CACHED_KET_BYTES = 88


class PhysicsError(ValueError):
    """A physically required precondition does not hold for this config."""


def _finite_float(text: str) -> float:
    """A float flag value; nan and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_pi(text: str) -> float:
    """Angle in units of pi, as a float or an exact rational like '2/3'."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(int(num)) / float(int(den))
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not an angle in units of pi: {text!r} ({exc})") from None
    value *= math.pi
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def _parse_n_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else format(value, ".17g")


def _check_unit_sum(values, label: str) -> None:
    """Refuse values that do not sum to 1 within ``SUM_TOL``; a 2-D array is checked row by row."""
    totals = np.atleast_1d(np.sum(values, axis=-1))
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= SUM_TOL))
    if bad.size:
        i = int(bad[0])
        where = f" at row {i}" if np.ndim(values) > 1 else ""
        raise NumericalHealthError(f"{label}{where} sums to {float(totals[i])!r}, expected 1 within {SUM_TOL}")


def _check_phase(setting: str, phase: float) -> None:
    """Refuse a setting whose largest phase argument overflows a float."""
    if not math.isfinite(phase):
        raise ValueError(f"largest phase overflows a float; reduce {setting}")


def _check_size(setting: str, nbytes: int) -> None:
    """Refuse a setting whose largest structure would exceed ``SIZE_BUDGET``.

    ``nbytes`` is a closed-form estimate, so the check runs before any array
    work.  An estimate too large for a float reads as inf.
    """
    if nbytes > SIZE_BUDGET:
        need = nbytes / 2**30 if nbytes.bit_length() < 1000 else math.inf
        budget = SIZE_BUDGET >> 30
        raise ValueError(f"needs about {need:.4g} GiB, above the {budget} GiB memory budget; reduce {setting}")


def _table_bytes(rows: int, columns: int) -> int:
    """An emitted table of ``rows`` x ``columns`` values."""
    return _CELL_BYTES * rows * columns


def _lift_bytes(n: int) -> int:
    """The Fock lift's padded (n+1)^3 float64 hopping eigenbases."""
    return 8 * (n + 1) ** 3


def _sweep_bytes(n: int, points: int) -> int:
    """The hold-phase sweep's min(points, 2048) x dim complex128 phase buffer."""
    return 16 * min(points, _SWEEP_CHUNK) * dimension(n)


def _csv_lines(columns, rows, summary):
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"
    for key, value in summary.items():
        yield f"# {key} = {_fmt(value)}\n"


def _emit(args, table, summary=None) -> None:
    """Write ``table`` and ``summary`` as CSV or JSON to ``args.out``.

    ``table`` maps each column name to an equal-length 1-D array.  This is
    the only place numbers become text: each column goes through one
    ``.tolist()``, so integer columns print as integers and float columns
    as 17 significant digits (CSV) or Python's shortest round-trip repr
    (JSON).  The text is streamed to the handle, never held as one string.
    """
    rows = list(zip(*(column.tolist() for column in table.values())))
    if args.format == "json":
        payload = {"command": args.command, "columns": list(table), "rows": rows}
        if summary:
            payload["summary"] = summary
        chunks = itertools.chain(json.JSONEncoder(indent=2).iterencode(payload), "\n")
    else:
        chunks = _csv_lines(table, rows, summary or {})
    if args.out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.out, "w", newline="\n") as handle:
            handle.writelines(chunks)
        print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_ground(args) -> None:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    _check_size("--n", _table_bytes(dimension(args.n), 3))
    probs = superfluid_ground_state(args.n).probabilities()
    _check_unit_sum(probs, "site distribution")
    occ = enumerate_basis(args.n)
    _emit(args, {"n_a": occ[:, 0], "n_b": occ[:, 1], "p": probs})


def cmd_cat(args) -> None:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    _check_size("--n", max(_table_bytes(dimension(args.n), 3), _lift_bytes(args.n)))
    theta = args.theta * (1.0 + args.delta)
    _check_phase("--theta-pi or --delta", 0.5 * theta * (args.n * (args.n - 1)))
    r = run_protocol(args.n, theta)
    dist = momentum_distribution(r.state)
    _check_unit_sum(dist, "momentum distribution")
    occ = enumerate_basis(args.n)
    summary = {
        "n": args.n,
        "theta": theta,
        "p_alpha": r.p_alpha,
        "p_beta": r.p_beta,
        "p_gamma": r.p_gamma,
        "cattiness": r.cattiness,
    }
    _emit(args, {"n_alpha": occ[:, 0], "n_beta": occ[:, 1], "p": dist}, summary)


def cmd_cattiness_sweep(args) -> None:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError(f"need 1 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    kets = math.comb(args.n_max + 3, 3) - math.comb(args.n_min + 2, 3)  # sum of dimension(n)
    _check_size("--n-max", _CACHED_KET_BYTES * kets)
    _check_phase("--theta-pi", 0.5 * args.theta * (args.n_max * (args.n_max - 1)))
    ns = np.arange(args.n_min, args.n_max + 1)
    pa, pb, pg, c = cattiness_sweep(ns, args.theta).T
    _emit(args, {"n": ns, "p_alpha": pa, "p_beta": pb, "p_gamma": pg, "cattiness": c})


def cmd_timing(args) -> None:
    ns = _parse_n_list(args.n)
    if not ns:
        raise ValueError("--n list is empty")
    bad = [n for n in ns if n < 3 or n % 3 != 0]
    if bad:
        raise PhysicsError(f"timing tolerance needs positive multiples of 3, got {bad}")
    _check_size("--n", _sweep_bytes(max(ns), _SWEEP_CHUNK))
    d0 = np.array([timing_tolerance(n, args.c_target) for n in ns])
    inv = 1.0 / d0
    x = np.array(ns, dtype=np.float64)
    slope = float(np.sum(x * inv) / np.sum(x * x))
    summary = {
        "c_target": args.c_target,
        "fit_slope_inv_delta0_vs_n": slope,
        "fit_prefactor": 1.0 / slope,
    }
    _emit(args, {"n": np.array(ns), "delta0": d0, "inv_delta0": inv, "n_delta0": x * d0}, summary)


def cmd_calibrate_u(args) -> None:
    if args.n < 3 or args.n % 3 != 0:
        raise PhysicsError(f"calibration needs a positive multiple of 3, got {args.n}")
    if args.grid < 3:
        raise ValueError(f"--grid must be >= 3, got {args.grid}")
    if not args.theta_min < args.theta_max:
        raise ValueError("--theta-min-pi must be below --theta-max-pi")
    _check_size("--n", _sweep_bytes(args.n, args.grid))
    _check_size("--grid", _table_bytes(args.grid, 2))
    widest = max(abs(args.theta_min), abs(args.theta_max))
    _check_phase("--theta-min-pi or --theta-max-pi", 0.5 * widest * (args.n * (args.n - 1)))
    thetas = np.linspace(args.theta_min, args.theta_max, args.grid)
    try:
        star, c_star, values = _calibrate_on_grid(args.n, thetas)
    except BracketError as exc:
        raise PhysicsError(str(exc)) from exc
    summary = {
        "n": args.n,
        "theta_star": star,
        "theta_star_pi": star / math.pi,
        "c_star": c_star,
    }
    _emit(args, {"theta": thetas, "cattiness": values}, summary)


def cmd_fringes(args) -> None:
    if args.n < 3 or args.n % 3 != 0:
        raise PhysicsError(f"fringes need a positive multiple of 3, got {args.n}")
    if args.grid < 2 or args.xi <= 0 or args.dt <= 0:
        raise ValueError("need --grid >= 2, --xi > 0 and --dt > 0")
    _check_size("--n", _lift_bytes(args.n))
    _check_size("--grid", _table_bytes(args.grid, 9))
    _check_phase("--j, --xi or --dt", 3.0 * args.n * (abs(args.j) + args.xi) * args.dt)
    xi_values = np.linspace(0.0, args.xi, args.grid)
    scan = fringe_scan(args.n, args.j, xi_values, args.dt)
    _check_unit_sum(scan.probs_sim, "fringe probabilities")
    (pa, pb, pg), (ca, cb, cg) = scan.probs_sim.T, scan.probs_closed.T
    period = np.full(args.grid, scan.period_xi_dt)
    _emit(args, {"xi": xi_values, "xi_dt": scan.xi_dt, "p_alpha": pa, "p_beta": pb, "p_gamma": pg,
                 "p_alpha_closed": ca, "p_beta_closed": cb, "p_gamma_closed": cg, "period_xi_dt": period})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcat",
        description="Exact simulator of flow-state cats on a three-site ring lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path, or - for stdout")

    p = sub.add_parser("ground", help="site number distribution of the even condensate")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("cat", help="momentum distribution and summary after one protocol run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-pi", dest="theta", type=_parse_pi, default=CAT_HOLD_PHASE,
                   help="hold phase in units of pi (default 2/3)")
    p.add_argument("--delta", type=_finite_float, default=0.0,
                   help="fractional timing error; hold phase becomes (1+delta)*theta")
    common(p)
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("cattiness-sweep", help="cattiness at fixed hold phase over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--theta-pi", dest="theta", type=_parse_pi, default=CAT_HOLD_PHASE)
    common(p)
    p.set_defaults(func=cmd_cattiness_sweep)

    p = sub.add_parser("timing", help="timing tolerance delta0 for each n and the scaling fit")
    p.add_argument("--n", required=True, help="comma-separated multiples of 3, e.g. 3,6,9")
    p.add_argument("--c-target", type=_finite_float, default=0.9)
    common(p)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("calibrate-u", help="locate the cat resonance over a hold-phase bracket")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-min-pi", dest="theta_min", type=_parse_pi, default=0.5 * math.pi)
    p.add_argument("--theta-max-pi", dest="theta_max", type=_parse_pi, default=5.0 * math.pi / 6.0)
    p.add_argument("--grid", type=int, default=121)
    common(p)
    p.set_defaults(func=cmd_calibrate_u)

    p = sub.add_parser("fringes", help="interferometer fringes over a rotation-coupling grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=_finite_float, default=0.0, help="hopping energy during the sensing hold")
    p.add_argument("--xi", type=_finite_float, default=2.0 * math.pi, help="largest rotation coupling")
    p.add_argument("--dt", type=_finite_float, default=1.0, help="sensing hold duration")
    p.add_argument("--grid", type=int, default=256)
    common(p)
    p.set_defaults(func=cmd_fringes)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except PhysicsError as exc:
        print(f"ringcat: {exc}", file=sys.stderr)
        return 3
    except NumericalHealthError as exc:
        print(f"ringcat: numerical health check failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"ringcat: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
