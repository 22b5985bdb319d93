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
refused by the argument parser with exit code 2; so, before any work, are
settings whose largest phase overflows a float or exceeds ``_PHASE_CAP``.
A reader closing stdout early (``ringcat ... | head``) ends the run with 0.

So are settings whose estimated peak memory exceeds ``SIZE_BUDGET`` (1 GiB):
each command sums, in closed form and before any array work, the arrays it
holds at its peak (see ``_footprint``), each engine's arrays counted by the
module that allocates them.  README lists the largest N each command accepts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from .basis import dimension, enumerate_basis
from .interferometer import _scan_bytes, fringe_scan
from .modes import _lift_bytes, _require_finite_columns, momentum_distribution
from .protocol import (
    CAT_HOLD_PHASE,
    PhysicsError,
    _calibrate_on_grid,
    _require_cat_number,
    _sweep_bytes,
    _timing_bytes,
    cattiness_sweep,
    run_protocol,
    timing_tolerance,
)
from .state import NumericalHealthError, superfluid_ground_state

__all__ = ["main"]

SUM_TOL = 1e-10
# Absolute tolerance of a probability against float phase rounding.  A phase
# phi is off by up to eps*phi, which moves a unit-norm amplitude by at most
# eps*phi_max and a probability by at most 2*eps*phi_max: so the cap, ~2.25e6 rad.
PHASE_TOL = 1e-9
_PHASE_CAP = PHASE_TOL / (2 * sys.float_info.epsilon)

# Memory a command may hold at its peak; see _check_size.
SIZE_BUDGET = 1 << 30
# Each estimate is its counted bytes times 5/4.  Traced with tracemalloc at
# N = 150, every command peaks at 1.01 to 1.16 times the bytes it counts.
_SAFETY = (5, 4)


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


def _n_list(text: str) -> list[int]:
    """A comma-separated list of particle numbers, such as '3,6,9'; an empty list is refused."""
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        ns = []
    if not ns:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    return ns


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
    """Refuse a setting whose largest phase argument overflows a float, or exceeds ``_PHASE_CAP``."""
    if not math.isfinite(phase):
        raise ValueError(f"largest phase overflows a float; reduce {setting}")
    if abs(phase) > _PHASE_CAP:
        raise ValueError(f"largest phase {abs(phase):.3g} rad is above {_PHASE_CAP:.3g}, past which a probability "
                         f"may drift by more than {PHASE_TOL:g}; reduce {setting}")


def _footprint(args, n: int) -> dict[str, int]:
    """Bytes ``args.command`` holds at its peak with ``n`` particles, by the flag that sets them.

    Each term is closed-form, a Python int for any n.  The engines count
    their own arrays: the lift's in ``modes._lift_bytes``, the fringe
    scan's block loop in ``interferometer._scan_bytes``, and the hold-phase
    sweep's in ``protocol._sweep_bytes`` and ``protocol._timing_bytes``.
    The terms here are the per-n tables and states held at once, per ket
    (each per-n cache keeps one n, until its successor is built), the
    parser's share, and an emitted row: per value a slot in its column's
    list and a 24 B float, or a 28 B int above 256; the rows are zipped
    from those lists as they are written.
    """
    kets = dimension(n)
    ints = 56 * math.comb(max(n - 255, 0), 2)  # the values above 256 in two occupation columns
    # per ket: basis 24, amplitudes 8, pair counts 8, the readout table 48, a state 16,
    # a real vector 8; per row: 2 ints and a float 48, 4 floats and an int 136
    table = {
        "ground": lambda: {"--n": (24 + 8 + 8 + 48 + 12) * kets + ints},  # 12 for the parser's 0.25 MB at N = 150
        "cat": lambda: {"--n": (24 + 8 + 8 + 48 + 16 + 8 + 48) * kets + ints + _lift_bytes(n)},
        # the tables of n - 1 and n, 56 of temporaries as n's are built; a row and its result 176
        "cattiness-sweep": lambda: {"--n-max": (24 + 8 + 8 + 16 + 2 * 48 + 56) * kets + 176 * (n - args.n_min + 1)},
        # each ket's index into the distinct pair counts
        "timing": lambda: {"--n": (24 + 8 + 8 + 48 + 8) * kets + _timing_bytes(kets)},
        "calibrate-u": lambda: {"--n": (24 + 8 + 8 + 48 + 8) * kets + _sweep_bytes(args.grid, kets),
                                "--grid": (16 + 64) * args.grid},
        # the cat and the doubled hold; a scan point 72, its 9 floats 288
        "fringes": lambda: {"--n": (24 + 8 + 8 + 48 + 2 * 16) * kets + _lift_bytes(n) + _scan_bytes(n),
                            "--grid": (72 + 288) * args.grid},
    }
    return table[args.command]()


def _check_size(args, n: int) -> None:
    """Refuse a setting whose ``_footprint`` times ``_SAFETY`` would exceed ``SIZE_BUDGET``.

    This runs before any array work.  The refusal names the flag that sets
    the most bytes, and rounds the estimate up to 0.001 GiB, so an excess
    shows; an estimate too large for a float reads as inf.
    """
    sizes = _footprint(args, n)
    nbytes = sum(sizes.values()) * _SAFETY[0] // _SAFETY[1]
    if nbytes > SIZE_BUDGET:
        need = -(-1000 * nbytes // 2**30) / 1000 if nbytes.bit_length() < 1000 else math.inf
        raise ValueError(f"needs about {need:.4g} GiB, above the {SIZE_BUDGET >> 30} GiB memory budget; "
                         f"reduce {max(sizes, key=sizes.get)}")


def _csv_lines(table, rows, summary):
    """CSV text: a header, then each row through one ``%`` template, then the summary.

    The template has ``%d`` for an integer column and ``%.17g`` for a float
    one, which give the text ``_fmt`` gives.
    """
    template = ",".join("%d" if column.dtype.kind in "iu" else "%.17g" for column in table.values()) + "\n"
    yield ",".join(table) + "\n"
    yield from map(template.__mod__, rows)
    for key, value in summary.items():
        yield f"# {key} = {_fmt(value)}\n"


def _json_lines(command, table, rows, summary):
    """The text ``json.JSONEncoder(indent=2).iterencode`` gives for the payload, and a newline.

    ``json.dumps`` writes the head and the summary.  Each row goes through
    one ``%s`` template: ``str`` of a float or an int is its repr, and a
    column with nan or inf arrives as ``json.dumps`` text.
    """
    yield json.dumps({"command": command, "columns": list(table)}, indent=2)[:-2]  # without its closing "\n}"
    yield ',\n  "rows": ['
    template = ",\n    [\n      " + ",\n      ".join(["%s"] * len(table)) + "\n    ]"
    if (first := next(rows, None)) is not None:
        yield (template % first)[1:]  # the first row has no comma before it
        yield from map(template.__mod__, rows)
        yield "\n  "
    yield "]"
    if summary:
        yield ',\n  "summary": ' + json.dumps(summary, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _emit(args, table, summary=None) -> None:
    """Write ``table`` and ``summary`` as CSV or JSON to ``args.out``.

    ``table`` maps each column name to an equal-length 1-D array.  This is
    the only place numbers become text: each column goes through one
    ``.tolist()``, so integer columns print as integers and float columns
    as 17 significant digits (CSV) or Python's shortest round-trip repr
    (JSON, with ``json``'s NaN and Infinity).  Rows are zipped from the
    column lists as the text is streamed: no row list or string is held.
    """
    values = [column.tolist() for column in table.values()]
    if args.format == "json":
        for i, column in enumerate(table.values()):
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                values[i] = list(map(json.dumps, values[i]))
        chunks = _json_lines(args.command, table, zip(*values), summary)
    else:
        chunks = _csv_lines(table, zip(*values), summary or {})
    if args.out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.out, "w", newline="\n") as handle:
            handle.writelines(chunks)
        print(f"wrote {args.out} ({len(values[0])} rows)")


def cmd_ground(args) -> None:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    _check_size(args, args.n)
    probs = superfluid_ground_state(args.n).probabilities()
    _check_unit_sum(probs, "site distribution")
    occ = enumerate_basis(args.n)
    _emit(args, {"n_a": occ[:, 0], "n_b": occ[:, 1], "p": probs})


def cmd_cat(args) -> None:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    _check_size(args, args.n)
    theta = args.theta * (1.0 + args.delta)
    _check_phase("--theta-pi or --delta", 0.5 * theta * (args.n * (args.n - 1)))
    r = run_protocol(args.n, theta)
    dist = momentum_distribution(r.state)
    _check_unit_sum(dist, "momentum distribution")
    occ = enumerate_basis(args.n)
    summary = {"n": args.n, "theta": theta, "p_alpha": r.p_alpha, "p_beta": r.p_beta, "p_gamma": r.p_gamma,
               "cattiness": r.cattiness}
    _emit(args, {"n_alpha": occ[:, 0], "n_beta": occ[:, 1], "p": dist}, summary)


def cmd_cattiness_sweep(args) -> None:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError(f"need 1 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    _check_size(args, args.n_max)
    _require_finite_columns(args.n_max)
    _check_phase("--theta-pi", 0.5 * args.theta * (args.n_max * (args.n_max - 1)))
    ns = np.arange(args.n_min, args.n_max + 1)
    pa, pb, pg, c = cattiness_sweep(ns, args.theta).T
    _emit(args, {"n": ns, "p_alpha": pa, "p_beta": pb, "p_gamma": pg, "cattiness": c})


def cmd_timing(args) -> None:
    for n in args.n:
        _require_cat_number(n)
    _check_size(args, max(args.n))
    _require_finite_columns(max(args.n))
    d0 = np.array([timing_tolerance(n, args.c_target) for n in args.n])
    inv = 1.0 / d0
    x = np.array(args.n, dtype=np.float64)
    slope = float(np.sum(x * inv) / np.sum(x * x))
    summary = {"c_target": args.c_target, "fit_slope_inv_delta0_vs_n": slope, "fit_prefactor": 1.0 / slope}
    _emit(args, {"n": np.array(args.n), "delta0": d0, "inv_delta0": inv, "n_delta0": x * d0}, summary)


def cmd_calibrate_u(args) -> None:
    _require_cat_number(args.n)
    if args.grid < 3:
        raise ValueError(f"--grid must be >= 3, got {args.grid}")
    if not args.theta_min < args.theta_max:
        raise ValueError("--theta-min-pi must be below --theta-max-pi")
    _check_size(args, args.n)
    _require_finite_columns(args.n)
    widest = max(abs(args.theta_min), abs(args.theta_max))
    _check_phase("--theta-min-pi or --theta-max-pi", 0.5 * widest * (args.n * (args.n - 1)))
    thetas = np.linspace(args.theta_min, args.theta_max, args.grid)
    star, c_star, values = _calibrate_on_grid(args.n, thetas)
    summary = {"n": args.n, "theta_star": star, "theta_star_pi": star / math.pi, "c_star": c_star}
    _emit(args, {"theta": thetas, "cattiness": values}, summary)


def cmd_fringes(args) -> None:
    _require_cat_number(args.n)
    if args.grid < 2 or args.xi <= 0 or args.dt <= 0:
        raise ValueError("need --grid >= 2, --xi > 0 and --dt > 0")
    _check_size(args, args.n)
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
    p.add_argument("--n", type=_n_list, required=True, help="comma-separated multiples of 3, e.g. 3,6,9")
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
    except BrokenPipeError:
        raise  # the reader has gone; ``entry`` ends the process quietly
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


def entry() -> int:
    """Process entry of the ``ringcat`` script and of ``python -m ringcat.cli``.

    It freezes the collector's heap (``gc.freeze``) once the imports are done:
    their ~21,600 tracked objects live until exit, and every full collection,
    in the run and at interpreter exit, would walk them again.  Objects the
    command makes are collected as before.  ``main`` itself does not freeze,
    so an in-process caller keeps its collector state.  A reader closing stdout
    early ends the run with 0, stdout on ``os.devnull`` so the exit flush is quiet.
    """
    gc.freeze()
    try:
        return main()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(entry())
