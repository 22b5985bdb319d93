"""Output oracles for the ringcat benchmark.

Every check here is written from the physics, not imported from ringcat, so
a change inside the package cannot quietly move both the program and its
oracle.  ``check_output(args, text)`` raises ``CheckError`` with a reason
when a table produced by ``ringcat <args>`` is wrong.

Tolerances:
- unit sums, 1e-10 (the CLI's own promise);
- closed-form probabilities (N=3 cosine series, ground-state multinomial,
  fringe closed form), 1e-12;
- P_beta = P_gamma without rotation, 1e-12;
- the cattiness comb and C = 1 at 2*pi/3, 1e-9;
- simulated against closed-form fringe columns, 1e-9;
- measured fringe period against 2*pi/n, 1e-3 relative (the period is read
  off parabolically refined grid maxima, so it is only as fine as the grid);
- calibrated resonance theta* = 2*pi/3, 1e-6.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SUM_TOL = 1e-10
CLOSED_TOL = 1e-12
COMB_TOL = 1e-9
FRINGE_TOL = 1e-9
PERIOD_RTOL = 1e-3
THETA_STAR_TOL = 1e-6
TIMING_RANGE = (0.47, 0.59)  # n * delta0 at c_target = 0.9, N = 3 .. 90

CAT_THETA = 2.0 * math.pi / 3.0
P3_ALPHA = (41.0, 24.0, 12.0, 4.0)
P3_BETA = (14.0, -12.0, -6.0, 4.0)


class CheckError(ValueError):
    """A command's output disagrees with an oracle."""


@dataclass
class Table:
    columns: list[str]
    rows: list[list[float]]
    summary: dict[str, float] = field(default_factory=dict)

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def parse_table(text: str, fmt: str) -> Table:
    """Parse the CSV or JSON table a ringcat subcommand writes."""
    try:
        if fmt == "json":
            payload = json.loads(text)
            summary = {k: float(v) for k, v in payload.get("summary", {}).items()}
            rows = [[float(v) for v in row] for row in payload["rows"]]
            return Table(list(payload["columns"]), rows, summary)
        lines = text.splitlines()
        columns = lines[0].split(",")
        rows, summary = [], {}
        for line in lines[1:]:
            if line.startswith("# "):
                key, value = line[2:].split(" = ", 1)
                summary[key] = float(value)
            else:
                rows.append([float(v) for v in line.split(",")])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"unparseable {fmt} table: {exc}") from exc
    if any(len(row) != len(columns) for row in rows):
        raise CheckError("a row has the wrong number of fields")
    return Table(columns, rows, summary)


def _close(label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{label}: got {got!r}, expected {want!r} within {tol}")


def _unit_sum(label: str, values) -> None:
    _close(f"{label} sum", math.fsum(values), 1.0, SUM_TOL)


def _flag(args: list[str], name: str, default=None):
    if name in args:
        return args[args.index(name) + 1]
    return default


def _pi_flag(args: list[str], name: str, default: float) -> float:
    text = _flag(args, name)
    if text is None:
        return default
    if "/" in text:
        num, den = text.split("/", 1)
        return int(num) / int(den) * math.pi
    return float(text) * math.pi


def p3_series(theta: float) -> tuple[float, float]:
    """Closed-form (P_alpha, P_beta) for three particles after a hold of theta."""
    cos = [math.cos(k * theta) for k in range(4)]
    pa = sum(c * x for c, x in zip(P3_ALPHA, cos)) / 81.0
    pb = sum(c * x for c, x in zip(P3_BETA, cos)) / 81.0
    return pa, pb


def cattiness(pa: float, pb: float, pg: float) -> float:
    return 3.0 * math.cbrt(max(pa, 0.0) * max(pb, 0.0) * max(pg, 0.0))


def _branches(label: str, n: int, theta: float, pa: float, pb: float, pg: float, c: float) -> None:
    """Oracles on one protocol outcome (no rotation during the hold)."""
    _close(f"{label} P_beta - P_gamma", pb - pg, 0.0, CLOSED_TOL)
    _close(f"{label} cattiness", c, cattiness(pa, pb, pg), CLOSED_TOL)
    if n == 3:
        want_a, want_b = p3_series(theta)
        _close(f"{label} N=3 P_alpha", pa, want_a, CLOSED_TOL)
        _close(f"{label} N=3 P_beta", pb, want_b, CLOSED_TOL)
    if abs(theta - CAT_THETA) <= 1e-12:
        _close(f"{label} comb at N={n}", c, 1.0 if n % 3 == 0 else 0.0, COMB_TOL)
        if n % 3 == 0:
            _unit_sum(f"{label} branches", (pa, pb, pg))


def _dimension(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def check_ground(args: list[str], t: Table) -> None:
    n = int(_flag(args, "--n"))
    if len(t.rows) != _dimension(n):
        raise CheckError(f"ground: {len(t.rows)} rows, expected {_dimension(n)}")
    for a, b, p in t.rows:
        a, b = int(a), int(b)
        want = math.comb(n, a) * math.comb(n - a, b) / 3**n
        _close(f"ground p({a},{b})", p, want, CLOSED_TOL)
    _unit_sum("site distribution", t.column("p"))


def check_cat(args: list[str], t: Table) -> None:
    n = int(_flag(args, "--n"))
    theta = _pi_flag(args, "--theta-pi", CAT_THETA) * (1.0 + float(_flag(args, "--delta", 0.0)))
    s = t.summary
    if len(t.rows) != _dimension(n) or int(s["n"]) != n:
        raise CheckError(f"cat: {len(t.rows)} rows for n={s.get('n')}, expected {_dimension(n)} for n={n}")
    _close("cat theta", s["theta"], theta, 1e-12)
    _unit_sum("momentum distribution", t.column("p"))
    _branches("cat", n, theta, s["p_alpha"], s["p_beta"], s["p_gamma"], s["cattiness"])


def check_cattiness_sweep(args: list[str], t: Table) -> None:
    lo, hi = int(_flag(args, "--n-min")), int(_flag(args, "--n-max"))
    theta = _pi_flag(args, "--theta-pi", CAT_THETA)
    if [int(row[0]) for row in t.rows] != list(range(lo, hi + 1)):
        raise CheckError("cattiness-sweep: rows do not cover n-min..n-max in order")
    for n, pa, pb, pg, c in t.rows:
        _branches(f"sweep row n={int(n)}", int(n), theta, pa, pb, pg, c)


def check_timing(args: list[str], t: Table) -> None:
    ns = [int(x) for x in _flag(args, "--n").split(",") if x.strip()]
    c_target = float(_flag(args, "--c-target", 0.9))
    if [int(row[0]) for row in t.rows] != ns:
        raise CheckError("timing: rows do not follow the requested n list")
    for n, d0, inv, nd in t.rows:
        _close(f"timing 1/delta0 at n={int(n)}", inv * d0, 1.0, 1e-12)
        _close(f"timing n*delta0 at n={int(n)}", nd, n * d0, 1e-12 * nd)
        if c_target == 0.9 and not TIMING_RANGE[0] <= nd <= TIMING_RANGE[1]:
            raise CheckError(f"timing: n*delta0 = {nd!r} at n={int(n)} outside {TIMING_RANGE}")
    slope = math.fsum(r[0] * r[2] for r in t.rows) / math.fsum(r[0] * r[0] for r in t.rows)
    _close("timing fit slope", t.summary["fit_slope_inv_delta0_vs_n"], slope, 1e-12 * slope)
    _close("timing fit prefactor", t.summary["fit_prefactor"] * slope, 1.0, 1e-12)


def check_calibrate(args: list[str], t: Table) -> None:
    grid = int(_flag(args, "--grid", 121))
    lo = _pi_flag(args, "--theta-min-pi", 0.5 * math.pi)
    hi = _pi_flag(args, "--theta-max-pi", 5.0 * math.pi / 6.0)
    thetas, cs = t.column("theta"), t.column("cattiness")
    if len(t.rows) != grid:
        raise CheckError(f"calibrate-u: {len(t.rows)} rows, expected {grid}")
    _close("calibrate first theta", thetas[0], lo, 1e-12)
    _close("calibrate last theta", thetas[-1], hi, 1e-12)
    if not all(-COMB_TOL <= c <= 1.0 + COMB_TOL for c in cs):
        raise CheckError("calibrate-u: cattiness outside [0, 1]")
    star = t.summary["theta_star"]
    _close("calibrate theta*", star, CAT_THETA, THETA_STAR_TOL)
    _close("calibrate theta*/pi", t.summary["theta_star_pi"] * math.pi, star, 1e-12)
    _close("calibrate C(theta*)", t.summary["c_star"], 1.0, COMB_TOL)


def fringe_closed_form(n: int, j: float, xi: float, dt: float) -> tuple[float, float, float]:
    """(1/9)[1 + 4 cos^2 x + 4 cos x cos phi_hop], x = n xi dt + (0, 2pi/3, -2pi/3)."""
    phi_rot, ch = n * xi * dt, math.cos(3.0 * n * j * dt)
    out = []
    for shift in (0.0, CAT_THETA, -CAT_THETA):
        c = math.cos(phi_rot + shift)
        out.append((1.0 + 4.0 * c * c + 4.0 * c * ch) / 9.0)
    return tuple(out)


def check_fringes(args: list[str], t: Table) -> None:
    n = int(_flag(args, "--n"))
    j = float(_flag(args, "--j", 0.0))
    xi_max = float(_flag(args, "--xi", 2.0 * math.pi))
    dt = float(_flag(args, "--dt", 1.0))
    grid = int(_flag(args, "--grid", 256))
    if len(t.rows) != grid:
        raise CheckError(f"fringes: {len(t.rows)} rows, expected {grid}")
    for i, row in enumerate(t.rows):
        xi, xi_dt, sim, closed = row[0], row[1], row[2:5], row[5:8]
        _close(f"fringes xi at row {i}", xi, xi_max * i / (grid - 1), 1e-12 * max(1.0, xi_max))
        _close(f"fringes xi_dt at row {i}", xi_dt, xi * dt, 1e-12 * max(1.0, xi_dt))
        _unit_sum(f"fringe row {i} simulated", sim)
        _unit_sum(f"fringe row {i} closed", closed)
        for k, want in enumerate(fringe_closed_form(n, j, xi, dt)):
            _close(f"fringes closed column {k} at row {i}", closed[k], want, CLOSED_TOL)
            _close(f"fringes simulated column {k} at row {i}", sim[k], closed[k], FRINGE_TOL)
    _close("fringes P_beta - P_gamma without rotation", t.rows[0][3] - t.rows[0][4], 0.0, CLOSED_TOL)
    period, want = t.rows[0][8], 2.0 * math.pi / n
    _close("fringes period", period, want, PERIOD_RTOL * want)


CHECKS = {
    "ground": check_ground,
    "cat": check_cat,
    "cattiness-sweep": check_cattiness_sweep,
    "timing": check_timing,
    "calibrate-u": check_calibrate,
    "fringes": check_fringes,
}


def check_output(args: list[str], text: str) -> None:
    """Check the table written by ``ringcat <args>``; raise CheckError if wrong."""
    table = parse_table(text, _flag(args, "--format", "csv"))
    try:
        CHECKS[args[0]](args, table)
    except CheckError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise CheckError(f"{args[0]}: malformed table ({exc!r})") from exc
