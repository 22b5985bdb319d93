import json
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import ringcat.cli as cli
import ringcat.protocol as protocol
from ringcat.basis import multinomial_amplitudes
from ringcat.cli import main
from ringcat.modes import FockLift, dft_lift
from ringcat.state import NumericalHealthError, Representation, StateVector


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    rows, footer = [], {}
    with open(path) as handle:
        header = None
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                footer[key.strip()] = float(value.strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, rows, footer


def test_ground_three_particles(tmp_path):
    out = tmp_path / "ground.csv"
    assert run_cli("ground", "--n", "3", "--out", str(out)) == 0
    header, rows, _ = read_csv(out)
    assert header == ["n_a", "n_b", "p"]
    assert len(rows) == 10
    table = {(int(a), int(b)): p for a, b, p in rows}
    assert table[(1, 1)] == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert table[(3, 0)] == pytest.approx(1.0 / 27.0, abs=1e-15)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)


def test_ground_edge_sizes(tmp_path):
    out = tmp_path / "g0.csv"
    assert run_cli("ground", "--n", "0", "--out", str(out)) == 0
    _, rows, _ = read_csv(out)
    assert rows == [[0.0, 0.0, 1.0]]
    out = tmp_path / "g30.csv"
    assert run_cli("ground", "--n", "30", "--out", str(out)) == 0
    _, rows, _ = read_csv(out)
    assert len(rows) == 496


def test_cat_resonant_three(tmp_path):
    out = tmp_path / "cat.csv"
    assert run_cli("cat", "--n", "3", "--theta-pi", "2/3", "--out", str(out)) == 0
    _, rows, footer = read_csv(out)
    big = [row for row in rows if row[2] > 1e-10]
    assert len(big) == 3
    for row in big:
        assert row[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert footer["cattiness"] == pytest.approx(1.0, abs=1e-10)
    assert footer["theta"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-15)


def test_cat_off_multiple_records_poor_cattiness(tmp_path):
    out = tmp_path / "cat4.csv"
    assert run_cli("cat", "--n", "4", "--out", str(out)) == 0
    _, _, footer = read_csv(out)
    assert footer["cattiness"] < 1e-10


def test_cat_delta_flag_shifts_the_hold(tmp_path):
    out = tmp_path / "catd.csv"
    assert run_cli("cat", "--n", "3", "--delta", "0.05", "--out", str(out)) == 0
    _, _, footer = read_csv(out)
    assert footer["theta"] == pytest.approx((1.05) * 2.0 * math.pi / 3.0, abs=1e-14)
    assert footer["cattiness"] < 1.0


def test_cattiness_sweep_comb(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("cattiness-sweep", "--n-min", "1", "--n-max", "12", "--out", str(out)) == 0
    _, rows, _ = read_csv(out)
    table = {int(r[0]): r[4] for r in rows}
    for n in (3, 6, 9, 12):
        assert table[n] == pytest.approx(1.0, abs=1e-10)
    for n in (1, 2, 4, 5, 7, 8, 10, 11):
        assert table[n] < 1.0 - 1e-3


def test_cattiness_sweep_frees_each_final_state_before_the_next_n(tmp_path, monkeypatch):
    states = []
    hold = protocol.evolve_interaction_phase

    def tracked(s, theta):
        assert all(ref() is None for ref in states), f"a final state is still alive when n={s.n} starts"
        final = hold(s, theta)
        states.append(weakref.ref(final))
        return final

    monkeypatch.setattr(protocol, "evolve_interaction_phase", tracked)
    assert run_cli("cattiness-sweep", "--n-min", "1", "--n-max", "6", "--out", str(tmp_path / "s.csv")) == 0
    assert len(states) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("ground", "--n", "150"),
        ("ground", "--n", "150", "--format", "json"),
        ("cat", "--n", "150"),
        ("cattiness-sweep", "--n-min", "1", "--n-max", "150"),
        ("timing", "--n", "150"),
        ("calibrate-u", "--n", "150", "--grid", "2048"),
        ("fringes", "--n", "150", "--xi", "0.05", "--grid", "4"),
    ],
    ids=["ground", "ground-json", "cat", "cattiness-sweep", "timing", "calibrate-u", "fringes"],
)
def test_each_estimate_bounds_its_peak(argv, tmp_path):
    # the estimate counts what the command holds, so it lies between the
    # traced peak of a run in its own process and the safety factor times
    # that peak
    args = cli._build_parser().parse_args(list(argv))
    over, under = cli._SAFETY
    estimate = sum(cli._footprint(args, 150).values()) * over // under
    home = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys, tracemalloc; sys.path.insert(0, {home!r}); import ringcat.cli as cli; "
        "tracemalloc.start(); code = cli.main(sys.argv[1:]); "
        "print(code, tracemalloc.get_traced_memory()[1])"
    )
    child = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")],
                           capture_output=True, text=True, check=True, timeout=300)
    code, peak = map(int, child.stdout.split()[-2:])
    assert code == 0
    assert peak <= estimate <= peak * over / under, (peak, estimate)


def test_timing_table_and_fit(tmp_path):
    out = tmp_path / "timing.csv"
    assert run_cli("timing", "--n", "3,6,9", "--out", str(out)) == 0
    header, rows, footer = read_csv(out)
    assert header == ["n", "delta0", "inv_delta0", "n_delta0"]
    for n, d0, inv, nd0 in rows:
        assert inv == pytest.approx(1.0 / d0, rel=1e-12)
        assert nd0 == pytest.approx(n * d0, rel=1e-12)
        assert 0.4 < nd0 < 0.7
    assert footer["fit_prefactor"] == pytest.approx(
        1.0 / footer["fit_slope_inv_delta0_vs_n"], rel=1e-12
    )


def test_calibrate_summary(tmp_path):
    out = tmp_path / "cal.json"
    assert run_cli("calibrate-u", "--n", "6", "--grid", "41", "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["theta_star"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-7)
    assert payload["summary"]["c_star"] == pytest.approx(1.0, abs=1e-10)
    assert payload["columns"] == ["theta", "cattiness"]
    assert len(payload["rows"]) == 41


@pytest.mark.parametrize("grid", [1000, 8000, 12000, 20000])
def test_calibrate_brackets_two_samples_tied_about_the_peak(grid, tmp_path):
    # an even grid on the default bracket sets two samples symmetrically about
    # 2*pi/3, whose values differ by rounding only; the golden section's
    # one-point values rank them unlike the grid's, so a side widens
    out = tmp_path / "cal.csv"
    assert run_cli("calibrate-u", "--n", "30", "--grid", str(grid), "--out", str(out)) == 0
    _, _, footer = read_csv(out)
    assert footer["theta_star"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-6)


def test_calibrate_sweeps_the_grid_once(tmp_path, monkeypatch):
    sizes = []
    points = []
    sweep = protocol.sweep_protocol_probabilities

    def counted(n, thetas):
        sizes.append(np.size(thetas))
        if np.size(thetas) == 1:
            points.append(float(np.asarray(thetas)[0]))
        return sweep(n, thetas)

    monkeypatch.setattr(protocol, "sweep_protocol_probabilities", counted)
    out = tmp_path / "cal.csv"
    assert run_cli("calibrate-u", "--n", "6", "--grid", "121", "--out", str(out)) == 0
    assert sizes.count(121) == 1
    # c_star is the golden section's own value: no hold phase is swept twice
    assert points and len(set(points)) == len(points), points


def test_fringes_closed_equals_simulation(tmp_path):
    out = tmp_path / "fringes.csv"
    assert run_cli("fringes", "--n", "3", "--grid", "60", "--out", str(out)) == 0
    header, rows, _ = read_csv(out)
    for row in rows:
        table = dict(zip(header, row))
        assert table["p_alpha"] + table["p_beta"] + table["p_gamma"] == pytest.approx(1.0, abs=1e-10)
        assert table["p_alpha"] == pytest.approx(table["p_alpha_closed"], abs=1e-10)
        assert table["p_beta"] == pytest.approx(table["p_beta_closed"], abs=1e-10)
    # zero rotation with no hopping phase reproduces the input port
    assert rows[0][2] == pytest.approx(1.0, abs=1e-10)


def test_json_mirrors_csv_fields(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.json"
    assert run_cli("ground", "--n", "2", "--out", str(a)) == 0
    assert run_cli("ground", "--n", "2", "--format", "json", "--out", str(b)) == 0
    header, rows, _ = read_csv(a)
    payload = json.loads(b.read_text())
    assert payload["columns"] == header
    assert np.allclose(payload["rows"], rows, atol=0)


def test_determinism_byte_identical(tmp_path, capsys):
    pairs = [
        ("ground", "--n", "7"),
        ("cat", "--n", "6", "--theta-pi", "2/3"),
        ("cattiness-sweep", "--n-min", "2", "--n-max", "7"),
        ("timing", "--n", "3,6"),
        ("calibrate-u", "--n", "3", "--grid", "31"),
        ("fringes", "--n", "3", "--grid", "40"),
    ]
    for i, argv in enumerate(pairs):
        for fmt in ("csv", "json"):
            p1 = tmp_path / f"{i}_one.{fmt}"
            p2 = tmp_path / f"{i}_two.{fmt}"
            assert run_cli(*argv, "--format", fmt, "--out", str(p1)) == 0
            assert run_cli(*argv, "--format", fmt, "--out", str(p2)) == 0
            assert p1.read_bytes() == p2.read_bytes(), argv
            capsys.readouterr()
            assert run_cli(*argv, "--format", fmt) == 0
            assert capsys.readouterr().out.encode() == p1.read_bytes(), argv


def test_rational_angle_parsing(tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run_cli("cat", "--n", "3", "--theta-pi", "4/6", "--out", str(out1)) == 0
    assert run_cli("cat", "--n", "3", "--theta-pi", "2/3", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_invalid_config(tmp_path, capsys):
    assert run_cli("ground", "--n", "-3", "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("cat", "--n", "0", "--out", str(tmp_path / "y.csv")) == 2
    assert run_cli("ground", "--n", "2", "--out", str(tmp_path / "no" / "dir.csv")) == 2
    capsys.readouterr()


def test_exit_code_physics_precondition(tmp_path, capsys):
    assert run_cli("timing", "--n", "4,6", "--out", str(tmp_path / "t.csv")) == 3
    assert run_cli("fringes", "--n", "5", "--out", str(tmp_path / "f.csv")) == 3
    assert run_cli("calibrate-u", "--n", "7", "--out", str(tmp_path / "c.csv")) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, n",
    [
        (("timing", "--n", "4,6"), 4),
        (("timing", "--n", "6,3000001"), 3000001),
        (("fringes", "--n", "5"), 5),
        (("calibrate-u", "--n", "7"), 7),
        (("calibrate-u", "--n", "0", "--grid", "1"), 0),
    ],
    ids=["timing", "timing-oversized", "fringes", "calibrate-u", "calibrate-u-bad-grid"],
)
def test_particle_number_refusal_is_the_librarys_one_message(argv, n, capsys):
    # refused before any size check or array work, with exit code 3
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1 << 20, f"{peak} bytes traced before the refusal"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ringcat: particle number must be a positive multiple of 3, got {n}\n"


def test_calibrate_degenerate_bracket_is_a_physics_error(tmp_path, capsys):
    # a bracket one ulp wide repeats grid samples around the best one
    argv = ("calibrate-u", "--n", "6", "--theta-min-pi", "0.6666666666666666",
            "--theta-max-pi", "0.6666666666666667", "--grid", "121")
    assert run_cli(*argv, "--out", str(tmp_path / "c.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("ringcat: ") and "Bracketing values" not in err


def test_exit_code_numerical_health_unit_sum(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "momentum_distribution", lambda s: 2.0 * s.probabilities())
    assert run_cli("cat", "--n", "3", "--out", str(tmp_path / "h.csv")) == 4
    assert "numerical health check failed" in capsys.readouterr().err


def test_exit_code_numerical_health_state_norm(tmp_path, capsys, monkeypatch):
    def drifted(n):
        return StateVector(n, Representation.SITE, 1.001 * multinomial_amplitudes(n))

    monkeypatch.setattr(protocol, "superfluid_ground_state", drifted)
    assert run_cli("cat", "--n", "3", "--out", str(tmp_path / "h.csv")) == 4
    assert "state norm" in capsys.readouterr().err


def test_unit_sum_check_rejects_nan():
    with pytest.raises(NumericalHealthError, match="sums to nan"):
        cli._check_unit_sum([math.nan], "probabilities")


def test_unit_sum_check_names_the_first_bad_row():
    rows = np.array([[0.5, 0.5], [0.5, 0.6], [0.2, 0.2], [0.5, 0.5]])
    with pytest.raises(NumericalHealthError, match=r"fringe probabilities at row 1 sums to 1\.1"):
        cli._check_unit_sum(rows, "fringe probabilities")


def test_fringes_point_loop_keeps_its_norm_checks(tmp_path, capsys, monkeypatch):
    # the lift back hands over drifted rows unchecked; the scan's own norm
    # checks must catch the drift
    to_site_rows = FockLift.to_site_rows

    def drifted(self, amps):
        return 1.001 * to_site_rows(self, amps)

    monkeypatch.setattr(FockLift, "to_site_rows", drifted)
    assert run_cli("fringes", "--n", "3", "--grid", "8", "--out", str(tmp_path / "f.csv")) == 4
    assert "state norm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("cat", "--n", "3", "--delta", "1e308"), "--delta"),
        (("cat", "--n", "3", "--theta-pi", "5e307"), "--theta-pi"),
        (("cattiness-sweep", "--n-min", "1", "--n-max", "3", "--theta-pi", "5e307"), "--theta-pi"),
        (("fringes", "--n", "3", "--xi", "1e308", "--dt", "10", "--grid", "4"), "--xi"),
        (("calibrate-u", "--n", "3", "--theta-min-pi", "0", "--theta-max-pi", "5e307", "--grid", "5"),
         "--theta-max-pi"),
    ],
    ids=["cat-delta", "cat-theta", "cattiness-sweep", "fringes", "calibrate-u"],
)
def test_overflowing_phase_is_refused(argv, flag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert run_cli(*argv) == 2
    assert_one_line_refusal(capsys, flag)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("fringes", "--n", "3", "--j", "1e300", "--grid", "3"), "--j"),
        (("cat", "--n", "30", "--theta-pi", "1e15"), "--theta-pi"),
        (("cat", "--n", "30", "--theta-pi=-1e15"), "--theta-pi"),
        # 2.61e6 rad, where the default bracket's 2.18e6 is accepted
        (("calibrate-u", "--n", "1290", "--theta-max-pi", "1"), "--theta-max-pi"),
    ],
    ids=["fringes-j", "cat-theta", "cat-negative-theta", "calibrate-u"],
)
def test_phase_past_the_precision_cap_is_refused(argv, flag, capsys):
    # finite, but float rounding of the phase alone could move a probability
    # by more than PHASE_TOL
    assert run_cli(*argv) == 2
    line = assert_one_line_refusal(capsys, flag)
    assert f"may drift by more than {cli.PHASE_TOL:g}" in line, line


def assert_one_line_refusal(capsys, flag):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ringcat: ") and flag in lines[0], lines
    return lines[0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("ground", "--n", "10000000"), "--n"),
        (("cat", "--n", "10000000"), "--n"),
        (("timing", "--n", "3000000"), "--n"),
        (("calibrate-u", "--n", "3000000", "--grid", "5"), "--n"),
        (("cattiness-sweep", "--n-min", "10000000", "--n-max", "10000000"), "--n-max"),
        (("fringes", "--n", "3000", "--grid", "4"), "--n"),
        (("calibrate-u", "--n", "3", "--grid", "1000000000000"), "--grid"),
        (("fringes", "--n", "3", "--grid", "1000000000000"), "--grid"),
        (("cat", "--n", "1" + "0" * 400), "--n"),
        # 36 bytes over the budget: the printed figure must still read above it
        (("calibrate-u", "--n", "3", "--grid", "5962947"), "--grid"),
    ],
    ids=["ground", "cat", "timing", "calibrate-u", "cattiness-sweep", "fringes", "calibrate-u-grid",
         "fringes-grid", "cat-400-digits", "calibrate-u-grid-just-over"],
)
def test_oversized_setting_is_refused_before_any_array_work(argv, flag, capsys):
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20, f"{peak} bytes traced before the refusal"
    line = assert_one_line_refusal(capsys, flag)
    assert "1 GiB memory budget" in line and line.endswith(f"reduce {flag}"), line
    assert float(line.split("needs about ")[1].split(" GiB")[0]) > 1, line


class Reached(Exception):
    """Raised by a stub standing in for a command's first array work."""


# the commands that read out through the extremal columns stop where their
# factor 3^(n/2) overflows a float, below their memory limits (2871, 1821, 2988)
@pytest.mark.parametrize(
    "argv, largest, step, stage, refusal",
    [
        (("ground", "--n"), 2883, 1, "superfluid_ground_state", "memory budget"),
        (("cat", "--n"), 634, 1, "run_protocol", "memory budget"),
        (("cattiness-sweep", "--n-min", "1", "--n-max"), 1292, 1, "cattiness_sweep", "3^(n/2)"),
        (("timing", "--n"), 1290, 3, "timing_tolerance", "3^(n/2)"),
        (("calibrate-u", "--grid", "2048", "--n"), 1290, 3, "_calibrate_on_grid", "3^(n/2)"),
        (("calibrate-u", "--n"), 1290, 3, "_calibrate_on_grid", "3^(n/2)"),
        (("fringes", "--n"), 633, 3, "fringe_scan", "memory budget"),
    ],
    ids=["ground", "cat", "cattiness-sweep", "timing", "calibrate-u-2048", "calibrate-u-121", "fringes"],
)
def test_size_budget_sets_each_commands_largest_n(argv, largest, step, stage, refusal, monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, stage, reached)
    with pytest.raises(Reached):
        run_cli(*argv, str(largest))
    assert run_cli(*argv, str(largest + step)) == 2
    assert refusal in capsys.readouterr().err


def assert_refused_at_parse(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("ringcat cat: error: argument")


def test_zero_denominator_angle_is_refused(tmp_path, capsys):
    out = str(tmp_path / "z.csv")
    assert_refused_at_parse(capsys, "cat", "--n", "3", "--theta-pi", "2/0", "--out", out)


def test_non_finite_angles_are_refused(tmp_path, capsys):
    out = str(tmp_path / "nf.csv")
    for flag, value in (("--theta-pi", "nan"), ("--theta-pi", "inf"), ("--delta", "nan"), ("--delta", "-inf")):
        assert_refused_at_parse(capsys, "cat", "--n", "3", flag, value, "--out", out)


def test_cat_ninety_particles(tmp_path):
    out = tmp_path / "cat90.csv"
    assert run_cli("cat", "--n", "90", "--out", str(out)) == 0
    _, rows, footer = read_csv(out)
    assert len(rows) == 4186
    assert sum(row[2] for row in rows) == pytest.approx(1.0, abs=1e-10)
    assert footer["cattiness"] == pytest.approx(1.0, abs=1e-10)


def test_fringes_ninety_particles(tmp_path):
    out = tmp_path / "fringes90.csv"
    assert run_cli("fringes", "--n", "90", "--xi", "0.35", "--grid", "64", "--out", str(out)) == 0
    header, rows, _ = read_csv(out)
    for row in rows:
        table = dict(zip(header, row))
        for mode in ("p_alpha", "p_beta", "p_gamma"):
            assert table[mode] == pytest.approx(table[mode + "_closed"], abs=1e-9)


def test_cat_keeps_the_lift_matrix_free(tmp_path):
    dft_lift.cache_clear()
    assert run_cli("cat", "--n", "60", "--out", str(tmp_path / "cat60.csv")) == 0
    assert "matrix" not in vars(dft_lift(60))


def test_stdout_output(capsys):
    assert run_cli("ground", "--n", "1", "--out", "-") == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "n_a,n_b,p"
    assert len(lines) == 4


def test_csv_floats_round_trip_exactly(tmp_path):
    from ringcat.state import site_number_distribution, superfluid_ground_state

    out = tmp_path / "rt.csv"
    assert run_cli("ground", "--n", "5", "--out", str(out)) == 0
    _, rows, _ = read_csv(out)
    exact = list(site_number_distribution(superfluid_ground_state(5)).values())
    for row, p in zip(rows, exact):
        assert row[2] == p  # 17 significant digits reproduce the double exactly


def test_cat_thirty_particles(tmp_path):
    out = tmp_path / "cat30.csv"
    assert run_cli("cat", "--n", "30", "--out", str(out)) == 0
    _, rows, footer = read_csv(out)
    assert len(rows) == 496
    big = [row for row in rows if row[2] > 1e-10]
    assert len(big) == 3 and all(r[2] == pytest.approx(1 / 3, abs=1e-12) for r in big)
    assert footer["cattiness"] == pytest.approx(1.0, abs=1e-10)
