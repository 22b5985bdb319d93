"""Self-tests for the benchmark's runner, oracles and import-time parser.

Run from the root of a checkout:  python3 ringbench/selftest.py

Stand-in programs take the place of the ringcat CLI, so the failure paths
(a corrupted table, a nonzero exit, a timeout) are exercised without
breaking the package.  Each must count as a failed command and be charged
its timeout in the pass's wall time.
"""

import math
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import checks
import run

# prints a correct three-particle ground table, or a corrupted one with "bad"
FAKE_GROUND = """\
import sys
rows = [(3, 0), (2, 1), (2, 0), (1, 2), (1, 1), (1, 0), (0, 3), (0, 2), (0, 1), (0, 0)]
fact = [1, 1, 2, 6]
print("n_a,n_b,p")
for a, b in rows:
    p = fact[3] / (fact[a] * fact[b] * fact[3 - a - b]) / 27
    print(f"{a},{b},{p!r}")
if "bad" in sys.argv:
    print("0,0,0.5")
"""
GROUND = ("ground", "--n", "3")


class RunnerTest(unittest.TestCase):
    def setUp(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        self.cwd = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
        self.deadline = time.perf_counter() + 60.0

    def tearDown(self):
        shutil.rmtree(self.cwd, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass

    def one(self, prefix, args=GROUND, timeout=20.0):
        p = run.run_pass([run.Command(args, timeout)], self.cwd, self.deadline, prefix)
        self.assertEqual(len(p.runs), 1)
        return p

    def test_good_output_passes_at_measured_time(self):
        p = self.one((sys.executable, "-c", FAKE_GROUND))
        self.assertEqual(p.failures, [])
        self.assertLess(p.wall, 20.0)
        self.assertEqual(p.wall, p.runs[0].proc.wall)

    def test_corrupted_table_fails_and_is_charged(self):
        p = self.one((sys.executable, "-c", FAKE_GROUND), (*GROUND, "bad"))
        self.assertEqual(len(p.failures), 1)
        self.assertIn("check failed", p.failures[0].reason)
        self.assertEqual(p.wall, 20.0)

    def test_nonzero_exit_fails_and_is_charged(self):
        p = self.one((sys.executable, "-c", "import sys; print('ringcat: refused', file=sys.stderr); sys.exit(2)"))
        self.assertEqual(len(p.failures), 1)
        self.assertIn("exit code 2", p.failures[0].reason)
        self.assertIn("refused", p.failures[0].reason)
        self.assertEqual(p.wall, 20.0)

    def test_timeout_kills_fails_and_is_charged(self):
        start = time.perf_counter()
        p = self.one((sys.executable, "-c", "import time; time.sleep(30)"), timeout=0.5)
        self.assertLess(time.perf_counter() - start, 10.0)
        self.assertTrue(p.runs[0].proc.timed_out)
        self.assertIn("timed out", p.failures[0].reason)
        self.assertEqual(p.wall, 0.5)

    def test_run_deadline_stops_new_commands(self):
        p = run.run_pass([run.Command(GROUND, 3.0)], self.cwd, time.perf_counter() - 1.0,
                         (sys.executable, "-c", FAKE_GROUND))
        self.assertIsNone(p.runs[0].proc)
        self.assertEqual(len(p.failures), 1)
        self.assertEqual(p.wall, 3.0)


def csv(columns, rows, summary=()):
    lines = [",".join(columns)] + [",".join(repr(v) for v in row) for row in rows]
    lines += [f"# {k} = {v!r}" for k, v in summary]
    return "\n".join(lines) + "\n"


def cat3(pa, pb, pg, theta=checks.CAT_THETA):
    rows = [[a, b, 0.1] for a in range(4) for b in range(4 - a)]
    c = checks.cattiness(pa, pb, pg)
    return csv(("n_alpha", "n_beta", "p"), rows,
               (("n", 3), ("theta", theta), ("p_alpha", pa), ("p_beta", pb), ("p_gamma", pg), ("cattiness", c)))


FRINGE_COLUMNS = ("xi", "xi_dt", "p_alpha", "p_beta", "p_gamma",
                  "p_alpha_closed", "p_beta_closed", "p_gamma_closed", "period_xi_dt")


def fringe_rows(n, grid, xi_max, period):
    rows = []
    for i in range(grid):
        xi = xi_max * i / (grid - 1)
        closed = checks.fringe_closed_form(n, 0.0, xi, 1.0)
        rows.append([xi, xi, *closed, *closed, period])
    return rows


class OracleTest(unittest.TestCase):
    def test_three_particle_series_at_the_cat_phase(self):
        pa, pb = checks.p3_series(checks.CAT_THETA)
        self.assertAlmostEqual(pa, 1.0 / 3.0, places=15)
        self.assertAlmostEqual(pb, 1.0 / 3.0, places=15)
        checks.check_output(["cat", "--n", "3"], cat3(pa, pb, pb))

    def test_beta_constant_41_is_refused(self):
        theta = 0.3
        pa, pb = checks.p3_series(theta)
        wrong = pb + 27.0 / 81.0  # 41 in place of 14
        with self.assertRaises(checks.CheckError):
            checks.check_output(["cat", "--n", "3", "--theta-pi", "0.3"], cat3(pa, wrong, wrong, theta * math.pi))

    def test_beta_gamma_asymmetry_is_refused(self):
        pa, pb = checks.p3_series(checks.CAT_THETA)
        with self.assertRaises(checks.CheckError):
            checks.check_output(["cat", "--n", "3"], cat3(pa, pb + 1e-9, pb - 1e-9))

    def test_comb_is_enforced(self):
        good = [[n, 1 / 3, 1 / 3, 1 / 3, 1.0] if n % 3 == 0 else [n, 0.5, 0.0, 0.0, 0.0] for n in range(4, 7)]
        columns = ("n", "p_alpha", "p_beta", "p_gamma", "cattiness")
        checks.check_output(["cattiness-sweep", "--n-min", "4", "--n-max", "6"], csv(columns, good))
        bad = [row[:] for row in good]
        bad[0][1:] = [0.4, 0.3, 0.3, checks.cattiness(0.4, 0.3, 0.3)]
        with self.assertRaises(checks.CheckError):
            checks.check_output(["cattiness-sweep", "--n-min", "4", "--n-max", "6"], csv(columns, bad))

    def test_fringe_simulation_must_match_closed_form(self):
        args = ["fringes", "--n", "3", "--grid", "64"]
        rows = fringe_rows(3, 64, 2.0 * math.pi, 2.0 * math.pi / 3.0)
        checks.check_output(args, csv(FRINGE_COLUMNS, rows))
        rows[5][2] += 1e-6
        rows[5][3] -= 1e-6
        with self.assertRaises(checks.CheckError):
            checks.check_output(args, csv(FRINGE_COLUMNS, rows))

    def test_aliased_period_is_refused(self):
        # fringes --n 60 --grid 64 reports the alias 2*pi/3, not 2*pi/60
        rows = fringe_rows(60, 64, 2.0 * math.pi, 2.0 * math.pi / 3.0)
        with self.assertRaisesRegex(checks.CheckError, "period"):
            checks.check_output(["fringes", "--n", "60", "--grid", "64"], csv(FRINGE_COLUMNS, rows))

    def test_timing_window(self):
        columns = ("n", "delta0", "inv_delta0", "n_delta0")
        for nd, ok in ((0.49, True), (0.24, False)):
            d0 = nd / 30.0
            rows = [[30, d0, 1.0 / d0, 30 * d0]]
            slope = 1.0 / d0 / 30.0
            text = csv(columns, rows, (("c_target", 0.9), ("fit_slope_inv_delta0_vs_n", slope),
                                       ("fit_prefactor", 1.0 / slope)))
            if ok:
                checks.check_output(["timing", "--n", "30"], text)
            else:
                with self.assertRaises(checks.CheckError):
                    checks.check_output(["timing", "--n", "30"], text)

    def test_unparseable_output_is_a_check_failure(self):
        with self.assertRaises(checks.CheckError):
            checks.check_output(["cat", "--n", "3", "--format", "json"], "{not json")


class ImportTimeTest(unittest.TestCase):
    def test_parses_ringcat_subtree(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | json",
            "import time:        50 |         50 |     scipy._lib",
            "import time:       200 |        250 |   scipy",
            "import time:        10 |         10 |     scipy.linalg",
            "import time:        20 |         30 |   scipy.optimize",
            "import time:        40 |        320 | ringcat",
            "import time:         5 |          5 |   argparse",
            "import time:        15 |         20 | ringcat.cli",
            "ringcat: some error",
        ])
        got = run.parse_importtime(stderr)
        self.assertAlmostEqual(got["import_s"], 340e-6)
        self.assertAlmostEqual(got["scipy_s"], 280e-6)
        self.assertEqual(got["modules"], 7)


if __name__ == "__main__":
    unittest.main()
