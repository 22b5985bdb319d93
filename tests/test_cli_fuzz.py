"""Fuzz test of every command's flags with edge-heavy values; skipped without hypothesis.

The first array work of each command is stubbed, as in
``test_size_budget_sets_each_commands_largest_n``, so an accepted setting
stops there (exit 0) and the test covers the parsing and the refusals that
come before any work.  It runs ``main`` in process, so a traceback would
surface as the exception itself and fail the test.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat.cli import main
from test_cli import Reached

DIGITS = "7" * 400
EDGES = ["0", "-0", "1", "-1", "-3", "3", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "1e400", "2/0", "0/0",
         "nan", "-nan", "inf", "-inf", "2/3", "-2/3", DIGITS, "-" + DIGITS, DIGITS + "/3", "3/" + DIGITS,
         DIGITS + "/" + DIGITS, "1_000", " 3 ", "", "x"]
# besides the edges, integers around the accepted ranges, multiples of 3
# (which `timing`, `calibrate-u` and `fringes` need) among them, and any float
INTS = st.one_of(st.sampled_from(EDGES), st.integers(-3, 1300).map(str), st.integers(-1, 440).map(lambda k: str(3 * k)))
KINDS = {
    "int": INTS,
    "float": st.one_of(st.sampled_from(EDGES), st.floats().map(repr)),
    "n-list": st.lists(INTS, min_size=1, max_size=3).map(",".join),
}
KINDS["pi"] = KINDS["float"]
# each command's flags: (flag, kind, required), and the stage of its first array work
COMMANDS = {
    "ground": ([("--n", "int", True)], "ringcat.cli.superfluid_ground_state"),
    "cat": ([("--n", "int", True), ("--theta-pi", "pi", False), ("--delta", "float", False)],
            "ringcat.cli.run_protocol"),
    "cattiness-sweep": ([("--n-min", "int", True), ("--n-max", "int", True), ("--theta-pi", "pi", False)],
                        "ringcat.cli.cattiness_sweep"),
    "timing": ([("--n", "n-list", True), ("--c-target", "float", False)], "ringcat.cli.timing_tolerance"),
    "calibrate-u": ([("--n", "int", True), ("--theta-min-pi", "pi", False), ("--theta-max-pi", "pi", False),
                     ("--grid", "int", False)], "ringcat.cli._calibrate_on_grid"),
    "fringes": ([("--n", "int", True), ("--j", "float", False), ("--xi", "float", False), ("--dt", "float", False),
                 ("--grid", "int", False)], "ringcat.interferometer.fringe_scan"),
}


def reached(*args, **kwargs):
    raise Reached


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, kind, required in COMMANDS[command][0]:
        if required or draw(st.booleans()):
            argv.append(f"{flag}={draw(KINDS[kind])}")  # `=` keeps a value such as -1e300 from reading as a flag
    return argv


def run(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` with the command's first array work stubbed."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(COMMANDS[argv[0]][1], reached)
        try:
            code = main(argv)
        except Reached:
            code = 0
        except SystemExit as exc:  # the argument parser's refusal
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argv=command_lines())
def test_every_flag_value_is_run_or_refused_without_a_traceback(argv):
    code, out, err = run(argv)
    assert code in {0, 2, 3, 4}, (argv, code, err)
    assert "Traceback" not in err, argv
    if code in {3, 4} or (code == 2 and not err.startswith("usage:")):
        # refused after parsing: one line, and no output
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ringcat: "), (argv, lines)
