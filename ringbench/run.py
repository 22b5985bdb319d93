"""ringcat benchmark: fixed lists of CLI commands, each one a fresh process.

Usage, from the root of a checkout:
    python3 ringbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Each command of the workload runs as ``python -m ringcat.cli ...`` with
PYTHONPATH=src, the way the test suite runs, and is timed as a whole
process, interpreter start included.  The load is a closed loop with one
client: a command starts only after the previous one has exited.  Every
output is checked against the oracles in ``checks.py``; a command that
exits nonzero, times out or fails a check counts as failed and is charged
its timeout in ``wall_s``, so failing faster never reads as a speed-up.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall
time of a fresh ``python -c "import ringcat"``), and the per-pass
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, each the median over the passes
made in ``--seconds``.  ``--trace 1`` runs each command once untraced and
once under ``tracer.py`` and reports the per-layer metrics of the traced pass.
Times and counts are totals over the pass's commands, except
``ringcat.import_modules`` (modules loaded by one CLI start) and
``modes.unitarity_defect`` (the largest defect of any lift built).

The seed shuffles the command order of every pass and jitters the
continuous flags (see the workload functions); the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import re
import select
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
WORK_ROOT = ROOT / ".ringbench_work"

CLI = (sys.executable, "-m", "ringcat.cli")
RUN_LIMIT_S = 165.0  # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 30.0

README_COMMANDS = """\
ringcat ground --n 30 --out ground.csv
ringcat cat --n 3 --theta-pi 2/3 --format json --out cat.json
ringcat cat --n 3 --delta 0.05 --out cat_detuned.csv
ringcat cattiness-sweep --n-min 1 --n-max 31 --out comb.csv
ringcat timing --n 3,6,9,12,15,18,21,24,27,30 --c-target 0.9 --out timing.csv
ringcat calibrate-u --n 6 --grid 121 --out calibrate.csv
ringcat fringes --n 3 --j 0 --xi 6.283185307179586 --dt 1 --grid 256 --out fringes.csv
"""


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # ringcat arguments, without the program name
    timeout: float  # seconds; also the wall time charged when the command fails


def _jitter(rng: random.Random, value: float, spread: float) -> str:
    return f"{value + rng.uniform(-spread, spread):.6f}"


def desk(rng: random.Random) -> list[Command]:
    """The README commands word for word: startup and import dominate."""
    return [Command(tuple(shlex.split(line)[1:]), 30.0) for line in README_COMMANDS.splitlines()]


def lift(rng: random.Random) -> list[Command]:
    """Dense Fock-lift builds at N=60 and N=75, the largest N whose cat run passes."""
    return [Command(("cat", "--n", "60"), 40.0), Command(("cat", "--n", "75"), 80.0)]


def fringe_scan(rng: random.Random) -> list[Command]:
    """5,120 interferometer points; --xi upper ends jittered by +-5%."""
    return [
        Command(("fringes", "--n", "30", "--xi", _jitter(rng, 1.0, 0.05), "--grid", "4096"), 40.0),
        Command(("fringes", "--n", "45", "--xi", _jitter(rng, 0.7, 0.035), "--grid", "1024"), 40.0),
    ]


def search(rng: random.Random) -> list[Command]:
    """Hold-phase sweeps at dim 4186; bracket ends jittered by +-0.005 (units of pi)."""
    return [
        Command(("timing", "--n", "30,60,90"), 40.0),
        Command(
            ("calibrate-u", "--n", "90", "--grid", "4001",
             "--theta-min-pi", _jitter(rng, 0.6, 0.005), "--theta-max-pi", _jitter(rng, 0.73, 0.005)),
            40.0,
        ),
    ]


WORKLOADS = {"desk": desk, "lift": lift, "fringe-scan": fringe_scan, "search": search}


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}:{path}" if path else str(SRC))


@dataclass
class Process:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def spawn(argv, cwd: Path, timeout: float) -> Process:
    """Run argv to completion (or kill it at ``timeout``) and read its usage."""
    out, err = cwd / ".stdout", cwd / ".stderr"
    start = time.perf_counter()
    with open(out, "wb") as o, open(err, "wb") as e:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=o, stderr=e)
    fd = os.pidfd_open(proc.pid)
    timed_out = False
    try:
        timed_out = not select.select([fd], [], [], max(timeout, 0.0))[0]
        if timed_out:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
    except BaseException:
        signal.pidfd_send_signal(fd, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(fd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        proc.returncode, timed_out, out.read_bytes(), err.read_bytes(),
    )


@dataclass
class Run:
    """One command's outcome; ``reason`` is None when it succeeded."""

    cmd: Command
    proc: Process | None
    reason: str | None
    out_bytes: int = 0
    trace: dict | None = None

    @property
    def charged_wall(self) -> float:
        return self.proc.wall if self.reason is None else self.cmd.timeout


def _out_file(cmd: Command, cwd: Path) -> Path | None:
    if "--out" in cmd.args:
        target = cmd.args[cmd.args.index("--out") + 1]
        if target != "-":
            return cwd / target
    return None


def run_command(cmd: Command, cwd: Path, deadline: float, prefix=CLI, traced=False) -> Run:
    timeout = min(cmd.timeout, deadline - time.perf_counter())
    if timeout <= 0:
        return Run(cmd, None, "not started: the run's time limit was reached")
    out_file = _out_file(cmd, cwd)
    if out_file is not None:
        out_file.unlink(missing_ok=True)
    trace_file = cwd / ".trace.json"
    trace_file.unlink(missing_ok=True)
    if traced:
        prefix = (sys.executable, "-X", "importtime", str(TRACER), str(trace_file))
    proc = spawn([*prefix, *cmd.args], cwd, timeout)
    text = proc.stdout.decode(errors="replace")
    out_bytes = len(proc.stdout)
    reason = None
    if proc.timed_out:
        reason = f"timed out after {timeout:.1f} s"
    elif proc.code != 0:
        message = [line for line in proc.stderr.decode(errors="replace").splitlines()
                   if not line.startswith("import time:")]
        reason = f"exit code {proc.code}: {' | '.join(message)[-300:]}"
    else:
        try:
            if out_file is not None:
                text = out_file.read_text()
                out_bytes += len(text.encode())
            check_output(list(cmd.args), text)
        except (CheckError, OSError) as exc:
            reason = f"check failed: {exc}"
    trace = None
    if traced and not proc.timed_out and trace_file.exists():
        trace = json.loads(trace_file.read_text())
        trace["imports"] = parse_importtime(proc.stderr.decode(errors="replace"))
    return Run(cmd, proc, reason, out_bytes, trace)


@dataclass
class Pass:
    runs: list[Run]

    @property
    def wall(self) -> float:
        """Sum of the commands' process wall times, failures charged their timeout."""
        return sum(r.charged_wall for r in self.runs)

    @property
    def failures(self) -> list[Run]:
        return [r for r in self.runs if r.reason is not None]

    @property
    def cpu(self) -> float:
        return sum(r.proc.cpu for r in self.runs if r.proc is not None)

    @property
    def rss_mb(self) -> float:
        return max((r.proc.rss_mb for r in self.runs if r.proc is not None), default=0.0)


def run_pass(commands, cwd: Path, deadline: float, prefix=CLI, traced=False) -> Pass:
    """Run the commands one after another, each starting when the last has exited."""
    return Pass([run_command(cmd, cwd, deadline, prefix, traced) for cmd in commands])


IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")
RINGCAT_ROOTS = ("ringcat", "ringcat.cli")


def parse_importtime(stderr: str) -> dict:
    """Import cost of ringcat from ``-X importtime`` output.

    Returns the cumulative seconds of the top-level ``ringcat`` and
    ``ringcat.cli`` imports, the part of that spent in outermost ``scipy``
    imports, and the number of modules those imports loaded.
    """
    entries = []
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    total = scipy = 0.0
    modules = 0
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, each entry's
    # ancestors are on the stack when it is reached
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _, n in stack]
        stack.append((depth, name))
        root = ancestors[0] if ancestors else name
        if root not in RINGCAT_ROOTS:
            continue
        modules += 1
        if not ancestors:
            total += cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
    return {"import_s": total, "scipy_s": scipy, "modules": modules}


# per-layer span groups: time and calls of the outermost span with one of these names
SPAN_GROUPS = {
    "modes.lift_build": ("modes.lift_to_fock",),
    "modes.lift_apply": ("modes.FockLift.to_momentum", "modes.FockLift.to_site"),
    "modes.extremal": ("modes.extremal_columns", "modes.extremal_mode_probabilities"),
    "evolution.spectral": ("evolution.SpectralPropagator.evolve", "evolution.evolve_spectral"),
    "evolution.hold": ("evolution.evolve_interaction_phase",),
    "protocol.sweep": ("protocol.sweep_protocol_probabilities",),
    "protocol.run": ("protocol.run_protocol", "protocol.cattiness_sweep"),
    "protocol.timing": ("protocol.timing_tolerance",),
    "protocol.calibrate": ("protocol.calibrate_u",),
    "interferometer.points": ("interferometer.full_simulation_fringes",),
}
SELF_MODULES = ("hamiltonian", "interferometer", "basis", "state", "cli")

PER_LAYER_UNITS = {
    "ringcat.import_s": "s", "ringcat.import_scipy_s": "s", "ringcat.import_modules": "count",
    "modes.lift_build_s": "s", "modes.lift_builds": "count", "modes.lift_bytes": "B",
    "modes.unitarity_defect": "1",
    "modes.lift_apply_s": "s", "modes.lift_applies": "count",
    "hamiltonian.self_s": "s", "hamiltonian.calls": "count",
    "evolution.spectral_s": "s", "evolution.spectral_calls": "count",
    "interferometer.self_s": "s", "interferometer.points": "count",
    "protocol.sweep_s": "s", "protocol.sweep_calls": "count", "protocol.sweep_points": "count",
    "protocol.timing_s": "s", "protocol.calibrate_s": "s",
    "protocol.run_s": "s", "protocol.run_calls": "count",
    "evolution.hold_s": "s", "evolution.holds": "count", "modes.extremal_s": "s",
    "basis.self_s": "s", "basis.calls": "count", "state.self_s": "s", "state.calls": "count",
    "cli.self_s": "s", "cli.out_bytes": "B",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
}


def layer_metrics(traced: Pass, untraced_wall: float) -> dict[str, float]:
    """Per-layer totals over the traced pass's commands."""
    group = {key: [0.0, 0, 0] for key in SPAN_GROUPS}  # time, calls, work
    self_time = {mod: 0.0 for mod in SELF_MODULES}
    calls = {mod: 0 for mod in SELF_MODULES}
    lift_bytes = 0
    defect = 0.0
    imports = {"import_s": 0.0, "scipy_s": 0.0, "modules": 0}
    check_s = uncovered = 0.0
    for run in traced.runs:
        if run.trace is None:
            continue
        spans = run.trace["spans"]
        child = [0.0] * len(spans)
        top = 0.0
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        for sid, (parent, name, start, end, work) in enumerate(spans):
            mod = name.split(".")[0]
            if mod in self_time:
                self_time[mod] += end - start - child[sid]
                calls[mod] += 1
            for key, names in SPAN_GROUPS.items():
                if name in names and not _has_ancestor(spans, parent, names):
                    g = group[key]
                    g[0] += end - start
                    g[1] += 1
                    g[2] += work
                    if key == "modes.lift_build":
                        lift_bytes += ((work + 1) * (work + 2) // 2) ** 2 * 16
        defect = max([defect] + [d for _, d in run.trace["lifts"]])
        imp = run.trace["imports"]
        imports["import_s"] += imp["import_s"]
        imports["scipy_s"] += imp["scipy_s"]
        imports["modules"] = max(imports["modules"], imp["modules"])
        check_s += run.trace["check_s"]
        uncovered += run.proc.wall - imp["import_s"] - top - run.trace["check_s"]
    return {
        "ringcat.import_s": imports["import_s"],
        "ringcat.import_scipy_s": imports["scipy_s"],
        "ringcat.import_modules": imports["modules"],
        "modes.lift_build_s": group["modes.lift_build"][0],
        "modes.lift_builds": group["modes.lift_build"][1],
        "modes.lift_bytes": lift_bytes,
        "modes.unitarity_defect": defect,
        "modes.lift_apply_s": group["modes.lift_apply"][0],
        "modes.lift_applies": group["modes.lift_apply"][1],
        "hamiltonian.self_s": self_time["hamiltonian"],
        "hamiltonian.calls": calls["hamiltonian"],
        "evolution.spectral_s": group["evolution.spectral"][0],
        "evolution.spectral_calls": group["evolution.spectral"][1],
        "interferometer.self_s": self_time["interferometer"],
        "interferometer.points": group["interferometer.points"][1],
        "protocol.sweep_s": group["protocol.sweep"][0],
        "protocol.sweep_calls": group["protocol.sweep"][1],
        "protocol.sweep_points": group["protocol.sweep"][2],
        "protocol.timing_s": group["protocol.timing"][0],
        "protocol.calibrate_s": group["protocol.calibrate"][0],
        "protocol.run_s": group["protocol.run"][0],
        "protocol.run_calls": group["protocol.run"][1],
        "evolution.hold_s": group["evolution.hold"][0],
        "evolution.holds": group["evolution.hold"][1],
        "modes.extremal_s": group["modes.extremal"][0],
        "basis.self_s": self_time["basis"],
        "basis.calls": calls["basis"],
        "state.self_s": self_time["state"],
        "state.calls": calls["state"],
        "cli.self_s": self_time["cli"],
        "cli.out_bytes": sum(r.out_bytes for r in traced.runs),
        "trace.overhead_s": traced.wall - untraced_wall - check_s,
        "trace.uncovered_s": uncovered,
    }


def _has_ancestor(spans, parent: int, names) -> bool:
    while parent >= 0:
        if spans[parent][1] in names:
            return True
        parent = spans[parent][0]
    return False


PROBE = """\
import json, numpy, ringcat
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "backend": getattr(ringcat, "BACKEND", None)}))
"""


def machine_facts(cwd: Path) -> dict:
    """Machine and library facts; the probe child doubles as the import warm-up."""
    proc = spawn([sys.executable, "-c", PROBE], cwd, SETUP_TIMEOUT_S)
    if proc.code != 0:
        raise RuntimeError(f"cannot import ringcat from {SRC}: {proc.stderr.decode(errors='replace')[-300:]}")
    facts = json.loads(proc.stdout)
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    facts.update(
        nproc=len(os.sched_getaffinity(0)),
        python=sys.version.split()[0],
        scipy=scipy,
        blas_threads={k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        git_commit=commit,
    )
    return facts


def setup_time(cwd: Path, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = spawn([sys.executable, "-c", "import ringcat"], cwd, SETUP_TIMEOUT_S)
        if proc.code != 0 or proc.timed_out:
            raise RuntimeError(f"import ringcat failed: {proc.stderr.decode(errors='replace')[-300:]}")
        samples.append(proc.wall)
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, cwd: Path) -> tuple[list[Pass], dict]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    rng = random.Random(seed)
    commands = WORKLOADS[workload](rng)
    facts = machine_facts(cwd)
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    for cmd in commands:
        print(f"command {shlex.join(('ringcat', *cmd.args))}")
    if trace:
        # each command runs untraced and then traced, so both see the same machine speed
        plain, traced = Pass([]), Pass([])
        for cmd in rng.sample(commands, len(commands)):
            plain.runs.append(run_command(cmd, cwd, deadline))
            traced.runs.append(run_command(cmd, cwd, deadline, traced=True))
        metrics = layer_metrics(traced, plain.wall)
        return [plain, traced], {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}
    # half the set-up samples before the passes and half after, so that their
    # median spans the changes in machine speed over the run
    setup = setup_time(cwd, SETUP_SAMPLES // 2)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(rng.sample(commands, len(commands)), cwd, deadline))
        # start another pass only if it should end within the measuring time
        now = time.perf_counter()
        if now - start + passes[-1].wall > seconds or deadline - now < 1.5 * passes[-1].wall:
            break
    setup += setup_time(cwd, SETUP_SAMPLES - len(setup))
    print(f"setup samples {' '.join(f'{s:.4f}' for s in setup)}")
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p.wall:.4f} s, cpu {p.cpu:.4f} s, rss {p.rss_mb:.1f} MB, "
              f"{len(p.failures)}/{len(p.runs)} failed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringcat" / "__init__.py").is_file():
        print(f"ringbench: no ringcat sources under {SRC}; run from a ringcat checkout", file=sys.stderr)
        return 2
    cwd = WORK_ROOT / str(os.getpid())
    cwd.mkdir(parents=True, exist_ok=True)
    try:
        passes, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), cwd)
    except RuntimeError as exc:
        print(f"ringbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.reason is not None]
    for r in failed:
        print(f"FAILED ringcat {shlex.join(r.cmd.args)}: {r.reason}")
    print(f"fail_frac {len(failed) / len(runs):.4f} ({len(failed)} of {len(runs)} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
