"""Record the benchmark of a checkout in a BENCH_<rev>.json file, and compare two such files.

    python3 tools/bench_record.py record [--root CHECKOUT]
    python3 tools/bench_record.py compare OLD.json NEW.json
    python3 tools/bench_record.py pairs --old DIR --new DIR --workload W --seeds A-B [--seconds T]
    python3 tools/bench_record.py bytes --old DIR --new DIR [--seeds A-B]
    python3 tools/bench_record.py rss --old DIR --new DIR [--runs K]

``record`` runs ``python3 ringbench/run.py --workload W --seed S --seconds T
--trace 0`` unchanged in CHECKOUT (default: the checkout holding this
script), for every workload that BENCHMARK.json lists and seeds 1 to 5, with
T its ``run_seconds``.  The seeds are the outer loop, so a drift in machine
speed spreads over every workload.  It writes BENCH_<rev>.json in the
current directory: per workload and end-to-end metric, the value of each
run, the seeds, the run count, the median and the quartiles (inclusive
method), and the failed and attempted command counts; then run.py's machine
facts, the git revision and whether the checkout had uncommitted changes.

``compare`` prints each metric's change of median.  It says whether the
medians differ by more than OLD's quartile spread, and whether NEW is worse
than OLD by more than the metric's relative bound in BENCHMARK.json.

``pairs`` runs the same run.py command in two checkouts, once per seed from
A to B, alternating which checkout runs first.  It prints each pair, then
per end-to-end metric each side's median and quartiles, in how many pairs
NEW was better, and whether the medians differ by more than OLD's quartile
spread.  T defaults to ``run_seconds``.

``bytes`` checks that two checkouts give the same output.  It takes every
command of OLD's ``tests/golden.json``, the README commands and each
workload's commands for seeds A to B (default 1-5) from OLD's
``ringbench/run.py``, imported as it is, and ``LARGE_N``.  Each one runs as ``python -m ringcat.cli ARGS`` in both checkouts, every run in a
fresh temporary directory.  It lists each command whose stdout, stderr, exit
code or written files differ by a byte, and exits 1 if there is any.

``rss`` runs each ``LARGE_N`` command K times (default 5) in both checkouts,
the same way, alternating which checkout runs first.  Per command it prints
each side's median and quartiles of peak RSS (``os.wait4``'s
``ru_maxrss``) and of wall time, the change of the RSS median, and each
side's size estimate: ``cli._footprint`` times ``cli._SAFETY``, the bytes the
memory budget charges, read by one ``python -c`` per checkout that does no
array work.

``pairs``, ``bytes`` and ``rss`` run in temporary copies of the two
checkouts (without ``.git``), each with its ``src/`` compiled by
``compileall`` first, so no ``.pyc`` lands in a checkout.  Peak RSS moves by
~0.2 MB with the source text of the modules when they are compiled at each
start (as under ``PYTHONDONTWRITEBYTECODE=1``), so this keeps an edit to a
docstring from showing as a change of memory.  A ``PYTHONPYCACHEPREFIX``
would not do: it moves every module's cache, so numpy would then compile
from source in each child.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HOME = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)
# large-N lifts and one-row fringe scans, on small grids
LARGE_N = ("cat --n 150", "cat --n 300", "cat --n 450", "fringes --n 90 --grid 16", "fringes --n 150 --grid 16",
           "fringes --n 180 --grid 16", "fringes --n 300 --grid 8")
# each argument's estimated bytes, as ``cli._check_size`` counts them, one line each
ESTIMATE = """
import shlex, sys
from ringcat import cli
over, under = cli._SAFETY
for line in sys.argv[1:]:
    args = cli._build_parser().parse_args(shlex.split(line))
    print(sum(cli._footprint(args, args.n).values()) * over // under)
"""


@contextlib.contextmanager
def precompiled(*roots: Path):
    """Temporary copies of the checkouts, each with its ``src/`` compiled, for the children to run in."""
    with tempfile.TemporaryDirectory(prefix="bench_pyc_") as tmp:
        copies = [Path(tmp) / str(i) for i in range(len(roots))]
        for root, copy in zip(roots, copies):
            shutil.copytree(root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".ringbench_work"))
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(copy / "src")], check=True)
        yield copies


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """run.py's facts and its final JSON line, for one workload and seed."""
    argv = [sys.executable, "ringbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    lines = proc.stdout.splitlines()
    facts = next(json.loads(line[len("facts "):]) for line in lines if line.startswith("facts "))
    return facts, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def record(root: Path) -> Path:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    facts = None
    for seed in SEEDS:
        for name in names:
            facts, result = run_once(root, name, seed, spec["run_seconds"])
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    workloads = {}
    for name, results in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            metrics[metric["name"]] = {"unit": metric["unit"], **summary(values)}
        workloads[name] = {"seeds": list(SEEDS), "runs": len(results), "metrics": metrics,
                           "failed": sum(r["failed"] for r in results),
                           "attempted": sum(r["attempted"] for r in results)}
    rev = git(root, "rev-parse", "HEAD").strip()
    out = Path(f"BENCH_{rev[:7]}.json")
    payload = {"revision": rev, "dirty": bool(git(root, "status", "--porcelain").strip()),
               "command": "python3 ringbench/run.py --workload W --seed S --seconds "
                          f"{spec['run_seconds']} --trace 0",
               "facts": facts, "workloads": workloads}
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def compare(old_path: Path, new_path: Path) -> None:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    spec = json.loads((HOME / "BENCHMARK.json").read_text())
    print(f"old {old['revision'][:7]}{' (dirty)' if old['dirty'] else ''}, "
          f"new {new['revision'][:7]}{' (dirty)' if new['dirty'] else ''}")
    for name, before in old["workloads"].items():
        after = new["workloads"][name]
        print(f"{name}: failed {before['failed']}/{before['attempted']} -> {after['failed']}/{after['attempted']}, "
              f"runs {before['runs']} -> {after['runs']}")
        for metric in spec["end_to_end"]:
            a, b = before["metrics"][metric["name"]], after["metrics"][metric["name"]]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            spread = a["q3"] - a["q1"]
            print(f"  {metric['name']:12s} {a['median']:9.4g} [{a['q1']:.4g}, {a['q3']:.4g}] -> "
                  f"{b['median']:9.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {metric['unit']:2s} {change:+7.2%}; "
                  f"beyond old quartile spread: {'yes' if abs(b['median'] - a['median']) > spread else 'no'}; "
                  f"worse than bound {metric['bound']:.0%}: {'YES' if worse > metric['bound'] else 'no'}")


def pairs(old_root: Path, new_root: Path, workload: str, seeds: range, seconds: float) -> None:
    spec = json.loads((HOME / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    for i, seed in enumerate(seeds):
        order = [("old", old_root), ("new", new_root)]
        for side, root in order[:: 1 if i % 2 == 0 else -1]:
            result = run_once(root, workload, seed, seconds)[1]
            if result["failed"]:
                print(f"  {side} seed {seed}: {result['failed']} of {result['attempted']} commands failed")
            runs[side].append(result["metrics"])
        print(f"seed {seed} ({order[i % 2][0]} first): " + ", ".join(
            f"{m['name']} {runs['old'][-1][m['name']]['value']:.4g} -> {runs['new'][-1][m['name']]['value']:.4g}"
            for m in metrics), flush=True)
    for metric in metrics:
        name = metric["name"]
        old, new = ([r[name]["value"] for r in runs[side]] for side in ("old", "new"))
        a, b = summary(old), summary(new)
        wins = sum((y < x) if metric["better"] == "lower" else (y > x) for x, y in zip(old, new))
        print(f"{name:12s} old {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}], "
              f"new {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {metric['unit']}, "
              f"{(b['median'] - a['median']) / a['median']:+.2%}; new better in {wins} of {len(old)} pairs; "
              f"beyond old quartile spread: {'yes' if abs(b['median'] - a['median']) > a['q3'] - a['q1'] else 'no'}")


def bench_commands(root: Path, seeds: range) -> list[tuple[str, ...]]:
    """The golden commands, the README commands and each workload's commands per seed, each once, in order."""
    sys.path.insert(0, str(root / "ringbench"))  # run.py imports checks.py as a top-level module
    sys.dont_write_bytecode = True  # leave ringbench/ as it is
    spec = importlib.util.spec_from_file_location("ringbench_run", root / "ringbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(run)
    golden = json.loads((root / "tests" / "golden.json").read_text())["outputs"]
    commands = [tuple(shlex.split(line)) for line in golden]
    commands += [tuple(shlex.split(line)[1:]) for line in run.README_COMMANDS.splitlines()]
    for seed in seeds:
        for workload in run.WORKLOADS.values():
            commands += [cmd.args for cmd in workload(random.Random(seed))]
    return list(dict.fromkeys(commands))


def cli_env(root: Path) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{root / 'src'}:{path}" if path else str(root / "src"))


def run_in_temp(root: Path, args: tuple[str, ...]) -> dict:
    """Exit code, stdout, stderr and every written file of one CLI run in a fresh directory."""
    with tempfile.TemporaryDirectory(prefix="bench_bytes_") as tmp:
        proc = subprocess.run([sys.executable, "-m", "ringcat.cli", *args], cwd=tmp, env=cli_env(root),
                              stdin=subprocess.DEVNULL, capture_output=True)
        files = {str(f.relative_to(tmp)): f.read_bytes() for f in sorted(Path(tmp).rglob("*")) if f.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


def same_bytes(old_root: Path, new_root: Path, seeds: range) -> int:
    commands = bench_commands(old_root, seeds) + [tuple(shlex.split(line)) for line in LARGE_N]
    mismatches = 0
    for args in commands:
        old, new = run_in_temp(old_root, args), run_in_temp(new_root, args)
        differ = [key for key in old if old[key] != new[key]]
        mismatches += bool(differ)
        verdict = f"MISMATCH in {', '.join(differ)}" if differ else "same bytes"
        print(f"ringcat {shlex.join(args)}: exit {old['exit code']}, {len(old['stdout'])} B stdout, "
              f"{len(old['files'])} files; {verdict}", flush=True)
    print(f"{mismatches} of {len(commands)} commands differ")
    return 1 if mismatches else 0


def peak_rss(root: Path, args: tuple[str, ...]) -> tuple[float, float]:
    """Peak RSS in MB and wall time in s of one CLI run in a fresh directory, output discarded."""
    with tempfile.TemporaryDirectory(prefix="bench_rss_") as tmp:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ringcat.cli", *args], cwd=tmp, env=cli_env(root),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"ringcat {shlex.join(args)} exited {proc.returncode} in {root}")
    return usage.ru_maxrss / 1024.0, wall


def estimates(root: Path) -> list[float]:
    """The size estimate of each ``LARGE_N`` command in a checkout, in MB."""
    proc = subprocess.run([sys.executable, "-c", ESTIMATE, *LARGE_N], env=cli_env(root), capture_output=True,
                          text=True, check=True)
    return [int(line) / 2**20 for line in proc.stdout.split()]


def rss(old_root: Path, new_root: Path, runs: int) -> None:
    order = [("old", old_root), ("new", new_root)]
    estimated = zip(estimates(old_root), estimates(new_root))
    for line, (old_mb, new_mb) in zip(LARGE_N, estimated):
        args = tuple(shlex.split(line))
        measured: dict[str, list[tuple[float, float]]] = {"old": [], "new": []}
        for i in range(runs):
            for side, root in order[:: 1 if i % 2 == 0 else -1]:
                measured[side].append(peak_rss(root, args))
        stats = {side: [summary([m[k] for m in values]) for k in (0, 1)] for side, values in measured.items()}
        (a, wa), (b, wb) = stats["old"], stats["new"]
        print(f"ringcat {line}: peak RSS old {a['median']:.2f} [{a['q1']:.2f}, {a['q3']:.2f}], "
              f"new {b['median']:.2f} [{b['q1']:.2f}, {b['q3']:.2f}] MB ({b['median'] - a['median']:+.2f}); "
              f"wall old {wa['median']:.3f} [{wa['q1']:.3f}, {wa['q3']:.3f}], "
              f"new {wb['median']:.3f} [{wb['q1']:.3f}, {wb['q3']:.3f}] s; "
              f"estimate old {old_mb:.2f}, new {new_mb:.2f} MB", flush=True)


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least two seeds, got {text!r}")
    return seeds


def run_count(text: str) -> int:
    runs = int(text)
    if runs < 2:
        raise argparse.ArgumentTypeError(f"need at least two runs, got {text!r}")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("record", help="run the benchmark in a checkout and write BENCH_<rev>.json here")
    p.add_argument("--root", type=Path, default=HOME, help="the checkout to benchmark")
    p = sub.add_parser("compare", help="compare two BENCH files")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p = sub.add_parser("pairs", help="run alternating pairs of the two checkouts on one workload")
    p.add_argument("--old", type=Path, required=True, help="the checkout to compare against")
    p.add_argument("--new", type=Path, required=True, help="the checkout with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="A-B, at least two seeds")
    p.add_argument("--seconds", type=float, help="run.py's --seconds (default: BENCHMARK.json's run_seconds)")
    p = sub.add_parser("bytes", help="check that two checkouts write the same bytes for the benchmark's commands")
    p.add_argument("--old", type=Path, required=True, help="the checkout to compare against")
    p.add_argument("--new", type=Path, required=True, help="the checkout with the change")
    p.add_argument("--seeds", type=seed_range, default=range(SEEDS[0], SEEDS[-1] + 1), help="A-B (default 1-5)")
    p = sub.add_parser("rss", help="compare the peak RSS and wall time of the large-N commands in two checkouts")
    p.add_argument("--old", type=Path, required=True, help="the checkout to compare against")
    p.add_argument("--new", type=Path, required=True, help="the checkout with the change")
    p.add_argument("--runs", type=run_count, default=5, help="runs per command and checkout, at least two (default 5)")
    args = parser.parse_args(argv)
    if args.action == "record":
        print(f"wrote {record(args.root.resolve())}")
        return 0
    if args.action == "compare":
        compare(args.old, args.new)
        return 0
    with precompiled(args.old.resolve(), args.new.resolve()) as (old, new):
        if args.action == "bytes":
            return same_bytes(old, new, args.seeds)
        if args.action == "rss":
            rss(old, new, args.runs)
        else:
            seconds = args.seconds or json.loads((HOME / "BENCHMARK.json").read_text())["run_seconds"]
            pairs(old, new, args.workload, args.seeds, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
