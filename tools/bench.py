"""Paired benchmark runs: perfbench over workloads and seeds, written to BENCH_<label>.json.

    python3 tools/bench.py --label NAME --seeds 1 2 3 --seconds 10
    python3 tools/bench.py --label NAME --seeds 1 2 3 --seconds 10 --against OTHER_TREE

For each seed and each workload of BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

as a subprocess in this source tree and reads the run's result.json. With
--against, each run is paired with the same command in the other tree, the
two taking turns at going first. BENCH_<label>.json holds each side's
environment block, each run's end-to-end metrics and the median of its raw
wall_s_samples (as wall_median_s; perfbench's wall_s prices every stride at
the run's fastest one), and per workload and side the median and quartiles
of each metric. Each side's environment block also names the sources it
ran: source_sha256 over the tree's src/**/*.py (perfbench's git_commit
reads .git/HEAD only, so it names a working tree's parent and reads
"unavailable" in a copy), src_lines, their line count, and git_dirty,
whether tracked files differ from that commit ("unavailable" outside a git
checkout). With --against it also holds, per metric, each pair's ratio
this / against and how many pairs each side won (a tie counts for neither),
and per workload whether each end-to-end metric is within its BENCHMARK.json
bound (within_bound; wall_median_s has none); a line on stderr names, per
workload, the metrics outside it.

With --cli-rounds N (default 0: no CLI rows), it also times N rounds of
each command of CLI_COMMANDS, one subprocess each,

    python3 -m tqd3d.cli --out TMPDIR COMMAND...

with the tree's src/ on PYTHONPATH, the trees taking turns at going first
as above. os.wait4 gives each child's user + system CPU time and peak RSS.
BENCH_<label>.json then holds under "cli", per side and command, the
median and quartiles of wall_s, cpu_s and maxrss_mb, and under
"cli"/"thread_variables" the BLAS thread variables the commands inherited
(THREAD_VARIABLES, "unset" for one that is absent). A command that exits
non-zero stops the bench.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_MEDIAN = "wall_median_s"  # the median of a run's raw wall samples, lower is better
# Figs 4a and 9 are left out: they take 5-9 s each.
CLI_COMMANDS = {
    "pulses": ["pulses"],
    "simulate-stirap": ["simulate", "--method", "stirap"],
    "simulate-tqd": ["simulate", "--method", "tqd"],
    "simulate-tqd-fitted": ["simulate", "--method", "tqd-fitted"],
    "simulate-open-stirap": ["simulate", "--open", "--method", "stirap"],
    "simulate-open-tqd": ["simulate", "--open", "--method", "tqd"],
    "simulate-open": ["simulate", "--open", "--method", "tqd-fitted"],  # open-benchmark's
    "sweep-4b": ["sweep", "--figure", "4b"],
    "sweep-4c": ["sweep", "--figure", "4c"],
    "sweep-8": ["sweep", "--figure", "8"],
    "verify": ["verify"],
}
# What a CLI child inherits; perfbench runs set their own.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def read_run(path: Path) -> dict:
    """The end-to-end metrics of one perfbench result.json, with its wall median."""
    result = json.loads(Path(path).read_text())
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics[WALL_MEDIAN] = statistics.median(result["wall_s_samples"])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "environment": result["environment"]}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: within the values' range)."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload: each side's quartiles of every metric, the pairs and within_bound.

    runs are dicts with workload, seed, side ("this" or "against") and
    metrics; better maps a metric name to "lower" or "higher". A pair is the
    two sides' runs of one workload and seed. bounds maps a metric to its
    bound: with both sides, within_bound[metric] says whether this side's
    median is worse than against's by at most bound times against's (worse:
    above it for "lower", below it for "higher").
    """
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        sides = {side: {run["seed"]: run["metrics"] for run in mine if run["side"] == side}
                 for side in dict.fromkeys(run["side"] for run in mine)}
        entry = {side: {name: quartiles([m[name] for m in by_seed.values()])
                        for name in better}
                 for side, by_seed in sides.items()}
        if {"this", "against"} <= sides.keys():
            seeds = [s for s in sides["this"] if s in sides["against"]]
            entry["pairs"] = {name: _pairs([sides["this"][s][name] for s in seeds],
                                           [sides["against"][s][name] for s in seeds], way)
                              for name, way in better.items()}
            entry["within_bound"] = {
                name: _within(entry["this"][name]["median"], entry["against"][name]["median"],
                              better[name], bound)
                for name, bound in bounds.items()}
        summary[workload] = entry
    return summary


def bound_lines(summary: dict) -> list[str]:
    """One line per workload with within_bound, naming the metrics outside their bound."""
    lines = []
    for workload, entry in summary.items():
        if "within_bound" in entry:
            outside = [name for name, ok in entry["within_bound"].items() if not ok]
            lines.append(f"{workload}: " + (f"outside the bound: {', '.join(outside)}"
                                            if outside else "every metric within its bound"))
    return lines


def _within(this: float, against: float, better: str, bound: float) -> bool:
    worse = this - against if better == "lower" else against - this
    return worse <= bound * abs(against)


def _pairs(this: list[float], against: list[float], better: str) -> dict:
    sign = 1 if better == "lower" else -1
    return {
        "ratios": [b / a if a else None for b, a in zip(this, against)],
        "this_won": sum(sign * (b - a) < 0 for b, a in zip(this, against)),
        "against_won": sum(sign * (b - a) > 0 for b, a in zip(this, against)),
        "pairs": len(this),
    }


def source_sha256(tree: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of tree's src/**/*.py."""
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(tree).as_posix() for path in tree.glob("src/**/*.py")):
        data = (tree / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def source_lines(tree: Path) -> int:
    """Newlines in tree's src/**/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/**/*.py"))


def git_dirty(tree: Path):
    """Whether tree's tracked files differ from its commit, or "unavailable" if not a checkout."""
    if not (tree / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=tree, capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return bool(proc.stdout.strip()) if proc.returncode == 0 else "unavailable"


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; a run that exits non-zero stops the bench."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return read_run(tree / ".perfbench_out" / workload / f"seed{seed}-trace0" / "result.json")


def run_cli(tree: Path, argv: list[str]) -> dict:
    """Wall time, child CPU time and peak RSS of one tqd3d command in tree; non-zero exit stops."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as out, open(Path(out) / "stderr", "w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "tqd3d.cli", "--out", out, *argv],
                                 cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        if child.returncode != 0:
            err.seek(0)
            sys.exit(f"bench: tqd3d {' '.join(argv)} in {tree} exited {child.returncode}:\n"
                     f"{err.read()}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024}  # Linux reports ru_maxrss in KiB


def run_cli_rounds(trees: dict, rounds: int) -> dict:
    """Per side and command, the quartiles of each run_cli metric over alternating rounds."""
    runs: dict = {side: {name: [] for name in CLI_COMMANDS} for side in trees}
    for k in range(rounds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name, argv in CLI_COMMANDS.items():
            for side in order:
                run = run_cli(trees[side], argv)
                runs[side][name].append(run)
                print(f"cli {name} round {k} {side}: wall_s {run['wall_s']:.3f} s, "
                      f"cpu_s {run['cpu_s']:.3f} s, maxrss {run['maxrss_mb']:.1f} MB",
                      file=sys.stderr, flush=True)
    return {side: {name: {metric: quartiles([run[metric] for run in rows])
                          for metric in rows[0]}
                   for name, rows in by_name.items()}
            for side, by_name in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--against", type=Path, default=None,
                        help="another source tree, run alternately with this one")
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--cli-rounds", type=int, default=0,
                        help="rounds of CLI_COMMANDS per tree, one subprocess each")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better[WALL_MEDIAN] = "lower"
    trees = {"this": ROOT}
    if args.against is not None:
        trees["against"] = args.against.resolve()
    runs, environment = [], {}
    sources = {side: {"source_sha256": source_sha256(tree), "src_lines": source_lines(tree),
                      "git_dirty": git_dirty(tree)}
               for side, tree in trees.items()}
    for k, seed in enumerate(args.seeds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for workload, side in ((w, side) for w in workloads for side in order):
            run = run_perfbench(trees[side], workload, seed, args.seconds)
            environment.setdefault(side, {**run.pop("environment"), **sources[side]})
            runs.append({"workload": workload, "seed": seed, "side": side, **run})
            print(f"{workload} seed {seed} {side}: wall_s {run['metrics']['wall_s']:.4g} s, "
                  f"wall median {run['metrics'][WALL_MEDIAN]:.4g} s, "
                  f"{run['failed']} of {run['attempted']} failed", file=sys.stderr, flush=True)
    summary = summarize(runs, better, bounds)
    for line in bound_lines(summary):
        print(line, file=sys.stderr)
    written = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "sides": list(trees),
        "ratio": "this / against",
        "environment": environment,
        "runs": runs,
        "summary": summary,
    }
    if args.cli_rounds > 0:
        written["cli_command"] = "python3 -m tqd3d.cli --out TMPDIR COMMAND..."
        written["cli_rounds"] = args.cli_rounds
        written["cli"] = {"thread_variables": {name: os.environ.get(name, "unset")
                                               for name in THREAD_VARIABLES},
                          **run_cli_rounds(trees, args.cli_rounds)}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(written, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
