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
this / against and their quartiles, how many pairs each side won (a tie
counts for neither), the exact two-sided sign test over the untied pairs
(sign_test_p), and whether a gain could be claimed (claim_rule_met: this
side won at least 9 of 10 pairs, and its median is better than against's
by more than against's interquartile range); and per workload whether each
end-to-end metric is within its BENCHMARK.json bound (within_bound;
wall_median_s has none); a line on stderr names, per workload, the metrics
outside it.

With --cli-rounds N (default 0: no CLI rows), it also times N rounds of
each command of CLI_COMMANDS, one subprocess each,

    python3 -m tqd3d.cli --out TMPDIR COMMAND...

with the tree's src/ on PYTHONPATH, the trees taking turns at going first
as above. The --threads 2 sweeps need two cores. os.wait4 gives each
child's user + system CPU time and peak RSS.
BENCH_<label>.json then holds under "cli", per side and command, the
median and quartiles of wall_s, cpu_s and maxrss_mb, and under
"cli"/"thread_variables" the BLAS thread variables the commands inherited
(THREAD_VARIABLES, "unset" for one that is absent). A command that exits
non-zero stops the bench. Each round then runs, untimed, every
FAILURE_COMMANDS entry once per side: a command with its TQD3D_ settings,
which must exit with its expected code. Every run, timed or not, records
its exit code and the SHA-256 of its stdout, its stderr and each file under
--out (output_digest: verify_report.json without its wall_s fields).
"cli"/"outputs" holds per command whether the two sides gave the same
record in their first round (identical), what differs ("exit_code",
"stdout", "stderr" or "out/NAME"), and per side whether every round gave
the record of its first (rounds_agree).

Each round also times, per side and the trees taking turns as above, one
fresh interpreter per SETUP_CALLS entry with BLAS on one thread (every
THREAD_VARIABLES set to 1): the seconds of the call alone, after
`import tqd3d.cli`. That is the set-up a real `simulate --open` (the open
Liouvillian) or closed run (the chain's structure operators) pays, where
perfbench's setup_s also prices the import and its own 80-dim snippet.
BENCH_<label>.json holds under "setup", per side and call, their minimum,
median and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_MEDIAN = "wall_median_s"  # the median of a run's raw wall samples, lower is better
# Every command of the ROADMAP Baseline's CLI rows; figs 4a and 9 take several seconds each.
CLI_COMMANDS = {
    "pulses": ["pulses"],
    "simulate-stirap": ["simulate", "--method", "stirap"],
    "simulate-tqd": ["simulate", "--method", "tqd"],
    "simulate-tqd-fitted": ["simulate", "--method", "tqd-fitted"],
    "simulate-open-stirap": ["simulate", "--open", "--method", "stirap"],
    "simulate-open-tqd": ["simulate", "--open", "--method", "tqd"],
    "simulate-open": ["simulate", "--open", "--method", "tqd-fitted"],  # open-benchmark's
    "sweep-4a": ["sweep", "--figure", "4a", "--threads", "1"],
    "sweep-4a-threads-2": ["sweep", "--figure", "4a", "--threads", "2"],
    "sweep-4b": ["sweep", "--figure", "4b"],  # config threads: 1
    "sweep-4b-threads-2": ["sweep", "--figure", "4b", "--threads", "2"],
    "sweep-4c": ["sweep", "--figure", "4c"],
    "sweep-4c-threads-2": ["sweep", "--figure", "4c", "--threads", "2"],
    "sweep-8": ["sweep", "--figure", "8"],
    "sweep-8-threads-2": ["sweep", "--figure", "8", "--threads", "2"],
    "sweep-9": ["sweep", "--figure", "9", "--threads", "1"],
    "sweep-9-threads-2": ["sweep", "--figure", "9", "--threads", "2"],
    "verify": ["verify"],
}
# Failing runs, untimed: (settings, command, expected exit code). Instability, a pulse with
# no real root, an overflowing norm, sign-clash cells, the grid cap, positivity warnings.
FAILURE_COMMANDS = {
    "fail-simulate-dt": ({"TQD3D_DT": "0.5"}, ["simulate", "--method", "tqd"], 3),
    "fail-simulate-delta": ({"TQD3D_DELTA": "-3.6"}, ["simulate", "--method", "tqd"], 2),
    "fail-simulate-overflow": ({"TQD3D_DELTA": "1000", "TQD3D_DT": "0.05"},
                               ["simulate", "--method", "tqd"], 3),
    "fail-sweep-4b-sign": ({"TQD3D_SURFACE_DELTA": "-2.25:2.25:10"},
                           ["sweep", "--figure", "4b"], 3),
    "fail-sweep-4a-cap": ({"TQD3D_SURFACE_TF": "10:100:201",
                           "TQD3D_SURFACE_DELTA": "0.5:10:201"}, ["sweep", "--figure", "4a"], 4),
    "warn-simulate-open-dt": ({"TQD3D_DT": "0.5"},
                              ["simulate", "--open", "--method", "tqd-fitted"], 0),
}
TIMED = ("wall_s", "cpu_s", "maxrss_mb")
# What a CLI child inherits; perfbench runs set their own.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CALLS = {
    "open_liouvillian": "model.open_liouvillian()",
    "chain_terms": "model.hamiltonian_terms(hilbert.build_subspace())",
}
SETUP_CODE = ("import time\nimport tqd3d.cli\nfrom tqd3d import hilbert, model\n"
              "start = time.perf_counter()\n{call}\nprint(time.perf_counter() - start)\n")


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
    two sides' runs of one workload and seed; pairs[metric] holds their
    ratios and quartiles, the wins, sign_test_p and claim_rule_met, which
    reads medians and quartiles of the paired runs. bounds maps a metric to
    its bound: with both sides, within_bound[metric] says whether this side's
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


def sign_test(won: int, lost: int) -> float:
    """Exact two-sided sign-test p-value of won against lost untied pairs (1 with none)."""
    tail = sum(math.comb(won + lost, k) for k in range(min(won, lost) + 1))
    return min(1.0, 2 * tail / 2 ** (won + lost))


def _pairs(this: list[float], against: list[float], better: str) -> dict:
    sign = 1 if better == "lower" else -1
    ratios = [b / a if a else None for b, a in zip(this, against)]
    known = [ratio for ratio in ratios if ratio is not None]
    won = sum(sign * (b - a) < 0 for b, a in zip(this, against))
    lost = sum(sign * (b - a) > 0 for b, a in zip(this, against))
    mine, theirs = quartiles(this), quartiles(against)
    gain = sign * (theirs["median"] - mine["median"])
    return {
        "ratios": ratios,
        "ratio_quartiles": quartiles(known) if known else None,
        "this_won": won,
        "against_won": lost,
        "pairs": len(this),
        "sign_test_p": sign_test(won, lost),
        "claim_rule_met": 10 * won >= 9 * len(this) and gain > theirs["q3"] - theirs["q1"],
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


def _without_wall_s(value):
    if isinstance(value, dict):
        return {key: _without_wall_s(v) for key, v in value.items() if key != "wall_s"}
    if isinstance(value, list):
        return [_without_wall_s(v) for v in value]
    return value


def output_digest(path: Path) -> str:
    """SHA-256 of an output file; verify_report.json's wall_s timings are left out first."""
    data = path.read_bytes()
    if path.name == "verify_report.json":
        data = json.dumps(_without_wall_s(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_cli(tree: Path, argv: list[str], settings: dict | None = None, expect: int = 0) -> dict:
    """One tqd3d command in tree, with settings added to its environment.

    Gives its wall time, child CPU time and peak RSS (TIMED), and under
    "outputs" its exit code and the digests of its stdout, stderr and each
    file under --out. An exit code other than expect stops the bench.
    """
    env = {**os.environ, **(settings or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        out, streams = Path(tmp) / "out", {name: Path(tmp) / name for name in ("stdout", "stderr")}
        out.mkdir()
        with open(streams["stdout"], "w") as stdout, open(streams["stderr"], "w") as stderr:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "tqd3d.cli", "--out", str(out), *argv],
                                     cwd=tree, env=env, stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        code = child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        if code != expect:
            given = "".join(f"{key}={value} " for key, value in (settings or {}).items())
            sys.exit(f"bench: {given}tqd3d {' '.join(argv)} in {tree} exited {code}"
                     f"{f' (not {expect})' if expect else ''}:\n{streams['stderr'].read_text()}")
        files = {**streams, **{f"out/{path.relative_to(out).as_posix()}": path
                               for path in sorted(out.rglob("*")) if path.is_file()}}
        outputs = {"exit_code": code, **{name: output_digest(path) for name, path in files.items()}}
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,  # Linux reports ru_maxrss in KiB
            "outputs": outputs}


def compare_outputs(records: dict) -> dict:
    """identical, differ and rounds_agree of one command from records[side], one per round."""
    entry: dict = {"rounds_agree": {side: all(r == rounds[0] for r in rounds)
                                    for side, rounds in records.items()}}
    if {"this", "against"} <= records.keys():
        this, against = records["this"][0], records["against"][0]
        differ = sorted(key for key in this.keys() | against.keys()
                        if this.get(key) != against.get(key))
        entry = {"identical": not differ, "differ": differ, **entry}
    return entry


def run_setup(tree: Path, call: str) -> float:
    """Seconds of one SETUP_CALLS call in a fresh interpreter of tree, after the import."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(call=call)], cwd=tree,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up {call} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout)


def run_cli_rounds(trees: dict, rounds: int) -> tuple[dict, dict, dict]:
    """Per side, the quartiles of each command's TIMED metrics and of each set-up call,
    and per command and failure command its compare_outputs.

    Each round runs every command, then every failure command, then every
    set-up call, the sides taking turns at going first.
    """
    runs: dict = {side: {name: [] for name in CLI_COMMANDS} for side in trees}
    records: dict = {name: {side: [] for side in trees} for name in {**CLI_COMMANDS,
                                                                     **FAILURE_COMMANDS}}
    setups: dict = {side: {name: [] for name in SETUP_CALLS} for side in trees}
    for k in range(rounds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name, argv in CLI_COMMANDS.items():
            for side in order:
                run = run_cli(trees[side], argv)
                runs[side][name].append(run)
                records[name][side].append(run["outputs"])
                print(f"cli {name} round {k} {side}: wall_s {run['wall_s']:.3f} s, "
                      f"cpu_s {run['cpu_s']:.3f} s, maxrss {run['maxrss_mb']:.1f} MB",
                      file=sys.stderr, flush=True)
        for name, (settings, argv, expect) in FAILURE_COMMANDS.items():
            for side in order:
                records[name][side].append(run_cli(trees[side], argv, settings, expect)["outputs"])
        for name, call in SETUP_CALLS.items():
            for side in order:
                seconds = run_setup(trees[side], call)
                setups[side][name].append(seconds)
                print(f"setup {name} round {k} {side}: {seconds * 1e3:.2f} ms",
                      file=sys.stderr, flush=True)
    cli = {side: {name: {metric: quartiles([run[metric] for run in rows]) for metric in TIMED}
                  for name, rows in by_name.items()}
           for side, by_name in runs.items()}
    setup = {side: {name: {"min": min(samples), **quartiles(samples)}
                    for name, samples in by_name.items()}
             for side, by_name in setups.items()}
    return cli, setup, {name: compare_outputs(by_side) for name, by_side in records.items()}


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
        cli, setup, outputs = run_cli_rounds(trees, args.cli_rounds)
        written["cli"] = {"thread_variables": {name: os.environ.get(name, "unset")
                                               for name in THREAD_VARIABLES},
                          **cli, "outputs": outputs}
        differ = [name for name, entry in outputs.items()
                  if not entry.get("identical", True) or not all(entry["rounds_agree"].values())]
        print(f"cli outputs: {'differ in ' + ', '.join(differ) if differ else 'identical'}",
              file=sys.stderr)
        written["setup_command"] = SETUP_CODE.format(call="CALL")
        written["setup"] = setup
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(written, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
