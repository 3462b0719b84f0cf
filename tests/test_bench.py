"""tools/bench.py's aggregation, on made-up perfbench result.json data (no perfbench run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

BETTER = {"wall_s": "lower", "ok_frac": "higher", "wall_median_s": "lower"}


def _write_result(path: Path, wall_s: float, samples: list, ok_frac: float = 1.0,
                  commit: str = "abc") -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "correct": ok_frac == 1.0, "attempted": 4, "failed": round(4 * (1 - ok_frac)),
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "setup_s": {"value": 0.25, "unit": "s"},
                    "peak_rss_mb": {"value": 57.5, "unit": "MB"},
                    "fidelity_abs_err": {"value": 5e-11, "unit": "1"},
                    "ok_frac": {"value": ok_frac, "unit": "1"}},
        "environment": {"nproc": 2, "git_commit": commit},
        "wall_s_samples": samples,
    }))
    return path


def test_read_run_adds_the_median_of_the_raw_samples(tmp_path):
    run = bench.read_run(_write_result(tmp_path / "result.json", 0.05, [0.5, 0.25, 3.0, 0.75]))
    assert run["metrics"] == {"wall_s": 0.05, "setup_s": 0.25, "peak_rss_mb": 57.5,
                              "fidelity_abs_err": 5e-11, "ok_frac": 1.0,
                              "wall_median_s": 0.625}
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 4, 0)
    assert run["environment"]["git_commit"] == "abc"


def test_quartiles():
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0,
                                                          "n": 5}
    assert bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0, "n": 1}


def _run(workload, seed, side, wall, ok=1.0):
    return {"workload": workload, "seed": seed, "side": side,
            "metrics": {"wall_s": wall, "ok_frac": ok, "wall_median_s": 2 * wall}}


def test_summarize_pairs_by_seed():
    runs = [_run("w", 1, "this", 1.0), _run("w", 1, "against", 2.0),
            _run("w", 2, "against", 4.0, ok=0.5), _run("w", 2, "this", 2.0),
            _run("w", 3, "this", 3.0), _run("w", 3, "against", 3.0),
            _run("v", 1, "this", 5.0)]
    summary = bench.summarize(runs, BETTER, {})
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert w["this"]["wall_s"] == {"q1": 1.5, "median": 2.0, "q3": 2.5, "n": 3}
    assert w["against"]["wall_median_s"]["median"] == 6.0
    assert w["pairs"]["wall_s"] == {"ratios": [0.5, 0.5, 1.0], "this_won": 2,
                                    "against_won": 0, "pairs": 3}
    # higher is better: 1.0 against 0.5 is a win for this side, a tie for neither
    assert w["pairs"]["ok_frac"] == {"ratios": [1.0, 2.0, 1.0], "this_won": 1,
                                     "against_won": 0, "pairs": 3}
    assert "pairs" not in summary["v"] and list(summary["v"]) == ["this"]


def test_within_bound_compares_medians_in_the_better_direction():
    # medians: this wall_s 2.5 against 2.0 (25 % worse), ok_frac 0.75 against 1.0
    runs = [_run("w", seed, "this", wall, ok) for seed, wall, ok in
            ((1, 1.0, 0.75), (2, 2.5, 0.75), (3, 3.0, 1.0))]
    runs += [_run("w", seed, "against", wall) for seed, wall in ((1, 2.0), (2, 2.0), (3, 9.0))]
    runs += [_run("v", 1, "this", 1.0), _run("v", 1, "against", 1.0)]
    runs += [_run("u", 1, "this", 1.0)]  # one side: no comparison
    at_edge = {"wall_s": 0.25, "ok_frac": 0.25}
    summary = bench.summarize(runs, BETTER, at_edge)
    assert summary["w"]["within_bound"] == {"wall_s": True, "ok_frac": True}
    assert "within_bound" not in summary["u"]
    summary = bench.summarize(runs, BETTER, {"wall_s": 0.2, "ok_frac": 0.2})
    assert summary["w"]["within_bound"] == {"wall_s": False, "ok_frac": False}
    assert summary["v"]["within_bound"] == {"wall_s": True, "ok_frac": True}
    assert bench.bound_lines(summary) == ["w: outside the bound: wall_s, ok_frac",
                                          "v: every metric within its bound"]
    # better the other way: a lower wall_s is never outside, a higher ok_frac neither
    better = dict(BETTER, wall_s="higher", ok_frac="lower")
    assert bench.summarize(runs, better, {"wall_s": 0.0, "ok_frac": 0.0})["w"][
        "within_bound"] == {"wall_s": True, "ok_frac": True}


def test_main_alternates_the_trees_and_writes_the_file(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_perfbench(tree, workload, seed, seconds):
        side = "against" if tree == tmp_path.resolve() else "this"
        calls.append((seed, workload, side))
        wall = 0.1 * seed if side == "this" else 0.2 * seed
        path = tmp_path / "runs" / f"{side}-{workload}-{seed}.json"
        return bench.read_run(_write_result(path, wall, [wall, 2 * wall], commit=side))

    monkeypatch.setattr(bench, "run_perfbench", fake_perfbench)
    argv = ["--label", "t", "--seeds", "1", "2", "--seconds", "3",
            "--against", str(tmp_path), "--out", str(tmp_path)]
    assert bench.main(argv) == 0
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    a, b = [w["name"] for w in spec["workloads"]]
    assert calls == [(1, a, "this"), (1, a, "against"), (1, b, "this"), (1, b, "against"),
                     (2, a, "against"), (2, a, "this"), (2, b, "against"), (2, b, "this")]
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["environment"] == {
        side: {"nproc": 2, "git_commit": side, "source_sha256": bench.source_sha256(tree),
               "src_lines": bench.source_lines(tree), "git_dirty": bench.git_dirty(tree)}
        for side, tree in (("this", bench.ROOT), ("against", tmp_path))}
    assert len(out["runs"]) == 8 and "environment" not in out["runs"][0]
    pairs = out["summary"][a]["pairs"]
    assert pairs["wall_s"]["ratios"] == [pytest.approx(0.5), pytest.approx(0.5)]
    assert pairs["wall_median_s"]["this_won"] == 2
    assert set(out["summary"][b]["this"]) == {"wall_s", "setup_s", "peak_rss_mb",
                                                "fidelity_abs_err", "ok_frac", "wall_median_s"}
    # every end-to-end metric but wall_median_s has a bound; this side's runs are faster
    assert out["summary"][a]["within_bound"] == dict.fromkeys(
        ["wall_s", "setup_s", "peak_rss_mb", "fidelity_abs_err", "ok_frac"], True)
    assert capsys.readouterr().err.splitlines()[-2:] == [
        f"{a}: every metric within its bound", f"{b}: every metric within its bound"]
    assert "cli" not in out  # --cli-rounds 0 runs no command


def test_cli_rounds_alternate_the_trees_and_write_quartiles(tmp_path, monkeypatch):
    calls = []

    def fake_perfbench(tree, workload, seed, seconds):
        path = tmp_path / "runs" / f"{tree.name}-{workload}-{seed}.json"
        return bench.read_run(_write_result(path, 0.1, [0.1]))

    def fake_cli(tree, argv):
        side = "against" if tree == tmp_path.resolve() else "this"
        calls.append((" ".join(argv), side))
        scale = (1.0 if side == "this" else 2.0) * len(calls)
        return {"wall_s": scale, "cpu_s": 0.5 * scale, "maxrss_mb": 40.0}

    def fake_setup(tree, call):
        side = "against" if tree == tmp_path.resolve() else "this"
        calls.append((call, side))
        return len(calls) / 1000

    monkeypatch.setattr(bench, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(bench, "run_cli", fake_cli)
    monkeypatch.setattr(bench, "run_setup", fake_setup)
    assert bench.main(["--label", "c", "--seeds", "1", "--cli-rounds", "3",
                       "--against", str(tmp_path), "--out", str(tmp_path)]) == 0
    commands = [" ".join(argv) for argv in bench.CLI_COMMANDS.values()]
    assert commands == ["pulses", "simulate --method stirap", "simulate --method tqd",
                        "simulate --method tqd-fitted", "simulate --open --method stirap",
                        "simulate --open --method tqd", "simulate --open --method tqd-fitted",
                        "sweep --figure 4a --threads 1", "sweep --figure 4a --threads 2",
                        "sweep --figure 4b", "sweep --figure 4b --threads 2",
                        "sweep --figure 4c", "sweep --figure 4c --threads 2",
                        "sweep --figure 8", "sweep --figure 8 --threads 2",
                        "sweep --figure 9 --threads 1", "sweep --figure 9 --threads 2", "verify"]
    setups = list(bench.SETUP_CALLS.values())
    assert setups == ["model.open_liouvillian()",
                      "model.hamiltonian_terms(hilbert.build_subspace())"]
    first, second = ("this", "against"), ("against", "this")
    assert calls == [(command, side) for order in (first, second, first)
                     for command in commands + setups for side in order]
    out = json.loads((tmp_path / "BENCH_c.json").read_text())
    assert out["cli_rounds"] == 3 and set(out["cli"]) == {"thread_variables", "this", "against"}
    # pulses ran as calls 1, 42 and 81 on this side, verify as 36, 75 and 116 on the other
    assert out["cli"]["this"]["pulses"] == {
        "wall_s": bench.quartiles([1.0, 42.0, 81.0]),
        "cpu_s": bench.quartiles([0.5, 21.0, 40.5]),
        "maxrss_mb": bench.quartiles([40.0] * 3)}
    assert out["cli"]["against"]["verify"]["wall_s"]["median"] == 2.0 * 75
    # the set-up calls follow each round's commands: the open Liouvillian as calls
    # 37, 78 and 117 on this side, the chain's terms as 40, 79 and 120 on the other
    assert set(out["setup"]) == {"this", "against"}
    assert set(out["setup"]["this"]) == {"open_liouvillian", "chain_terms"}
    assert out["setup"]["this"]["open_liouvillian"] == {
        "min": 0.037, **bench.quartiles([0.037, 0.078, 0.117])}
    assert out["setup"]["against"]["chain_terms"] == {
        "min": 0.04, **bench.quartiles([0.04, 0.079, 0.12])}
    assert set(out["setup"]["against"]["chain_terms"]) == {"min", "q1", "median", "q3", "n"}
    assert "{call}" not in out["setup_command"] and "import tqd3d.cli" in out["setup_command"]


def test_cli_rounds_record_the_blas_threads_their_commands_inherit(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    seen = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "unset"}
    # The child checks what it inherited, so a recorded value is one the commands ran with.
    tree = _cli_tree(tmp_path / "tree", (
        "import os, sys\n"
        f"want = {seen!r}\n"
        "got = {name: os.environ.get(name, 'unset') for name in want}\n"
        "sys.exit(0 if got == want else f'inherited {got}')\n"))
    monkeypatch.setattr(bench, "CLI_COMMANDS", {"pulses": ["pulses"]})
    monkeypatch.setattr(bench, "SETUP_CALLS", {})
    monkeypatch.setattr(bench, "run_perfbench", lambda tree, workload, seed, seconds:
                        bench.read_run(_write_result(tmp_path / f"{workload}.json", 0.1, [0.1])))
    monkeypatch.setattr(bench, "ROOT", tree)
    (tree / "BENCHMARK.json").write_bytes((_PATH.parents[1] / "BENCHMARK.json").read_bytes())
    assert bench.main(["--label", "b", "--cli-rounds", "1", "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "BENCH_b.json").read_text())
    assert out["cli"]["thread_variables"] == seen
    assert list(out["cli"]["this"]) == ["pulses"]


def _cli_tree(root: Path, body: str) -> Path:
    (root / "src" / "tqd3d").mkdir(parents=True)
    (root / "src" / "tqd3d" / "__init__.py").write_text("")
    (root / "src" / "tqd3d" / "cli.py").write_text(body)
    return root


def test_run_cli_measures_its_child(tmp_path):
    tree = _cli_tree(tmp_path / "busy", (
        "import sys, time\n"
        "assert sys.argv[1] == '--out' and sys.argv[3:] == ['sweep', '--figure', '4b']\n"
        "data = bytearray(64 << 20)  # 64 MiB, touched\n"
        "start = time.process_time()\n"
        "while time.process_time() - start < 0.2:\n"
        "    pass\n"))
    run = bench.run_cli(tree, ["sweep", "--figure", "4b"])
    assert run["wall_s"] >= run["cpu_s"] >= 0.2
    assert run["maxrss_mb"] > 64
    failing = _cli_tree(tmp_path / "failing", "import sys\nsys.exit('no such figure')\n")
    with pytest.raises(SystemExit, match="tqd3d pulses in .* exited 1:\nno such figure"):
        bench.run_cli(failing, ["pulses"])


def test_run_setup_times_the_call_after_the_import_with_blas_on_one_thread(tmp_path):
    tree = _cli_tree(tmp_path / "tree", "import time\ntime.sleep(0.3)  # a slow import\n")
    (tree / "src" / "tqd3d" / "hilbert.py").write_text("")
    (tree / "src" / "tqd3d" / "model.py").write_text(
        "import os, time\n"
        "def build(seconds):\n"
        "    assert all(os.environ[name] == '1' for name in "
        f"{bench.THREAD_VARIABLES!r})\n"
        "    time.sleep(seconds)\n")
    seconds = bench.run_setup(tree, "model.build(0.05)")
    assert 0.05 <= seconds < 0.3  # the call, not the import
    with pytest.raises(SystemExit, match="set-up model.missing\\(\\) in .* exited 1"):
        bench.run_setup(tree, "model.missing()")


def _tree(root: Path, source: bytes) -> Path:
    """A source tree with BENCHMARK.json, two modules under src/ and a file outside it."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_bytes(b"")
    (root / "src" / "pkg" / "model.py").write_bytes(source)
    (root / "README.md").write_text(str(root))  # differs between trees, not a source
    (root / "BENCHMARK.json").write_bytes((_PATH.parents[1] / "BENCHMARK.json").read_bytes())
    return root


def test_each_side_names_the_sources_it_ran(tmp_path, monkeypatch):
    this, other = _tree(tmp_path / "this", b"x = 1\n"), _tree(tmp_path / "other", b"x = 1\n")
    assert bench.source_sha256(this) == bench.source_sha256(other)
    (other / "src" / "pkg" / "model.py").write_bytes(b"x = 2\n")  # one byte changed
    assert bench.source_sha256(this) != bench.source_sha256(other)

    def fake_perfbench(tree, workload, seed, seconds):
        path = tmp_path / "runs" / f"{tree.name}-{workload}-{seed}.json"
        return bench.read_run(_write_result(path, 0.1, [0.1], commit="unavailable"))

    monkeypatch.setattr(bench, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(bench, "ROOT", this)
    assert bench.main(["--label", "s", "--against", str(other), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "BENCH_s.json").read_text())
    for side, tree in (("this", this), ("against", other)):
        assert out["environment"][side] == {
            "nproc": 2, "git_commit": "unavailable", "source_sha256": bench.source_sha256(tree),
            "src_lines": 1, "git_dirty": "unavailable"}  # neither tree is a git checkout
