"""tqd3d benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload sweep-4b --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics (untraced iterations); with `--trace 1` it holds the per-layer metrics
of traced iterations, interleaved with untraced ones to give the tracing
overhead. Every run also writes `.perfbench_out/<workload>/seed<n>-trace<t>/`
(`result.json` with the environment block, plus `spans.npz` when traced).
`--write-spec` rewrites `BENCHMARK.json` from the tables below.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from progress import Progress  # noqa: E402
from workloads import FIDELITY_TOL, WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_SECONDS = 50
SETUP_BATCH = 3  # fresh-interpreter set-ups before each iteration and after the last

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("fidelity_abs_err", "1", "lower", 0.2),
    ("ok_frac", "1", "higher", 0.01),
)

PER_LAYER = (
    ("pulses.amplitudes_calls", "count", "lower"),
    ("pulses.amplitudes_s", "s", "lower"),
    ("pulses.amplitudes_us", "us", "lower"),
    ("model.h_of_t_calls", "count", "lower"),
    ("model.h_of_t_us", "us", "lower"),
    ("model.h_of_t_self_us", "us", "lower"),
    ("model.h_of_t_us.d8_tqd", "us", "lower"),
    ("model.h_of_t_us.d80_tqd-fitted", "us", "lower"),
    ("model.terms_calls", "count", "lower"),
    ("model.terms_s", "s", "lower"),
    ("model.channels_s", "s", "lower"),
    ("hilbert.build_calls", "count", "lower"),
    ("hilbert.build_s", "s", "lower"),
    ("hilbert.state_dim", "count", "lower"),
    ("dynamics.evolve_s", "s", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.step_self_us", "us", "lower"),
    ("dynamics.rhs_evals", "count", "lower"),
    ("dynamics.rhs_flops", "flop", "lower"),
    ("dynamics.rhs_bytes", "B", "lower"),
    ("dynamics.state_bytes", "B", "lower"),
    ("dynamics.dissipator_nnz", "count", "lower"),
    ("dynamics.dissipator_build_s", "s", "lower"),
    ("dynamics.positivity_calls", "count", "lower"),
    ("dynamics.positivity_s", "s", "lower"),
    ("dynamics.positivity_us", "us", "lower"),
    ("dynamics.max_drift", "1", "lower"),
    ("dynamics.min_eigenvalue", "1", "higher"),
    ("experiments.cells", "count", "lower"),
    ("experiments.cell_s_median", "s", "lower"),
    ("experiments.cell_s_max", "s", "lower"),
    ("experiments.cell_overhead_s", "s", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("experiments.write_bytes", "B", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("fidelity.min", "1", "higher"),
    ("fidelity.max", "1", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import tqd3d from this checkout's src/, never from an installed copy."""
    if not (SRC / "tqd3d" / "__init__.py").is_file():
        fail(f"no tqd3d sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import tqd3d

    if Path(tqd3d.__file__).resolve().parent != SRC / "tqd3d":
        fail(f"imported tqd3d from {tqd3d.__file__}, expected {SRC / 'tqd3d'}")
    return tqd3d


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unresolved ({name})"


def environment(tqd3d) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tqd3d": tqd3d.__version__,
        "git_commit": git_commit(),
    }


SETUP_PRELUDE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import tqd3d.cli\n"
    "from tqd3d import dynamics, hilbert, model\n"
)
SETUP_EPILOGUE = "print(time.perf_counter() - t0, tqd3d.__file__)\n"


def measure_setup(workload) -> list[float]:
    """Fresh-interpreter import of tqd3d plus the workload's construction calls."""
    code = SETUP_PRELUDE + workload.setup + SETUP_EPILOGUE
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_BATCH):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"set-up measurement failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "tqd3d":
            fail(f"set-up imported tqd3d from {path}")
        samples.append(float(seconds))
    return samples


def tail_percentile(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if there is one."""
    n = len(samples)
    if n < 11:
        return f"n={n}; a tail percentile needs n >= 11"
    ordered = sorted(samples)
    return f"n={n}; p{100 * (n - 10) / n:.0f} = {ordered[n - 11]:.6g}"


def measure(workload, seconds: float, traced: bool):
    """Closed loop: one iteration at a time until the next would overrun `seconds`.

    Traced runs alternate an untraced and a traced iteration. Every iteration
    records its strides (see progress.py). Untraced runs also time a batch of
    set-ups before each iteration and after the last, so that the set-up
    samples span the whole run, not one phase of a shared host.
    """
    outcome = Outcome()
    plain, traced_runs, setup_samples = Progress(), Progress(), []
    tracer = tracing.Tracer()

    def setup_batch() -> float:
        if traced:
            return 0.0
        t0 = time.perf_counter()
        setup_samples.extend(measure_setup(workload))
        return time.perf_counter() - t0

    start = time.perf_counter()
    while True:
        batch_s = setup_batch()
        with plain.iteration():
            outcome.merge(workload.run())
        if traced:
            tracer.iteration_id = len(traced_runs.walls)
            with traced_runs.iteration(), tracing.instrument(tracer):
                outcome.merge(workload.run())
        per_iteration = batch_s + statistics.median(plain.walls) + (
            statistics.median(traced_runs.walls) if traced else 0.0)
        # A failed operation already makes the run incorrect; stop measuring.
        if outcome.failed or time.perf_counter() - start + per_iteration > seconds:
            break
    setup_batch()
    return outcome, plain, traced_runs, setup_samples, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help=f"write {SPEC_PATH.name} from the tables in this file and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        SPEC_PATH.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if SPEC_PATH.is_file() and json.loads(SPEC_PATH.read_text()) != spec():
        fail(f"{SPEC_PATH.name} differs from the tables in {Path(__file__).name}; "
             "run with --write-spec")

    tqd3d = import_program()
    env = environment(tqd3d)
    workload_cls = WORKLOADS[args.workload]
    out = OUT / workload_cls.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workload_cls(args.seed, out)

    outcome, plain, traced_runs, setup_samples, tracer = measure(
        workload, args.seconds, bool(args.trace))

    units = dict((n, u) for n, u, *_ in END_TO_END + PER_LAYER)
    if args.trace:
        layers = [tracing.layer_metrics(tracer, i) for i in range(len(traced_runs.walls))]
        metrics = {name: statistics.median(it[name] for it in layers)
                   for name in layers[0]}
        metrics["fidelity.min"] = min(outcome.fidelities.values())
        metrics["fidelity.max"] = max(outcome.fidelities.values())
        untraced_s, traced_s = plain.wall_s(), traced_runs.wall_s()
        metrics.update({
            "trace.wall_s": traced_s,
            "trace.untraced_wall_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        })
        tracer.write(out / "spans.npz")
    else:
        metrics = {
            "wall_s": plain.wall_s(),
            "setup_s": min(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fidelity_abs_err": outcome.abs_err,
            "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        }
    expected = [n for n, *_ in (PER_LAYER if args.trace else END_TO_END)]
    if sorted(metrics) != sorted(expected):
        fail(f"metric names {sorted(set(metrics) ^ set(expected))} do not match the spec")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in expected},
    }
    (out / "result.json").write_text(json.dumps({
        **result,
        "workload": {"name": workload_cls.name, "why": workload_cls.why,
                     "seed": args.seed, "inputs": workload.inputs},
        "environment": env,
        "wall_s_samples": plain.walls,
        "strides_per_iteration": [len(it) for it in plain.strides],
        "fastest_stride_s": plain.fastest_stride(),
        "traced_wall_s_samples": traced_runs.walls,
        "traced_fastest_stride_s": traced_runs.fastest_stride(),
        "setup_s_samples": setup_samples,
        "fidelities": outcome.fidelities,
        "reference_tolerance": FIDELITY_TOL,
        "problems": outcome.problems,
    }, indent=1) + "\n")

    print(f"perfbench {workload_cls.name} seed={args.seed} trace={args.trace}: "
          f"{len(plain.walls)} untraced + {len(traced_runs.walls)} traced iterations, "
          f"{outcome.attempted} operations, {outcome.failed} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    for name in expected:
        note = ""
        if name in ("wall_s", "trace.untraced_wall_s", "trace.wall_s"):
            runs = traced_runs if name == "trace.wall_s" else plain
            note = (f"  (at the fastest stride; measured wall median "
                    f"{statistics.median(runs.walls):.6g} s, {tail_percentile(runs.walls)})")
        elif name == "setup_s":
            note = (f"  (fastest of n={len(setup_samples)}; "
                    f"median {statistics.median(setup_samples):.6g} s)")
        print(f"{name} = {metrics[name]:.6g} {units[name]}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
