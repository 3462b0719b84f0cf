"""The benchmark workloads: inputs from the seed, one iteration through
`tqd3d.cli.main` in-process, and checks of the CSVs the CLI writes.

Every workload is a closed loop with one caller: the next CLI call starts when
the previous one has returned. Each uses `threads = 1`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())
FIDELITY_TOL = REFERENCES["tolerance"]

# Cavity-QED rates of the paper's physical benchmark, in units of g:
# (g, gamma, kappa) = 2*pi*(750, 3.5, 2.62) MHz.
BENCHMARK_KAPPA = 2.62 / 750
BENCHMARK_GAMMA = 3.5 / 750

# Inputs shared by every workload, pinned here so a later change of a CLI
# default does not silently change what is measured.
BASE_CONFIG = {
    "delta": 3.6, "t_f": 50.0, "omega0": 0.35, "dt": 0.002, "record_every": 50,
    "sweep_dt": 0.01, "threads": 1,
}


@dataclass
class Outcome:
    """Failure accounting and final fidelities of one or more iterations."""

    attempted: int = 0
    failed: int = 0
    abs_err: float = 0.0
    fidelities: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def check(self, label: str, value: float, reference: float):
        """One operation: F must be finite, in [0, 1] and within tolerance of reference."""
        self.attempted += 1
        self.fidelities[label] = value
        finite = math.isfinite(value) and 0.0 <= value <= 1.0
        err = abs(value - reference) if finite else 1.0
        self.abs_err = max(self.abs_err, err)
        if err > FIDELITY_TOL or not finite:
            self.failed += 1
            self.problems.append(f"{label}: F={value!r}, reference {reference!r}")

    def fail(self, label: str, count: int, reason: str):
        self.attempted += count
        self.failed += count
        self.abs_err = 1.0
        self.problems.append(f"{label}: {reason}")

    def merge(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.abs_err = max(self.abs_err, other.abs_err)
        self.fidelities.update(other.fidelities)
        self.problems += other.problems


def write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run tqd3d.cli.main in-process; return (exit code or None on exception, stderr)."""
    from tqd3d import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught exception is a failed operation, not a crash
            return None, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


def read_rows(path: Path) -> list[list[float]]:
    """Data rows of a CLI CSV (provenance '#' lines and the header skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def _run_cli(argv, outcome: Outcome, label: str, count: int) -> bool:
    code, err = call_cli(argv)
    if code != 0:
        outcome.fail(label, count, f"exit code {code}: {err.strip()[-500:]}")
        print(f"{label}: exit code {code}\n{err}", file=sys.stderr)
    return code == 0


class Sweep4b:
    """`tqd3d sweep --figure 4b`: 39 detuning cells; the seed shifts the detuning window."""

    name = "sweep-4b"
    why = ("39 short independent closed-system runs that keep only the final fidelity; "
           "per-cell set-up and per-step Python overhead, the target of batched sweeps")
    setup = "sub = hilbert.build_subspace()\nmodel.hamiltonian_terms(sub)\n"
    cells = 39

    def __init__(self, seed: int, out: Path):
        lattice = REFERENCES["sweep_4b"]
        self.delta0, self.step = lattice["delta0"], lattice["step"]
        self.references = lattice["values"]
        # Seed 0 is the figure's own grid 0.5:10:39; other seeds slide a
        # 39-cell window along the recorded lattice, so every cell has a reference.
        windows = len(self.references) - self.cells + 1
        self.offset = 0 if seed == 0 else random.Random(seed).randrange(1, windows)
        lo = self.delta0 + self.step * self.offset
        hi = lo + self.step * (self.cells - 1)
        self.out = out
        self.inputs = {**BASE_CONFIG, "surface_delta": f"{lo}:{hi}:{self.cells}"}
        self.config = write_config(out / "sweep.cfg", self.inputs)

    def run(self) -> Outcome:
        outcome = Outcome()
        csv = self.out / "fidelity_vs_delta.csv"
        csv.unlink(missing_ok=True)
        argv = ["--config", self.config, "--out", str(self.out),
                "sweep", "--figure", "4b", "--threads", "1"]
        if not _run_cli(argv, outcome, "sweep", self.cells):
            return outcome
        rows = read_rows(csv)
        for j in range(self.cells):
            k = self.offset + j
            delta = self.delta0 + self.step * k
            label = f"delta={delta:g}"
            if j >= len(rows) or abs(rows[j][0] - delta) > 1e-9:
                outcome.fail(label, 1, "cell missing from the CSV")
                continue
            # A cell the sweep annotated (caught exception) is written as nan.
            outcome.check(label, rows[j][1], self.references[k])
        return outcome


class OpenBenchmark:
    """`tqd3d simulate --open --method tqd-fitted` at the paper's cavity-QED rates."""

    name = "open-benchmark"
    why = ("the headline decoherence number: 80-dim Lindblad RK4 with the dissipator "
           "and positivity check; the fixed paper point, so the seed is unused")
    setup = (
        "from tqd3d.model import ModelParams\n"
        "full = hilbert.build_full_space()\n"
        "hilbert.build_subspace()\n"
        "model.hamiltonian_terms(full)\n"
        f"channels = model.collapse_channels(ModelParams(kappa={BENCHMARK_KAPPA!r}, "
        f"gamma={BENCHMARK_GAMMA!r}), full)\n"
        "dynamics.dissipator_superoperator(channels, full.dim)\n"
    )

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.inputs = {**BASE_CONFIG, "kappa": BENCHMARK_KAPPA, "gamma": BENCHMARK_GAMMA}
        self.config = write_config(out / "open.cfg", self.inputs)

    def run(self) -> Outcome:
        outcome = Outcome()
        csv = self.out / "simulate_tqd-fitted_open.csv"
        csv.unlink(missing_ok=True)
        argv = ["--config", self.config, "--out", str(self.out),
                "simulate", "--open", "--method", "tqd-fitted"]
        if _run_cli(argv, outcome, "open", 1):
            outcome.check("open", read_rows(csv)[-1][-1], REFERENCES["open"])
        return outcome


WORKLOADS = {w.name: w for w in (Sweep4b, OpenBenchmark)}
