"""Scenario runners: single runs, parameter sweeps, robustness and decoherence scans.

Each runner is a pure function of its inputs and returns plain data; CSV and
plot-script emission lives in the writer helpers at the bottom.  Sweep cells
are independent work items with results placed by index.  Cells that share a
step schedule run in batches (closed cells as pure states, open cells on the
Liouville support), cut once per schedule and run largest first, whole, by
one or more worker processes (_run_cells).  Each cell gets the same numbers
in any batch, so re-running a scan (with any thread count) reproduces the
output byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dynamics, hilbert, model, pulses
from .dynamics import IntegratorConfig, SimResult
from .model import ModelParams
from .pulses import TAU_FRAC, WIDTH_FRAC, PulseKind, PulseSet, StirapParams

GRID_CAP = 200 * 200
SWEEP_DT = 0.01  # coarser step for sweep cells, which keep only the final fidelity
BATCH_CELLS = 64  # most closed cells integrated as one batch
OPEN_BATCH_CELLS = 32  # most open cells integrated as one batch

# Cavity-QED rate predictions used for the physical benchmark, as fractions of g
# (g, gamma, kappa) = 2*pi*(750, 3.5, 2.62) MHz.
BENCHMARK_GAMMA = 3.5 / 750
BENCHMARK_KAPPA = 2.62 / 750


class GridCapError(ValueError):
    """Requested sweep exceeds the configured cell cap."""


class CellSettingsError(ValueError):
    """A sweep cell whose settings cannot run, named by its axis values."""


@dataclass(frozen=True)
class SweepGrid:
    x_name: str
    x_values: np.ndarray
    values: np.ndarray  # shape (len(x),) or (len(x), len(y))
    y_name: str | None = None
    y_values: np.ndarray | None = None
    annotations: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def default_pulse_set(kind: PulseKind, params: ModelParams | None = None) -> PulseSet:
    """Library-default pulses of one kind (reference fit for TQD_FITTED)."""
    params = params or ModelParams()
    fitted = pulses.default_fitted_pulse() if kind is PulseKind.TQD_FITTED else None
    return PulseSet(kind=kind, stirap=StirapParams(t_f=params.t_f), delta=params.delta,
                    fitted=fitted)


def _initial_state(space: hilbert.HilbertSpace) -> np.ndarray:
    sub = hilbert.build_subspace()
    return space.ket(sub.basis[0])


def simulate_closed(params: ModelParams, pulse_set: PulseSet,
                    cfg: IntegratorConfig = IntegratorConfig()) -> SimResult:
    """Pure-state run on the 8-dim subspace from 0 to params.t_f.

    It runs as a batch of one on simulate_closed_batch's path; its first
    failure (pulse synthesis or norm drift) is raised when the run ends.
    """
    drives = model.CellDrives([(params, pulse_set)])
    return _evolve_closed(drives, _initial_state(hilbert.build_subspace()), params.t_f, cfg)


def simulate_open(params: ModelParams, pulse_set: PulseSet,
                  cfg: IntegratorConfig = IntegratorConfig()) -> SimResult:
    """Master-equation run on the 16 states reachable from |phi_1> (model.open_space).

    The couplings and every collapse operator keep rho inside that space, so
    the run equals one on the full 80-dim product space. It runs as a batch of
    one on the Liouville support (model.open_liouvillian); its first failure
    (pulse synthesis or trace drift) is raised when the run ends.
    """
    drives = model.CellDrives([(params, pulse_set)])
    return _evolve_open(drives, _initial_density(), params.t_f, cfg)


def _initial_density() -> np.ndarray:
    psi0 = _initial_state(model.open_space())
    return np.outer(psi0, psi0.conj())


def _evolve_closed(drives: model.CellDrives, psi0, t_final, cfg) -> SimResult:
    chain = hilbert.build_subspace()
    return dynamics.evolve_schrodinger(
        model.hamiltonian_terms(chain), drives, psi0, t_final, cfg,
        target=dynamics.target_state(chain), reported=drives.errors,
    )


def _evolve_open(drives: model.CellDrives, rho0, t_final, cfg) -> SimResult:
    space = model.open_space()
    return dynamics.evolve_lindblad(
        model.open_liouvillian(),
        model.open_coefficients(drives, [params for params, _ in drives.cells]),
        rho0, t_final, cfg,
        tracked=hilbert.subspace_indices(hilbert.build_subspace(), space),
        target=dynamics.target_state(space), reported=drives.errors,
    )


def simulate_closed_batch(cells: Sequence[tuple[ModelParams, PulseSet]], t_final: float,
                          cfg: IntegratorConfig = IntegratorConfig()) -> list[tuple[float, str]]:
    """Final fidelity and failure note of each (params, pulse_set) closed run to t_final.

    The cells share the step schedule, so they run as one batch on the 8-dim
    subspace. A cell whose pulse synthesis fails or whose norm drifts beyond
    dynamics.NORM_TOL gets NaN and the note simulate_closed's exception would
    give; the other cells run on unaffected. Healthy cells get an empty note.
    """
    drives = model.CellDrives(cells)
    psi0 = np.tile(_initial_state(hilbert.build_subspace()), (len(drives.cells), 1))
    return _outcomes(_evolve_closed(drives, psi0, t_final, cfg))


def simulate_open_batch(cells: Sequence[tuple[ModelParams, PulseSet]], t_final: float,
                        cfg: IntegratorConfig = IntegratorConfig()) -> list[tuple[float, str]]:
    """Final fidelity and failure note of each (params, pulse_set) open run to t_final.

    The cells share the step schedule, so they run as one batch on the
    Liouville support. A cell whose pulse synthesis fails or whose trace
    drifts beyond dynamics.TRACE_TOL gets NaN and the note simulate_open's
    exception would give; the other cells run on unaffected.
    """
    drives = model.CellDrives(cells)
    rho0 = np.tile(_initial_density(), (len(drives.cells), 1, 1))
    return _outcomes(_evolve_open(drives, rho0, t_final, cfg))


def _outcomes(result: SimResult) -> list[tuple[float, str]]:
    """(F, note) of each cell of a batch, the note of its first failure or empty."""
    failures = result.metadata["failures"]
    return [(float("nan"), _note(failures[b])) if b in failures else (float(f), "")
            for b, f in enumerate(result.fidelity[-1])]


def _note(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cells(cells: list, simulate, size: int, threads: int) -> list[tuple[float, str]]:
    """(F, note) of each cell (params, pulse_set, t_final, cfg), by index.

    Cells with the same (t_final, cfg), so the same step schedule, are cut
    once into batches of at most min(size, ceil(len(cells) / threads)), each
    run as simulate([(params, pulse_set), ...], t_final, cfg). The batches
    run largest first by steps x cells, in threads worker processes when
    threads > 1, each of which takes one whole batch at a time. An
    exception, KeyboardInterrupt included, cancels the batches not yet
    started and waits for the workers to end.
    """
    if not cells:
        return []
    cut = min(size, -(-len(cells) // threads))
    schedules: dict = {}
    for i, cell in enumerate(cells):
        schedules.setdefault(cell[2:], []).append(i)
    batches = sorted(((members[first:first + cut], t_final, cfg)
                      for (t_final, cfg), members in schedules.items()
                      for first in range(0, len(members), cut)),
                     key=lambda b: dynamics.step_count(b[1], b[2].dt) * len(b[0]), reverse=True)
    members, t_finals, cfgs = zip(*batches)
    work = ([[cells[i][:2] for i in batch] for batch in members], t_finals, cfgs)
    if threads > 1:
        import signal
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=threads)
        try:
            # SIGINT waits while map forks the workers and starts the pool's
            # thread: there it was lost in a fork handler (exit 0) or left
            # the pool unable to shut down (exit 70, workers left running).
            # The workers and the thread keep it blocked; this thread takes it.
            held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                outcomes = pool.map(simulate, *work)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
            outcomes = list(outcomes)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        outcomes = map(simulate, *work)
    results = [None] * len(cells)
    for batch, outcome in zip(members, outcomes):
        for i, result in zip(batch, outcome):
            results[i] = result
    return results


def _run_grid(cell, simulate, size: int, axes, fixed: dict, threads: int,
              provenance: dict) -> SweepGrid:
    """Final fidelities of the cells cell(**fixed, **point) over the swept axes (_run_cells).

    axes are (column name, cell keyword, values), outermost first. An axis
    given a scalar is held fixed and dropped, so a surface also yields its
    1-D cuts. A cell is (params, pulse_set, t_final, cfg). Every cell is
    built and its dynamics.step_count checked before any cell runs; a
    ValueError from either becomes a CellSettingsError naming the cell's
    axis values, and a StepCapError passes through. Results are placed by
    index, whatever the thread count.
    """
    swept = [(name, key, np.asarray(v)) for name, key, v in axes if np.ndim(v)]
    shape = tuple(values.size for _, _, values in swept)
    if math.prod(shape) > GRID_CAP:
        raise GridCapError(f"grid exceeds {GRID_CAP} cells")
    keys = [key for _, key, _ in axes]
    cells = []
    for pt in itertools.product(*(np.asarray(v) if np.ndim(v) else [v] for _, _, v in axes)):
        point = dict(zip(keys, pt))
        try:
            cells.append(cell(**fixed, **point))
            dynamics.step_count(cells[-1][2], cells[-1][3].dt)
        except dynamics.StepCapError:
            raise
        except ValueError as exc:
            named = ", ".join(f"{key} = {v:g}" if isinstance(v, float) else f"{key} = {v}"
                              for key, v in point.items())
            raise CellSettingsError(f"{named}: {exc}") from exc
    results = _run_cells(cells, simulate, size, threads)
    index = itertools.product(*(range(n) for n in shape))
    (x_name, _, x_values), *rest = swept
    y_name, _, y_values = rest[0] if rest else (None, None, None)
    return SweepGrid(
        x_name=x_name, x_values=x_values, y_name=y_name, y_values=y_values,
        values=np.array([f for f, _ in results]).reshape(shape),
        annotations={ij: note for ij, (_, note) in zip(index, results) if note},
        provenance=provenance,
    )


def _pulse_provenance(pulse_set: PulseSet) -> dict:
    """Pulse kind plus, for a fitted pulse, its terms under their config-key names."""
    info = {"pulse_kind": pulse_set.kind.value}
    for k, term in enumerate(pulse_set.fitted.terms if pulse_set.fitted else (), start=1):
        info.update({f"fit_amp{k}": term.amplitude, f"fit_center{k}": term.center,
                     f"fit_width{k}": term.width})
    return info


def _surface_cell(t_f, delta, omega0, tau_frac, width_frac, cfg):
    params = ModelParams(delta=delta, t_f=t_f)
    stirap = StirapParams.for_duration(t_f, omega0, tau_frac, width_frac)
    ps = PulseSet(PulseKind.TQD_EXACT, stirap, delta=delta)
    return params, ps, t_f, cfg


def run_fidelity_surface(
    t_f_values: np.ndarray | float,
    delta_values: np.ndarray | float,
    omega0: float = StirapParams.omega0,
    cfg: IntegratorConfig = IntegratorConfig(dt=SWEEP_DT),
    threads: int = 1,
    tau_frac: float = TAU_FRAC,
    width_frac: float = WIDTH_FRAC,
) -> SweepGrid:
    """Final fidelity of the exact-pulse detuned model over (t_f, delta).

    The pulse delay and width scale with each cell's t_f. A scalar t_f or
    delta is held fixed, giving the 1-D cut along the other axis.
    """
    return _run_grid(
        _surface_cell, simulate_closed_batch, BATCH_CELLS,
        [("t_f*g", "t_f", t_f_values), ("delta/g", "delta", delta_values)],
        {"omega0": omega0, "tau_frac": tau_frac, "width_frac": width_frac, "cfg": cfg},
        threads,
        provenance={"pulse_kind": PulseKind.TQD_EXACT.value, "omega0": omega0,
                    "tau_frac": tau_frac, "width_frac": width_frac, "dt": cfg.dt},
    )


ROBUSTNESS_PARAMETERS = ("t_f", "g", "delta", "amplitude")


def _robustness_cell(deviation, parameter, params, pulse_set, cfg):
    if abs(deviation) > 0.5:
        raise ValueError(f"relative deviation {deviation:g} outside +-0.5")
    run_params, run_pulse, t_final = params, pulse_set, params.t_f
    if parameter == "t_f":
        t_final = params.t_f * (1 + deviation)
    elif parameter == "g":
        run_params = replace(params, g=params.g * (1 + deviation))
    elif parameter == "delta":
        run_params = replace(params, delta=params.delta * (1 + deviation))
    elif parameter == "amplitude":
        run_pulse = replace(pulse_set, fitted=pulse_set.fitted.scaled(1 + deviation))
    return run_params, run_pulse, t_final, cfg


def run_robustness_scan(
    deviations: np.ndarray,
    params: ModelParams | None = None,
    cfg: IntegratorConfig = IntegratorConfig(dt=SWEEP_DT),
    pulse_set: PulseSet | None = None,
    threads: int = 1,
) -> SweepGrid:
    """Final fidelity vs relative deviation of each ROBUSTNESS_PARAMETERS entry in turn.

    The fitted pulse (default: the reference fit) stays as designed; only the
    actual system parameter (or, for "amplitude", both Gaussian amplitudes
    jointly) takes the deviated value. Rows are deviations, columns parameters.
    """
    params = params or ModelParams()
    pulse_set = pulse_set or default_pulse_set(PulseKind.TQD_FITTED, params)
    return _run_grid(
        _robustness_cell, simulate_closed_batch, BATCH_CELLS,
        [("deviation", "deviation", np.asarray(deviations, dtype=float)),
         ("parameter", "parameter", np.array(ROBUSTNESS_PARAMETERS))],
        {"params": params, "pulse_set": pulse_set, "cfg": cfg},
        threads,
        provenance={**_pulse_provenance(pulse_set), "delta": params.delta,
                    "t_f": params.t_f, "dt": cfg.dt},
    )


def _decoherence_cell(kappa, gamma, params, pulse_set, cfg):
    return replace(params, kappa=kappa, gamma=gamma), pulse_set, params.t_f, cfg


def run_decoherence_surface(
    kappa_values: np.ndarray,
    gamma_values: np.ndarray,
    params: ModelParams | None = None,
    cfg: IntegratorConfig = IntegratorConfig(dt=SWEEP_DT),
    threads: int = 1,
    pulse_set: PulseSet | None = None,
) -> SweepGrid:
    """Open-system final fidelity over the (kappa, gamma) grid.

    pulse_set defaults to the reference fitted pulse.
    """
    params = params or ModelParams()
    pulse_set = pulse_set or default_pulse_set(PulseKind.TQD_FITTED, params)
    return _run_grid(
        _decoherence_cell, simulate_open_batch, OPEN_BATCH_CELLS,
        [("kappa/g", "kappa", kappa_values), ("gamma/g", "gamma", gamma_values)],
        {"params": params, "pulse_set": pulse_set, "cfg": cfg},
        threads,
        provenance={**_pulse_provenance(pulse_set), "delta": params.delta,
                    "t_f": params.t_f, "dt": cfg.dt},
    )


# ---------------------------------------------------------------------------
# output writers


def write_csv(path: Path, header: list[str], rows, provenance: dict | None = None):
    """Provenance lines, the header and one line of len(header) "%.12g" fields per row."""
    provenance = provenance or {}
    lines = [f"# {key} = {provenance[key]}" for key in sorted(provenance)]
    lines.append(",".join(header))
    row_format = ",".join(["%.12g"] * len(header))
    lines.extend(row_format % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_sim_result(path: Path, result: SimResult, provenance: dict | None = None):
    n_tracked = result.populations.shape[1] - 1
    header = ["t*g"] + [f"P_phi{i + 1}" for i in range(n_tracked)] + ["P_leaked", "F"]
    rows = np.column_stack([result.times, result.populations, result.fidelity]).tolist()
    write_csv(path, header, rows, provenance)


def write_sweep_grid(path: Path, grid: SweepGrid):
    """One row per x; a numeric y axis is written long (x, y, F), a named one wide (F_<y>)."""
    prov = dict(grid.provenance)
    if grid.y_values is None:
        header = [grid.x_name, "F"]
        rows = [[x, f] for x, f in zip(grid.x_values, grid.values)]
    elif grid.y_values.dtype.kind == "U":
        header = [grid.x_name] + [f"F_{y}" for y in grid.y_values]
        rows = [[x, *fs] for x, fs in zip(grid.x_values, grid.values)]
    else:
        header = [grid.x_name, grid.y_name, "F"]
        rows = [
            [x, y, grid.values[i, j]]
            for i, x in enumerate(grid.x_values)
            for j, y in enumerate(grid.y_values)
        ]
    for idx, note in sorted(grid.annotations.items()):
        prov[f"cell_{'_'.join(map(str, idx))}_error"] = note
    write_csv(path, header, rows, prov)


def write_plot_script(path: Path, csv_name: str, title: str, mode: str = "lines",
                      columns: tuple[int, ...] = (1, 2), labels: tuple[str, ...] = ()):
    """Minimal gnuplot script next to a CSV."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key outside",
    ]
    if mode == "map":
        lines += [
            "set view map",
            f"splot '{csv_name}' using 1:2:3 with points palette pointtype 5 title 'F'",
        ]
    else:
        plots = []
        for idx, col in enumerate(columns[1:], start=0):
            label = labels[idx] if idx < len(labels) else f"col{col}"
            plots.append(f"'{csv_name}' using {columns[0]}:{col} with lines title '{label}'")
        lines.append("plot " + ", \\\n     ".join(plots))
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path: Path, entries: dict):
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    Path(path).write_text("\n".join(lines) + "\n")
