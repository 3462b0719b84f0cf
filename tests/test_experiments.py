import functools
import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tqd3d import dynamics, experiments, hilbert, model, pulses
from tqd3d.dynamics import IntegratorConfig, IntegratorInstabilityError
from tqd3d.experiments import GridCapError, SweepGrid
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind, PulseSet, PulseSynthesisError, StirapParams

COARSE = IntegratorConfig(dt=0.01)


@pytest.fixture(scope="module")
def comparison():
    kinds = {"stirap": PulseKind.STIRAP, "tqd": PulseKind.TQD_EXACT,
             "tqd_fitted": PulseKind.TQD_FITTED}
    return {
        name: experiments.simulate_closed(
            ModelParams(), experiments.default_pulse_set(kind), COARSE)
        for name, kind in kinds.items()
    }


@pytest.fixture(scope="module")
def trace(comparison):
    return comparison["tqd_fitted"]


def test_population_trace_boundaries(trace):
    assert trace.populations[0, 0] == pytest.approx(1.0, abs=1e-12)
    final = trace.populations[-1]
    for idx in (0, 6, 7):
        assert abs(final[idx] - 1 / 3) < 0.02
    assert abs(final[6] - final[7]) < 1e-6


def test_population_trace_intermediates_small(trace):
    # excited and photonic chain states phi_2..phi_6 stay weakly populated
    assert np.max(trace.populations[:, 1:6]) < 0.1


def test_method_comparison_ordering(comparison):
    f_stirap = comparison["stirap"].final_fidelity
    f_exact = comparison["tqd"].final_fidelity
    f_fitted = comparison["tqd_fitted"].final_fidelity
    assert f_exact > 0.99
    assert f_fitted > 0.99
    assert f_stirap < f_fitted
    assert abs(f_exact - f_fitted) < 0.01


def test_method_comparison_initial_fidelity(comparison):
    # |phi_1> already carries 1/3 of the target
    for result in comparison.values():
        assert result.fidelity[0] == pytest.approx(1 / 3, abs=1e-12)


def test_fidelity_surface_cells():
    grid = experiments.run_fidelity_surface(
        np.array([5.0, 50.0]), np.array([3.6, 50.0]), cfg=COARSE
    )
    assert isinstance(grid, SweepGrid)
    assert grid.values.shape == (2, 2)
    assert grid.annotations == {}
    assert grid.values[1, 0] >= 0.99  # operating point (t_f=50, delta=3.6)
    assert grid.values[0, 0] < 0.9  # too fast
    assert grid.values[1, 1] < grid.values[1, 0]  # over-detuned


def test_fidelity_surface_threads_match():
    tf = np.array([30.0, 50.0])
    dl = np.array([3.6])
    serial = experiments.run_fidelity_surface(tf, dl, cfg=IntegratorConfig(dt=0.02), threads=1)
    parallel = experiments.run_fidelity_surface(tf, dl, cfg=IntegratorConfig(dt=0.02), threads=2)
    assert np.array_equal(serial.values, parallel.values)


def _batch_identities(calls, batch, t_final, cfg):
    """A stand-in simulate: each cell's own number as F, and its batch as the note.

    calls gets (t_final, cell numbers) of each batch run in this process.
    """
    numbers = [i for i, _ in batch]
    calls.append((t_final, numbers))
    return [(float(i), f"{t_final:g}: {numbers}") for i in numbers]


@pytest.mark.parametrize("threads, size", [(1, 3), (2, 3), (1, 64), (2, 64)])
def test_run_cells_places_results_by_index(threads, size):
    # Four schedules of 1-8 cells, whose batches run largest first by steps x
    # cells: not in the order of their first cells.
    cfg = IntegratorConfig(dt=1.0)
    t_finals = [2.0, 9.0, 2.0, 5.0, 9.0, 9.0, 1.0, 9.0, 5.0, 9.0, 2.0, 9.0, 9.0, 9.0]
    cells = [(i, None, t, cfg) for i, t in enumerate(t_finals)]
    calls = []
    results = experiments._run_cells(cells, functools.partial(_batch_identities, calls), size,
                                     threads)
    assert [f for f, _ in results] == list(range(len(cells)))
    cut = min(size, math.ceil(len(cells) / threads))  # 3, 3, 14 and 7 cells
    batch_of = {}  # each schedule's cells, in order, cut once
    for t in dict.fromkeys(t_finals):
        members = [i for i, tf in enumerate(t_finals) if tf == t]
        for first in range(0, len(members), cut):
            batch_of.update(dict.fromkeys(members[first:first + cut],
                                          f"{t:g}: {members[first:first + cut]}"))
    assert [note for _, note in results] == [batch_of[i] for i in range(len(cells))]
    if threads == 1:  # the batches ran here, in this order
        assert sorted(i for _, numbers in calls for i in numbers) == list(range(len(cells)))
        costs = [t * len(numbers) for t, numbers in calls]
        assert costs == sorted(costs, reverse=True) and calls[0][0] == 9.0


def test_run_cells_of_no_cell():
    assert experiments._run_cells([], functools.partial(_batch_identities, []), 64, 2) == []


def test_grid_cap():
    big = np.linspace(0, 1, 300)
    with pytest.raises(GridCapError):
        experiments.run_fidelity_surface(big, big)
    with pytest.raises(GridCapError):
        experiments.run_decoherence_surface(big, big)


def test_robustness_scan():
    devs = np.array([-0.1, 0.0, 0.1])
    scan = experiments.run_robustness_scan(devs, cfg=COARSE)
    assert scan.annotations == {}
    out = dict(zip(scan.y_values, scan.values.T))
    baseline = experiments.simulate_closed(
        ModelParams(), experiments.default_pulse_set(PulseKind.TQD_FITTED), COARSE
    ).final_fidelity
    for name in experiments.ROBUSTNESS_PARAMETERS:
        assert out[name][1] == pytest.approx(baseline, abs=1e-9)
        assert np.all(out[name] > 0.9)
    # amplitude errors keep the protocol well above 0.95
    assert np.all(out["amplitude"] >= 0.95)
    # timing and coupling errors bite less than detuning errors at +10%
    worst_insensitive = min(out["t_f"][2], out["g"][2])
    assert worst_insensitive >= out["delta"][2] - 1e-9


def test_sweep_runners_default_to_the_sweep_step():
    # One source for a sweep's step: the README's and the CLI's sweep_dt.
    for runner in (experiments.run_fidelity_surface, experiments.run_robustness_scan,
                   experiments.run_decoherence_surface):
        assert inspect.signature(runner).parameters["cfg"].default.dt == experiments.SWEEP_DT


def test_robustness_validation():
    with pytest.raises(ValueError):
        experiments.run_robustness_scan(np.array([0.6]))


@pytest.fixture
def no_cell_runs(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a cell ran although a cell of its grid cannot run")

    monkeypatch.setattr(experiments, "_run_cells", no_work)


@pytest.mark.parametrize("sweep, message", [
    (lambda: experiments.run_fidelity_surface(np.array([50.0, -10.0]), 3.6),
     "t_f = -10, delta = 3.6: t_f must be positive and finite"),
    (lambda: experiments.run_robustness_scan(np.array([0.0, 0.6])),
     "deviation = 0.6, parameter = t_f: relative deviation 0.6 outside +-0.5"),
    (lambda: experiments.run_robustness_scan(np.array([0.0, -0.5]),
                                             cfg=IntegratorConfig(dt=60.0)),
     "deviation = -0.5, parameter = t_f: t_f = 25 makes no step of dt = 60"),
    (lambda: experiments.run_decoherence_surface(np.array([0.0, -0.1]), np.array([0.0])),
     "kappa = -0.1, gamma = 0: decay rates must be nonnegative and finite"),
], ids=["negative_tf", "deviation", "tf_deviation_without_a_step", "negative_kappa"])
def test_cell_that_cannot_run_stops_its_sweep_before_any_cell(no_cell_runs, sweep, message):
    with pytest.raises(experiments.CellSettingsError) as raised:
        sweep()
    assert str(raised.value) == message


def test_capped_cell_stops_its_sweep_before_any_cell(no_cell_runs):
    with pytest.raises(dynamics.StepCapError, match="t_f = 1e\\+09 takes more than") as raised:
        experiments.run_fidelity_surface(np.array([50.0, 1e9]), 3.6)
    assert not isinstance(raised.value, experiments.CellSettingsError)


def test_decoherence_surface_small_grid():
    grid = experiments.run_decoherence_surface(
        np.array([0.0, 0.02]), np.array([0.0, 0.02]), cfg=IntegratorConfig(dt=0.02)
    )
    assert grid.values.shape == (2, 2)
    closed = experiments.simulate_closed(
        ModelParams(),
        experiments.default_pulse_set(PulseKind.TQD_FITTED),
        IntegratorConfig(dt=0.02),
    ).final_fidelity
    assert grid.values[0, 0] == pytest.approx(closed, abs=1e-6)
    # fidelity never improves when either rate grows
    assert np.all(np.diff(grid.values, axis=0) <= 1e-9)
    assert np.all(np.diff(grid.values, axis=1) <= 1e-9)


def test_benchmark_rates():
    assert experiments.BENCHMARK_GAMMA == pytest.approx(3.5 / 750)
    assert experiments.BENCHMARK_KAPPA == pytest.approx(2.62 / 750)


def test_write_sim_result(tmp_path, trace):
    path = tmp_path / "trace.csv"
    experiments.write_sim_result(path, trace, provenance={"dt": 0.01})
    lines = path.read_text().splitlines()
    assert lines[0] == "# dt = 0.01"
    assert lines[1].split(",") == (
        ["t*g"] + [f"P_phi{i}" for i in range(1, 9)] + ["P_leaked", "F"]
    )
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    # byte-for-byte determinism on rewrite
    second_path = tmp_path / "again.csv"
    experiments.write_sim_result(second_path, trace, provenance={"dt": 0.01})
    assert second_path.read_bytes() == path.read_bytes()


def test_write_csv_fields_are_those_of_str_format(tmp_path):
    # One "%.12g" row format over Python floats writes what "{:.12g}".format
    # writes field by field, the edges included.
    values = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 7, 0.1 + 0.2,
              123456789012345.0, 2.5e-7]
    path = tmp_path / "fields.csv"
    experiments.write_csv(path, [f"c{i}" for i in range(len(values))],
                          [values, np.array(values)[::-1], tuple(np.array(values))])
    rows = path.read_text().splitlines()[-3:]
    assert rows[0] == "nan,inf,-inf,-0,1e-300,1e+300,7,0.3,1.23456789012e+14,2.5e-07"
    for row, fields in zip(rows, [values, values[::-1], values]):
        assert row == ",".join(map("{:.12g}".format, fields))


def test_write_sweep_grid_long_format(tmp_path):
    grid = SweepGrid(
        x_name="x", x_values=np.array([1.0, 2.0]),
        y_name="y", y_values=np.array([10.0, 20.0]),
        values=np.array([[0.1, 0.2], [0.3, np.nan]]),
        annotations={(1, 1): "ValueError: boom"},
        provenance={"dt": 0.01},
    )
    path = tmp_path / "grid.csv"
    experiments.write_sweep_grid(path, grid)
    lines = path.read_text().splitlines()
    assert "# cell_1_1_error = ValueError: boom" in lines
    assert lines[-5] == "x,y,F"
    assert lines[-1] == "2,20,nan"


def test_write_plot_scripts(tmp_path):
    line_path = tmp_path / "lines.gp"
    experiments.write_plot_script(line_path, "data.csv", "demo",
                                  columns=(1, 2, 3), labels=("a", "b"))
    text = line_path.read_text()
    assert "set datafile separator ','" in text
    assert "using 1:2 with lines title 'a'" in text
    assert "using 1:3 with lines title 'b'" in text
    map_path = tmp_path / "map.gp"
    experiments.write_plot_script(map_path, "grid.csv", "demo", mode="map")
    assert "splot 'grid.csv' using 1:2:3" in map_path.read_text()


def test_write_manifest(tmp_path):
    path = tmp_path / "manifest.txt"
    experiments.write_manifest(path, {"b": 2, "a": 1})
    assert path.read_text() == "a = 1\nb = 2\n"


def test_write_sweep_grid_one_dimensional_annotations(tmp_path):
    grid = SweepGrid(
        x_name="delta/g", x_values=np.array([-1.0, 3.6]),
        values=np.array([np.nan, 0.99]),
        annotations={(0,): "PulseSynthesisError: boom"},
    )
    path = tmp_path / "cut.csv"
    experiments.write_sweep_grid(path, grid)
    lines = path.read_text().splitlines()
    assert lines == ["# cell_0_error = PulseSynthesisError: boom", "delta/g,F",
                     "-1,nan", "3.6,0.99"]


def test_fidelity_surface_scalar_axis_gives_cut():
    deltas = np.array([3.0, 3.6])
    cut = experiments.run_fidelity_surface(50.0, deltas, cfg=IntegratorConfig(dt=0.05))
    surface = experiments.run_fidelity_surface(np.array([50.0]), deltas,
                                               cfg=IntegratorConfig(dt=0.05))
    assert (cut.x_name, cut.y_name) == ("delta/g", None)
    assert np.array_equal(cut.values, surface.values[0])


def _closed_cell_alone(params, pulse_set, t_final, cfg):
    """One cell as its own simulate_closed run: (F, note) as a sweep reports it."""
    try:
        run = experiments.simulate_closed(replace(params, t_f=t_final), pulse_set, cfg)
        return run.final_fidelity, ""
    except (IntegratorInstabilityError, PulseSynthesisError) as exc:
        return float("nan"), f"{type(exc).__name__}: {exc}"


def test_batched_cut_matches_single_runs():
    # delta = -1 has no counterdiabatic pulse; delta = 60 at dt 0.05 drifts
    # (norm drift 9.3e5 at t = 2.5); the others are healthy.
    deltas = np.array([-1.0, 2.0, 3.6, 60.0, 5.0])
    cfg = IntegratorConfig(dt=0.05)
    grid = experiments.run_fidelity_surface(50.0, deltas, cfg=cfg)
    alone = [_closed_cell_alone(*experiments._surface_cell(
        50.0, d, StirapParams.omega0, pulses.TAU_FRAC, pulses.WIDTH_FRAC, cfg))
        for d in deltas]
    assert set(grid.annotations) == {(0,), (3,)}
    assert grid.annotations[(0,)].startswith("PulseSynthesisError: ")
    assert grid.annotations[(3,)].startswith("IntegratorInstabilityError: norm drift")
    for i, (f, note) in enumerate(alone):
        assert grid.annotations.get((i,), "") == note
        if note:
            assert np.isnan(grid.values[i])
        else:
            assert abs(grid.values[i] - f) <= 1e-12


def _cells(deltas, dt=0.05):
    return [(ModelParams(delta=d), PulseSet(PulseKind.TQD_EXACT, StirapParams(), delta=d))
            for d in deltas]


def test_batch_size_does_not_change_a_cell():
    # 8 cells: as many as the state has components, so a (cells, 8) batch
    # must not be read as a density matrix
    cells = _cells([-1.0, 1.0, 2.0, 3.0, 3.6, 4.5, 6.0, 60.0])
    cfg = IntegratorConfig(dt=0.05)
    whole = experiments.simulate_closed_batch(cells, 50.0, cfg)
    single = [r for cell in cells for r in experiments.simulate_closed_batch([cell], 50.0, cfg)]
    split = (experiments.simulate_closed_batch(cells[:3], 50.0, cfg)
             + experiments.simulate_closed_batch(cells[3:], 50.0, cfg))
    values = np.array([f for f, _ in whole])
    for other in (single, split):
        assert np.array_equal(np.array([f for f, _ in other]), values, equal_nan=True)
        assert [n for _, n in other] == [n for _, n in whole]
    for (f, note), cell in zip(whole, cells):
        f_alone, note_alone = _closed_cell_alone(*cell, 50.0, cfg)
        assert note == note_alone
        assert note or abs(f - f_alone) <= 1e-12


@pytest.fixture(scope="module")
def cut_alone():
    """40 cells along delta, each run as a batch of one, which builds a block's weights at once."""
    cells = _cells(np.linspace(0.5, 10.0, 40))
    cfg = IntegratorConfig(dt=0.05)
    return cells, cfg, [r for cell in cells
                        for r in experiments.simulate_closed_batch([cell], 50.0, cfg)]


def _captured(monkeypatch) -> list:
    """The SimResult of every evolve_* call made from here on, in order."""
    results = []
    for name in ("evolve_schrodinger", "evolve_lindblad"):
        def capturing(*args, evolve=getattr(dynamics, name), **kwargs):
            results.append(evolve(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(dynamics, name, capturing)
    return results


def _lumped_chain() -> tuple[int, int]:
    """Weights and amplitudes per cell of a closed batch started in |phi_1> (hilbert.lump)."""
    _, lumped = hilbert.lump(model.hamiltonian_terms(hilbert.build_subspace()), np.eye(8)[:1])
    return np.count_nonzero(lumped), lumped.shape[-1]


# The weights of one time and the step program per step of 40 closed cells.
CUT_WEIGHTS, CUT_AMPLITUDES = (40 * n for n in _lumped_chain())
CUT_PROGRAM_BYTES = dynamics._program_bytes(CUT_WEIGHTS, CUT_AMPLITUDES, 16)


@pytest.mark.parametrize("executor, chunk_bytes, steps", [
    pytest.param("step loop", dynamics.WEIGHT_CHUNK_BYTES,
                 dynamics.WEIGHT_CHUNK_BYTES // (2 * CUT_WEIGHTS * 16),
                 id=str(dynamics.WEIGHT_CHUNK_BYTES)),
    pytest.param("step loop", 1, 1, id="1"),
    pytest.param("step loop", 3 * CUT_WEIGHTS * 16, 1, id="weights-of-3-times"),
    pytest.param("step loop", 3 * 2 * CUT_WEIGHTS * 16, 3, id="loop-3"),
    pytest.param("step program", 1, 1, id="program-1"),
    pytest.param("step program", 3 * CUT_PROGRAM_BYTES, 3, id="program-3"),
])
def test_weight_chunks_do_not_change_a_cell(cut_alone, monkeypatch, executor, chunk_bytes,
                                            steps):
    # A step of the step loop takes the weights of 2 times. A 40-cell chunk
    # holds 10 of a block's 100 steps by default, one step for 1 byte or for
    # the weights of 3 times, and 3 steps for those of 6 times; 3 divides
    # neither a block nor record_every = 50. The step program runs 1 or 3
    # steps per call. Each cell alone runs as a step program of its own.
    cells, cfg, alone = cut_alone
    program = executor == "step program"
    monkeypatch.setattr(dynamics, "PROGRAM_STEP_BYTES", math.inf if program else 0)
    monkeypatch.setattr(dynamics, "PROGRAM_BYTES" if program else "WEIGHT_CHUNK_BYTES",
                        chunk_bytes)
    runs = _captured(monkeypatch)
    whole = experiments.simulate_closed_batch(cells, 50.0, cfg)
    assert whole == alone and not any(note for _, note in whole)
    assert (runs[0].metadata["executor"], runs[0].metadata["chunk_steps"]) == (executor, steps)
    assert runs[0].metadata["state_shape"] == (40, CUT_AMPLITUDES // 40)


def test_empty_batches_run():
    cfg = IntegratorConfig(dt=0.1)
    assert experiments.simulate_closed_batch([], 1.0, cfg) == []
    assert experiments.simulate_open_batch([], 1.0, cfg) == []


def test_batch_of_every_pulse_kind_matches_single_runs():
    cfg = IntegratorConfig(dt=0.05)
    cells = [(ModelParams(), experiments.default_pulse_set(kind)) for kind in PulseKind]
    for (f, note), cell in zip(experiments.simulate_closed_batch(cells, 50.0, cfg), cells):
        assert note == "" and abs(f - _closed_cell_alone(*cell, 50.0, cfg)[0]) <= 1e-12


def test_batched_robustness_matches_single_runs():
    devs = np.array([-0.1, 0.05])
    params = ModelParams()
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, params)
    cfg = IntegratorConfig(dt=0.05)
    scan = experiments.run_robustness_scan(devs, params=params, cfg=cfg, pulse_set=pulse_set)
    assert scan.annotations == {}
    for i, dev in enumerate(devs):
        for j, name in enumerate(experiments.ROBUSTNESS_PARAMETERS):
            cell = experiments._robustness_cell(dev, name, params, pulse_set, cfg)
            f, note = _closed_cell_alone(*cell)
            assert note == "" and abs(scan.values[i, j] - f) <= 1e-12


def _open_cell_alone(params, pulse_set, cfg):
    """One open cell as its own simulate_open run: (F, note) as a sweep reports it."""
    try:
        return experiments.simulate_open(params, pulse_set, cfg).final_fidelity, ""
    except (IntegratorInstabilityError, PulseSynthesisError) as exc:
        return float("nan"), f"{type(exc).__name__}: {exc}"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_open_batch_size_does_not_change_a_cell():
    # Fig-9 cells; kappa = 60 at dt 0.05 leaves RK4's stability region and
    # drifts at t = 10 (the drift's digits are rounding on entries near
    # 1.5e16, since RK4 keeps the trace, so they follow the order of the
    # arithmetic and are not pinned), kappa = 5000 overflows to NaN before its
    # first recorded point, and the rest of their batch runs on.
    rates = [(0.0, 0.0), (0.01, 0.02), (60.0, 0.0), (0.05, 0.05), (0.0, 0.08),
             (0.02, 0.0), (5000.0, 0.0), (0.04, 0.04)]
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    cells = [(ModelParams(kappa=k, gamma=g), pulse_set) for k, g in rates]
    cfg = IntegratorConfig(dt=0.05)
    whole = experiments.simulate_open_batch(cells, 50.0, cfg)
    single = [r for cell in cells for r in experiments.simulate_open_batch([cell], 50.0, cfg)]
    split = (experiments.simulate_open_batch(cells[:3], 50.0, cfg)
             + experiments.simulate_open_batch(cells[3:], 50.0, cfg))
    values = np.array([f for f, _ in whole])
    for other in (single, split):
        assert np.array_equal(np.array([f for f, _ in other]), values, equal_nan=True)
        assert [n for _, n in other] == [n for _, n in whole]
    assert [bool(n) for _, n in whole] == [k >= 60.0 for k, _ in rates]
    drift = re.fullmatch(r"IntegratorInstabilityError: trace drift (\S+) > 1e-04 at t=10; "
                         r"reduce dt", whole[2][1])
    assert drift and math.isfinite(float(drift[1])) and float(drift[1]) > dynamics.TRACE_TOL
    assert whole[6][1].startswith("IntegratorInstabilityError: trace drift nan")
    for (f, note), cell in zip(whole, cells):  # a single simulate_open run agrees exactly
        f_alone, note_alone = _open_cell_alone(*cell, cfg)
        assert note == note_alone
        assert np.array_equal(f, f_alone, equal_nan=True)


def test_open_batch_pulse_failure_is_per_cell():
    cfg = IntegratorConfig(dt=0.05)
    bad = PulseSet(PulseKind.TQD_EXACT, StirapParams(), delta=-1.0)
    good = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    cells = [(ModelParams(delta=-1.0, kappa=0.01), bad), (ModelParams(kappa=0.01), good)]
    (f_bad, note), (f_good, healthy) = experiments.simulate_open_batch(cells, 50.0, cfg)
    assert np.isnan(f_bad) and note == _open_cell_alone(*cells[0], cfg)[1]
    assert note.startswith("PulseSynthesisError: delta*theta_dot > 0 at t=0;")
    assert healthy == "" and f_good == _open_cell_alone(*cells[1], cfg)[0]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("threshold", [0, math.inf], ids=["step_loop", "step_program"])
def test_batch_size_tests_hold_for_each_executor(monkeypatch, threshold):
    # Every batch, split and single cell of the two tests on one executor.
    monkeypatch.setattr(dynamics, "PROGRAM_STEP_BYTES", threshold)
    test_batch_size_does_not_change_a_cell()
    test_open_batch_size_does_not_change_a_cell()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_step_program_matches_step_loop(monkeypatch):
    # Closed: a failed pulse synthesis (delta = -1), a drift (60), a norm that
    # overflows while the state is finite (1000: "norm drift inf") and a state
    # that overflows (2000: "norm drift nan"). Open: the fig-9 cells of the
    # open batch-size test with a drift (kappa = 60) and an overflow (5000),
    # and a failed pulse synthesis.
    cfg = IntegratorConfig(dt=0.05)
    closed = _cells([-1.0, 2.0, 3.6, 60.0, 1000.0, 2000.0, 5.0])
    fitted = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    open_cells = [(ModelParams(kappa=k, gamma=g), fitted)
                  for k, g in [(0.0, 0.0), (0.01, 0.02), (60.0, 0.0), (5000.0, 0.0)]]
    open_cells.append((ModelParams(delta=-1.0, kappa=0.01),
                       PulseSet(PulseKind.TQD_EXACT, StirapParams(), delta=-1.0)))
    outcomes, results = {}, {}
    for threshold, executor in [(0, "step loop"), (math.inf, "step program")]:
        monkeypatch.setattr(dynamics, "PROGRAM_STEP_BYTES", threshold)
        runs = _captured(monkeypatch)
        outcomes[executor] = (experiments.simulate_closed_batch(closed, 50.0, cfg)
                              + experiments.simulate_open_batch(open_cells, 50.0, cfg))
        assert [run.metadata["executor"] for run in runs] == [executor] * 2
        results[executor] = runs
    loop, program = outcomes["step loop"], outcomes["step program"]
    assert [note for _, note in loop] == [note for _, note in program]
    assert np.array_equal([f for f, _ in loop], [f for f, _ in program], equal_nan=True)
    notes = [note.split(" > ")[0] for _, note in loop]
    assert notes[0].startswith("PulseSynthesisError: ") and notes[-1] == notes[0]
    assert notes[3:6] == ["IntegratorInstabilityError: norm drift 9.30e+05",
                          "IntegratorInstabilityError: norm drift inf",
                          "IntegratorInstabilityError: norm drift nan"]
    assert math.isfinite(float(notes[9].rsplit(" ", 1)[1]))  # digits not pinned, as above
    assert notes[10] == "IntegratorInstabilityError: trace drift nan"
    for a, b in zip(results["step loop"], results["step program"]):
        for name in ("fidelity", "populations", "final_state"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            assert np.array_equal(x.view(np.uint8), y.view(np.uint8))  # bit for bit
