"""What the benchmark under perfbench/ reads from the program, checked from the program's side.

perfbench/progress.py times the strides between recorded points by
patching dynamics.fidelity, which every evolve_* call must call once per
recorded point, perfbench/tracing.py wraps module attributes by name, and
each workload's set-up code calls the program's builders by name.
"""

from pathlib import Path

import numpy as np
import pytest

from tqd3d import dynamics, experiments, hilbert, model
from tqd3d.dynamics import IntegratorConfig, SimResult
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CFG = IntegratorConfig(dt=0.05)  # 1000 steps recorded every 50: 21 points, 20 strides


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import progress
    import tracing

    return progress, tracing


def _closed_batch():
    sub = hilbert.build_subspace()
    cells = [(ModelParams(), experiments.default_pulse_set(kind)) for kind in PulseKind]
    psi0 = np.tile(np.eye(sub.dim, dtype=complex)[0], (len(cells), 1))
    return dynamics.evolve_schrodinger(model.drive_operators(model.hamiltonian_terms(sub)),
                                       model.CellDrives(cells), psi0, 50.0, CFG)


def _sweep_cells(**rates):
    return [(ModelParams(**rates), experiments.default_pulse_set(kind)) for kind in PulseKind]


RUNS = {
    "closed_single": lambda: experiments.simulate_closed(
        ModelParams(), experiments.default_pulse_set(PulseKind.TQD_EXACT), CFG),
    "closed_batch": _closed_batch,
    "open": lambda: experiments.simulate_open(
        ModelParams(kappa=0.01, gamma=0.05),
        experiments.default_pulse_set(PulseKind.TQD_FITTED), CFG),
    # The sweep path keeps no state at recorded points, but still ticks at each.
    "closed_sweep_batch": lambda: experiments.simulate_closed_batch(_sweep_cells(), 50.0, CFG),
    "open_sweep_batch": lambda: experiments.simulate_open_batch(
        _sweep_cells(kappa=0.01, gamma=0.05), 50.0, CFG),
}


@pytest.mark.parametrize("run", RUNS)
def test_each_recorded_point_is_a_progress_tick(perfbench, run):
    progress, _ = perfbench
    fidelity = dynamics.fidelity
    ticks = progress.Progress()
    with ticks.iteration():
        result = RUNS[run]()
    if isinstance(result, SimResult):
        assert len(result.times) == 21
    else:  # a sweep batch's (F, note) per cell
        assert len(result) == len(PulseKind)
    assert len(ticks.strides[0]) == 21 - 1
    assert dynamics.fidelity is fidelity


def test_tracing_wraps_and_restores(perfbench):
    _, tracing = perfbench
    originals = (dynamics.evolve_schrodinger, dynamics.fidelity, experiments.simulate_closed,
                 hilbert.build_full_space, model.make_h_of_t)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        RUNS["closed_single"]()
    assert {"experiments.simulate_closed", "dynamics.evolve_schrodinger"} <= set(tracer.names)
    assert (dynamics.evolve_schrodinger, dynamics.fidelity, experiments.simulate_closed,
            hilbert.build_full_space, model.make_h_of_t) == originals


def test_tracing_reads_the_dissipators_nnz(perfbench):
    """tracing records the nnz of each dissipator built; open_liouvillian's cache hides its own."""
    _, tracing = perfbench
    space = model.open_space()
    channels = model.collapse_channels(ModelParams(kappa=1.0), space)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        dissipator = dynamics.dissipator_superoperator(channels, space.dim)
    spans = [i for i, name in enumerate(tracer.name_id)
             if tracer.names[name] == "dynamics.dissipator_superoperator"]
    assert [tracer.info[i] for i in spans] == [{"nnz": 120}]
    assert np.count_nonzero(dissipator.values) == 120


def test_workload_setups_run(monkeypatch):
    """Each workload's set-up code runs after the imports perfbench/run.py puts before it.

    run.py itself is not imported: it sets the BLAS thread variables in os.environ.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    prelude = "import tqd3d.cli\nfrom tqd3d import dynamics, hilbert, model\n"
    for workload in workloads.WORKLOADS.values():
        exec(prelude + workload.setup, {})
