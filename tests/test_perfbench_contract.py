"""What the benchmark under perfbench/ reads from the program, checked from the program's side.

perfbench/progress.py times the strides between recorded points by
patching dynamics.fidelity, which every evolve_* call must call once per
recorded point, and perfbench/tracing.py wraps module attributes by name.
"""

from pathlib import Path

import numpy as np
import pytest

from tqd3d import dynamics, experiments, hilbert, model
from tqd3d.dynamics import IntegratorConfig
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
    return dynamics.evolve_schrodinger(model.CellDrives(model.hamiltonian_terms(sub), cells),
                                       psi0, 50.0, CFG)


RUNS = {
    "closed_single": lambda: experiments.simulate_closed(
        ModelParams(), experiments.default_pulse_set(PulseKind.TQD_EXACT), CFG),
    "closed_batch": _closed_batch,
    "open": lambda: experiments.simulate_open(
        ModelParams(kappa=0.01, gamma=0.05),
        experiments.default_pulse_set(PulseKind.TQD_FITTED), CFG),
}


@pytest.mark.parametrize("run", RUNS)
def test_each_recorded_point_is_a_progress_tick(perfbench, run):
    progress, _ = perfbench
    fidelity = dynamics.fidelity
    ticks = progress.Progress()
    with ticks.iteration():
        result = RUNS[run]()
    assert len(result.times) == 21
    assert len(ticks.strides[0]) == len(result.times) - 1
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
