"""Property tests over random rates, pulses, times and drive amplitudes.

Each property is one the fixed-parameter tests check at a few points: an
open run keeps rho a density matrix, and nothing the 80-dim model can do
leads out of the 16-state open-system space.
"""

from dataclasses import replace

import numpy as np
from conftest import h_of_t, hamiltonian
from hypothesis import given, settings
from hypothesis import strategies as st

from tqd3d import dynamics, experiments, hilbert, model
from tqd3d.dynamics import IntegratorConfig
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind

rates = st.floats(0.0, 0.1)
amplitudes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None)
@given(kappa=rates, gamma=rates, scale=st.floats(0.5, 1.5), start=st.floats(0.0, 45.0),
       duration=st.floats(1.0, 5.0))
def test_open_run_keeps_a_density_matrix(kappa, gamma, scale, start, duration):
    # A window of the fitted-pulse protocol from |phi_1>, with both amplitudes scaled.
    params = ModelParams(kappa=kappa, gamma=gamma)
    reference = experiments.default_pulse_set(PulseKind.TQD_FITTED, params)
    pulse_set = replace(reference, fitted=reference.fitted.scaled(scale))
    space = model.open_space()
    drives = model.CellDrives([(params, pulse_set)])
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[0, 0] = 1.0
    result = dynamics.evolve_lindblad(
        model.open_liouvillian(),
        model.open_coefficients(lambda times: drives(start + times), [params]), rho0,
        duration, IntegratorConfig(dt=0.01, record_every=10),
    )
    rho = result.final_state
    assert result.metadata["max_trace_drift"] < 1e-6
    assert abs(np.trace(rho).real - 1.0) < 1e-6
    assert hilbert.max_nonhermiticity(rho) < 1e-9
    assert result.metadata["positivity_warnings"] == []


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(PulseKind), t=st.floats(0.0, 50.0), omega_a=amplitudes,
       omega_b=amplitudes, delta=st.floats(-10.0, 10.0))
def test_open_space_closed_under_full_operators(full_space, terms80, kind, t, omega_a,
                                                omega_b, delta):
    inside = np.zeros(full_space.dim, dtype=bool)
    inside[hilbert.subspace_indices(model.open_space(), full_space)] = True
    pulsed = h_of_t(terms80, ModelParams(), experiments.default_pulse_set(kind))
    ops = [pulsed(t), hamiltonian(terms80, omega_a, omega_b, g=1.0, delta=delta)]
    ops += [op for op, _ in model.collapse_channels(ModelParams(), full_space)]
    for op in ops:
        assert not np.any(op[~inside][:, inside])
