import math

import numpy as np
import pytest

from tqd3d import dynamics, hilbert, model, pulses
from tqd3d.dynamics import IntegratorConfig, IntegratorInstabilityError
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(record_every=0)


def test_zero_hamiltonian_is_identity():
    psi0 = np.array([0.6, 0.8j], dtype=complex)
    result = dynamics.evolve_schrodinger(
        lambda t: np.zeros((2, 2), dtype=complex), psi0, 1.0,
        IntegratorConfig(dt=0.01), target=psi0,
    )
    assert np.allclose(result.final_state, psi0)
    assert result.final_fidelity == pytest.approx(1.0)


def test_rabi_oscillation_closed_form():
    omega0 = 0.35
    t_f = 30.0
    result = dynamics.evolve_schrodinger(
        lambda t: omega0 * SIGMA_X, np.array([1.0, 0.0], dtype=complex), t_f,
        IntegratorConfig(dt=0.002, record_every=100),
        target=np.array([0.0, 1.0], dtype=complex),
    )
    expected = np.sin(omega0 * result.times) ** 2
    assert np.max(np.abs(result.fidelity - expected)) < 1e-8
    assert result.metadata["max_norm_drift"] < 1e-8


def test_unnormalized_initial_state_rejected():
    with pytest.raises(ValueError):
        dynamics.evolve_schrodinger(
            lambda t: np.zeros((2, 2), dtype=complex),
            np.array([1.0, 1.0], dtype=complex), 1.0,
        )


def test_instability_detected():
    with pytest.raises(IntegratorInstabilityError):
        dynamics.evolve_schrodinger(
            lambda t: 100.0 * SIGMA_X, np.array([1.0, 0.0], dtype=complex), 10.0,
            IntegratorConfig(dt=0.05, record_every=1),
        )


def test_population_rows_and_fidelity_range(default_pulses, default_params, terms8):
    ps = pulses.PulseSet(PulseKind.TQD_EXACT, default_pulses, delta=3.6)
    h_of_t = model.make_h_of_t(terms8, default_params, ps)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    result = dynamics.evolve_schrodinger(
        h_of_t, psi0, 50.0, IntegratorConfig(dt=0.01),
        target=dynamics.target_state(hilbert.build_subspace()),
    )
    sums = result.populations.sum(axis=1)
    assert np.all(sums <= 1 + 1e-6)
    assert np.all((result.fidelity >= 0) & (result.fidelity <= 1 + 1e-9))
    assert result.final_fidelity > 0.99


def test_subspace_confinement_full_space(terms80, subspace, full_space, default_pulses,
                                         default_params):
    # pure-state run on the 80-dim space stays inside the embedded chain subspace
    ps = pulses.PulseSet(PulseKind.TQD_EXACT, default_pulses, delta=3.6)
    h_of_t = model.make_h_of_t(terms80, default_params, ps)
    psi0 = full_space.ket(subspace.basis[0])
    result = dynamics.evolve_schrodinger(
        h_of_t, psi0, 50.0, IntegratorConfig(dt=0.01, record_every=500),
        tracked=hilbert.subspace_indices(subspace, full_space),
        target=dynamics.target_state(full_space),
    )
    assert np.all(result.populations[:, -1] <= 1e-10)


def _constant(*values):
    """Coefficients c[t, 0, k] = values[k] of a one-cell master equation."""
    return lambda times: np.tile(np.array(values, dtype=complex), (len(times), 1, 1))


def test_lindblad_unitary_limit_matches_schrodinger():
    h = lambda t: 0.35 * SIGMA_X
    psi0 = np.array([1.0, 0.0], dtype=complex)
    target = np.array([0.0, 1.0], dtype=complex)
    cfg = IntegratorConfig(dt=0.002, record_every=100)
    pure = dynamics.evolve_schrodinger(h, psi0, 20.0, cfg, target=target)
    rho0 = np.outer(psi0, psi0.conj())
    mixed = dynamics.evolve_lindblad(
        dynamics.Liouvillian.reachable([SIGMA_X], [], rho0), _constant(0.35), rho0, 20.0,
        cfg, target=target,
    )
    assert abs(pure.final_fidelity - mixed.final_fidelity) < 1e-6


def test_exponential_decay_closed_form():
    rate = 0.3
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.diag([0.0, 1.0]).astype(complex)  # excited state
    decay = dynamics.Liouvillian.reachable(
        [], [dynamics.dissipator_superoperator([(lower, 1.0)], 2)], rho0)
    assert list(decay.entries) == [0, 3]  # decay never creates coherences
    result = dynamics.evolve_lindblad(
        decay, _constant(rate), rho0, 10.0,
        IntegratorConfig(dt=0.002, record_every=100),
        tracked=np.array([1]), target=np.array([0.0, 1.0], dtype=complex),
    )
    expected = np.exp(-rate * result.times)
    assert np.max(np.abs(result.populations[:, 0] - expected)) < 1e-8
    assert result.metadata["max_trace_drift"] < 1e-10


def test_lindblad_invalid_rho0():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    decay = dynamics.Liouvillian.reachable(
        [], [dynamics.dissipator_superoperator([(lower, 1.0)], 2)], np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        dynamics.evolve_lindblad(decay, _constant(1.0), np.diag([2.0, 0.0]), 1.0)
    with pytest.raises(ValueError):  # a coherence outside the support
        dynamics.evolve_lindblad(decay, _constant(1.0), np.full((2, 2), 0.5), 1.0)


def test_lindblad_hermiticity_and_positivity_metadata(subspace, default_pulses):
    params = ModelParams(kappa=0.02, gamma=0.04)
    space = model.open_space()
    ps = pulses.PulseSet(
        PulseKind.TQD_FITTED, default_pulses, delta=3.6,
        fitted=pulses.default_fitted_pulse(),
    )
    psi0 = space.ket(subspace.basis[0])
    result = dynamics.evolve_lindblad(
        model.open_liouvillian(),
        model.open_coefficients(model.CellDrives(model.hamiltonian_terms(space), [(params, ps)]),
                                [params]),
        np.outer(psi0, psi0.conj()), 50.0,
        IntegratorConfig(dt=0.01, record_every=500),
        tracked=hilbert.subspace_indices(subspace, space),
        target=dynamics.target_state(space),
    )
    rho = result.final_state
    assert hilbert.max_nonhermiticity(rho) < 1e-9
    assert abs(np.trace(rho).real - 1.0) < 1e-6
    assert result.metadata["min_eigenvalue"] > -1e-7
    assert result.metadata["positivity_warnings"] == []
    assert 0.9 < result.final_fidelity < 1.0
    # cheap telemetry: counts and shapes, nothing per step
    meta = result.metadata
    assert meta["rhs_evals"] == 4 * meta["n_steps"] == 4 * 5000
    assert meta["state_shape"] == (1, 84)
    assert (meta["support"], meta["cells"]) == (84, 1)


def test_excitation_decay_monotone_without_pulses(subspace):
    # pulses off: coherent part conserves excitation number, dissipation removes it
    params = ModelParams(kappa=0.05, gamma=0.05)
    space = model.open_space()
    psi0 = space.ket(subspace.basis[2])  # one photon present
    number = hilbert.excited_projector(space)
    for mode in ("L", "R"):
        a = hilbert.annihilation_operator(space, mode)
        number = number + a.conj().T @ a
    # open_liouvillian's operator order: drives a, a+, b, b+, cavity, detuning, kappa, gamma
    result = dynamics.evolve_lindblad(
        model.open_liouvillian(), _constant(0, 0, 0, 0, 1.0, 3.6, params.kappa, params.gamma),
        np.outer(psi0, psi0.conj()), 30.0,
        IntegratorConfig(dt=0.01, record_every=100),
        tracked=np.flatnonzero(np.diag(number).real > 0.5),
        target=dynamics.target_state(space),
    )
    excited_pop = result.populations[:, :-1].sum(axis=1)
    assert np.all(np.diff(excited_pop) <= 1e-10)


def test_fidelity_definitions(full_space):
    target = dynamics.target_state(full_space)
    assert dynamics.fidelity(target, target) == pytest.approx(1.0)
    phi1 = full_space.ket(hilbert.build_subspace().basis[0])
    assert dynamics.fidelity(phi1, target) == pytest.approx(1 / 3)
    mixed = np.eye(80, dtype=complex) / 80
    assert dynamics.fidelity(mixed, target) == pytest.approx(1 / 80)
    with pytest.raises(ValueError):
        dynamics.fidelity(np.zeros(8, dtype=complex), target)


def test_target_state(subspace):
    target = dynamics.target_state(subspace)
    assert np.linalg.norm(target) == pytest.approx(1.0)
    pops = np.abs(target) ** 2
    assert pops[0] == pytest.approx(1 / 3)
    assert pops[6] == pytest.approx(1 / 3)
    assert pops[7] == pytest.approx(1 / 3)
    # equivalent form via the symmetric vector psi_3
    sym = model.symmetric_vectors()
    e = np.eye(8)
    alt = (e[0] + math.sqrt(2.0) * sym["psi3"]) / math.sqrt(3.0)
    assert dynamics.fidelity(alt.astype(complex), target) == pytest.approx(1.0)


def test_batch_matches_single_states_on_open_space(rng):
    # Two of the 16 states have no coupling at all, so their rows of H are empty.
    space = model.open_space()
    terms = model.hamiltonian_terms(space)
    cells = [(ModelParams(), pulses.PulseSet(PulseKind.STIRAP, pulses.StirapParams())),
             (ModelParams(g=1.1), pulses.PulseSet(PulseKind.TQD_EXACT, pulses.StirapParams(),
                                                  delta=3.6))]
    psi0 = rng.normal(size=(2, space.dim)) + 1j * rng.normal(size=(2, space.dim))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    cfg = IntegratorConfig(dt=0.01)
    batch = dynamics.evolve_schrodinger(model.CellDrives(terms, cells), psi0, 50.0, cfg)
    assert batch.metadata["failures"] == {}
    for b, (params, pulse_set) in enumerate(cells):
        alone = dynamics.evolve_schrodinger(
            model.make_h_of_t(terms, params, pulse_set), psi0[b], 50.0, cfg)
        assert np.max(np.abs(batch.final_state[b] - alone.final_state)) < 1e-12
        assert np.max(np.abs(batch.fidelity[:, b] - alone.fidelity)) < 1e-12
        assert np.max(np.abs(batch.populations[:, b] - alone.populations)) < 1e-12

