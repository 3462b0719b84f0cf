import importlib.machinery
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import h_of_t, structure_terms

from tqd3d import dynamics, experiments, hilbert, model, pulses, verify
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
        [SIGMA_X], _constant(0.0), psi0, 1.0,
        IntegratorConfig(dt=0.01), target=psi0,
    )
    assert np.allclose(result.final_state, psi0)
    assert result.final_fidelity == pytest.approx(1.0)


def test_rabi_oscillation_closed_form():
    omega0 = 0.35
    t_f = 30.0
    result = dynamics.evolve_schrodinger(
        [SIGMA_X], _constant(omega0), np.array([1.0, 0.0], dtype=complex), t_f,
        IntegratorConfig(dt=0.002, record_every=100),
        target=np.array([0.0, 1.0], dtype=complex),
    )
    expected = np.sin(omega0 * result.times) ** 2
    assert np.max(np.abs(result.fidelity - expected)) < 1e-8
    assert result.metadata["max_norm_drift"] < 1e-8


def test_unnormalized_initial_state_rejected():
    with pytest.raises(ValueError):
        dynamics.evolve_schrodinger(
            [SIGMA_X], _constant(0.0),
            np.array([1.0, 1.0], dtype=complex), 1.0,
        )


def test_instability_detected():
    with pytest.raises(IntegratorInstabilityError):
        dynamics.evolve_schrodinger(
            [SIGMA_X], _constant(100.0), np.array([1.0, 0.0], dtype=complex), 10.0,
            IntegratorConfig(dt=0.05, record_every=1),
        )


def test_population_rows_and_fidelity_range(default_pulses, default_params, subspace):
    ps = pulses.PulseSet(PulseKind.TQD_EXACT, default_pulses, delta=3.6)
    drives = model.CellDrives([(default_params, ps)])
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    result = dynamics.evolve_schrodinger(
        model.hamiltonian_terms(subspace), drives, psi0, 50.0, IntegratorConfig(dt=0.01),
        target=dynamics.target_state(hilbert.build_subspace()),
    )
    sums = result.populations.sum(axis=1)
    assert np.all(sums <= 1 + 1e-6)
    assert np.all((result.fidelity >= 0) & (result.fidelity <= 1 + 1e-9))
    assert result.final_fidelity > 0.99


def test_subspace_confinement_full_space(subspace, full_space, default_pulses, default_params):
    # pure-state run on the 80-dim space stays inside the embedded chain subspace
    ps = pulses.PulseSet(PulseKind.TQD_EXACT, default_pulses, delta=3.6)
    drives = model.CellDrives([(default_params, ps)])
    psi0 = full_space.ket(subspace.basis[0])
    result = dynamics.evolve_schrodinger(
        model.hamiltonian_terms(full_space), drives, psi0, 50.0,
        IntegratorConfig(dt=0.01, record_every=500),
        tracked=hilbert.subspace_indices(subspace, full_space),
        target=dynamics.target_state(full_space),
    )
    assert np.all(result.populations[:, -1] <= 1e-10)


@pytest.mark.parametrize("kind", list(PulseKind), ids=lambda kind: kind.value)
def test_closed_run_matches_per_step_hamiltonian_run(subspace, kind):
    """A closed run against classic RK4 on -i H(t) psi with the dense H(t) built at each stage.

    That RK4 shares no right-hand side with the batch run (coefficients on
    structure operators, one CSR matvec per stage); both integrate the same
    steps, so they agree to rounding at every recorded point.
    """
    cfg = IntegratorConfig(dt=0.01)
    params = ModelParams()
    pulse_set = experiments.default_pulse_set(kind, params)
    run = experiments.simulate_closed(params, pulse_set, cfg)

    hamiltonian = h_of_t(structure_terms(subspace), params, pulse_set)
    fids, pops, psi = _dense_rk4(hamiltonian, np.eye(subspace.dim, dtype=complex)[0], params.t_f,
                               cfg, dynamics.target_state(subspace))
    assert run.fidelity.shape == (len(fids),)
    assert np.max(np.abs(run.fidelity - fids)) < 1e-12
    assert np.max(np.abs(run.populations[:, :8] - pops)) < 1e-12
    assert np.max(np.abs(run.final_state - psi)) < 1e-12


def _dense_rk4(h_of_t, psi, t_f, cfg, target):
    """Classic RK4 on -i H(t) psi with the dense H(t) built at each stage, independent of _rk4.

    Returns the fidelities against target and the populations |psi|^2 at the
    multiples of cfg.record_every steps, and the state at t_f.
    """
    dt, fids, pops = cfg.dt, [], []
    n_steps = round(t_f / dt)
    for step in range(n_steps + 1):
        if step % cfg.record_every == 0:
            fids.append(abs(np.vdot(target, psi)) ** 2)
            pops.append(np.abs(psi) ** 2)
        if step == n_steps:
            break
        h0, h_half, h1 = (h_of_t(step * dt + s) for s in (0.0, dt / 2, dt))
        k1 = -1j * h0 @ psi
        k2 = -1j * h_half @ (psi + 0.5 * dt * k1)
        k3 = -1j * h_half @ (psi + 0.5 * dt * k2)
        k4 = -1j * h1 @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(fids), np.array(pops), psi


def _constant(*values):
    """Coefficients c[t, 0, k] = values[k] of a one-cell run."""
    return lambda times: np.tile(np.array(values, dtype=complex), (len(times), 1, 1))


def _unlumped(monkeypatch):
    """Make evolve_schrodinger integrate every amplitude: one block per coordinate."""
    monkeypatch.setattr(hilbert, "lump", lambda operators, start: (
        np.arange(np.shape(start)[-1]), np.asarray(operators)))


def test_random_start_runs_unchanged(rng, monkeypatch):
    # A start that tells every amplitude apart gives one block per coordinate,
    # so the run is bit for bit the run without lumping.
    params = ModelParams()
    drives = model.CellDrives([
        (params, experiments.default_pulse_set(kind, params)) for kind in PulseKind])
    operators = model.hamiltonian_terms(hilbert.build_subspace())
    psi0 = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    cfg = IntegratorConfig(dt=0.05)
    runs = [dynamics.evolve_schrodinger(operators, drives, psi0, 50.0, cfg)]
    _unlumped(monkeypatch)
    runs.append(dynamics.evolve_schrodinger(operators, drives, psi0, 50.0, cfg))
    assert runs[0].metadata["state_shape"] == runs[1].metadata["state_shape"] == (3, 8)
    for name in ("fidelity", "populations", "final_state"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


@pytest.mark.parametrize("kind", list(PulseKind), ids=lambda kind: kind.value)
def test_lumped_chain_keeps_each_pair_equal(kind, monkeypatch):
    # From |phi_1> the L and R members of each pair are one amplitude: 5 for 8.
    # Without lumping the run agrees to rounding.
    params = ModelParams()
    cfg = IntegratorConfig(dt=0.01)
    run = experiments.simulate_closed(params, experiments.default_pulse_set(kind, params), cfg)
    assert run.metadata["state_shape"] == (1, 5)
    for left, right in [(2, 3), (4, 5), (6, 7)]:
        assert run.populations[:, left].tobytes() == run.populations[:, right].tobytes()
        assert run.final_state[left] == run.final_state[right]
    _unlumped(monkeypatch)
    full = experiments.simulate_closed(params, experiments.default_pulse_set(kind, params), cfg)
    assert full.metadata["state_shape"] == (1, 8)
    assert np.max(np.abs(run.fidelity - full.fidelity)) < 1e-14
    assert np.max(np.abs(run.final_state - full.final_state)) < 1e-14


def test_negative_zero_start_lumps_as_zero():
    # -0.0 == 0.0: a start with a -0.0 amplitude lumps as the 0.0 start does
    # and runs bit for bit as it does.
    params = ModelParams()
    drives = model.CellDrives([
        (params, experiments.default_pulse_set(PulseKind.TQD_EXACT, params))])
    operators = model.hamiltonian_terms(hilbert.build_subspace())
    zero = np.eye(8, dtype=complex)[0]
    negative = zero.copy()
    negative[3] = -0.0
    assert np.signbit(negative[3].real) and zero.tobytes() != negative.tobytes()
    labels = [hilbert.lump(operators, start[None])[0] for start in (zero, negative)]
    assert labels[0].tolist() == labels[1].tolist() == [0, 1, 2, 2, 3, 3, 4, 4]
    cfg = IntegratorConfig(dt=0.05)
    runs = [dynamics.evolve_schrodinger(operators, drives, start, params.t_f, cfg)
            for start in (zero, negative)]
    assert runs[0].metadata["state_shape"] == runs[1].metadata["state_shape"] == (1, 5)
    for name in ("fidelity", "populations", "final_state"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


def _nan_after(t_nan, value=0.35):
    """Coefficients of one cell: value up to t_nan, NaN after it."""
    return lambda times: np.where(times > t_nan, np.nan, value)[:, None, None] + 0j


def test_coefficients_that_turn_nan_fail_the_cell():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    cfg = IntegratorConfig(dt=0.01, record_every=10)
    with pytest.raises(IntegratorInstabilityError, match="coefficients not finite by t=0.6$"):
        dynamics.evolve_schrodinger([SIGMA_X], _nan_after(0.5), psi0, 2.0, cfg)
    batch = np.stack([psi0, psi0])

    def two_cells(times):
        return np.concatenate([_constant(0.35)(times), _nan_after(0.5)(times)], axis=1)

    result = dynamics.evolve_schrodinger([SIGMA_X], two_cells, batch, 2.0, cfg)
    assert list(result.metadata["failures"]) == [1]
    assert np.isnan(result.fidelity[-1, 1]) and np.isfinite(result.fidelity[-1, 0])
    # a cell whose failure the caller reports fails with the caller's error
    err = pulses.PulseSynthesisError("no pulse")
    reported = dynamics.evolve_schrodinger([SIGMA_X], two_cells, batch, 2.0, cfg,
                                           reported={1: err})
    assert reported.metadata["failures"] == {1: err}
    assert reported.fidelity.tobytes() == result.fidelity.tobytes()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    liouvillian = dynamics.Liouvillian.reachable([SIGMA_X], [], rho0)
    with pytest.raises(IntegratorInstabilityError, match="coefficients not finite"):
        dynamics.evolve_lindblad(liouvillian, _nan_after(0.5), rho0, 2.0, cfg)


def test_reported_error_is_the_first_failure_of_its_cell():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    batch = np.stack([psi0, psi0])
    cfg = IntegratorConfig(dt=0.01, record_every=10)
    err = pulses.PulseSynthesisError("no pulse")

    def two_cells(value):
        return lambda times: np.concatenate(
            [_constant(0.35)(times), _nan_after(0.5, value)(times)], axis=1)

    # coefficients that turn NaN: the caller's error object is the failure
    run = dynamics.evolve_schrodinger([SIGMA_X], two_cells(0.35), batch, 2.0, cfg,
                                      reported={1: err})
    assert list(run.metadata["failures"]) == [1] and run.metadata["failures"][1] is err
    assert np.isnan(run.fidelity[-1, 1]) and np.isfinite(run.fidelity[-1, 0])
    # a cell that drifts (10 radians a step) before its coefficients turn NaN keeps its drift
    drifted = dynamics.evolve_schrodinger([SIGMA_X], two_cells(1e3), batch, 2.0, cfg,
                                          reported={1: err})
    (failure,) = drifted.metadata["failures"].values()
    assert type(failure) is IntegratorInstabilityError
    assert str(failure).startswith("norm drift") and str(failure).endswith("at t=0.1; reduce dt")
    # one run raises the caller's error
    with pytest.raises(pulses.PulseSynthesisError) as raised:
        dynamics.evolve_schrodinger([SIGMA_X], _nan_after(0.5), psi0, 2.0, cfg,
                                    reported={0: err})
    assert raised.value is err


def test_real_coefficients_run_as_complex():
    psi0 = np.array([1.0, 0.0], dtype=complex)

    def real(times):
        return np.full((len(times), 1, 1), 0.35)

    runs = [dynamics.evolve_schrodinger([SIGMA_X], c, psi0, 5.0, IntegratorConfig(dt=0.01))
            for c in (real, _constant(0.35))]
    assert runs[0].final_state.tobytes() == runs[1].final_state.tobytes()


def test_lindblad_unitary_limit_matches_schrodinger():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    target = np.array([0.0, 1.0], dtype=complex)
    cfg = IntegratorConfig(dt=0.002, record_every=100)
    pure = dynamics.evolve_schrodinger([SIGMA_X], _constant(0.35), psi0, 20.0, cfg,
                                       target=target)
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


def test_positivity_warnings_name_the_cells_of_a_batch():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.diag([-0.5, 1.5]).astype(complex)  # unit trace, not positive
    decay = dynamics.Liouvillian.reachable(
        [], [dynamics.dissipator_superoperator([(lower, 1.0)], 2)], rho0)
    cfg = IntegratorConfig(dt=0.1, record_every=10)
    one = dynamics.evolve_lindblad(decay, _constant(0.0), rho0, 1.0, cfg)
    text = ["eigenvalue -5.00e-01 < -1e-05 at t=0", "eigenvalue -5.00e-01 < -1e-05 at t=1"]
    assert one.metadata["positivity_warnings"] == text
    # A batch checks t_f only, where it records populations.
    batch = dynamics.evolve_lindblad(decay, lambda times: np.zeros((len(times), 3, 1)),
                                     np.stack([np.diag([0.5, 0.5]), rho0, rho0]), 1.0, cfg)
    assert batch.metadata["positivity_warnings"] == [f"cell {b}: {text[-1]}" for b in (1, 2)]


def _identity_superoperator(value):
    """value times the identity on the vec(rho) of a 2x2 rho."""
    return dynamics.Superoperator(np.arange(4), np.arange(4), np.full(4, value, dtype=complex))


def test_lindblad_rejects_what_breaks_hermiticity():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="Hermiticity"):  # -i[D, .] with D not Hermitian
        dynamics.Liouvillian.reachable([lower], [], rho0)
    with pytest.raises(ValueError, match="Hermiticity"):  # rho -> i rho
        dynamics.Liouvillian.reachable([], [_identity_superoperator(1j)], rho0)
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):  # H = i sigma_x
        dynamics.Liouvillian.reachable([1j * SIGMA_X], [], np.diag([1.0, 0.0]))
    # The tolerance is relative to the operator's largest entry: an imaginary
    # part 1e-15 of it passes, one 1e-9 of it does not.
    (real,) = dynamics.Liouvillian.reachable(
        [], [_identity_superoperator(1e6 + 1e-9j)], rho0).operators
    assert np.array_equal(real, [[1e6]])  # rho0's one lumped coordinate
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        dynamics.Liouvillian.reachable([], [_identity_superoperator(1 + 1e-9j)], rho0)
    with pytest.raises(ValueError, match="transposition"):  # a coherence without its mirror
        dynamics.Liouvillian.reachable([np.diag([1.0, -1.0])], [],
                                       np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="blocks are not closed under transposition"):
        # rho_00 = rho_01 lump, and their transposes rho_00, rho_10 are two blocks
        dynamics.Liouvillian.reachable([np.eye(2)], [], np.array([[0.5, 0.5], [0.3, 0.0]]))
    rabi = dynamics.Liouvillian.reachable([SIGMA_X], [], np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="real"):
        dynamics.evolve_lindblad(rabi, _constant(0.35 + 0.1j), np.diag([1.0, 0.0]), 1.0)


def test_phase_times_in_metadata():
    drives = model.CellDrives([(ModelParams(), pulses.PulseSet(PulseKind.STIRAP,
                                                             pulses.StirapParams()))])
    closed = dynamics.evolve_schrodinger(
        model.hamiltonian_terms(hilbert.build_subspace()), drives,
        np.eye(8, dtype=complex)[0], 1.0, IntegratorConfig(dt=0.01, record_every=10))
    rabi = dynamics.Liouvillian.reachable([SIGMA_X], [], np.diag([1.0, 0.0]))
    open_run = dynamics.evolve_lindblad(rabi, _constant(0.35), np.diag([1.0, 0.0]), 1.0,
                                        IntegratorConfig(dt=0.01, record_every=10))
    for result in (closed, open_run):
        assert result.metadata["integrate_s"] >= 0.0
        assert result.metadata["record_s"] >= 0.0


def test_setup_and_block_telemetry():
    # setup_s, integrate_s and record_s split the run's wall time; blocks
    # counts the coefficients calls: t = 0, then one per BLOCK_STEPS steps.
    calls = []

    def counted(times):
        calls.append(len(times))
        return _constant(0.35)(times)

    rabi = dynamics.Liouvillian.reachable([SIGMA_X], [], np.diag([1.0, 0.0]))
    for run in (
        lambda: dynamics.evolve_schrodinger([SIGMA_X], counted, np.array([1.0, 0.0]), 2.5,
                                            IntegratorConfig(dt=0.01, record_every=30)),
        lambda: dynamics.evolve_lindblad(rabi, counted, np.diag([1.0, 0.0]), 2.5,
                                         IntegratorConfig(dt=0.01, record_every=30)),
    ):
        calls.clear()
        start = time.perf_counter()
        meta = run().metadata
        wall = time.perf_counter() - start
        assert meta["n_steps"] == 250
        assert meta["blocks"] == len(calls) == 1 + math.ceil(250 / dynamics.BLOCK_STEPS) == 4
        assert calls == [1, 200, 200, 100]  # t + dt/2 and t + dt of each step of a block
        parts = (meta["setup_s"], meta["integrate_s"], meta["record_s"])
        assert min(parts) > 0.0 and sum(parts) <= wall
    assert (meta["support"], meta["coordinates"], meta["state_shape"]) == (4, 4, (1, 4))


@pytest.mark.parametrize("executor", ["step program", "step loop"])
def test_each_coefficient_block_is_freed_before_the_next(monkeypatch, executor):
    # The row kept for the next block's first t is a copy: a view of the
    # block would hold all of it while the next block is computed. The
    # closed run leaves its SIGMA_Z column out, so its blocks are also taken.
    if executor == "step loop":
        monkeypatch.setattr(dynamics, "PROGRAM_STEP_BYTES", 0)
    blocks, alive = [], []

    def tracked(values):
        def coefficients(times):
            alive.extend(ref for ref in blocks if ref() is not None)
            c = _constant(*values)(times).copy()  # owns its data, which a view of it keeps
            if len(times) > 1:  # a block, not the t = 0 call
                blocks.append(weakref.ref(c))
            return c
        return coefficients

    rabi = dynamics.Liouvillian.reachable([SIGMA_X], [], np.diag([1.0, 0.0]))
    cfg = IntegratorConfig(dt=0.01, record_every=30)
    for run in (
        lambda: dynamics.evolve_schrodinger([SIGMA_X, np.diag([1.0, -1.0])], tracked((0.35, 0.0)),
                                            np.array([1.0, 0.0]), 2.5, cfg),
        lambda: dynamics.evolve_lindblad(rabi, tracked((0.35,)), np.diag([1.0, 0.0]), 2.5, cfg),
    ):
        blocks.clear()
        meta = run().metadata
        assert (meta["executor"], meta["blocks"], len(blocks)) == (executor, 4, 3)
        assert alive == []


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
        model.open_coefficients(model.CellDrives([(params, ps)]), [params]),
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
    assert meta["state_shape"] == (1, 44)
    assert (meta["support"], meta["coordinates"], meta["cells"]) == (84, 44, 1)


def test_open_batch_rows_do_not_depend_on_the_batch(subspace):
    # 33 cells: enough for a fancy-indexed (cells, tracked) population array
    # to be laid out column-major and summed across cells in another order.
    space = model.open_space()
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    params = [ModelParams(kappa=k, gamma=0.02) for k in np.linspace(0.0, 0.1, 33)]
    drives = model.CellDrives([(p, pulse_set) for p in params])
    psi0 = space.ket(subspace.basis[0])
    rho0 = np.outer(psi0, psi0.conj())
    cfg = IntegratorConfig(dt=0.05, record_every=20)

    def run(cells, rho0):
        return dynamics.evolve_lindblad(
            model.open_liouvillian(),
            model.open_coefficients(lambda times: drives(times)[:, cells], params[cells]),
            rho0, 10.0, cfg, tracked=hilbert.subspace_indices(subspace, space),
            target=dynamics.target_state(space))

    batch = run(slice(None), np.tile(rho0, (len(params), 1, 1)))
    assert batch.populations.shape == (1, len(params), 9)  # t_f's row
    for b in (0, 17, 32):
        alone = run(slice(b, b + 1), rho0)
        assert np.array_equal(batch.populations[:, b], alone.populations[-1:])
        assert np.array_equal(batch.fidelity[:, b], alone.fidelity)
        assert np.array_equal(batch.final_state[b], alone.final_state)
    with pytest.raises(ValueError, match="33 cells"):  # one cell's coefficients for 33
        run(slice(0, 1), np.tile(rho0, (len(params), 1, 1)))


def test_excitation_decay_monotone_without_pulses(subspace):
    # pulses off: coherent part conserves excitation number, dissipation removes it
    params = ModelParams(kappa=0.05, gamma=0.05)
    space = model.open_space()
    psi0 = space.ket(subspace.basis[2])  # one photon present
    rho0 = np.outer(psi0, psi0.conj())
    number = hilbert.excited_projector(space)
    for mode in ("L", "R"):
        a = hilbert.annihilation_operator(space, mode)
        number = number + a.conj().T @ a
    # open_liouvillian's operators, lumped from |phi_3><phi_3|, which breaks
    # the L<->R mirror open_liouvillian's coordinates keep: X_a, Y_a, X_b,
    # Y_b, cavity, detuning, kappa, gamma
    liouvillian = dynamics.Liouvillian.reachable(
        model.hermitian_drive_operators(model.hamiltonian_terms(space)),
        [dynamics.dissipator_superoperator(model.collapse_channels(rates, space), space.dim)
         for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))], rho0)
    result = dynamics.evolve_lindblad(
        liouvillian, _constant(0, 0, 0, 0, 1.0, 3.6, params.kappa, params.gamma), rho0, 30.0,
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
    sym = verify.symmetric_vectors()
    e = np.eye(8)
    alt = (e[0] + math.sqrt(2.0) * sym["psi3"]) / math.sqrt(3.0)
    assert dynamics.fidelity(alt.astype(complex), target) == pytest.approx(1.0)


def test_batch_matches_single_states_on_open_space(rng):
    # Two of the 16 states have no coupling at all, so their rows of H are empty.
    space = model.open_space()
    terms = structure_terms(space)
    cells = [(ModelParams(), pulses.PulseSet(PulseKind.STIRAP, pulses.StirapParams())),
             (ModelParams(g=1.1), pulses.PulseSet(PulseKind.TQD_EXACT, pulses.StirapParams(),
                                                  delta=3.6))]
    psi0 = rng.normal(size=(2, space.dim)) + 1j * rng.normal(size=(2, space.dim))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    cfg = IntegratorConfig(dt=0.01)
    operators = model.hamiltonian_terms(space)
    batch = dynamics.evolve_schrodinger(operators, model.CellDrives(cells), psi0, 50.0, cfg)
    assert batch.metadata["failures"] == {}
    first = np.eye(space.dim, dtype=complex)[0]  # evolve_schrodinger's default target
    for b, (params, pulse_set) in enumerate(cells):
        fids, pops, final = _dense_rk4(h_of_t(terms, params, pulse_set), psi0[b],
                                       50.0, cfg, first)
        assert np.max(np.abs(batch.final_state[b] - final)) < 1e-12
        assert np.max(np.abs(batch.fidelity[:, b] - fids)) < 1e-12
        leaked = np.zeros((len(pops), 1))  # nothing is untracked
        rows = np.hstack([pops, leaked])
        # A batch records t_f's row; the cell alone records every row.
        assert np.max(np.abs(batch.populations[:, b] - rows[-1:])) < 1e-12
        alone = dynamics.evolve_schrodinger(operators, model.CellDrives([cells[b]]), psi0[b],
                                            50.0, cfg)
        assert np.max(np.abs(alone.populations - rows)) < 1e-12



def _reduceat_inputs_and_rhs(coefficients, operators):
    """Reference batch RHS: one gather, one product and one sum per row.

    Entry e of operator k adds c[k] * value_e * x[col_e] to row_e; a zero
    entry on every row no operator touches gives each row a sum.
    """
    parts = [sp.coo_matrix(op) for op in operators]
    rows = np.concatenate([p.row for p in parts])
    empty = np.setdiff1d(np.arange(parts[0].shape[0]), rows)
    rows = np.concatenate([rows, empty])
    ks = np.concatenate([np.full(p.nnz, k) for k, p in enumerate(parts)] + [0 * empty])
    cols = np.concatenate([p.col for p in parts] + [empty])
    values = np.concatenate([p.data for p in parts] + [np.zeros(empty.size)])
    order = np.lexsort((cols, ks, rows))
    rows, ks, cols, values = rows[order], ks[order], cols[order], values[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))

    def inputs(times, scale):
        weights = coefficients(times).take(ks, axis=2)
        weights *= values * scale
        return weights

    def rhs(weights, x):
        terms = x.take(cols, axis=1)
        terms *= weights
        return np.add.reduceat(terms, starts, axis=1)

    return inputs, rhs


@pytest.mark.parametrize("cells", [0, 1, 5])
def test_csr_rhs_matches_reduceat_reference(rng, cells):
    """The batch RHS adds the reference's sums to a nonzero out, complex and real."""
    n, nan_cell = 7, 3
    mats = [rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4) for _ in range(3)]
    for m in mats:
        m[4] = 0.0  # a row no operator touches
    scale = 0.01
    healthy = np.arange(cells) != nan_cell
    touched = np.arange(n) != 4

    def draw(real, *shape):
        values = rng.normal(size=shape)
        return values if real else values + 1j * rng.normal(size=shape)

    for real in (False, True):
        if real:  # real weights on a real state, as the master equation has
            operators = [mats[0], mats[1] - 0.5 * mats[2], mats[2]]
        else:
            operators = [-1j * mats[0], mats[1] + 0.5j * mats[2], mats[2]]
        c = draw(real, 1, cells, 3)
        c[:, nan_cell:nan_cell + 1] = np.nan  # a cell whose pulses failed
        x = draw(real, cells, n)
        start = draw(real, cells, n)

        weights, _, indptr, indices = dynamics._batch_csr(operators, cells, scale)
        (w,) = weights(c)
        got = start.copy()
        dynamics._rhs(indptr, indices)(w, x, got)
        ref_inputs, ref_rhs = _reduceat_inputs_and_rhs(lambda times: c, operators)
        (w_ref,) = ref_inputs(np.zeros(1), scale)
        want = start + ref_rhs(w_ref, x)
        # Each product and sum rounds within eps of the terms' magnitudes, per row.
        bound = 8 * np.finfo(float).eps * (ref_rhs(np.abs(w_ref), np.abs(x)).real
                                           + np.abs(start))

        assert got.dtype == want.dtype == (float if real else complex)
        assert got.shape == want.shape == (cells, n)
        assert np.all(np.abs(got - want)[healthy] <= bound[healthy])
        assert np.array_equal(got[:, 4], start[:, 4])  # an empty row adds nothing
        if cells > nan_cell:
            assert np.isnan(got[nan_cell, touched]).all()
            assert np.isnan(want[nan_cell, touched]).all()
        for b in range(cells):  # a cell alone gets the same bits as in its batch
            weights, _, indptr, indices = dynamics._batch_csr(operators, 1, scale)
            (w_alone,) = weights(c[:, b:b + 1])
            alone = start[b:b + 1].copy()
            dynamics._rhs(indptr, indices)(w_alone, x[b:b + 1], alone)
            assert np.array_equal(alone[0], got[b], equal_nan=True)


def test_batch_entries_are_those_of_coo(rng):
    """_batch_csr reads a dense operator's entries as sp.coo_matrix does; driven rows keep
    the dtype of the whole stack, as _rk4 takes them."""
    dense = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.5)
    dense[0, 1] = -0.0  # a signed zero is no entry
    coo = sp.coo_matrix(dense)
    weights, spread, indptr, indices = dynamics._batch_csr([dense], 1, 1.0)
    (w,) = weights(np.ones((1, 1, 1)))
    assert [np.repeat(np.arange(6), np.diff(indptr)).tolist(), indices.tolist(),
            w[0].tolist()] == [coo.row.tolist(), coo.col.tolist(), coo.data.tolist()]
    operators = np.asarray([1j * dense, dense, dense])
    weights, spread, indptr, _ = dynamics._batch_csr(np.take(operators, [1, 2], axis=0),
                                                     2, 0.5)
    (w,) = weights(np.ones((1, 2, 2), dtype=complex))
    assert spread is None and w.dtype == complex
    assert indptr[-1] == 2 * 2 * np.count_nonzero(dense)  # 2 cells of 2 operators


@pytest.mark.parametrize("cells", [0, 1, 4])
def test_real_weights_are_the_entrywise_products(rng, cells):
    """Real weights, one product c @ S, against c[k_e] * (value_e * scale) entry by entry.

    Each weight has one nonzero term, so finite coefficients give those
    products bit for bit. The edges differ from a per-entry product: a -0.0
    coefficient gives +0.0, and an infinite one makes every weight of its
    cell non-finite (inf * 0 is NaN on the other operators' entries).
    """
    n, scale = 5, 0.01
    operators = [rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5) for _ in range(4)]
    entries = sorted((i, k, j, op[i, j]) for k, op in enumerate(operators)
                     for i, j in zip(*np.nonzero(op)))
    weights, _, _, _ = dynamics._batch_csr(operators, cells, scale)
    c = rng.normal(size=(3, cells, 4))
    expected = np.reshape([[[float(c[t, b, k]) * (value * scale) for _, k, _, value in entries]
                            for b in range(cells)] for t in range(3)], (3, cells, len(entries)))

    w = weights(c)
    assert w.dtype == float and w.shape == (3, cells, len(entries))
    assert w.tobytes() == expected.tobytes()
    if cells < 2:
        return
    c[1, 0] = [-0.0, -1.0, -0.0, -2.0]  # products -0.0 and -1.0 * 0.0, summed from 0
    c[2, 1, 2] = np.inf
    with np.errstate(invalid="ignore"):  # inf * 0, silenced as _rk4 does
        w = weights(c)
    negative_zero = [e for e, (_, k, _, _) in enumerate(entries) if k in (0, 2)]
    assert np.all(w[1, 0, negative_zero] == 0.0)
    assert not np.signbit(w[1, 0, negative_zero]).any()
    infinite = np.array([k == 2 for _, k, _, _ in entries])
    assert np.isinf(w[2, 1, infinite]).all() and np.isnan(w[2, 1, ~infinite]).all()
    assert w[2, [0, 2, 3]].tobytes() == expected[2, [0, 2, 3]].tobytes()


@pytest.mark.parametrize("cells", [0, 1, 3, 6])
def test_real_step_program_writes_the_weights_of_its_coefficients(rng, monkeypatch, cells):
    """A real step program's data from coefficients against the data its weights give.

    The weights path (no spread, the one complex batches take) puts
    weights(c) into the program's slots; the real path writes c @ spread and
    [c, 1] @ U straight in.
    Each slot has one nonzero term, so every float the program hands
    csr_matvec is the same, bit for bit: over a 4-step chunk and the
    one-step chunk after it (whose first A1 row carries the last one's
    coefficients), a -0.0 coefficient (+0.0 on both paths) and an infinite
    one. The only difference is the infinite cell's four ones per T row at
    that step: inf * 0 makes them NaN, where the weights path keeps 1.0.
    """
    liouvillian = model.open_liouvillian()
    operators, n = liouvillian.operators, liouvillian.imag_of.max() + 1
    weights, spread, indptr, indices = dynamics._batch_csr(operators, cells, 0.01)
    assert spread is not None
    c0 = rng.normal(size=(cells, len(operators)))
    c = rng.normal(size=(10, cells, len(operators)))
    if cells >= 3:
        c[1, 1, [0, 3]] = -0.0  # the first full step's drive coefficients of cell 1
        c[3, 2, 5] = np.inf  # the second full step's of cell 2
    state = rng.normal(size=(cells, n))
    real_matvec = dynamics.csr_matvec
    runs = []
    for spread_in in (spread, None):  # None: the weights path
        handed = []

        def capturing(rows, cols, indptr_, indices_, data, x, y):
            handed.append((data[:indptr_[rows]].copy(), x[:rows].copy()))
            return real_matvec(rows, cols, indptr_, indices_, data, x, y)

        dynamics._check_in_place()
        monkeypatch.setattr(dynamics, "csr_matvec", capturing)
        advance = dynamics._step_program(indptr, indices, 4, float, weights, c0, spread_in)
        with np.errstate(invalid="ignore", over="ignore"):
            outputs = [advance(state, c[:8]).copy(), advance(state, c[8:]).copy()]
        monkeypatch.setattr(dynamics, "csr_matvec", real_matvec)
        runs.append((handed, outputs))

    (program, program_out), (loaded, loaded_out) = runs
    assert [d.size for d, _ in program] == [d.size for d, _ in loaded]
    assert program[1][0].size * 4 == program[0][0].size
    for (got, _), (want, _) in zip(program, loaded):
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert np.isnan(got[differ]).all() and np.all(want[differ] == 1.0)
        assert differ.sum() == (4 * (indptr.size - 1) // cells if cells >= 3 and
                                got is program[0][0] else 0)
    healthy = np.arange(cells) != 2  # both calls start from state: the second is finite
    assert program_out[1].tobytes() == loaded_out[1].tobytes()
    assert program_out[0][healthy].tobytes() == loaded_out[0][healthy].tobytes()
    assert np.isfinite(program_out[0][healthy]).all() and np.isnan(program_out[0][~healthy]).all()
    if cells >= 3:  # step 1's A1 row holds cell 1's weights of c[1]
        per_cell = indices.size // cells
        first = program[0][0].size // 4 + per_cell
        zeros = first + np.flatnonzero(weights(c[1:2])[0, 1] == 0.0)
        assert zeros.size and not np.signbit(program[0][0][zeros]).any()


def test_integrator_config_needs_a_finite_positive_step():
    for dt in (math.nan, math.inf, -math.inf, -0.01):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(dt=dt)


def test_run_shorter_than_half_a_step_is_rejected():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="makes no step"):
        dynamics.evolve_schrodinger([SIGMA_X], _constant(0.35), psi0, 0.005,
                                    IntegratorConfig(dt=0.01))
    assert dynamics.evolve_schrodinger([SIGMA_X], _constant(0.35), psi0, 0.006,
                                       IntegratorConfig(dt=0.01)).metadata["n_steps"] == 1


def test_step_count_edges():
    assert dynamics.step_count(1.0, 1.0) == 1
    with pytest.raises(ValueError, match="makes no step") as no_step:
        dynamics.step_count(0.5, 1.0)  # round(0.5) is 0
    assert not isinstance(no_step.value, dynamics.StepCapError)
    assert dynamics.step_count(math.nextafter(0.5, 1.0), 1.0) == 1
    with pytest.raises(ValueError, match="makes no step"):
        dynamics.step_count(math.nan, 0.01)
    assert dynamics.step_count(float(dynamics.STEP_CAP), 1.0) == dynamics.STEP_CAP
    with pytest.raises(dynamics.StepCapError, match="more than"):
        dynamics.step_count(float(dynamics.STEP_CAP + 1), 1.0)
    with pytest.raises(dynamics.StepCapError):  # 50 / 1e-320 overflows to inf
        dynamics.step_count(50.0, 1e-320)


def test_recorded_memory_is_capped_before_any_step(monkeypatch):
    # 100 steps recorded at each: 101 points. A run of one state of 2
    # amplitudes keeps per point its time, its fidelity, the 2 complex
    # amplitudes and a row of 2 populations and the leak. A batch keeps per
    # cell, whatever the number of cells, a time and a fidelity per point.
    psi0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], dtype=complex)
    cfg = IntegratorConfig(dt=0.01, record_every=1)
    held, per_cell = 101 * (8 + 8 + 2 * 16 + 3 * 8), 101 * 16

    def coefficients(times):
        return np.full((len(times), len(cells), 1), 0.35, dtype=complex)

    def no_step(times):
        raise AssertionError("a run over the cap asked for its coefficients")

    cells = psi0[:1]
    monkeypatch.setattr(dynamics, "RECORD_CAP", held)
    result = dynamics.evolve_schrodinger([SIGMA_X], coefficients, psi0[0], 1.0, cfg)
    assert len(result.times) == 101 and result.populations.shape == (101, 3)
    monkeypatch.setattr(dynamics, "RECORD_CAP", held - 1)
    with pytest.raises(dynamics.StepCapError, match=f"101 recorded points take {held} "
                                                    f"bytes per cell, more than {held - 1}"):
        dynamics.evolve_schrodinger([SIGMA_X], no_step, psi0[0], 1.0, cfg)
    # The batch's fidelities and final state are the run's, its one row t_f's.
    cells = psi0
    monkeypatch.setattr(dynamics, "RECORD_CAP", per_cell)
    batch = dynamics.evolve_schrodinger([SIGMA_X], coefficients, psi0, 1.0, cfg)
    assert batch.fidelity[:, 0].tobytes() == result.fidelity.tobytes()
    assert batch.populations.shape == (1, 3, 3)
    assert batch.populations[0, 0].tobytes() == result.populations[-1].tobytes()
    assert batch.final_state[0].tobytes() == result.final_state.tobytes()
    monkeypatch.setattr(dynamics, "RECORD_CAP", per_cell - 1)
    over = f"101 recorded points take {per_cell} bytes per cell, more than {per_cell - 1}"
    for state in (psi0, psi0[:1]):  # three cells and one alike
        with pytest.raises(dynamics.StepCapError, match=over):
            dynamics.evolve_schrodinger([SIGMA_X], no_step, state, 1.0, cfg)


def test_recorded_points_hold_what_the_cap_prices(monkeypatch):
    """The arrays a run keeps for its recorded points are the bytes RECORD_CAP prices per cell.

    A batch of one cell, as a sweep batch of one runs, holds 16 bytes a
    point; a run of one state also its copies of the state and its rows.
    """
    cfg = IntegratorConfig(dt=0.01, record_every=1)
    kept = []
    finish = dynamics._Observer.finish

    def holding(observer, state):
        kept.append(observer.times.nbytes + observer.fids.nbytes
                    + (observer.states.nbytes if observer.series else 0))
        return finish(observer, state)

    def coefficients(times):
        return np.full((len(times), 1, 1), 0.35, dtype=complex)

    monkeypatch.setattr(dynamics._Observer, "finish", holding)
    batch = dynamics.evolve_schrodinger([SIGMA_X], coefficients, np.eye(2)[:1] + 0j, 1.0, cfg)
    one = dynamics.evolve_schrodinger([SIGMA_X], coefficients, np.eye(2)[0] + 0j, 1.0, cfg)
    assert kept[0] == 101 * 16
    assert kept[1] + one.populations.nbytes == 101 * (8 + 8 + 2 * 16 + 3 * 8)
    assert batch.populations.nbytes == 3 * 8


def test_step_program_rejects_32_bit_overflow_before_building(monkeypatch):
    """A step program of more than 2**31 - 1 entries raises before any step-sized array.

    On a dense 3 x 3 operator a step holds 72 program entries and 24 work
    rows. At 2**29 steps both overflow, at 2**25 only the entries do.
    """
    weights, spread, indptr, indices = dynamics._batch_csr([np.ones((3, 3))], 1, 0.5)

    def step_sized(*args, **kwargs):
        raise AssertionError("a step-sized array was built")

    monkeypatch.setattr(np, "tile", step_sized)  # the program's first step-sized array
    for steps in (2**29, 2**25):
        with pytest.raises(ValueError, match=f"of {steps} steps overflows 32-bit CSR indices"):
            dynamics._step_program(indptr, indices, steps, float, weights, np.ones((1, 1)),
                                   spread)


def test_rk4_is_fourth_order_on_the_two_level_rotation():
    """Every recorded point of the exact-TQD two-level run against its closed form.

    Under exact TQD the two-level coupling is i theta_dot (verify), so from
    (1, 0) the state is (cos dtheta, -sin dtheta), dtheta = theta(t) - theta(0)
    (pulses.mixing_angle). Halving dt must cut the error 16-fold.
    """
    p, delta = pulses.StirapParams(), ModelParams().delta
    drives = verify.reduced_drives(verify.two_level_coefficients, p, delta)
    final_errors, point_errors = [], []
    for dt, final_bound, point_bound in ((0.4, 7.9e-9, 3.8e-8), (0.2, 5.0e-10, 2.4e-9),
                                         (0.1, 3.1e-11, 1.5e-10)):
        run = dynamics.evolve_schrodinger(verify.TWO_LEVEL_OPERATORS, drives,
                                          np.array([1.0, 0.0], dtype=complex), p.t_f,
                                          IntegratorConfig(dt=dt, record_every=1))
        assert len(run.times) == round(p.t_f / dt) + 1
        angle = pulses.mixing_angle(p, run.times) - pulses.mixing_angle(p, 0.0)
        exact = np.column_stack([np.cos(angle), -np.sin(angle)])
        final_errors.append(np.linalg.norm(run.final_state - exact[-1]))
        point_errors.append(np.max(np.linalg.norm(
            np.sqrt(run.populations[:, :2]) - np.abs(exact), axis=-1)))
        assert final_errors[-1] <= final_bound and point_errors[-1] <= point_bound
    for errors in (final_errors, point_errors):
        ratios = np.divide(errors[:-1], errors[1:])
        assert np.all((15.0 <= ratios) & (ratios <= 17.0)), ratios


@pytest.mark.parametrize("kind, system, dt", [
    (PulseKind.STIRAP, "closed", 0.1), (PulseKind.STIRAP, "closed", 0.05),
    (PulseKind.TQD_EXACT, "closed", 0.01), (PulseKind.TQD_EXACT, "closed", 0.0125),
    (PulseKind.TQD_FITTED, "closed", 0.01), (PulseKind.TQD_FITTED, "closed", 0.0125),
    (PulseKind.TQD_FITTED, "open", 0.01), (PulseKind.TQD_FITTED, "open", 0.0125),
], ids=lambda v: str(getattr(v, "value", v)))
def test_rk4_order_from_step_halving(kind, system, dt):
    """(F(dt) - F(dt/2)) / (F(dt/2) - F(dt/4)) is near 16 = 2**4, with no reference solution.

    On the real operators, lumping included: the closed chain for each
    method and the open run at the benchmark rates. The steps keep the
    differences above rounding (about 1e-14; they are 5e-13 to 3e-11 here)
    and the runs within their drift tolerance; at dt >= 0.05 the TQD
    ratios read 17-20.
    """
    params = (ModelParams(kappa=experiments.BENCHMARK_KAPPA, gamma=experiments.BENCHMARK_GAMMA)
              if system == "open" else ModelParams())
    simulate = experiments.simulate_open if system == "open" else experiments.simulate_closed
    pulse_set = experiments.default_pulse_set(kind, params)
    f = [simulate(params, pulse_set, IntegratorConfig(dt=dt / 2**i, record_every=10**9))
         .final_fidelity for i in range(3)]
    ratio = (f[0] - f[1]) / (f[1] - f[2])
    assert 15.0 <= ratio <= 18.0, ratio


def test_step_program_needs_an_in_place_matvec(monkeypatch):
    """The program reads rows written earlier in the same csr_matvec call; a copy of x fails it."""
    def run():
        return dynamics.evolve_schrodinger([SIGMA_X], _constant(0.35),
                                           np.array([1.0, 0.0], dtype=complex), 1.0,
                                           IntegratorConfig(dt=0.01))

    real_matvec = dynamics.csr_matvec
    dynamics._check_in_place.cache_clear()
    dynamics._check_in_place()  # this scipy's kernel passes
    assert run().metadata["executor"] == "step program"
    expected = run().final_state

    def copying(n_row, n_col, indptr, indices, data, x, y):
        real_matvec(n_row, n_col, indptr, indices, data, x.copy(), y)

    monkeypatch.setattr(dynamics, "csr_matvec", copying)
    dynamics._check_in_place.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="does not read the rows it has written"):
            dynamics._check_in_place()
        with pytest.raises(RuntimeError, match="step program"):
            run()
        monkeypatch.setattr(dynamics, "PROGRAM_STEP_BYTES", 0)  # the loop does not need it
        assert np.array_equal(run().final_state, expected)
    finally:
        dynamics._check_in_place.cache_clear()


def test_sparse_kernels_load_before_scipy_sparse():
    """scipy.sparse imported after dynamics sets its _sparsetools and shares its csr_matvec."""
    code = ("import numpy as np; from tqd3d import dynamics; import scipy.sparse as sp; "
            "from scipy.sparse.csgraph import connected_components; "
            "a = sp.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]])); "
            "print(sp._sparsetools.csr_matvec is dynamics.csr_matvec, a @ np.ones(2), "
            "connected_components(a)[0])")
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["True", "[2.", "0.]", "1"]


def test_sparse_kernels_load_alone(monkeypatch):
    """_load_sparsetools leaves no sys.modules entry and gives the same kernels, or ImportError."""
    name = "scipy.sparse._sparsetools"
    monkeypatch.delitem(sys.modules, name, raising=False)
    assert dynamics._load_sparsetools().csr_matvec is dynamics.csr_matvec
    assert name not in sys.modules
    searched = []

    def not_found(fullname, path=None, target=None):
        searched.extend(path)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", not_found)
    with pytest.raises(ImportError) as caught:
        dynamics._load_sparsetools()
    assert [os.path.basename(path) for path in searched] == ["sparse"]
    assert searched[0] in str(caught.value) and caught.value.name == name
    assert name not in sys.modules


def _every_operator(monkeypatch):
    """Make _rk4 hold every operator, driven or not: the run the selection must match."""
    monkeypatch.setattr(dynamics, "_driven", lambda c: np.ones(c.shape[-1], bool))


# Columns for the last operator of the runs below, (times, cells) from times
# and cells: +-0.0 throughout; 0.0 through the first block of 100 steps
# (t < 1) and up to t = 1.3, then 0.05; 0.0, but NaN in cell 1 from t = 2.5
# on; and a run whose every coefficient is multiplied by 0.0 (signs kept).
UNDRIVEN = {
    "signed_zero": lambda t, cells: np.where(np.arange(cells) % 2, -0.0, 0.0) + 0 * t[:, None],
    "driven_later": lambda t, cells: np.where(t[:, None] >= 1.3, 0.05, 0.0) + 0 * np.ones(cells),
    "nan_later": lambda t, cells: np.where((t[:, None] > 2.5) & (np.arange(cells) == 1),
                                           np.nan, 0.0),
    "all_zero": lambda t, cells: np.zeros((t.size, cells)),
}


def _undriven_run(real: bool, case: str, cells: int):
    """A batch on the open Liouvillian (real) or the chain (complex) whose last column is case's.

    Drives as TQD pulses give them: on the Liouvillian Re omega_a is -0.0
    and Im omega_b 0.0, so both are left out as well.
    """
    cfg = IntegratorConfig(dt=0.01, record_every=50)

    def coefficients(times):
        t = times[:, None] - 0.2 * np.arange(cells)
        omega_a, omega_b = -0.6j * np.exp(-((t - 2.0) ** 2)), 0.4 * np.exp(-((t - 1.5) ** 2))
        if real:
            c = np.zeros((times.size, cells, 8))
            c[..., 0], c[..., 1], c[..., 2], c[..., 3] = -0.0, omega_a.imag, omega_b, 0.0
            c[..., 4:7] = 1.0, 0.5, 0.02
        else:
            c = np.zeros((times.size, cells, 6), dtype=complex)
            c[..., :5] = np.stack([omega_a, omega_a.conj(), omega_b, omega_b, np.ones_like(t)], -1)
        c[..., -1] = UNDRIVEN[case](times, cells)
        return c * 0.0 if case == "all_zero" else c

    if real:
        rho0 = np.tile(experiments._initial_density(), (cells, 1, 1))
        return dynamics.evolve_lindblad(
            model.open_liouvillian(), coefficients, rho0, 4.0, cfg,
            tracked=hilbert.subspace_indices(hilbert.build_subspace(), model.open_space()),
            target=dynamics.target_state(model.open_space()))
    psi0 = np.tile(np.eye(8, dtype=complex)[0], (cells, 1))
    return dynamics.evolve_schrodinger(model.hamiltonian_terms(hilbert.build_subspace()),
                                       coefficients, psi0, 4.0, cfg,
                                       target=dynamics.target_state(hilbert.build_subspace()))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case, cells", [(case, 3) for case in UNDRIVEN] + [("signed_zero", 0)],
                         ids=[*UNDRIVEN, "zero_cells"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("threshold", [0, math.inf], ids=["step_loop", "step_program"])
def test_undriven_operators_change_no_bit(monkeypatch, threshold, real, case, cells):
    """Leaving out the operators whose coefficients are all zero at t = 0 changes no bit.

    The oracle is the same run holding every operator. An undriven column
    that turns nonzero (or NaN) later rebuilds the executor with every
    operator at the start of its block; a NaN cell fails as not finite and
    leaves the other cells as they are.
    """
    monkeypatch.setattr(dynamics, "PROGRAM_STEP_BYTES", threshold)
    runs = [_undriven_run(real, case, cells)]
    _every_operator(monkeypatch)
    runs.append(_undriven_run(real, case, cells))
    (got, want), k = runs, 8 if real else 6
    for name in ("times", "fidelity", "populations", "final_state"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    meta, oracle = got.metadata, want.metadata
    keys = ["max_trace_drift", "min_eigenvalue", "positivity_warnings"] if real else ["max_norm_drift"]
    assert [meta[key] for key in keys] == [oracle[key] for key in keys]
    assert {b: str(e) for b, e in meta["failures"].items()} == (
        {1: "coefficients not finite by t=3"} if case == "nan_later" else {})
    assert {b: str(e) for b, e in oracle["failures"].items()} == {
        b: str(e) for b, e in meta["failures"].items()}
    later = case in ("driven_later", "nan_later")
    left = 0 if later else k if case == "all_zero" or not cells else 3 if real else 1
    assert (meta["operators"], meta["rebuilds"]) == (k - left, int(later))
    assert (oracle["operators"], oracle["rebuilds"]) == (k, 0)
    if cells:
        assert meta["executor"] == oracle["executor"] == (
            "step loop" if threshold == 0 else "step program")
