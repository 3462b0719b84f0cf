import math

import numpy as np
import pytest
import scipy.sparse as sp

from tqd3d import dynamics, experiments, hilbert, model, pulses
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

    h_of_t = model.make_h_of_t(model.hamiltonian_terms(subspace), params, pulse_set)
    psi = np.eye(subspace.dim, dtype=complex)[0]
    target = dynamics.target_state(subspace)
    dt, fids, pops = cfg.dt, [], []
    for step in range(round(params.t_f / dt) + 1):
        if step % cfg.record_every == 0:
            fids.append(abs(np.vdot(target, psi)) ** 2)
            pops.append(np.abs(psi) ** 2)
        h0, h_half, h1 = (h_of_t(step * dt + s) for s in (0.0, dt / 2, dt))
        k1 = -1j * h0 @ psi
        k2 = -1j * h_half @ (psi + 0.5 * dt * k1)
        k3 = -1j * h_half @ (psi + 0.5 * dt * k2)
        k4 = -1j * h1 @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert run.fidelity.shape == (len(fids),)
    assert np.max(np.abs(run.fidelity - np.array(fids))) < 1e-12
    assert np.max(np.abs(run.populations[:, :8] - np.array(pops))) < 1e-12


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


def test_positivity_warnings_name_the_cells_of_a_batch():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.diag([-0.5, 1.5]).astype(complex)  # unit trace, not positive
    decay = dynamics.Liouvillian.reachable(
        [], [dynamics.dissipator_superoperator([(lower, 1.0)], 2)], rho0)
    cfg = IntegratorConfig(dt=0.1, record_every=10)
    one = dynamics.evolve_lindblad(decay, _constant(0.0), rho0, 1.0, cfg)
    text = ["eigenvalue -5.00e-01 < -1e-05 at t=0", "eigenvalue -5.00e-01 < -1e-05 at t=1"]
    assert one.metadata["positivity_warnings"] == text
    batch = dynamics.evolve_lindblad(decay, lambda times: np.zeros((len(times), 2, 1)),
                                     np.stack([np.diag([0.5, 0.5]), rho0]), 1.0, cfg)
    assert batch.metadata["positivity_warnings"] == [f"cell 1: {line}" for line in text]


def test_lindblad_rejects_what_breaks_hermiticity():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="Hermiticity"):  # -i[D, .] with D not Hermitian
        dynamics.Liouvillian.reachable([lower], [], rho0)
    with pytest.raises(ValueError, match="Hermiticity"):  # rho -> i rho
        dynamics.Liouvillian.reachable([], [1j * sp.identity(4, format="csr")], rho0)
    with pytest.raises(ValueError, match="transposition"):  # a coherence without its mirror
        dynamics.Liouvillian.reachable([np.diag([1.0, -1.0])], [],
                                       np.array([[0.0, 1.0], [0.0, 0.0]]))
    rabi = dynamics.Liouvillian.reachable([SIGMA_X], [], np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="real"):
        dynamics.evolve_lindblad(rabi, _constant(0.35 + 0.1j), np.diag([1.0, 0.0]), 1.0)


def test_phase_times_in_metadata():
    closed = dynamics.evolve_schrodinger(
        model.CellDrives(model.hamiltonian_terms(hilbert.build_subspace()),
                         [(ModelParams(), pulses.PulseSet(PulseKind.STIRAP,
                                                          pulses.StirapParams()))]),
        np.eye(8, dtype=complex)[0], 1.0, IntegratorConfig(dt=0.01, record_every=10))
    rabi = dynamics.Liouvillian.reachable([SIGMA_X], [], np.diag([1.0, 0.0]))
    open_run = dynamics.evolve_lindblad(rabi, _constant(0.35), np.diag([1.0, 0.0]), 1.0,
                                        IntegratorConfig(dt=0.01, record_every=10))
    for result in (closed, open_run):
        assert result.metadata["integrate_s"] >= 0.0
        assert result.metadata["record_s"] >= 0.0


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


def test_open_batch_rows_do_not_depend_on_the_batch(subspace):
    # 33 cells: enough for a fancy-indexed (cells, tracked) population array
    # to be laid out column-major and summed across cells in another order.
    space = model.open_space()
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    params = [ModelParams(kappa=k, gamma=0.02) for k in np.linspace(0.0, 0.1, 33)]
    drives = model.CellDrives(model.hamiltonian_terms(space), [(p, pulse_set) for p in params])
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
    assert batch.populations.shape == (len(batch.times), len(params), 9)
    for b in (0, 17, 32):
        alone = run(slice(b, b + 1), rho0)
        assert np.array_equal(batch.populations[:, b], alone.populations)
        assert np.array_equal(batch.fidelity[:, b], alone.fidelity)
        assert np.array_equal(batch.final_state[b], alone.final_state)
    with pytest.raises(ValueError, match="33 cells"):  # one cell's coefficients for 33
        run(slice(0, 1), np.tile(rho0, (len(params), 1, 1)))


def test_excitation_decay_monotone_without_pulses(subspace):
    # pulses off: coherent part conserves excitation number, dissipation removes it
    params = ModelParams(kappa=0.05, gamma=0.05)
    space = model.open_space()
    psi0 = space.ket(subspace.basis[2])  # one photon present
    number = hilbert.excited_projector(space)
    for mode in ("L", "R"):
        a = hilbert.annihilation_operator(space, mode)
        number = number + a.conj().T @ a
    # open_liouvillian's operator order: X_a, Y_a, X_b, Y_b, cavity, detuning, kappa, gamma
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
            operators = [mats[0], mats[1] - 0.5 * mats[2], sp.csr_matrix(mats[2])]
        else:
            operators = [-1j * mats[0], mats[1] + 0.5j * mats[2], sp.csr_matrix(mats[2])]
        c = draw(real, 1, cells, 3)
        c[:, nan_cell:nan_cell + 1] = np.nan  # a cell whose pulses failed
        x = draw(real, cells, n)
        start = draw(real, cells, n)

        weights, indptr, indices = dynamics._batch_csr(operators, cells, scale)
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
            weights, indptr, indices = dynamics._batch_csr(operators, 1, scale)
            (w_alone,) = weights(c[:, b:b + 1])
            alone = start[b:b + 1].copy()
            dynamics._rhs(indptr, indices)(w_alone, x[b:b + 1], alone)
            assert np.array_equal(alone[0], got[b], equal_nan=True)


def test_integrator_config_needs_a_finite_positive_step():
    for dt in (math.nan, math.inf, -math.inf, -0.01):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(dt=dt)


def test_run_shorter_than_half_a_step_is_rejected():
    h = lambda t: 0.35 * SIGMA_X  # noqa: E731
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="makes no step"):
        dynamics.evolve_schrodinger(h, psi0, 0.005, IntegratorConfig(dt=0.01))
    assert dynamics.evolve_schrodinger(h, psi0, 0.006, IntegratorConfig(dt=0.01)
                                       ).metadata["n_steps"] == 1


def test_step_program_needs_an_in_place_matvec(monkeypatch):
    """The program reads rows written earlier in the same csr_matvec call; a copy of x fails it."""
    def run():
        return dynamics.evolve_schrodinger(lambda t: 0.35 * SIGMA_X,
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
