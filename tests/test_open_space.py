"""Oracles for the 16-state open-system space.

Open runs integrate the master equation on the states reachable from
|g0,g0,vac> instead of on the 80-dim product space. These tests check the
closure itself, the restricted operators, an 80-dim run of the same equation
and an exponential propagator that shares no code with the RK4 integrator.
"""

import numpy as np
import scipy.linalg

from tqd3d import dynamics, experiments, hilbert, model
from tqd3d.dynamics import IntegratorConfig
from tqd3d.hilbert import BasisState, LevelA, LevelB
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind

BENCHMARK = ModelParams(kappa=experiments.BENCHMARK_KAPPA,
                        gamma=experiments.BENCHMARK_GAMMA)


def _coupling_ops(terms):
    return (terms.drive_a, terms.drive_b, terms.cavity)


def _jump_ops(space):
    return [op for op, _ in model.collapse_channels(ModelParams(), space)]


def test_reachable_space_closures(full_space, subspace, terms80):
    start = BasisState(LevelA.g0, LevelB.g0, 0, 0)
    coherent = hilbert.reachable_space(full_space, _coupling_ops(terms80), [], start)
    assert coherent.basis == subspace.basis  # the chain, in phi_1..phi_8 order

    space = hilbert.reachable_space(full_space, _coupling_ops(terms80),
                                    _jump_ops(full_space), start)
    jump_reached = {
        BasisState(LevelA.gL, LevelB.g0, 0, 0), BasisState(LevelA.gR, LevelB.g0, 0, 0),
        BasisState(LevelA.gL, LevelB.gR, 0, 0), BasisState(LevelA.gR, LevelB.gL, 0, 0),
        BasisState(LevelA.gL, LevelB.eR, 0, 0), BasisState(LevelA.gR, LevelB.eL, 0, 0),
        BasisState(LevelA.gL, LevelB.g0, 0, 1), BasisState(LevelA.gR, LevelB.g0, 1, 0),
    }
    assert space.basis[:8] == subspace.basis
    assert set(space.basis[8:]) == jump_reached
    rest = [full_space.index[s] for s in space.basis[8:]]
    assert rest == sorted(rest)
    assert model.open_space().basis == space.basis


def test_reachable_space_jumps_are_one_way():
    space = hilbert.HilbertSpace(tuple(
        BasisState(LevelA.g0, LevelB.g0, nl, 0) for nl in (0, 1)))
    lower = hilbert.annihilation_operator(space, "L")
    down = hilbert.reachable_space(space, [], [lower], space.basis[1])
    up = hilbert.reachable_space(space, [], [lower], space.basis[0])
    assert down.dim == 2 and up.basis == (space.basis[0],)
    assert hilbert.reachable_space(space, [lower], [], space.basis[0]).dim == 2


def test_open_space_operators_are_restrictions(full_space, terms80):
    space = model.open_space()
    idx = hilbert.subspace_indices(space, full_space)
    sel = np.ix_(idx, idx)
    outside = np.ones(full_space.dim, dtype=bool)
    outside[idx] = False

    terms16 = model.hamiltonian_terms(space)
    for name in ("drive_a", "drive_b", "cavity", "excited"):
        op80 = getattr(terms80, name)
        assert np.array_equal(getattr(terms16, name), op80[sel])
        for op in (op80, op80.conj().T):
            assert not np.any(op[outside][:, idx])

    params = ModelParams(kappa=0.01, gamma=0.05)
    for (op16, r16), (op80, r80) in zip(model.collapse_channels(params, space),
                                        model.collapse_channels(params, full_space)):
        assert r16 == r80
        assert np.array_equal(op16, op80[sel])
        assert not np.any(op80[outside][:, idx])


def _unit_dissipators(space):
    """The kappa and the gamma dissipator of space at unit rate."""
    return [dynamics.dissipator_superoperator(model.collapse_channels(rates, space), space.dim)
            for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))]


def test_open_run_matches_full_space_run(full_space, subspace, terms80):
    cfg = IntegratorConfig(dt=0.01)
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, BENCHMARK)
    reduced = experiments.simulate_open(BENCHMARK, pulse_set, cfg)

    # The same master equation on the 80-dim product space, support closed there.
    psi0 = full_space.ket(subspace.basis[0])
    rho0 = np.outer(psi0, psi0.conj())
    drives = model.CellDrives(terms80, [(BENCHMARK, pulse_set)])
    full = dynamics.evolve_lindblad(
        dynamics.Liouvillian.reachable(drives.operators, _unit_dissipators(full_space), rho0),
        model.open_coefficients(drives, [BENCHMARK]), rho0, BENCHMARK.t_f, cfg,
        tracked=hilbert.subspace_indices(subspace, full_space),
        target=dynamics.target_state(full_space),
    )
    assert reduced.final_state.shape == (16, 16)
    assert full.metadata["support"] == reduced.metadata["support"] == 84
    assert np.array_equal(reduced.times, full.times)
    assert np.max(np.abs(reduced.fidelity - full.fidelity)) < 1e-12
    assert np.max(np.abs(reduced.populations - full.populations)) < 1e-12
    assert reduced.metadata["positivity_warnings"] == []


def test_open_run_matches_per_step_hamiltonian_run(subspace):
    """The support run against RK4 on the dense 16x16 rho with H(t) built at each stage.

    That is the master equation as -i[H(t), rho] plus the sparse dissipator
    matvec, symmetrized after each step, sharing no right-hand side with the
    support run; both integrate the same RK4 steps, so they agree to rounding.
    """
    space = model.open_space()
    cfg = IntegratorConfig(dt=0.01)
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, BENCHMARK)
    run = experiments.simulate_open(BENCHMARK, pulse_set, cfg)

    h_of_t = model.make_h_of_t(model.hamiltonian_terms(space), BENCHMARK, pulse_set)
    dissipator = dynamics.dissipator_superoperator(model.collapse_channels(BENCHMARK, space),
                                                   space.dim)

    def rhs(h, rho):
        return -1j * (h @ rho - rho @ h) + (dissipator @ rho.ravel()).reshape(rho.shape)

    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    target = dynamics.target_state(space)
    dt, fids, pops = cfg.dt, [], []
    for step in range(round(BENCHMARK.t_f / dt) + 1):
        if step % cfg.record_every == 0:
            fids.append(np.real(target.conj() @ rho @ target))
            pops.append(np.real(np.diag(rho))[:8])
        h0, h_half, h1 = (h_of_t(step * dt + s) for s in (0.0, dt / 2, dt))
        k1 = rhs(h0, rho)
        k2 = rhs(h_half, rho + 0.5 * dt * k1)
        k3 = rhs(h_half, rho + 0.5 * dt * k2)
        k4 = rhs(h1, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    assert np.max(np.abs(run.fidelity - np.array(fids))) < 1e-12
    assert np.max(np.abs(run.populations[:, :8] - np.array(pops))) < 1e-12


def _h_blocks(space):
    """Connected components of the open space under the Hamiltonian terms, in space order."""
    terms = model.hamiltonian_terms(space)
    links = sum(np.abs(op) + np.abs(op.T) for op in
                (terms.drive_a, terms.drive_b, terms.cavity, terms.excited))
    blocks, seen = [], set()
    for i in range(space.dim):
        if i not in seen:
            block = hilbert.closure(links, [i])
            seen.update(block.tolist())
            blocks.append(block)
    return blocks


def test_liouville_support_closure():
    space = model.open_space()
    support = model.open_liouvillian()
    dim = space.dim
    assert support.dim == dim and support.entries.size == 84
    assert sum(op.nnz for op in support.operators) == 416

    # Closed under the full 256x256 pattern of every structure operator, built
    # here with dense column-stacked krons and read back in row-major order.
    rows, cols = np.divmod(np.arange(dim * dim), dim)
    colmajor = cols * dim + rows  # row-major position -> column-stacked position
    eye = np.eye(dim)
    drives = model.CellDrives(model.hamiltonian_terms(space), []).operators
    full = [-1j * (np.kron(eye, op) - np.kron(op.T, eye)) for op in drives]
    full += [_column_stacked_dissipator(model.collapse_channels(rates, space), dim)
             for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))]
    inside = np.zeros(dim * dim, dtype=bool)
    inside[support.entries] = True
    for op, restricted in zip(full, support.operators):
        op = op[np.ix_(colmajor, colmajor)]
        assert not np.any(op[~inside][:, inside])
        assert np.allclose(restricted.toarray(), op[np.ix_(support.entries, support.entries)],
                           rtol=0, atol=1e-15)

    # rho stays block-diagonal over the H-connected blocks of the open space.
    blocks = _h_blocks(space)
    assert sorted(b.size for b in blocks) == [1, 1, 3, 3, 8]
    expected = sorted(i * dim + j for b in blocks for i in b for j in b)
    assert support.entries.tolist() == expected

    # Atom B's e_R -> g_L decay feeds |phi_7><phi_7| from the {9, 10, 11} block,
    # so the chain block alone (a chain-only support) is not closed.
    phi7 = space.index[BasisState(LevelA.gL, LevelB.gL, 0, 0)]
    source = space.index[BasisState(LevelA.gL, LevelB.eR, 0, 0)]
    assert phi7 == 6 and [9, 10, 11] in [b.tolist() for b in blocks]
    assert source in (9, 10, 11)
    d_gamma = full[-1][np.ix_(colmajor, colmajor)]
    assert d_gamma[phi7 * dim + phi7, source * dim + source] != 0


def _column_stacked_dissipator(channels, dim):
    """Dense sum_c rate_c (L rho L+ - {L+L, rho}/2) on the column-stacked vec(rho).

    vec(A X B) = (B^T kron A) vec(X), so the superoperator is built
    independently of dynamics.dissipator_superoperator.
    """
    eye = np.eye(dim)
    dissipator = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op, rate in channels:
        decay = op.conj().T @ op
        dissipator += rate * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, decay)
                              - 0.5 * np.kron(decay.T, eye))
    return dissipator


def _midpoint_exponential(h_of_t, channels, rho0, t_f, n_steps):
    """rho(t_f) from exact exponentials of the Liouvillian frozen at each step's midpoint."""
    dim = rho0.shape[0]
    eye = np.eye(dim)
    dissipator = _column_stacked_dissipator(channels, dim)
    h = t_f / n_steps
    vec = rho0.reshape(-1, order="F")
    for k in range(n_steps):
        ham = h_of_t((k + 0.5) * h)
        liouvillian = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye)) + dissipator
        vec = scipy.linalg.expm(h * liouvillian) @ vec
    return vec.reshape(dim, dim, order="F")


def test_rk4_lindblad_matches_liouvillian_exponential():
    """RK4 on the 16-state space against piecewise-constant midpoint exponentials.

    The midpoint exponential propagator is second order: once the step is
    small enough its error falls four-fold when the step halves, so the run
    with 160 steps lies about a third of |X_80 - X_160| from the exact
    result, for X the fidelity or a chain population. That step-halving
    difference is the tolerance. RK4 at dt 0.01 is much closer (its fidelity
    moves by 9e-12 against dt 0.002). Measured at the benchmark rates:
    |F_80 - F_160| = 5.0e-6 and |F_160 - F_RK4| = 2.0e-6; populations 2.3e-4
    and 7.6e-5. Below 80 steps the error is not yet quadratic (F_40 is off
    by 7e-4), so halving from there would say nothing.
    """
    space = model.open_space()
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, BENCHMARK)
    rk4 = experiments.simulate_open(BENCHMARK, pulse_set, IntegratorConfig(dt=0.01))

    h_of_t = model.make_h_of_t(model.hamiltonian_terms(space), BENCHMARK, pulse_set)
    channels = model.collapse_channels(BENCHMARK, space)
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[0, 0] = 1.0
    target = dynamics.target_state(space)
    coarse, fine = (_midpoint_exponential(h_of_t, channels, rho0, BENCHMARK.t_f, n)
                    for n in (80, 160))

    def fid(rho):
        return float(np.real(target.conj() @ rho @ target))

    def pops(rho):
        return np.real(np.diag(rho))[:8]

    f_tol = abs(fid(coarse) - fid(fine))
    p_tol = np.max(np.abs(pops(coarse) - pops(fine)))
    assert abs(fid(fine) - rk4.final_fidelity) < f_tol
    assert np.max(np.abs(pops(fine) - rk4.populations[-1, :8])) < p_tol
    assert f_tol < 1e-4 and p_tol < 1e-3  # the exponential run itself has converged
