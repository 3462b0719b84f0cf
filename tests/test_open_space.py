"""Oracles for the 16-state open-system space.

Open runs integrate the master equation on the states reachable from
|g0,g0,vac> instead of on the 80-dim product space. These tests check the
closure itself, the restricted operators, an 80-dim run of the same equation
and an exponential propagator that shares no code with the RK4 integrator.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import h_of_t, structure_terms
from scipy.sparse.csgraph import connected_components
from test_dynamics import _dense_rk4

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


def test_open_space_operators_are_restrictions(full_space):
    space = model.open_space()
    idx = hilbert.subspace_indices(space, full_space)
    sel = np.ix_(idx, idx)
    outside = np.ones(full_space.dim, dtype=bool)
    outside[idx] = False

    terms80 = model.hamiltonian_terms(full_space)  # D_A, D_A+, D_B, D_B+, C + C+, P_e
    assert np.array_equal(model.hamiltonian_terms(space), terms80[:, idx[:, None], idx])
    for op in terms80:
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


def _scipy_dissipator(channels, dim):
    """sum_c rate_c (L kron conj L - L+L kron I / 2 - I kron (L+L)^T / 2) as a scipy CSR matrix.

    The row-major dissipator built from scipy.sparse.kron, an oracle for
    dynamics.dissipator_superoperator that shares none of its code.
    """
    total = scipy.sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
    eye = scipy.sparse.identity(dim, dtype=complex, format="csr")
    for op, rate in channels:
        if rate == 0.0:
            continue
        lop = scipy.sparse.csr_matrix(op)
        ldl = (lop.conj().T @ lop).tocsr()
        total = total + rate * (
            scipy.sparse.kron(lop, lop.conj(), format="csr")
            - 0.5 * scipy.sparse.kron(ldl, eye, format="csr")
            - 0.5 * scipy.sparse.kron(eye, ldl.T, format="csr")
        )
    return total.tocsr()


@pytest.mark.parametrize("rates", [ModelParams(kappa=1.0), ModelParams(gamma=1.0), BENCHMARK],
                         ids=["kappa", "gamma", "benchmark"])
@pytest.mark.parametrize("which", ["open_space", "full_space"])
def test_dissipator_matches_the_scipy_kron_oracle(which, rates, full_space):
    """Entry for entry and bit for bit: the runs' unit rates, and the benchmark's."""
    space = model.open_space() if which == "open_space" else full_space
    channels = model.collapse_channels(rates, space)
    got = dynamics.dissipator_superoperator(channels, space.dim)
    want = _scipy_dissipator(channels, space.dim)
    want.sort_indices()
    want = want.tocoo()
    assert got.nnz == want.nnz == np.count_nonzero(want.data) > 0
    assert np.array_equal(got.rows, want.row) and np.array_equal(got.cols, want.col)
    assert np.array_equal(got.values.view(np.uint64), want.data.view(np.uint64))


def test_open_run_matches_full_space_run(full_space, subspace):
    cfg = IntegratorConfig(dt=0.01)
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, BENCHMARK)
    reduced = experiments.simulate_open(BENCHMARK, pulse_set, cfg)

    # The same master equation on the 80-dim product space, support closed there.
    psi0 = full_space.ket(subspace.basis[0])
    rho0 = np.outer(psi0, psi0.conj())
    full = dynamics.evolve_lindblad(
        dynamics.Liouvillian.reachable(model.hermitian_drive_operators(
                                           model.hamiltonian_terms(full_space)),
                                       _unit_dissipators(full_space), rho0),
        model.open_coefficients(model.CellDrives([(BENCHMARK, pulse_set)]), [BENCHMARK]),
        rho0, BENCHMARK.t_f, cfg,
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

    That is the master equation as -i[H(t), rho] plus
    sum_c rate_c (L rho L+ - {L+L, rho}/2) straight from the collapse
    channels, symmetrized after each step, sharing no right-hand side with
    the support run; both integrate the same RK4 steps, so they agree to
    rounding. With the jumps J_c = sqrt(rate_c) L_c stacked, each stage takes
    G rho + rho G+ + sum_c J_c rho J_c+ in one batched product, for
    G = -i H - sum_c J_c+ J_c / 2.
    """
    space = model.open_space()
    cfg = IntegratorConfig(dt=0.01)
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, BENCHMARK)
    run = experiments.simulate_open(BENCHMARK, pulse_set, cfg)

    hamiltonian = h_of_t(structure_terms(space), BENCHMARK, pulse_set)
    jumps = np.stack([np.sqrt(rate) * op
                      for op, rate in model.collapse_channels(BENCHMARK, space)])  # (11, 16, 16)
    adjoints = jumps.conj().transpose(0, 2, 1)
    decay = 0.5 * (adjoints @ jumps).sum(axis=0)

    def rhs(h, rho):
        g = -1j * h - decay
        return g @ rho + rho @ g.conj().T + (jumps @ rho @ adjoints).sum(axis=0)

    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    target = dynamics.target_state(space)
    dt, fids, pops = cfg.dt, [], []
    for step in range(round(BENCHMARK.t_f / dt) + 1):
        if step % cfg.record_every == 0:
            fids.append(np.real(target.conj() @ rho @ target))
            pops.append(np.real(np.diag(rho))[:8])
        h0, h_half, h1 = (hamiltonian(step * dt + s) for s in (0.0, dt / 2, dt))
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
    links = sum(np.abs(op) + np.abs(op.T) for op in structure_terms(space))
    count, labels = connected_components(scipy.sparse.csr_matrix(links), directed=False)
    return [np.flatnonzero(labels == label) for label in range(count)]


def _mirror(space):
    """The index of each basis state's L<->R mirror image: gL <-> gR, eL <-> eR, n_L <-> n_R."""
    swap = {LevelA.gL: LevelA.gR, LevelA.gR: LevelA.gL, LevelB.gL: LevelB.gR,
            LevelB.gR: LevelB.gL, LevelB.eL: LevelB.eR, LevelB.eR: LevelB.eL}
    return np.array([space.index[BasisState(swap.get(s.a, s.a), swap.get(s.b, s.b),
                                            s.n_right, s.n_left)] for s in space.basis])


def _real_coordinates(entries, dim, mirror):
    """(to_values, from_values) between rho's values on entries and its real coordinates.

    rho_ij and its mirror image rho_{mirror[i], mirror[j]} share one value.
    Taking the pairs in the order of their first entries, a pair that is its
    own transpose holds a real value, one coordinate; any other pair gets Re
    then Im of its value, and its transpose gets none. rho's values are
    to_values @ x, and x = from_values @ values for a Hermitian rho equal on
    each pair, read at the first entry of a pair and of its transpose.
    """
    where = {int(e): k for k, e in enumerate(entries)}

    def pair(i, j):
        return sorted({where[i * dim + j], where[mirror[i] * dim + mirror[j]]})

    to_columns, from_rows, done = [], [], set()
    for e in entries:
        i, j = divmod(int(e), dim)
        own, flip = pair(i, j), pair(j, i)
        if own[0] in done:
            continue
        done.update(own + flip)
        to_column, from_row = np.zeros((2, len(entries)), dtype=complex)
        if own == flip:
            to_column[own] = from_row[own[0]] = 1.0
            to_columns.append(to_column)
            from_rows.append(from_row)
            continue
        to_column[own + flip] = 1.0
        from_row[[own[0], flip[0]]] = 0.5
        to_imag, from_imag = np.zeros((2, len(entries)), dtype=complex)
        to_imag[own], to_imag[flip] = 1j, -1j
        from_imag[[own[0], flip[0]]] = -0.5j, 0.5j
        to_columns += [to_column, to_imag]
        from_rows += [from_row, from_imag]
    return np.column_stack(to_columns), np.array(from_rows)


def _column_stacked_liouvillian(space):
    """The open Liouvillian's operators as dense superoperators on the column-stacked vec(rho).

    -i[G, .] for each Hermitian generator of model.hermitian_drive_operators,
    here from the tests' own terms, then the kappa and gamma dissipators at
    unit rate, built without dynamics.
    """
    eye = np.eye(space.dim)
    t = structure_terms(space)
    drives = [t.drive_a + t.drive_a.conj().T, 1j * (t.drive_a - t.drive_a.conj().T),
              t.drive_b + t.drive_b.conj().T, 1j * (t.drive_b - t.drive_b.conj().T),
              t.cavity + t.cavity.conj().T, t.excited]
    full = [-1j * (np.kron(eye, op) - np.kron(op.T, eye)) for op in drives]
    full += [_column_stacked_dissipator(model.collapse_channels(rates, space), space.dim)
             for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))]
    return full


def test_liouville_support_closure():
    space = model.open_space()
    support = model.open_liouvillian()
    dim = space.dim
    assert support.dim == dim and support.entries.size == 84
    # The 84 entries are 44 real coordinates: each entry shares its value
    # with its L<->R mirror image, and a pair of entries and its transpose
    # hold Re and Im of one value (one real value for a pair that is its own
    # transpose). The operators' 536 complex entries on rho's values give 229.
    to_values, from_values = _real_coordinates(support.entries, dim, _mirror(space))
    assert to_values.shape == (84, 44)
    assert [op.shape for op in support.operators] == [(44, 44)] * 8
    assert sum(np.count_nonzero(op) for op in support.operators) == 229

    # Closed under the full 256x256 pattern of every structure operator, built
    # here with dense column-stacked krons, read back in row-major order and
    # taken to the real coordinates.
    rows, cols = np.divmod(np.arange(dim * dim), dim)
    colmajor = cols * dim + rows  # row-major position -> column-stacked position
    full = _column_stacked_liouvillian(space)
    inside = np.zeros(dim * dim, dtype=bool)
    inside[support.entries] = True
    on_support = 0
    for op, restricted in zip(full, support.operators):
        op = op[np.ix_(colmajor, colmajor)]
        assert not np.any(op[~inside][:, inside])
        on_support += np.count_nonzero(op[np.ix_(support.entries, support.entries)])
        real = from_values @ op[np.ix_(support.entries, support.entries)] @ to_values
        assert np.allclose(real.imag, 0.0, rtol=0, atol=1e-15)
        assert np.allclose(restricted, real.real, rtol=0, atol=1e-15)
    assert on_support == 536

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


def test_real_coordinates_reproduce_liouvillian(rng):
    """Each real operator acts on a random Hermitian, mirror-symmetric rho as the dense one does."""
    space = model.open_space()
    support = model.open_liouvillian()
    dim, mirror = space.dim, _mirror(space)
    inside = np.zeros(dim * dim, dtype=bool)
    inside[support.entries] = True
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = np.where(inside.reshape(dim, dim), a + a.conj().T, 0.0)
    rho = 0.5 * (rho + rho[np.ix_(mirror, mirror)])
    to_values, from_values = _real_coordinates(support.entries, dim, mirror)
    x = (from_values @ rho.ravel()[support.entries]).real
    assert np.array_equal(support.coordinates(rho), x)
    assert np.array_equal(support.density(x), rho)
    for op, real in zip(_column_stacked_liouvillian(space), support.operators):
        want = (op @ rho.ravel(order="F")).reshape(dim, dim, order="F")
        got = np.zeros(dim * dim, dtype=complex)
        got[support.entries] = to_values @ (real @ x)
        assert np.allclose(got.reshape(dim, dim), want, rtol=0, atol=1e-13)


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

    hamiltonian = h_of_t(structure_terms(space), BENCHMARK, pulse_set)
    channels = model.collapse_channels(BENCHMARK, space)
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[0, 0] = 1.0
    target = dynamics.target_state(space)
    coarse, fine = (_midpoint_exponential(hamiltonian, channels, rho0, BENCHMARK.t_f, n)
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


@pytest.mark.parametrize("kind", list(PulseKind), ids=lambda kind: kind.value)
def test_open_run_keeps_each_pair_equal(kind):
    # From |phi_1> each entry of rho equals its L<->R mirror image for all t,
    # so the mirror pairs share their coordinates: 44 for 84 entries.
    space = model.open_space()
    cfg = IntegratorConfig(dt=0.05)
    run = experiments.simulate_open(BENCHMARK, experiments.default_pulse_set(kind, BENCHMARK),
                                    cfg)
    assert run.metadata["state_shape"] == (1, 44)
    for left, right in [(2, 3), (4, 5), (6, 7)]:
        assert run.populations[:, left].tobytes() == run.populations[:, right].tobytes()
    mirror = _mirror(space)
    assert run.final_state[np.ix_(mirror, mirror)].tobytes() == run.final_state.tobytes()


def test_lumped_open_run_matches_dense_column_stacked_run():
    """The 44-coordinate run against _dense_rk4 on all 256 entries of the column-stacked vec(rho).

    d/dt vec(rho) = L(t) vec(rho) is _dense_rk4's -i H(t) psi with
    H(t) = i L(t), L(t) the dense _column_stacked_liouvillian operators
    weighted by open_coefficients; both integrate the same RK4 steps.
    """
    space = model.open_space()
    dim = space.dim
    cfg = IntegratorConfig(dt=0.05)
    pulse_set = experiments.default_pulse_set(PulseKind.TQD_FITTED, BENCHMARK)
    run = experiments.simulate_open(BENCHMARK, pulse_set, cfg)

    coefficients = model.open_coefficients(model.CellDrives([(BENCHMARK, pulse_set)]),
                                           [BENCHMARK])
    operators = np.stack(_column_stacked_liouvillian(space))

    def h_of_t(t):
        return 1j * np.tensordot(coefficients(np.array([t]))[0, 0], operators, axes=1)

    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    vec0 = rho0.ravel(order="F")
    _, _, vec = _dense_rk4(h_of_t, vec0, BENCHMARK.t_f, cfg, vec0)  # only its final state
    rho = vec.reshape(dim, dim, order="F")
    target = dynamics.target_state(space)
    assert np.max(np.abs(run.final_state - rho)) < 1e-12
    assert abs(run.final_fidelity - np.real(target.conj() @ rho @ target)) < 1e-12
    assert np.max(np.abs(run.populations[-1, :8] - np.diag(rho).real[:8])) < 1e-12


def test_start_that_breaks_the_mirror_is_rejected():
    space = model.open_space()
    liouvillian = model.open_liouvillian()

    def coefficients(times):
        return np.zeros((len(times), 1, 8))

    def density(weights):  # a mixture of chain states phi_1, phi_3, phi_4
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[[0, 2, 3], [0, 2, 3]] = weights
        return rho

    for rho0 in (density([0.0, 1.0, 0.0]), density([0.5, 0.3, 0.2])):
        with pytest.raises(ValueError, match="equal within its blocks"):
            dynamics.evolve_lindblad(liouvillian, coefficients, rho0, 1.0)
    run = dynamics.evolve_lindblad(liouvillian, coefficients, density([0.5, 0.25, 0.25]), 1.0,
                                   IntegratorConfig(dt=0.1))
    assert np.array_equal(np.diag(run.final_state)[:4].real, [0.5, 0.0, 0.25, 0.25])


def _open_batch(cells, cfg, coefficients=None):
    """evolve_lindblad from |phi_1><phi_1| for (params, pulse_set) cells, as a sweep batch runs.

    coefficients(c, times) may rewrite the cells' open_coefficients c.
    """
    space = model.open_space()
    base = model.open_coefficients(model.CellDrives(cells), [params for params, _ in cells])
    rho0 = np.zeros((len(cells), space.dim, space.dim), dtype=complex)
    rho0[:, 0, 0] = 1.0
    return dynamics.evolve_lindblad(
        model.open_liouvillian(),
        base if coefficients is None else lambda times: coefficients(base(times), times),
        rho0, BENCHMARK.t_f, cfg,
        tracked=hilbert.subspace_indices(hilbert.build_subspace(), space),
        target=dynamics.target_state(space))


# At dt 0.3, kappa 2 and gamma 0, rho's least eigenvalue falls below
# -POSITIVITY_TOL at five of the 168 points recorded with record_every 1.
WARNED = ModelParams(kappa=2.0, gamma=0.0)


def _support_blocks(liouvillian):
    """The states of each diagonal block of rho on the support: connected components of its pattern."""
    rows, cols = np.divmod(liouvillian.entries, liouvillian.dim)
    pattern = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)),
                                      (liouvillian.dim, liouvillian.dim))
    count, labels = connected_components(pattern, directed=False)
    return [np.flatnonzero(labels == label) for label in range(count)]


def _least_over_blocks(rho, blocks):
    """The least eigenvalue of each rho (..., dim, dim): the least over eigvalsh of each block."""
    return np.min([np.linalg.eigvalsh(rho[..., block[:, None], block])[..., 0]
                   for block in blocks], axis=0)


def test_least_eigenvalue_is_the_least_over_the_support_blocks(rng):
    """Block by block as the test's own eigvalsh gives it, and within 1e-14 of the full one."""
    space = model.open_space()
    liouvillian = model.open_liouvillian()
    dim, mirror = space.dim, _mirror(space)
    blocks = _support_blocks(liouvillian)
    assert sorted(block.size for block in blocks) == [1, 1, 3, 3, 8]
    inside = np.zeros(dim * dim, dtype=bool)
    inside[liouvillian.entries] = True
    a = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
    rho = np.where(inside.reshape(dim, dim), a + a.conj().swapaxes(-1, -2), 0.0) / (4 * dim)
    rho = 0.5 * (rho + rho[:, mirror][:, :, mirror])
    rho[::2] += np.eye(dim) * np.linspace(0.0, 0.5, 20)[:, None, None]  # some definite
    for block in blocks:
        if block.size == 1:  # each state of its own is an eigenvalue: here the least
            rho[1::4, block, block] = -1.0
    x = liouvillian.coordinates(rho)
    assert np.array_equal(liouvillian.density(x), rho)

    least = liouvillian.least_eigenvalue(x)
    assert least.shape == (40,) and (least < 0).any() and (least > 0).any()
    assert np.all(least[1::4] == -1.0)
    assert least.tobytes() == _least_over_blocks(rho, blocks).tobytes()
    assert np.max(np.abs(least - np.linalg.eigvalsh(rho)[:, 0])) <= 1e-14
    assert liouvillian.least_eigenvalue(x.reshape(4, 10, -1)).tobytes() == least.tobytes()


def test_record_pass_matches_the_density_of_each_recorded_point(monkeypatch):
    """The record pass of single runs against an oracle from the coordinates of each point.

    The oracle is Liouvillian.density of the lumped states that _rk4's
    observer hands record, with eigvalsh block by block (the test's own
    blocks) for positivity, the full rho's diagonal for the populations and
    dynamics.fidelity of the full rho for F, which the run takes from rho's
    block on the target's states.
    """
    fitted = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    cells = [WARNED, BENCHMARK, WARNED]
    handed = []
    rk4 = dynamics._rk4

    def capturing(*args):
        observer = args[-1]
        record = observer.record

        def kept(times, x):
            handed.append(x.copy())
            return record(times, x)

        observer.record = kept
        return rk4(*args)

    def runs(record_every):
        cfg = IntegratorConfig(dt=0.3, record_every=record_every)
        return [experiments.simulate_open(params, fitted, cfg) for params in cells]

    monkeypatch.setattr(dynamics, "_rk4", capturing)
    # A slice holds 85 points of one 16 x 16 complex rho.
    monkeypatch.setattr(dynamics, "PROGRAM_BYTES", 85 * 16 * 16 * 16)
    every = runs(1)
    assert [len(x) for x in handed] == [85, 83] * 3  # each run recorded in two slices
    liouvillian = model.open_liouvillian()
    x = np.concatenate(handed).reshape(3, -1, liouvillian.operators[0].shape[0])
    rho = liouvillian.density(x.swapaxes(0, 1))  # (points, cells, dim, dim)
    times = every[0].times
    assert rho.shape[:2] == (len(times), 3) == (168, 3)
    target = dynamics.target_state(model.open_space())
    fids = dynamics.fidelity(rho, target)
    least = _least_over_blocks(rho, _support_blocks(liouvillian))
    assert np.max(np.abs(least - np.linalg.eigvalsh(rho)[..., 0])) <= 1e-14
    tracked = hilbert.subspace_indices(hilbert.build_subspace(), model.open_space())
    diagonal = np.diagonal(rho, axis1=-2, axis2=-1).real
    for b, run in enumerate(every):
        assert run.times.tobytes() == times.tobytes()
        assert run.fidelity.tobytes() == fids[:, b].tobytes()
        assert run.metadata["min_eigenvalue"] == min(0.0, least[:, b].min())
        assert run.metadata["positivity_warnings"] == [
            f"eigenvalue {least[i, b]:.2e} < -1e-05 at t={t:.4g}"
            for i, t in enumerate(times) if least[i, b] < -dynamics.POSITIVITY_TOL]
        assert run.populations[:, :-1].tobytes() == diagonal[:, b, tracked].tobytes()
    warned = [len(run.metadata["positivity_warnings"]) for run in every]
    assert sum(warned) == 10 and warned[1] == 0

    # Recording every other step gives the same rows at the times both record.
    both = np.append(np.arange(0, 168, 2), 167)
    for run, again in zip(every, runs(2)):
        assert again.times.tobytes() == np.append(run.times[::2], run.times[-1]).tobytes()
        assert again.populations.tobytes() == run.populations[both].tobytes()
        assert again.fidelity.tobytes() == run.fidelity[both].tobytes()


def test_a_batch_keeps_every_fidelity_but_only_t_f_rho(monkeypatch):
    """A batch gives its cells' single-run fidelities and final rho, and t_f's row and check only.

    Its positivity check reads t_f's rho alone: one stacked eigvalsh per
    block size larger than one (8 and 3 states).
    """
    fitted = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    cells = [(WARNED, fitted), (BENCHMARK, fitted), (WARNED, fitted)]
    cfg = IntegratorConfig(dt=0.3, record_every=1)
    runs = [experiments.simulate_open(params, pulse_set, cfg) for params, pulse_set in cells]
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    batch = _open_batch(cells, cfg)
    assert calls == [(1, 3, 1, 8, 8), (1, 3, 2, 3, 3)]
    for b, run in enumerate(runs):
        assert batch.times.tobytes() == run.times.tobytes()
        assert batch.fidelity[:, b].tobytes() == run.fidelity.tobytes()
        assert batch.final_state[b].tobytes() == run.final_state.tobytes()
        assert batch.populations[:, b].tobytes() == run.populations[-1:].tobytes()
    at_t_f = f"at t={runs[0].times[-1]:.4g}"  # none: the runs' ten lie between t = 27 and 30
    assert batch.metadata["positivity_warnings"] == [
        f"cell {b}: {w}" for b, run in enumerate(runs)
        for w in run.metadata["positivity_warnings"] if w.endswith(at_t_f)]
    least = eigvalsh(batch.final_state)[:, 0]
    assert abs(batch.metadata["min_eigenvalue"] - min(0.0, least.min())) <= 1e-14
    assert batch.metadata["max_trace_drift"] == max(r.metadata["max_trace_drift"] for r in runs)
    assert batch.metadata["n_steps"] == runs[0].metadata["n_steps"]


def test_infinite_coefficient_fails_only_its_cell():
    # An infinite real coefficient makes every weight of its cell non-finite
    # (inf * 0 in the product c @ S is NaN), where a per-entry product made
    # only its own operator's weights infinite. The cell still fails as one
    # whose coefficients are not finite, and the other cells do not move.
    fitted = experiments.default_pulse_set(PulseKind.TQD_FITTED)
    cfg = IntegratorConfig(dt=0.05)

    def broken(c, times):
        c[times >= 20.0, 1, 7] = np.inf  # cell 1's gamma rate from t = 20
        return c

    run = _open_batch([(BENCHMARK, fitted)] * 3, cfg, broken)
    without = _open_batch([(BENCHMARK, fitted)] * 2, cfg)
    failures = run.metadata["failures"]
    assert list(failures) == [1]
    assert str(failures[1]) == "coefficients not finite by t=20"
    assert np.isnan(np.trace(run.final_state[1])) and np.isnan(run.fidelity[-1, 1])
    assert run.populations[:, [0, 2]].tobytes() == without.populations.tobytes()
    assert run.fidelity[:, [0, 2]].tobytes() == without.fidelity.tobytes()
    assert run.final_state[[0, 2]].tobytes() == without.final_state.tobytes()


def test_runs_integrate_only_their_driven_operators():
    # TQD pulses fix Re omega_a = Im omega_b = 0; STIRAP pulses are real and
    # undetuned. At the defaults kappa = gamma = 0 as well, so their
    # dissipators are left out too. Of the open Liouvillian's 229 nonzeros a
    # TQD run at nonzero rates integrates 181, a STIRAP one 161.
    cfg = IntegratorConfig(dt=0.05)
    counts = {PulseKind.STIRAP: (5, 3, 5), PulseKind.TQD_EXACT: (6, 4, 6),
              PulseKind.TQD_FITTED: (6, 4, 6)}  # closed, open at the defaults, open at BENCHMARK
    for kind, expected in counts.items():
        runs = [experiments.simulate_closed(ModelParams(), experiments.default_pulse_set(kind),
                                            cfg)]
        runs += [experiments.simulate_open(p, experiments.default_pulse_set(kind, p), cfg)
                 for p in (ModelParams(), BENCHMARK)]
        assert tuple(run.metadata["operators"] for run in runs) == expected, kind
        assert [run.metadata["rebuilds"] for run in runs] == [0, 0, 0]
    operators = model.open_liouvillian().operators
    assert np.count_nonzero(operators) == 229
    assert np.count_nonzero(operators[[1, 2, 4, 5, 6, 7]]) == 181
    assert np.count_nonzero(operators[[0, 2, 4, 6, 7]]) == 161
