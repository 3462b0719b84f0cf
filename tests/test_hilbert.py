import numpy as np
import pytest

from tqd3d import hilbert, model, verify
from tqd3d.hilbert import BasisState, LevelA, LevelB


def test_full_space_dimension(full_space):
    assert full_space.dim == 4 * 5 * 2 * 2 == 80


def test_full_space_deterministic(full_space):
    again = hilbert.build_full_space()
    assert again.basis == full_space.basis
    assert again.index[BasisState(LevelA.g0, LevelB.g0, 0, 0)] == \
        full_space.index[BasisState(LevelA.g0, LevelB.g0, 0, 0)]


def test_full_space_contains_chain_states(full_space, subspace):
    for state in subspace.basis:
        assert full_space.basis.count(state) == 1


def test_subspace_order(subspace):
    assert subspace.dim == 8
    assert subspace.basis[0] == BasisState(LevelA.g0, LevelB.g0, 0, 0)
    assert subspace.basis[1] == BasisState(LevelA.e0, LevelB.g0, 0, 0)
    assert subspace.basis[6] == BasisState(LevelA.gL, LevelB.gL, 0, 0)
    assert subspace.basis[7] == BasisState(LevelA.gR, LevelB.gR, 0, 0)


def test_duplicate_basis_rejected(subspace):
    with pytest.raises(ValueError):
        hilbert.HilbertSpace(subspace.basis + (subspace.basis[0],))


def test_embedded_target_amplitudes(subspace, full_space):
    from tqd3d.dynamics import target_state

    # On the chain, the open-system space and the full space: 1/sqrt(3) at the
    # positions of |g0,g0>, |gL,gL> and |gR,gR>, zero elsewhere, bit for bit.
    labels = [BasisState(a, b, 0, 0) for a, b in
              ((LevelA.g0, LevelB.g0), (LevelA.gL, LevelB.gL), (LevelA.gR, LevelB.gR))]
    for space in (subspace, model.open_space(), full_space):
        want = np.zeros(space.dim, dtype=complex)
        want[[space.index[label] for label in labels]] = 1.0 / np.sqrt(3.0)
        vec = target_state(space)
        assert vec.dtype == want.dtype and vec.tobytes() == want.tobytes()
        assert np.count_nonzero(vec) == 3


def test_transition_operator_definition(full_space):
    sigma = hilbert.transition_operator(full_space, LevelA.e0, LevelA.g0)
    src = full_space.ket(BasisState(LevelA.e0, LevelB.g0, 0, 0))
    dst = full_space.ket(BasisState(LevelA.g0, LevelB.g0, 0, 0))
    assert np.allclose(sigma @ src, dst)
    # any state without atom A in e0 is annihilated
    other = full_space.ket(BasisState(LevelA.gL, LevelB.eL, 1, 0))
    assert np.allclose(sigma @ other, 0.0)


def test_transition_operator_adjoint(full_space):
    down = hilbert.transition_operator(full_space, LevelA.e0, LevelA.g0)
    up = hilbert.transition_operator(full_space, LevelA.g0, LevelA.e0)
    assert np.allclose(down.conj().T, up)


def test_transition_operator_invalid_level(full_space):
    with pytest.raises(ValueError):
        hilbert.transition_operator(full_space, LevelB.eL, LevelA.g0)


def test_annihilation_operator(full_space):
    a_left = hilbert.annihilation_operator(full_space, "L")
    one = full_space.ket(BasisState(LevelA.gL, LevelB.g0, 1, 0))
    vac = full_space.ket(BasisState(LevelA.gL, LevelB.g0, 0, 0))
    assert np.allclose(a_left @ one, vac)
    assert np.allclose(a_left @ vac, 0.0)


def test_number_operator_is_projector(full_space):
    a_left = hilbert.annihilation_operator(full_space, "L")
    number = a_left.conj().T @ a_left
    expected = np.diag([float(s.n_left) for s in full_space.basis])
    assert np.allclose(number, expected)


def test_lowering_operators_nilpotent(full_space):
    for op in (
        hilbert.annihilation_operator(full_space, "L"),
        hilbert.annihilation_operator(full_space, "R"),
        hilbert.transition_operator(full_space, LevelB.eL, LevelB.gR),
        hilbert.transition_operator(full_space, LevelA.e0, LevelA.g0),
    ):
        assert np.allclose(op @ op, 0.0)


def test_invalid_mode_raises(full_space):
    with pytest.raises(ValueError):
        hilbert.annihilation_operator(full_space, "X")


def test_lump_of_the_chain_from_phi1_is_the_symmetric_grouping():
    # |phi_1> under the chain's structure operators: each L/R pair of the
    # symmetric states psi_1, psi_2, psi_3 is one block, phi_1 and phi_2 are
    # blocks of their own.
    operators = model.hamiltonian_terms(hilbert.build_subspace())
    labels, lumped = hilbert.lump(operators, np.tile(np.eye(8)[0], (3, 1)))
    pairs = [np.flatnonzero(verify.symmetric_vectors()[name]) for name in ("psi1", "psi2", "psi3")]
    blocks = [[0], [1]] + [list(pair) for pair in pairs]
    assert [list(np.flatnonzero(labels == b)) for b in range(labels.max() + 1)] == blocks
    assert lumped.shape == (6, 5, 5) and np.count_nonzero(lumped) == 10
    assert np.count_nonzero(operators) == 17
    for k, op in enumerate(operators):  # block sums taken at each block's first row
        firsts = [block[0] for block in blocks]
        sums = np.stack([op[:, block].sum(axis=1) for block in blocks], axis=1)
        assert np.array_equal(lumped[k], sums[firsts])
        assert np.array_equal(op @ np.eye(5)[labels], (np.eye(5)[labels] @ lumped[k]))


def test_lump_of_a_random_start_is_the_identity(rng):
    operators = model.hamiltonian_terms(hilbert.build_subspace())
    start = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    labels, lumped = hilbert.lump(operators, start)
    assert np.array_equal(labels, np.arange(8))
    assert lumped.dtype == operators.dtype and np.array_equal(lumped, operators)
    # one cell that tells phi_3 from phi_4 apart splits their block for the batch
    start = np.tile(np.eye(8)[0], (2, 1))
    start[1, [2, 3]] = [0.5, -0.5]
    assert hilbert.lump(operators, start)[0].max() + 1 == 8
