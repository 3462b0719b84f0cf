"""Property tests over random rates, pulses, times and drive amplitudes.

Each property is one the fixed-parameter tests check at a few points: an
open run keeps rho a density matrix, nothing the 80-dim model can do
leads out of the 16-state open-system space, and hilbert.lump finds the
coarsest exact partition, checked against a brute-force search over all
partitions of a few coordinates.
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


def _partitions(items: list) -> list:
    """Every set partition of items, each a list of blocks: Bell(len(items)) of them."""
    if not items:
        return [[]]
    first, partitions = items[0], []
    for rest in _partitions(items[1:]):
        partitions.append([[first], *rest])
        partitions += [rest[:i] + [[first, *block]] + rest[i + 1:] for i, block in enumerate(rest)]
    return partitions


def _exact(operators: np.ndarray, start: np.ndarray, blocks: list) -> bool:
    """Do all coordinates of each block start equal and keep equal sums over every block?"""
    sums = np.stack([operators[..., block].sum(axis=-1) for block in blocks], axis=-1)
    return all((values[..., block] == values[..., block[:1]]).all()
               for block in blocks for values in (start, sums.transpose(0, 2, 1)))


@st.composite
def planted_symmetry(draw):
    """(operators (K, n, n), start (cells, n), permutation) with operators and start invariant.

    Each orbit of the permutation on coordinates, and on pairs of them, gets
    one drawn value, which plants the coordinates' orbits as blocks that
    stay equal. The values are small integers and signed zeros, so every sum
    is exact in any order; the operators come in a few densities.
    """
    n, k, cells = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    perm = np.array(draw(st.permutations(range(n))), dtype=int)
    powers = [np.arange(n)]
    while not np.array_equal(perm[powers[-1]], powers[0]):
        powers.append(perm[powers[-1]])
    powers = np.array(powers)  # (period, n): where each power of perm takes each coordinate
    _, orbit = np.unique(powers.min(axis=0), return_inverse=True)
    _, pair_orbit = np.unique((powers[:, :, None] * n + powers[:, None, :]).min(axis=0),
                              return_inverse=True)

    def drawn(values, rows, orbits):  # one value per row and orbit, spread over its members
        size = rows * int(orbits.max() + 1)
        return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(
            rows, -1)[:, orbits]

    zeros = [0.0, -0.0] * draw(st.sampled_from([1, 3, 10]))
    operators = drawn(st.sampled_from(zeros + [1.0, -1.0, 2.0]), k, pair_orbit.reshape(n, n))
    return operators, drawn(st.sampled_from([0.0, -0.0, 1.0, 2.0]), cells, orbit.ravel()), perm


@settings(max_examples=100, deadline=None)
@given(case=planted_symmetry())
def test_lump_is_the_coarsest_exact_partition(case):
    """hilbert.lump against every partition of the coordinates, by brute force.

    Its blocks, numbered by their first coordinate, are exact and refine the
    start's; every other such partition lies within them, so they are the
    coarsest (Cardelli et al., POPL 2016) and merge the planted orbits. The
    lumped operators are the block sums at each block's first row.
    """
    operators, start, perm = case
    n = start.shape[1]
    labels, lumped = hilbert.lump(operators, start)
    blocks = [list(np.flatnonzero(labels == b)) for b in range(labels.max() + 1)]
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    assert _exact(operators, start, blocks)
    for partition in _partitions(list(range(n))):  # every exact one lies within lump's blocks
        if _exact(operators, start, partition):
            assert all(len(set(labels[block])) == 1 for block in partition)
    assert np.array_equal(labels[perm], labels)  # the planted orbits are merged
    firsts = [block[0] for block in blocks]
    sums = np.stack([operators[..., block].sum(axis=-1) for block in blocks], axis=-1)
    assert np.array_equal(lumped, sums[:, firsts])
