"""Labeled Hilbert spaces and elementary operators for the two-atom bimodal cavity.

Atom A has ground levels gL, g0, gR and one excited level e0.  Atom B has the
same ground levels and two excited levels eL, eR.  Each cavity mode (left- and
right-circular polarization) is truncated at one photon, which is exact here:
the drives exchange at most one quantum and dissipation only removes quanta,
so the 4*5*2*2 = 80 dimensional product space is closed under the dynamics.
Runs use only the part of it reachable from |g0, g0, vac>: reachable_space
closes a start state under couplings (both ways) and jumps (one way), which
gives the 8-dim chain for the Hamiltonian alone and 16 states once the
collapse operators are added. The same closure finds the entries of rho a
master equation can reach (dynamics.Liouvillian.reachable). lump refines
the coordinates of a linear equation into blocks that stay equal, which
gives the chain's symmetric pairs from |phi_1> (dynamics.evolve_schrodinger)
and, on those entries of rho, the pairs of L<->R mirror images.

States are plain complex ndarrays. An operator is an index map first: each
basis state's code is its index among the 80 product states, its levels and
photon numbers the digits of a mixed-radix number, and hop gives the
(rows, cols) of a product of level flips and photon losses on any space by
arithmetic on those codes, looked up in the space's code-to-index map, and
dense_operator turns such a map into a complex matrix. excited_counts gives
the excited atoms of each state; the HilbertSpace object carries the basis
labels, their codes and the index maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import NamedTuple

import numpy as np


class LevelA(Enum):
    """Levels of atom A. e0 is the only excited level."""

    gL = 0
    g0 = 1
    gR = 2
    e0 = 3


class LevelB(Enum):
    """Levels of atom B. eL and eR are the excited levels."""

    gL = 0
    g0 = 1
    gR = 2
    eL = 3
    eR = 4


EXCITED_A = (LevelA.e0,)
GROUND_A = (LevelA.gL, LevelA.g0, LevelA.gR)
EXCITED_B = (LevelB.eL, LevelB.eR)
GROUND_B = (LevelB.gL, LevelB.g0, LevelB.gR)


class BasisState(NamedTuple):
    a: LevelA
    b: LevelB
    n_left: int
    n_right: int


# The digits of a basis state's code, most significant first, with their radices.
_RADICES = {"a": len(LevelA), "b": len(LevelB), "n_left": 2, "n_right": 2}
_STRIDES = {field: math.prod(list(_RADICES.values())[k + 1:])
            for k, field in enumerate(_RADICES)}
_PRODUCT_DIM = math.prod(_RADICES.values())


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered basis of BasisStates with an inverse index map, and codes for hop (cached)."""

    basis: tuple[BasisState, ...]

    def __post_init__(self):
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis states")
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.basis)})

    @property
    def dim(self) -> int:
        return len(self.basis)

    def ket(self, state: BasisState) -> np.ndarray:
        """Unit vector for a single basis state."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[state]] = 1.0
        return v

    @cached_property
    def codes(self) -> np.ndarray:
        """Each basis state's index among the 80 product states, as build_full_space orders them."""
        digits = np.array([(s.a.value, s.b.value, s.n_left, s.n_right) for s in self.basis],
                          dtype=np.intp).reshape(-1, len(_STRIDES))
        codes = digits @ np.array(list(_STRIDES.values()))
        codes.flags.writeable = False
        return codes

    @cached_property
    def lookup(self) -> np.ndarray:
        """Index in this basis of each of the 80 codes, -1 for a state not in it."""
        lookup = np.full(_PRODUCT_DIM, -1, dtype=np.intp)
        lookup[self.codes] = np.arange(self.dim)
        lookup.flags.writeable = False
        return lookup


def build_full_space() -> HilbertSpace:
    """The 80-dimensional tensor-product space in canonical lexicographic order."""
    basis = tuple(
        BasisState(a, b, nl, nr)
        for a, b, nl, nr in itertools.product(LevelA, LevelB, (0, 1), (0, 1))
    )
    return HilbertSpace(basis)


# The eight states reachable from |g0, g0, vac> under the coherent couplings,
# in the conventional order phi_1 .. phi_8.
_SUBSPACE_LABELS = (
    BasisState(LevelA.g0, LevelB.g0, 0, 0),  # phi_1
    BasisState(LevelA.e0, LevelB.g0, 0, 0),  # phi_2
    BasisState(LevelA.gL, LevelB.g0, 1, 0),  # phi_3
    BasisState(LevelA.gR, LevelB.g0, 0, 1),  # phi_4
    BasisState(LevelA.gL, LevelB.eL, 0, 0),  # phi_5
    BasisState(LevelA.gR, LevelB.eR, 0, 0),  # phi_6
    BasisState(LevelA.gL, LevelB.gL, 0, 0),  # phi_7
    BasisState(LevelA.gR, LevelB.gR, 0, 0),  # phi_8
)


def build_subspace() -> HilbertSpace:
    """The 8-dimensional single-excitation-chain subspace, ordered phi_1..phi_8."""
    return HilbertSpace(_SUBSPACE_LABELS)


def closure(sources, targets, start, size: int) -> np.ndarray:
    """Ascending indices of range(size) reachable from the start indices, start included.

    Edge e leads from sources[e] to targets[e] (index arrays of one length).
    """
    seen = np.zeros(size, dtype=bool)
    seen[np.asarray(start, dtype=int)] = True  # not np.unique, which imports numpy.ma
    frontier = seen.copy()
    while frontier.any():
        reached = np.zeros(size, dtype=bool)
        reached[targets[frontier[sources]]] = True
        frontier = reached & ~seen
        seen |= frontier
    return np.flatnonzero(seen)


def lump(operators, start) -> tuple[np.ndarray, np.ndarray]:
    """Block labels of the coordinates and the lumped operators, by partition refinement.

    operators are K dense (n, n) matrices G_k, and start is (cells, n), one
    start vector per cell. Coordinates i and j share a block when every
    start has equal values at i and j, and for every G_k and block B the row
    sums sum_{l in B} G_k[i, l] and G_k[j, l] are equal, compared bit for bit
    with -0.0 taken as 0.0: the coarsest such partition, refined from the
    start values (Cardelli et al., POPL 2016). A solution of
    d/dt x = sum_k c_k(t) G_k x from any start then keeps equal values within
    each block for any coefficients, and the block values y obey the same
    equation under the lumped operators R_k (K, blocks, blocks), the block
    sums taken at each block's first row, with x = y[labels]. Blocks are
    numbered by their first coordinate, and a sum adds a block's columns in
    ascending order, so a start that tells every coordinate apart gives
    labels 0..n-1 and R_k = G_k.
    """
    ops = np.asarray(operators)
    n = ops.shape[-1]
    labels = _first_seen(np.asarray(start).reshape(-1, n).T)
    while True:
        order = np.argsort(labels, kind="stable")
        firsts = np.flatnonzero(np.diff(labels[order], prepend=-1))  # block starts in order
        sums = np.add.reduceat(ops[..., order], firsts, axis=-1)  # (K, n, blocks)
        refined = _first_seen(np.column_stack([labels, sums.transpose(1, 0, 2).reshape(n, -1)]))
        if refined.max() == labels.max():
            return labels, sums[:, order[firsts]]
        labels = refined


def _first_seen(rows: np.ndarray) -> np.ndarray:
    """One label per row, equal for rows equal bit for bit, numbered by first appearance.

    A -0.0 counts as 0.0 (the rows get + 0.0 first), as it does to ==.
    """
    seen: dict[bytes, int] = {}
    return np.array([seen.setdefault(row.tobytes(), len(seen))
                     for row in np.ascontiguousarray(rows + 0.0)])


def reachable_space(space: HilbertSpace, couplings, jumps, start: BasisState) -> HilbertSpace:
    """Basis states of space reachable from start.

    couplings and jumps are (rows, cols) index pairs of the nonzeros <i|op|j>
    of operators on space (hop, or np.nonzero of a dense one). A coupling's
    (Hamiltonian term's) links i and j both ways; a jump operator's leads
    from j to i only. Chain states come first in phi_1..phi_8 order, then
    the rest in the order of space.
    """
    edges = [(cols, rows) for rows, cols in jumps]  # <i|op|j>: from j to i
    for rows, cols in couplings:
        edges += [(rows, cols), (cols, rows)]
    sources, targets = (np.concatenate(side) for side in zip(*edges))
    chain = {s: k for k, s in enumerate(_SUBSPACE_LABELS)}
    order = sorted(closure(sources, targets, [space.index[start]], space.dim),
                   key=lambda i: chain.get(space.basis[i], len(chain) + i))
    return HilbertSpace(tuple(space.basis[i] for i in order))


def hop(space: HilbertSpace, *moves) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the nonzeros, each 1, of a product of level flips and photon losses.

    A move is a (from_level, to_level) pair of one atom's levels,
    |to><from| on that atom and identity on everything else, or a mode "L"
    or "R", the annihilation of its photon on the {0,1} truncated Fock
    space. The first move acts first. Each move is arithmetic on the codes
    (HilbertSpace.codes), so a product passes through states outside space
    as it does in the product space, and only the final state is looked up
    in space. cols ascend. ValueError for levels of two atoms or an unknown
    mode.
    """
    cols, codes = np.arange(space.dim), space.codes
    for move in moves:
        field, source, target = _digit_change(move)
        keep = _digits(codes, field) == source
        cols, codes = cols[keep], codes[keep] + (target - source) * _STRIDES[field]
    rows = space.lookup[codes]
    inside = rows >= 0
    return rows[inside], cols[inside]


def _digits(codes: np.ndarray, field: str) -> np.ndarray:
    """The field's digit (a level's value or a photon number) of each code."""
    return codes // _STRIDES[field] % _RADICES[field]


def _digit_change(move) -> tuple[str, int, int]:
    """The field of a hop move and the digit it takes from and to."""
    if not isinstance(move, tuple):
        if move not in ("L", "R"):
            raise ValueError(f"mode must be 'L' or 'R', got {move!r}")
        return ("n_left" if move == "L" else "n_right"), 1, 0
    from_level, to_level = move
    atom = {LevelA: "a", LevelB: "b"}.get(type(from_level))
    if atom is None or type(to_level) is not type(from_level):
        raise ValueError(f"levels {from_level}, {to_level} do not belong to one atom")
    return atom, from_level.value, to_level.value


def dense_operator(space: HilbertSpace, indices) -> np.ndarray:
    """The complex (dim, dim) matrix with 1 at the (rows, cols) pairs indices (hop), else 0."""
    op = np.zeros((space.dim, space.dim), dtype=complex)
    op[indices] = 1.0
    return op


def excited_counts(space: HilbertSpace) -> np.ndarray:
    """The excited atoms (0.0, 1.0 or 2.0) of each basis state.

    The diagonal of |e0><e0|_A + |eL><eL|_B + |eR><eR|_B: the detuning term
    and, together with the photon numbers, the total excitation counter.
    """
    excited_a = np.array([float(level in EXCITED_A) for level in LevelA])
    excited_b = np.array([float(level in EXCITED_B) for level in LevelB])
    return excited_a[_digits(space.codes, "a")] + excited_b[_digits(space.codes, "b")]


def subspace_indices(sub: HilbertSpace, full: HilbertSpace) -> np.ndarray:
    """Positions of the sub-space basis states inside the full space."""
    return np.array([full.index[s] for s in sub.basis])


def max_nonhermiticity(op: np.ndarray) -> float:
    return float(np.max(np.abs(op - op.conj().T)))
