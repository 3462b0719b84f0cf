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

States are plain complex ndarrays and operators are dense complex matrices;
the HilbertSpace object carries the basis labels and index maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered basis of BasisStates with an inverse index map."""

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


def closure(links, start) -> np.ndarray:
    """Ascending indices reachable from the start indices, start included.

    A nonzero links[j, i] (a dense matrix, read as booleans) leads from j to i.
    """
    links = np.asarray(links, dtype=bool)
    seen = np.zeros(len(links), dtype=bool)
    seen[np.asarray(start, dtype=int)] = True  # not np.unique, which imports numpy.ma
    frontier = np.flatnonzero(seen)
    while frontier.size:
        reached = np.flatnonzero(links[frontier].any(axis=0))
        frontier = reached[~seen[reached]]
        seen[frontier] = True
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

    A nonzero entry <i|op|j> of a coupling (Hamiltonian term) links i and j
    both ways; of a jump operator it leads from j to i only. Chain states come
    first in phi_1..phi_8 order, then the rest in the order of space.
    """
    links = np.zeros((space.dim, space.dim), dtype=bool)  # links[j, i]: j leads to i
    for op in couplings:
        links |= (op != 0) | (op != 0).T
    for op in jumps:
        links |= (op != 0).T
    chain = {s: k for k, s in enumerate(_SUBSPACE_LABELS)}
    order = sorted(closure(links, [space.index[start]]),
                   key=lambda i: chain.get(space.basis[i], len(chain) + i))
    return HilbertSpace(tuple(space.basis[i] for i in order))


def transition_operator(space: HilbertSpace, from_level, to_level) -> np.ndarray:
    """|to><from| on the atom both levels belong to, identity on everything else.

    LevelA levels act on atom A and LevelB levels on atom B.
    """
    atom = {LevelA: "a", LevelB: "b"}.get(type(from_level))
    if atom is None or type(to_level) is not type(from_level):
        raise ValueError(f"levels {from_level}, {to_level} do not belong to one atom")

    op = np.zeros((space.dim, space.dim), dtype=complex)
    for j, s in enumerate(space.basis):
        if getattr(s, atom) is not from_level:
            continue
        i = space.index.get(s._replace(**{atom: to_level}))
        if i is not None:
            op[i, j] = 1.0
    return op


def annihilation_operator(space: HilbertSpace, mode: str) -> np.ndarray:
    """Photon annihilation for mode "L" or "R" on the {0,1} truncated Fock space."""
    if mode not in ("L", "R"):
        raise ValueError(f"mode must be 'L' or 'R', got {mode!r}")
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for j, s in enumerate(space.basis):
        n = s.n_left if mode == "L" else s.n_right
        if n != 1:
            continue
        dst = s._replace(n_left=0) if mode == "L" else s._replace(n_right=0)
        i = space.index.get(dst)
        if i is not None:
            op[i, j] = 1.0
    return op


def excited_projector(space: HilbertSpace) -> np.ndarray:
    """Sum of excited-level projectors |e0><e0|_A + |eL><eL|_B + |eR><eR|_B.

    Diagonal counts excited atoms (0, 1 or 2), so this is the detuning term
    and, together with the photon numbers, the total excitation counter.
    """
    diag = np.array(
        [float(s.a in EXCITED_A) + float(s.b in EXCITED_B) for s in space.basis]
    )
    return np.diag(diag).astype(complex)


def subspace_indices(sub: HilbertSpace, full: HilbertSpace) -> np.ndarray:
    """Positions of the sub-space basis states inside the full space."""
    return np.array([full.index[s] for s in sub.basis])


def max_nonhermiticity(op: np.ndarray) -> float:
    return float(np.max(np.abs(op - op.conj().T)))
