"""The full model of the two-atom bimodal-cavity system, as runs integrate it.

H(t) = omega_a D_A + omega_b D_B + g C + h.c. + delta P_e on any basis
subset (the 8-dim chain, the 16-dim open-system space or all 80 states),
resonant under STIRAP pulses and detuned by delta on every excited level
under TQD pulses, comes as six fixed Hermitian structure operators
(hamiltonian_terms(space)) and real coefficients vectorized over times
(CellDrives(cells)), the form dynamics.evolve_schrodinger integrates:
closed and open runs take that one six-column layout, open runs through
open_coefficients, which appends the decay rates. The collapse channels,
the open-system space and its Liouvillian complete the master equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import dynamics, hilbert, pulses
from .hilbert import HilbertSpace, LevelA, LevelB
from .pulses import PulseKind, PulseSet, PulseSynthesisError, StirapParams


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters in units of the cavity coupling g."""

    g: float = 1.0
    delta: float = 3.6
    t_f: float = StirapParams.t_f
    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 < self.g < math.inf:
            raise ValueError("g must be positive and finite")
        if not 0 < self.t_f < math.inf:
            raise ValueError("t_f must be positive and finite")
        if not abs(self.delta) < math.inf:
            raise ValueError("delta must be finite")
        if not (0 <= self.kappa < math.inf and 0 <= self.gamma < math.inf):
            raise ValueError("decay rates must be nonnegative and finite")


# The lowering operators of H(t), each a sum of hilbert.hop products given
# by their moves: D_A = |g0><e0| on atom A, D_B = sum_i |g_i><e_i| on atom B
# and C = sum_i a_i (|e0><g_i|_A + |e_i><g0|_B).
_DRIVE_A = [[(LevelA.e0, LevelA.g0)]]
_DRIVE_B = [[(LevelB.eL, LevelB.gL)], [(LevelB.eR, LevelB.gR)]]
_CAVITY = [[(LevelA.gL, LevelA.e0), "L"], [(LevelB.g0, LevelB.eL), "L"],
           [(LevelA.gR, LevelA.e0), "R"], [(LevelB.g0, LevelB.eR), "R"]]


@lru_cache(maxsize=None)
def hamiltonian_terms(space: HilbertSpace) -> np.ndarray:
    """The six Hermitian structure operators of H(t) on space, (6, d, d), built once per space.

    X_A, Y_A, X_B, Y_B, C + C+ and P_e, for the CellDrives coefficients
    Re omega_a, Im omega_a, Re omega_b, Im omega_b, g and the detuning: each
    drive D with its adjoint is X = D + D+ and Y = i(D - D+), since
    omega D + conj(omega) D+ = Re omega X + Im omega Y, for
    D_A = |g0><e0| on atom A and D_B = sum_i |g_i><e_i| on atom B;
    C = sum_i a_i (|e0><g_i|_A + |e_i><g0|_B) and P_e is the projector on
    all excited levels. Each product is a hilbert.hop index map, which
    passes through states outside a subspace as the product does in the
    full space and follows any order of space's basis, so the operators are
    written straight at space's size: X has 1.0 at each (row, col) of D and
    at its transpose, Y has +1j and -1j there. The cached array is shared,
    so it is read-only.
    """
    terms = np.zeros((6, space.dim, space.dim), dtype=complex)
    for k, lowering in ((0, _DRIVE_A), (2, _DRIVE_B), (4, _CAVITY)):
        for moves in lowering:
            rows, cols = hilbert.hop(space, *moves)  # no (row, col) twice in one product
            terms.real[k, rows, cols] += 1.0
            terms.real[k, cols, rows] += 1.0
            if k < 4:
                terms.imag[k + 1, rows, cols] += 1.0
                terms.imag[k + 1, cols, rows] -= 1.0
    at = np.arange(space.dim)
    terms.real[5, at, at] = hilbert.excited_counts(space)
    terms.flags.writeable = False
    return terms


class CellDrives:
    """Time-dependent coefficients of a batch of cells.

    Cell b evolves under H_b(t) = sum_k c[t, b, k] * hamiltonian_terms(space)[k],
    with the coefficients Re omega_a, Im omega_a, Re omega_b, Im omega_b, g
    and the detuning, zero under STIRAP pulses: closed runs take them as
    they are, open runs through open_coefficients. They are real, but the
    block is complex with +0.0 imaginary parts, so that a closed run's
    weights stay one in-place complex multiply, faster than numpy's
    float-times-complex one. Each call evaluates the pulses of each
    distinct PulseSet once at all the given times. Exact TQD cells share
    theta_dot per StirapParams (a cut along delta has one) and take their
    amplitudes from one pulses.counterdiabatic_amplitudes call on its
    distinct detunings, the rule's one home. A cell whose pulse synthesis
    fails gets NaN coefficients from the first failing time on, and its
    PulseSynthesisError, shared by the cells of one detuning, is kept in
    `errors` (cell to error): the `reported` of dynamics.evolve_schrodinger
    and evolve_lindblad, which record it as the cell's failure.
    """

    def __init__(self, cells: Sequence[tuple[ModelParams, PulseSet]]):
        self.cells = list(cells)
        self.errors: dict[int, PulseSynthesisError] = {}
        self._constants = np.array([[p.g, _detuning(p, ps)]
                                    for p, ps in self.cells]).reshape(-1, 2)
        groups: dict = {}  # exact TQD cells by StirapParams, the others by PulseSet
        for b, (_, pulse_set) in enumerate(self.cells):
            exact = pulse_set.kind is PulseKind.TQD_EXACT
            groups.setdefault(pulse_set.stirap if exact else pulse_set, []).append(b)
        self._groups = []  # each with its distinct detunings and each cell's index in them
        for key, group in groups.items():
            distinct: dict[float, int] = {}
            column = [distinct.setdefault(self.cells[b][1].delta, len(distinct)) for b in group]
            self._groups.append((key, group, list(distinct), column))

    def __call__(self, times: np.ndarray) -> np.ndarray:
        """(times, cells, 6) coefficients of hamiltonian_terms."""
        out = np.empty((len(times), len(self.cells), 6), dtype=complex)
        out[:, :, 4:] = self._constants
        failed = list(self.errors)  # in an earlier call: NaN at every time

        def put(group, omega_a, omega_b):
            for k, column in enumerate((omega_a, omega_b)):
                out[:, group, 2 * k] = column.real
                out[:, group, 2 * k + 1] = column.imag

        for key, group, deltas, column in self._groups:
            if isinstance(key, PulseSet):
                omega_a, omega_b = key.amplitudes(times)
                put(group, omega_a[:, None], omega_b[:, None])
                continue
            omega_a, omega_b, errors = pulses.counterdiabatic_amplitudes(
                pulses.mixing_angle_rate(key, times), deltas, times)
            if len(deltas) < len(group):  # a repeated detuning (else column is 0, 1, ...)
                omega_a, omega_b = omega_a[:, column], omega_b[:, column]
            put(group, omega_a, omega_b)
            for b, k in zip(group, column):
                if errors[k] is not None:  # NaN from its first failing time on
                    self.errors.setdefault(b, errors[k])
                    out[np.isnan(out[:, b, 0]), b] = np.nan  # the whole cell
        out[:, failed] = np.nan
        return out


def make_h_of_t(terms: np.ndarray, params: ModelParams, pulse_set: PulseSet) -> Callable:
    """Callable t -> H(t) = sum_k c_k(t) terms[k] of one cell, terms a hamiltonian_terms stack.

    c_k are the cell's CellDrives coefficients. No run calls it: it is kept
    only because perfbench/tracing.py patches it by name, and goes when
    that tracer reads the runs' own telemetry instead.
    """
    drives = CellDrives([(params, pulse_set)])
    return lambda t: np.tensordot(drives(np.array([t], dtype=float))[0, 0], terms, axes=1)


def _detuning(params: ModelParams, pulse_set: PulseSet) -> float:
    """STIRAP pulses drive the resonant model; TQD pulses the detuned one."""
    return 0.0 if pulse_set.kind is PulseKind.STIRAP else params.delta


# The collapse operators as hilbert.hop moves, with their rates' names:
# photon leakage from either mode, spontaneous emission on each
# excited->ground branch.
_CHANNELS = [("L", "kappa"), ("R", "kappa")] + [
    ((e_lvl, g_lvl), "gamma") for excited, ground in ((hilbert.EXCITED_A, hilbert.GROUND_A),
                                                      (hilbert.EXCITED_B, hilbert.GROUND_B))
    for e_lvl in excited for g_lvl in ground]


def collapse_channels(
    params: ModelParams, space: HilbertSpace
) -> list[tuple[np.ndarray, float]]:
    """All (operator, rate) dissipation channels: photon leakage + spontaneous emission.

    Two photon channels at rate kappa, and one channel per excited->ground
    branch at rate gamma/2 (3 for atom A, 6 for atom B).
    """
    rates = {"kappa": params.kappa, "gamma": params.gamma / 2}
    return [(hilbert.dense_operator(space, hilbert.hop(space, move)), rates[rate])
            for move, rate in _CHANNELS]


def initial_state(space: HilbertSpace, density: bool = False) -> np.ndarray:
    """|phi_1> on space, where every run starts, or with density |phi_1><phi_1|."""
    psi = space.ket(hilbert.build_subspace().basis[0])
    return np.outer(psi, psi.conj()) if density else psi


@lru_cache(maxsize=None)
def open_space() -> HilbertSpace:
    """The 16 states reachable from |phi_1> under hamiltonian_terms and the collapse operators.

    Every channel counts whatever its rate, so the space is the same for all
    kappa and gamma (including zero). Its links are the hilbert.hop index
    maps of the Hamiltonian's products and of the jumps, on the 80 states.
    """
    full = hilbert.build_full_space()
    couplings = [hilbert.hop(full, *moves) for moves in _DRIVE_A + _DRIVE_B + _CAVITY]
    jumps = [hilbert.hop(full, move) for move, _ in _CHANNELS]
    return hilbert.reachable_space(full, couplings, jumps, hilbert.build_subspace().basis[0])


@lru_cache(maxsize=None)
def open_liouvillian() -> dynamics.Liouvillian:
    """The master equation on open_space as real structure superoperators.

    Operators -i[G_k, .] for the 6 hamiltonian_terms, then the
    kappa and gamma dissipators at unit rate, on the 84 entries of rho
    reachable from |phi_1><phi_1|, lumped from it: each entry equals its
    L<->R mirror image, so they take 44 real coordinates. Like open_space,
    support and blocks hold for every rate; a rho0 that breaks the mirror
    needs a Liouvillian of its own (dynamics.Liouvillian.reachable).
    """
    space = open_space()
    dissipators = [dynamics.dissipator_superoperator(collapse_channels(rates, space), space.dim)
                   for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))]
    return dynamics.Liouvillian.reachable(hamiltonian_terms(space), dissipators,
                                          initial_state(space, density=True))


def open_coefficients(drives: Callable, params: Sequence[ModelParams]) -> Callable:
    """Real coefficients of open_liouvillian's operators: the drives', then kappa and gamma.

    drives(times) gives a batch's CellDrives coefficients (times, cells, 6),
    whose real parts are those of the six hamiltonian_terms; params are the
    cells' ModelParams, in order.
    """
    rates = np.array([[p.kappa, p.gamma] for p in params], dtype=float).reshape(-1, 2)

    def coefficients(times):
        c = drives(times)
        return np.concatenate([c.real, np.broadcast_to(rates, c.shape[:-1] + (2,))], axis=-1)

    return coefficients
