"""The full model of the two-atom bimodal-cavity system, as runs integrate it.

H(t) = omega_a D_A + omega_b D_B + g C + h.c. + delta P_e on any basis
subset (the 8-dim chain, the 16-dim open-system space or all 80 states),
resonant under STIRAP pulses and detuned by delta on every excited level
under TQD pulses, comes as six fixed structure operators
(hamiltonian_terms(space)) and coefficients vectorized over times
(CellDrives(cells)), the form dynamics.evolve_schrodinger integrates:
closed runs take that one six-column layout as it is, open runs through
open_coefficients on hermitian_drive_operators. The collapse channels,
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


@lru_cache(maxsize=None)
def hamiltonian_terms(space: HilbertSpace) -> np.ndarray:
    """The six structure operators of H(t) on space, (6, d, d), built once per space.

    D_A, D_A+, D_B, D_B+, C + C+ and P_e, for the CellDrives coefficients
    omega_a, conj(omega_a), omega_b, conj(omega_b), g and the detuning:
    D_A = |g0><e0| on atom A, D_B = sum_i |g_i><e_i| on atom B,
    C = sum_i a_i (|e0><g_i|_A + |e_i><g0|_B) and P_e the projector on all
    excited levels. Operator products pass through states outside a
    subspace, so the operators are built in the full space and restricted by
    basis lookup (which also follows any reordering of the full space) before
    they are stacked. The cached array is shared, so it is read-only.
    """
    full = hilbert.build_full_space()
    drive_a = hilbert.transition_operator(full, LevelA.e0, LevelA.g0)
    drive_b = hilbert.transition_operator(
        full, LevelB.eL, LevelB.gL
    ) + hilbert.transition_operator(full, LevelB.eR, LevelB.gR)
    cavity = np.zeros((full.dim, full.dim), dtype=complex)
    for lvl_a, lvl_b, mode in ((LevelA.gL, LevelB.eL, "L"), (LevelA.gR, LevelB.eR, "R")):
        a_op = hilbert.annihilation_operator(full, mode)
        cavity += a_op @ hilbert.transition_operator(full, lvl_a, LevelA.e0)
        cavity += a_op @ hilbert.transition_operator(full, LevelB.g0, lvl_b)
    idx = hilbert.subspace_indices(space, full)
    sel = np.ix_(idx, idx)
    drive_a, drive_b, cavity, excited = (op[sel] for op in (
        drive_a, drive_b, cavity, hilbert.excited_projector(full)))
    terms = np.stack([drive_a, drive_a.conj().T, drive_b, drive_b.conj().T,
                      cavity + cavity.conj().T, excited])
    terms.flags.writeable = False
    return terms


class CellDrives:
    """Time-dependent coefficients of a batch of cells.

    Cell b evolves under H_b(t) = sum_k c[t, b, k] * hamiltonian_terms(space)[k],
    with the coefficients omega_a, conj(omega_a), omega_b, conj(omega_b), g
    and the detuning, zero under STIRAP pulses: closed runs take them as
    they are, open runs through open_coefficients. Each call evaluates the pulses of each distinct
    PulseSet once at all the given times. Exact TQD cells share theta_dot
    per StirapParams (a cut along delta has one) and take their amplitudes
    from one pulses.counterdiabatic_amplitudes call on its distinct
    detunings, the rule's one home. A cell whose pulse synthesis fails gets
    NaN coefficients from the first failing time on, and its
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
                out[:, group, 2 * k] = column
                out[:, group, 2 * k + 1] = np.conj(column)

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


def collapse_channels(
    params: ModelParams, space: HilbertSpace
) -> list[tuple[np.ndarray, float]]:
    """All (operator, rate) dissipation channels: photon leakage + spontaneous emission.

    Two photon channels at rate kappa, and one channel per excited->ground
    branch at rate gamma/2 (3 for atom A, 6 for atom B).
    """
    channels = [
        (hilbert.annihilation_operator(space, "L"), params.kappa),
        (hilbert.annihilation_operator(space, "R"), params.kappa),
    ]
    for g_lvl in hilbert.GROUND_A:
        channels.append(
            (hilbert.transition_operator(space, LevelA.e0, g_lvl), params.gamma / 2)
        )
    for e_lvl in hilbert.EXCITED_B:
        for g_lvl in hilbert.GROUND_B:
            channels.append(
                (hilbert.transition_operator(space, e_lvl, g_lvl), params.gamma / 2)
            )
    return channels


@lru_cache(maxsize=None)
def open_space() -> HilbertSpace:
    """The 16 states reachable from |phi_1> under hamiltonian_terms and the collapse operators.

    Every channel counts whatever its rate, so the space is the same for all
    kappa and gamma (including zero). The full space's hamiltonian_terms it
    reads stays cached, 614 KB.
    """
    full = hilbert.build_full_space()
    jumps = [op for op, _ in collapse_channels(ModelParams(), full)]
    return hilbert.reachable_space(full, hamiltonian_terms(full), jumps,
                                   hilbert.build_subspace().basis[0])


def hermitian_drive_operators(terms: np.ndarray) -> np.ndarray:
    """A hamiltonian_terms stack as Hermitian generators, (6, d, d).

    Each drive D with its adjoint becomes X = D + D+ and Y = i(D - D+), with
    the real coefficients Re omega and Im omega, since
    omega D + conj(omega) D+ = Re omega X + Im omega Y; cavity and excited
    are Hermitian already. open_coefficients gives the coefficients.
    """
    return np.stack([terms[0] + terms[1], 1j * (terms[0] - terms[1]),
                     terms[2] + terms[3], 1j * (terms[2] - terms[3]), terms[4], terms[5]])


@lru_cache(maxsize=None)
def open_liouvillian() -> dynamics.Liouvillian:
    """The master equation on open_space as real structure superoperators.

    Operators -i[G_k, .] for the 6 hermitian_drive_operators, then the
    kappa and gamma dissipators at unit rate, on the 84 entries of rho
    reachable from |phi_1><phi_1|, lumped from it: each entry equals its
    L<->R mirror image, so they take 44 real coordinates. Like open_space,
    support and blocks hold for every rate; a rho0 that breaks the mirror
    needs a Liouvillian of its own (dynamics.Liouvillian.reachable).
    """
    space = open_space()
    psi0 = space.ket(hilbert.build_subspace().basis[0])
    dissipators = [dynamics.dissipator_superoperator(collapse_channels(rates, space), space.dim)
                   for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))]
    return dynamics.Liouvillian.reachable(hermitian_drive_operators(hamiltonian_terms(space)),
                                          dissipators, np.outer(psi0, psi0.conj()))


def open_coefficients(drives: Callable, params: Sequence[ModelParams]) -> Callable:
    """Real coefficients of open_liouvillian's operators: the drives', then kappa and gamma.

    drives(times) gives a batch's CellDrives coefficients (times, cells, 6);
    params are the cells' ModelParams, in order. The drives' become
    Re omega_a, Im omega_a, Re omega_b, Im omega_b, g and the detuning
    (hermitian_drive_operators).
    """
    rates = np.array([[p.kappa, p.gamma] for p in params], dtype=float).reshape(-1, 2)

    def coefficients(times):
        c = drives(times)
        out = np.empty(c.shape[:-1] + (8,))
        out[..., 0:4:2] = c[..., 0:4:2].real
        out[..., 1:4:2] = c[..., 0:4:2].imag
        out[..., 4:6] = c[..., 4:6].real
        out[..., 6:] = rates
        return out

    return coefficients
