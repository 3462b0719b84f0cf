"""Hamiltonians, basis transforms, and collapse channels.

Builds the interaction-picture Hamiltonians of the two-atom bimodal-cavity
system at three levels of description:

* full (on any basis subset: the 8-dim chain, the 16-dim open-system space or
  all 80 states): laser drives + cavity couplings, resonant or with a common
  detuning on all excited levels;
* effective Lambda (3-dim, basis |phi_1>, |Psi_d>, |psi_3>): after dropping
  the fast +-sqrt(3)g sectors;
* two-level (basis |phi_1>, |psi_3>): after adiabatic elimination of |Psi_d>.

Each level comes as fixed structure operators and coefficients vectorized
over times, the form dynamics.evolve_schrodinger integrates: the full model
as drive_operators(terms) and CellDrives(cells), whose one six-column layout
closed runs take as it is and open runs through open_coefficients (on
hermitian_drive_operators), the reduced models of the detuned system as
DETUNED_LAMBDA_OPERATORS and TWO_LEVEL_OPERATORS with their coefficients.

Also provides the counterdiabatic generator i*theta_dot(|phi_1><psi_3| - h.c.)
and its numerical cross-check from the instantaneous-eigenvector formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import dynamics, hilbert, pulses
from .hilbert import HilbertSpace, LevelA, LevelB
from .pulses import SQRT2, PulseKind, PulseSet, PulseSynthesisError, StirapParams

SQRT3 = np.sqrt(3.0)

# Largest |omega_b' - i*omega_a'/sqrt(2)|, relative to max(|omega_a'|, 1), that
# two_level_coefficients accepts as the phase lock.
PHASE_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters in units of the cavity coupling g."""

    g: float = 1.0
    delta: float = 3.6
    t_f: float = 50.0
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


@dataclass(frozen=True)
class HamiltonianTerms:
    """Lowering-part structure matrices; H(t) is assembled from these.

    drive_a:   |g0><e0| on atom A
    drive_b:   sum_i |g_i><e_i| on atom B
    cavity:    sum_i a_i (|e0><g_i|_A + |e_i><g0|_B), without the g factor
    excited:   projector on all excited levels (detuning term)
    """

    space: HilbertSpace
    drive_a: np.ndarray
    drive_b: np.ndarray
    cavity: np.ndarray
    excited: np.ndarray


def hamiltonian_terms(space: HilbertSpace) -> HamiltonianTerms:
    # Operator products pass through states outside a subspace, so the structure
    # matrices are always assembled in the full space and restricted by basis
    # lookup (which also follows any reordering of the full space).
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
    excited = hilbert.excited_projector(full)
    idx = hilbert.subspace_indices(space, full)
    sel = np.ix_(idx, idx)
    return HamiltonianTerms(
        space=space,
        drive_a=drive_a[sel],
        drive_b=drive_b[sel],
        cavity=cavity[sel],
        excited=excited[sel],
    )


def assemble_hamiltonian(
    terms: HamiltonianTerms,
    omega_a: complex,
    omega_b: complex,
    g: float = 1.0,
    delta: float = 0.0,
) -> np.ndarray:
    """H = omega_a*Da + omega_b*Db + g*C + h.c. + delta*P_excited."""
    lower = omega_a * terms.drive_a + omega_b * terms.drive_b + g * terms.cavity
    return lower + lower.conj().T + delta * terms.excited


def make_h_of_t(terms: HamiltonianTerms, params: ModelParams, pulse_set: PulseSet) -> Callable:
    """Callable t -> H(t) for the full model matching the pulse kind.

    STIRAP pulses get the resonant Hamiltonian; TQD pulses get the detuned one.
    """
    detuning = _detuning(params, pulse_set)

    def h_of_t(t):
        omega_a, omega_b = pulse_set.amplitudes(t)
        return assemble_hamiltonian(
            terms, complex(omega_a), complex(omega_b), g=params.g, delta=detuning
        )

    return h_of_t


class CellDrives:
    """Time-dependent coefficients of a batch of cells.

    Cell b evolves under H_b(t) = sum_k c[t, b, k] * drive_operators(terms)[k],
    the terms of assemble_hamiltonian, with the coefficients omega_a,
    conj(omega_a), omega_b, conj(omega_b), g and the detuning of make_h_of_t
    (a call): closed runs take them as they are, open runs through
    open_coefficients. Each call evaluates the pulses of each distinct
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
        """(times, cells, 6) coefficients of drive_operators."""
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


def drive_operators(terms: HamiltonianTerms) -> np.ndarray:
    """The structure operators of CellDrives' coefficients, (6, d, d).

    drive_a, drive_a+, drive_b, drive_b+, cavity + cavity+ and the excited
    projector.
    """
    return np.stack([
        terms.drive_a, terms.drive_a.conj().T, terms.drive_b, terms.drive_b.conj().T,
        terms.cavity + terms.cavity.conj().T, terms.excited,
    ])


def _detuning(params: ModelParams, pulse_set: PulseSet) -> float:
    """STIRAP pulses drive the resonant model; TQD pulses the detuned one."""
    return 0.0 if pulse_set.kind is PulseKind.STIRAP else params.delta


def symmetric_vectors() -> dict[str, np.ndarray]:
    """Even/odd combinations of the degenerate L/R pairs (8-dim vectors)."""
    e = np.eye(8, dtype=complex)
    out = {
        "psi1": (e[2] + e[3]) / SQRT2,
        "psi2": (e[4] + e[5]) / SQRT2,
        "psi3": (e[6] + e[7]) / SQRT2,
        "psi1_minus": (e[2] - e[3]) / SQRT2,
        "psi2_minus": (e[4] - e[5]) / SQRT2,
        "psi3_minus": (e[6] - e[7]) / SQRT2,
    }
    return out


def h_effective_lambda(omega_a: float, omega_b: float) -> np.ndarray:
    """3-dim effective Hamiltonian on (|phi_1>, |Psi_d>, |psi_3>)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = omega_a / SQRT3
    h[1, 2] = -SQRT2 * omega_b / SQRT3
    return h + h.conj().T


# Structure operators of the reduced models of the detuned system: H(t) is
# sum_k c[k] operators[k] with the coefficients c of detuned_lambda_coefficients
# and two_level_coefficients: the matrix units E_01, E_10, E_12, E_21, E_11
# and E_01, E_10 (E_ij is row i*d + j of the d*d identity, reshaped).
DETUNED_LAMBDA_OPERATORS = np.eye(9, dtype=complex).reshape(9, 3, 3)[[1, 3, 5, 7, 4]]
TWO_LEVEL_OPERATORS = np.eye(4, dtype=complex).reshape(4, 2, 2)[[1, 2]]


def detuned_lambda_coefficients(omega_a_prime, omega_b_prime, delta: float) -> np.ndarray:
    """(..., 5) coefficients of the 3-dim effective Hamiltonian of the detuned system.

    On (|phi_1>, |Psi_d>, |psi_3>), with DETUNED_LAMBDA_OPERATORS:
    omega_a'/sqrt(3), its conjugate, -sqrt(2)*omega_b'/sqrt(3), its
    conjugate, and delta on |Psi_d>; the amplitudes are arrays over times.
    """
    a = np.asarray(omega_a_prime, dtype=complex) / SQRT3
    b = -SQRT2 * np.asarray(omega_b_prime, dtype=complex) / SQRT3
    return np.stack([a, a.conj(), b, b.conj(), np.full(a.shape, delta, dtype=complex)], axis=-1)


def two_level_coefficients(omega_a_prime, omega_b_prime, delta: float) -> np.ndarray:
    """(..., 2) coefficients of the 2-dim Hamiltonian after eliminating |Psi_d>.

    On (|phi_1>, |psi_3>), with TWO_LEVEL_OPERATORS: the coupling
    i*omega_a'^2/(3*delta) and its conjugate. Requires the phase lock
    omega_b' = i*omega_a'/sqrt(2) at every time, which makes both Stark
    shifts equal (dropped as a global phase) and the coupling purely
    counterdiabatic; ValueError if any time breaks it.
    """
    omega_a = np.asarray(omega_a_prime, dtype=complex)
    scale = np.maximum(np.abs(omega_a), 1.0)
    if np.any(np.abs(omega_b_prime - 1j * omega_a / SQRT2) > PHASE_TOL * scale):
        raise ValueError(
            "amplitudes violate the phase lock omega_b' = i*omega_a'/sqrt(2)"
        )
    coupling = 1j * omega_a**2 / (3.0 * delta)
    return np.stack([coupling, coupling.conj()], axis=-1)


def reduced_drives(coefficients: Callable, p: StirapParams, delta: float) -> Callable:
    """times -> (times, 1, K): one cell of a reduced model under the exact TQD pulses.

    coefficients is detuned_lambda_coefficients or two_level_coefficients;
    each call takes one pulses.tqd_amplitudes call for all its times.
    """
    return lambda times: coefficients(*pulses.tqd_amplitudes(p, delta, times), delta)[:, None]


def h_counterdiabatic(theta_dot: float) -> np.ndarray:
    """3-dim counterdiabatic generator i*theta_dot(|phi_1><psi_3| - |psi_3><phi_1|)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = 1j * theta_dot
    h[2, 0] = -1j * theta_dot
    return h


class EigenvectorContinuityError(RuntimeError):
    """Raised when the finite-difference step is too coarse for smooth gauge fixing."""


def berry_counterdiabatic_numeric(
    p: StirapParams | Callable, t: float, h_step: float | None = None
) -> np.ndarray:
    """Counterdiabatic generator from i*sum_k |d_t n_k><n_k| by central differences.

    Eigenvectors come from numerical diagonalization with the smooth gauge fixed
    by a positive overlap between adjacent times.  p is either StirapParams or
    a callable t -> (omega_a, omega_b).
    """
    amplitudes = p if callable(p) else (lambda tt: pulses.stirap_amplitudes(p, tt))
    if h_step is None:
        if callable(p):
            raise ValueError("h_step is required when passing a bare amplitude callable")
        h_step = 1e-5 * p.t_f

    def eig_at(tt):
        omega_a, omega_b = amplitudes(tt)
        vals, vecs = np.linalg.eigh(h_effective_lambda(float(omega_a), float(omega_b)))
        return vecs  # columns sorted by ascending eigenvalue

    center = eig_at(t)
    before = eig_at(t - h_step)
    after = eig_at(t + h_step)
    for mat in (before, after):
        for k in range(3):
            overlap = np.vdot(center[:, k], mat[:, k])
            if abs(overlap) < 0.9:
                raise EigenvectorContinuityError(
                    f"eigenvector overlap {abs(overlap):.3f} < 0.9 at t={t:.6g}; "
                    "reduce h_step"
                )
            mat[:, k] *= np.sign(overlap.real) if overlap.real != 0 else 1.0
    deriv = (after - before) / (2.0 * h_step)
    return 1j * deriv @ center.conj().T


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
    """The 16 states reachable from |phi_1> under the couplings and collapse operators.

    Every channel counts whatever its rate, so the space is the same for all
    kappa and gamma (including zero).
    """
    full = hilbert.build_full_space()
    terms = hamiltonian_terms(full)
    jumps = [op for op, _ in collapse_channels(ModelParams(), full)]
    return hilbert.reachable_space(
        full, (terms.drive_a, terms.drive_b, terms.cavity), jumps,
        hilbert.build_subspace().basis[0],
    )


@lru_cache(maxsize=None)
def chain_terms() -> HamiltonianTerms:
    """hamiltonian_terms on the 8-dim chain, assembled once per process."""
    return hamiltonian_terms(hilbert.build_subspace())


def hermitian_drive_operators(terms: HamiltonianTerms) -> np.ndarray:
    """drive_operators as Hermitian generators, (6, d, d).

    Each drive D with its adjoint becomes X = D + D+ and Y = i(D - D+), with
    the real coefficients Re omega and Im omega, since
    omega D + conj(omega) D+ = Re omega X + Im omega Y; cavity and excited
    are Hermitian already. open_coefficients gives the coefficients.
    """
    ops = drive_operators(terms)
    return np.stack([ops[0] + ops[1], 1j * (ops[0] - ops[1]),
                     ops[2] + ops[3], 1j * (ops[2] - ops[3]), ops[4], ops[5]])


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
