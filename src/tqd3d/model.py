"""Hamiltonians, basis transforms, eigensystem, and collapse channels.

Builds the interaction-picture Hamiltonians of the two-atom bimodal-cavity
system at three levels of description:

* full (on any basis subset: the 8-dim chain, the 16-dim open-system space or
  all 80 states): laser drives + cavity couplings, resonant or with a common
  detuning on all excited levels;
* effective Lambda (3-dim, basis |phi_1>, |Psi_d>, |psi_3>): after dropping
  the fast +-sqrt(3)g sectors;
* two-level (basis |phi_1>, |psi_3>): after adiabatic elimination of |Psi_d>.

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
# h_two_level accepts as the phase lock.
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
    """Time-dependent coefficients of a batch of cells on one space.

    Cell b evolves under H_b(t) = sum_k c[t, b, k] * operators[k], the terms
    of assemble_hamiltonian split into drive_a, drive_a+, drive_b, drive_b+,
    cavity + cavity+ and the excited projector, with coefficients omega_a,
    conj(omega_a), omega_b, conj(omega_b), g and the detuning of make_h_of_t.
    A call evaluates the pulses of each distinct PulseSet once at all the
    given times; exact TQD PulseSets share theta_dot per StirapParams (a cut
    along delta has one) and take only their own root
    (dynamics.evolve_schrodinger runs the batch; open runs turn them into
    open_coefficients). A cell whose pulse synthesis fails gets NaN
    coefficients from the first failing time on, and its
    PulseSynthesisError is kept in `errors`.
    """

    def __init__(self, terms: HamiltonianTerms,
                 cells: Sequence[tuple[ModelParams, PulseSet]]):
        self.operators = _drive_operators(terms)
        self.cells = list(cells)
        self.errors: dict[int, PulseSynthesisError] = {}
        first: dict[PulseSet, int] = {}  # each cell's first cell with an equal PulseSet
        self._first = [first.setdefault(ps, b) for b, (_, ps) in enumerate(self.cells)]
        self._shared = {f for b, f in enumerate(self._first) if f != b}
        self._constants = np.array([[p.g, _detuning(p, ps)]
                                    for p, ps in self.cells]).reshape(-1, 2)

    def __call__(self, times: np.ndarray) -> np.ndarray:
        out = np.empty((len(times), len(self.cells), len(self.operators)), dtype=complex)
        out[:, :, 4:] = self._constants
        shared: dict[int, tuple] = {}  # pulses of the PulseSets later cells reuse
        rates: dict[StirapParams, np.ndarray] = {}  # theta_dot of exact TQD PulseSets
        for b, (first, (_, pulse_set)) in enumerate(zip(self._first, self.cells)):
            if b in self.errors:  # failed in an earlier call
                out[:, b] = np.nan
                continue
            if first in shared:
                columns, error = shared[first]
            else:
                omega_a, omega_b, error = _cell_amplitudes(pulse_set, times, rates)
                columns = (omega_a, np.conj(omega_a), omega_b, np.conj(omega_b))
                if b in self._shared:
                    shared[b] = columns, error
            for k, column in enumerate(columns):
                out[:, b, k] = column
            if error is not None:
                self.errors[b] = error
                out[np.isnan(columns[0]), b] = np.nan  # the whole cell, from that time on
        return out


def _cell_amplitudes(pulse_set: PulseSet, times: np.ndarray, rates: dict):
    """(omega_a, omega_b, PulseSynthesisError or None), NaN from a failing time on.

    rates caches theta_dot at times per StirapParams for exact TQD pulses,
    the only ones that can fail.
    """
    if pulse_set.kind is not PulseKind.TQD_EXACT:
        return (*pulse_set.amplitudes(times), None)
    stirap = pulse_set.stirap
    if stirap not in rates:
        rates[stirap] = pulses.mixing_angle_rate(stirap, times)
    return pulses.counterdiabatic_amplitudes(rates[stirap], pulse_set.delta, times)


def _drive_operators(terms: HamiltonianTerms) -> np.ndarray:
    """The structure operators of CellDrives, (6, d, d)."""
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


def bright_dark_vectors() -> dict[str, np.ndarray]:
    """Dark and bright combinations of |phi_2> and |psi_2> with |psi_1| (8-dim)."""
    e = np.eye(8, dtype=complex)
    sym = symmetric_vectors()
    dark = (e[1] - SQRT2 * sym["psi2"]) / SQRT3
    plus = (SQRT2 * e[1] + SQRT3 * sym["psi1"] + sym["psi2"]) / np.sqrt(6.0)
    minus = (SQRT2 * e[1] - SQRT3 * sym["psi1"] + sym["psi2"]) / np.sqrt(6.0)
    return {"dark": dark, "plus": plus, "minus": minus}


def h_effective_lambda(omega_a: float, omega_b: float) -> np.ndarray:
    """3-dim effective Hamiltonian on (|phi_1>, |Psi_d>, |psi_3>)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = omega_a / SQRT3
    h[1, 2] = -SQRT2 * omega_b / SQRT3
    return h + h.conj().T


def h_effective_detuned(
    omega_a_prime: complex, omega_b_prime: complex, delta: float
) -> np.ndarray:
    """3-dim effective Hamiltonian of the detuned system (adds delta on |Psi_d>)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = omega_a_prime / SQRT3
    h[1, 2] = -SQRT2 * omega_b_prime / SQRT3
    h = h + h.conj().T
    h[1, 1] = delta
    return h


def h_two_level(omega_a_prime: complex, omega_b_prime: complex, delta: float) -> np.ndarray:
    """2-dim Hamiltonian on (|phi_1>, |psi_3>) after eliminating |Psi_d>.

    Requires the phase lock omega_b' = i*omega_a'/sqrt(2), which makes both
    Stark shifts equal (dropped as a global phase) and the coupling
    i*omega_a'^2/(3*delta) purely counterdiabatic.
    """
    expected_b = 1j * omega_a_prime / SQRT2
    scale = max(abs(omega_a_prime), 1.0)
    if abs(omega_b_prime - expected_b) > PHASE_TOL * scale:
        raise ValueError(
            "amplitudes violate the phase lock omega_b' = i*omega_a'/sqrt(2)"
        )
    coupling = 1j * omega_a_prime**2 / (3.0 * delta)
    h = np.zeros((2, 2), dtype=complex)
    h[0, 1] = coupling
    h[1, 0] = np.conj(coupling)
    return h


def h_counterdiabatic(theta_dot: float) -> np.ndarray:
    """3-dim counterdiabatic generator i*theta_dot(|phi_1><psi_3| - |psi_3><phi_1|)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = 1j * theta_dot
    h[2, 0] = -1j * theta_dot
    return h


@dataclass(frozen=True)
class Eigensystem:
    """Instantaneous eigensystem of the 3-dim effective Hamiltonian."""

    values: np.ndarray  # (lambda_minus, lambda_0, lambda_plus)
    vectors: np.ndarray  # columns n_minus, n_0, n_plus


def effective_eigensystem(p: StirapParams, t: float) -> Eigensystem:
    """Analytic dark/bright eigensystem parametrized by the mixing angle."""
    theta = float(pulses.mixing_angle(p, t))
    norm = float(pulses.rabi_norm(p, t))
    lam = norm / SQRT3
    # Dark vector (-cos, 0, sin); bright vectors carry the sign assignment that
    # pairs each with its eigenvalue for the branch theta in (-pi/2, pi/2).
    n0 = np.array([-np.cos(theta), 0.0, np.sin(theta)], dtype=complex)
    n_plus = np.array([-np.sin(theta), 1.0, -np.cos(theta)], dtype=complex) / SQRT2
    n_minus = np.array([np.sin(theta), 1.0, np.cos(theta)], dtype=complex) / SQRT2
    values = np.array([-lam, 0.0, lam])
    vectors = np.column_stack([n_minus, n0, n_plus])
    return Eigensystem(values=values, vectors=vectors)


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
def open_terms() -> HamiltonianTerms:
    """hamiltonian_terms on open_space, assembled once per process."""
    return hamiltonian_terms(open_space())


def hermitian_drive_operators(terms: HamiltonianTerms) -> np.ndarray:
    """CellDrives' operators as Hermitian generators, (6, d, d).

    Each drive D with its adjoint becomes X = D + D+ and Y = i(D - D+), with
    the real coefficients Re omega and Im omega, since
    omega D + conj(omega) D+ = Re omega X + Im omega Y; cavity and excited
    are Hermitian already. open_coefficients gives the coefficients.
    """
    ops = _drive_operators(terms)
    return np.stack([ops[0] + ops[1], 1j * (ops[0] - ops[1]),
                     ops[2] + ops[3], 1j * (ops[2] - ops[3]), ops[4], ops[5]])


@lru_cache(maxsize=None)
def open_liouvillian() -> dynamics.Liouvillian:
    """The master equation on open_space as real structure superoperators.

    Operators -i[G_k, .] for the 6 hermitian_drive_operators, then the
    kappa and gamma dissipators at unit rate, on the entries of rho reachable
    from |phi_1><phi_1|. Like open_space, the support holds for every rate.
    """
    space = open_space()
    psi0 = space.ket(hilbert.build_subspace().basis[0])
    dissipators = [dynamics.dissipator_superoperator(collapse_channels(rates, space), space.dim)
                   for rates in (ModelParams(kappa=1.0), ModelParams(gamma=1.0))]
    return dynamics.Liouvillian.reachable(hermitian_drive_operators(open_terms()),
                                          dissipators, np.outer(psi0, psi0.conj()))


def open_coefficients(drive_coefficients: Callable, params: Sequence[ModelParams]) -> Callable:
    """Real coefficients of open_liouvillian's operators: the drives', then kappa and gamma.

    drive_coefficients(times) gives a batch's CellDrives coefficients
    (times, cells, 6); params are the cells' ModelParams, in order. The
    drives' become Re omega_a, Im omega_a, Re omega_b, Im omega_b, g and the
    detuning (hermitian_drive_operators).
    """
    rates = np.array([[p.kappa, p.gamma] for p in params], dtype=float).reshape(-1, 2)

    def coefficients(times):
        c = drive_coefficients(times)
        out = np.empty(c.shape[:-1] + (8,))
        out[..., 0:4:2] = c[..., 0:4:2].real  # omega_a and omega_b are columns 0 and 2
        out[..., 1:4:2] = c[..., 0:4:2].imag
        out[..., 4:6] = c[..., 4:6].real
        out[..., 6:] = rates
        return out

    return coefficients
