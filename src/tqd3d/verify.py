"""Quantitative acceptance checks for the whole pipeline.

Each criterion re-measures a headline quantity (benchmark fidelity, pulse
boundary values, oracle agreements, structural invariants) against a fixed
tolerance, for the CLI `verify` command and the acceptance tests; expensive
runs are shared through module-level caches.  The oracles live here too:
the symmetric L/R states, the reduced three- and two-level models of the
detuned system and the counterdiabatic generator, in the layout of
model.hamiltonian_terms (Hermitian operators, real coefficients), and its
numerical cross-check from the instantaneous eigenvectors.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import dynamics, experiments, hilbert, model, pulses
from .dynamics import IntegratorConfig
from .model import ModelParams
from .pulses import SQRT2, PulseKind, StirapParams

SQRT3 = np.sqrt(3.0)

# Largest |omega_b' - i*omega_a'/sqrt(2)|, relative to max(|omega_a'|, 1), that
# two_level_coefficients accepts as the phase lock.
PHASE_TOL = 1e-9


@dataclass
class CriterionResult:
    id: str
    description: str
    passed: bool
    measured: dict = field(default_factory=dict)
    tolerance: str = ""
    wall_s: float = 0.0  # run_all's timing, with any cached run this check was first to need

    def __post_init__(self):
        # Checks compute with NumPy scalars; the JSON report needs plain Python values.
        self.passed = bool(self.passed)
        self.measured = {k: float(v) for k, v in self.measured.items()}

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        vals = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.measured.items())
        return f"{status} {self.id}: {self.description} [{vals}; tolerance: {self.tolerance}]"


@lru_cache(maxsize=None)
def _closed_run(kind: PulseKind, dt: float = IntegratorConfig.dt):
    return experiments.simulate_closed(
        ModelParams(), experiments.default_pulse_set(kind), IntegratorConfig(dt=dt)
    )


@lru_cache(maxsize=None)
def _open_run(kappa: float, gamma: float):
    params = ModelParams(kappa=kappa, gamma=gamma)
    return experiments.simulate_open(
        params, experiments.default_pulse_set(PulseKind.TQD_FITTED, params)
    )


# Oracles: the symmetric states, the reduced models of the detuned system and
# the counterdiabatic generator with its eigenvector cross-check.


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


def _generators(dim: int, couplings, diagonal=()) -> np.ndarray:
    """X_ij = E_ij + E_ji and Y_ij = i(E_ij - E_ji) of each coupling (i, j), then E_ii of each i.

    E_ij = |i><j|: c E_ij + h.c. is Re c X_ij + Im c Y_ij, model.hamiltonian_terms' layout.
    """
    e = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)  # e[i, j] = E_ij
    pairs = [(e[i, j] + e[j, i], 1j * e[i, j] - 1j * e[j, i]) for i, j in couplings]
    return np.array([op for pair in pairs for op in pair] + [e[i, i] for i in diagonal])


# The reduced models of the detuned system: H(t) is sum_k c[k] operators[k] with the real
# coefficients of detuned_lambda_coefficients on (|phi_1>, |Psi_d>, |psi_3>), X_01, Y_01,
# X_12, Y_12 and E_11, and of two_level_coefficients on (|phi_1>, |psi_3>), X_01 and Y_01.
DETUNED_LAMBDA_OPERATORS = _generators(3, [(0, 1), (1, 2)], [1])
TWO_LEVEL_OPERATORS = _generators(2, [(0, 1)])


def h_effective_lambda(omega_a: float, omega_b: float) -> np.ndarray:
    """3-dim effective Hamiltonian on (|phi_1>, |Psi_d>, |psi_3>) of the resonant system."""
    return np.tensordot(detuned_lambda_coefficients(omega_a, omega_b, 0.0),
                        DETUNED_LAMBDA_OPERATORS, axes=1)


def detuned_lambda_coefficients(omega_a_prime, omega_b_prime, delta: float) -> np.ndarray:
    """(..., 5) real coefficients of the 3-dim effective Hamiltonian of the detuned system.

    With DETUNED_LAMBDA_OPERATORS: Re and Im of omega_a'/sqrt(3) and of
    -sqrt(2)*omega_b'/sqrt(3), then delta on |Psi_d>; the amplitudes are
    arrays over times.
    """
    a = np.asarray(omega_a_prime, dtype=complex) / SQRT3
    b = -SQRT2 * np.asarray(omega_b_prime, dtype=complex) / SQRT3
    return np.stack([a.real, a.imag, b.real, b.imag, np.full(a.shape, float(delta))], axis=-1)


def two_level_coefficients(omega_a_prime, omega_b_prime, delta: float) -> np.ndarray:
    """(..., 2) real coefficients of the 2-dim Hamiltonian after eliminating |Psi_d>.

    With TWO_LEVEL_OPERATORS: Re and Im of the coupling
    i*omega_a'^2/(3*delta). Requires the phase lock
    omega_b' = i*omega_a'/sqrt(2) at every time, which makes both Stark
    shifts equal (dropped as a global phase) and the coupling purely
    counterdiabatic; ValueError if any time breaks it.
    """
    omega_a = np.asarray(omega_a_prime, dtype=complex)
    scale = np.maximum(np.abs(omega_a), 1.0)
    if np.any(np.abs(omega_b_prime - 1j * omega_a / SQRT2) > PHASE_TOL * scale):
        raise ValueError("amplitudes violate the phase lock omega_b' = i*omega_a'/sqrt(2)")
    coupling = 1j * omega_a**2 / (3.0 * delta)
    return np.stack([coupling.real, coupling.imag], axis=-1)


def reduced_drives(coefficients: Callable, p: StirapParams, delta: float) -> Callable:
    """times -> (times, 1, K): one cell of a reduced model under the exact TQD pulses.

    coefficients is detuned_lambda_coefficients or two_level_coefficients;
    each call takes one pulses.tqd_amplitudes call for all its times.
    """
    return lambda times: coefficients(*pulses.tqd_amplitudes(p, delta, times), delta)[:, None]


def h_counterdiabatic(theta_dot: float) -> np.ndarray:
    """3-dim counterdiabatic generator i*theta_dot(|phi_1><psi_3| - h.c.) = theta_dot Y_02."""
    return theta_dot * _generators(3, [(0, 2)])[1]


class EigenvectorContinuityError(RuntimeError):
    """Raised when an eigenvector turns by more than the gauge fixing can follow in one step."""


def berry_counterdiabatic_numeric(p: StirapParams, t: float) -> np.ndarray:
    """Counterdiabatic generator from i*sum_k |d_t n_k><n_k| by central differences.

    Eigenvectors come from numerical diagonalization of the STIRAP pulses' H at
    t and t +- 1e-5*t_f, with the smooth gauge fixed by a positive overlap
    between adjacent times.
    """
    h_step = 1e-5 * p.t_f

    def eig_at(tt):
        omega_a, omega_b = pulses.stirap_amplitudes(p, tt)
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
                    f"eigenvector overlap {abs(overlap):.3f} < 0.9 at t={t:.6g} "
                    "over the central-difference step"
                )
            mat[:, k] *= np.sign(overlap.real) if overlap.real != 0 else 1.0
    deriv = (after - before) / (2.0 * h_step)
    return 1j * deriv @ center.conj().T


def _open_point(cid: str, description: str, kappa: float, gamma: float,
                want: float, tol: float) -> CriterionResult:
    """Open-system fidelity at (kappa, gamma) within tol of want."""
    f = _open_run(kappa, gamma).final_fidelity
    return CriterionResult(cid, description, abs(f - want) <= tol, {"final_fidelity": f},
                           f"{want:g} +- {tol:g}")


def check_physical_benchmark() -> CriterionResult:
    return _open_point("benchmark", "open-system fidelity at the predicted cavity-QED rates",
                       experiments.BENCHMARK_KAPPA, experiments.BENCHMARK_GAMMA, 0.991, 0.005)


def check_decoherence_point() -> CriterionResult:
    return _open_point("decoherence-point", "open-system fidelity at kappa=0.01g, gamma=0.05g",
                       0.01, 0.05, 0.97, 0.01)


def check_closed_tqd() -> CriterionResult:
    f_exact = _closed_run(PulseKind.TQD_EXACT).final_fidelity
    f_fitted = _closed_run(PulseKind.TQD_FITTED).final_fidelity
    gap = abs(f_exact - f_fitted)
    return CriterionResult(
        "closed-tqd",
        "closed-system fidelity, exact vs fitted counterdiabatic pulses",
        f_exact >= 0.99 and gap < 0.01,
        {"exact": f_exact, "fitted": f_fitted, "gap": gap},
        "exact >= 0.99, |exact - fitted| < 0.01",
    )


def check_method_ordering() -> CriterionResult:
    f_tqd = _closed_run(PulseKind.TQD_EXACT).final_fidelity
    f_stirap = _closed_run(PulseKind.STIRAP).final_fidelity
    return CriterionResult(
        "method-ordering",
        "counterdiabatic driving beats adiabatic passage at equal duration",
        f_tqd > f_stirap,
        {"tqd": f_tqd, "stirap": f_stirap},
        "F_tqd > F_stirap",
    )


def check_oracle_equivalence() -> CriterionResult:
    p = StirapParams()
    rng = np.random.default_rng(0)
    times = rng.uniform(0.01 * p.t_f, 0.99 * p.t_f, 50)
    cd_gap = max(
        float(np.max(np.abs(
            berry_counterdiabatic_numeric(p, t)
            - h_counterdiabatic(float(pulses.mixing_angle_rate(p, t)))
        )))
        for t in times
    )
    eig_gap = 0.0
    for t in rng.uniform(0.0, p.t_f, 100):
        omega_a, omega_b = pulses.stirap_amplitudes(p, t)
        vals = np.linalg.eigvalsh(h_effective_lambda(float(omega_a), float(omega_b)))
        lam = float(pulses.rabi_norm(p, t)) / SQRT3
        eig_gap = max(eig_gap, float(np.max(np.abs(vals - np.array([-lam, 0.0, lam])))))
    return CriterionResult(
        "oracle-equivalence",
        "closed-form counterdiabatic generator vs eigenvector formula; eigenvalues",
        cd_gap < 1e-6 and eig_gap < 1e-10,
        {"counterdiabatic_gap": cd_gap, "eigenvalue_gap": eig_gap},
        "generator gap < 1e-6 g, eigenvalue gap < 1e-10 g",
    )


def check_boundary_conditions() -> CriterionResult:
    p = StirapParams()
    theta0 = abs(float(pulses.mixing_angle(p, 0.0)))
    theta_f = abs(float(pulses.mixing_angle(p, p.t_f)) + np.arctan(SQRT2))
    return CriterionResult(
        "boundary-conditions",
        "mixing angle endpoints 0 and -arctan(sqrt(2))",
        theta0 < 1e-4 and theta_f < 2e-3,
        {"theta_start": theta0, "theta_end_gap": theta_f},
        "|theta(0)| < 1e-4, |theta(t_f)+arctan(sqrt2)| < 2e-3",
    )


def _leakage(op: np.ndarray, idx: np.ndarray) -> float:
    """Largest amplitude op carries from the states idx to any state outside them."""
    outside = np.ones(op.shape[0], dtype=bool)
    outside[idx] = False
    return float(np.max(np.abs(op[outside][:, idx])))


def check_structural_invariants() -> CriterionResult:
    full = hilbert.build_full_space()
    idx = hilbert.subspace_indices(hilbert.build_subspace(), full)
    open_idx = hilbert.subspace_indices(model.open_space(), full)

    # H(t) is a combination of the structure operators, so whatever the pulses, the
    # chain and the open-system space are closed under it if they are under each
    # operator; the open-system space must also be closed under every jump.
    structure = model.hamiltonian_terms(full)
    jumps = [op for op, _ in model.collapse_channels(ModelParams(), full)]
    closure = max([_leakage(op, i) for op in structure for i in (idx, open_idx)]
                  + [_leakage(op, open_idx) for op in jumps])

    # Likewise the odd L/R sector decouples from the even one under every H(t) of
    # the chain if it does under each operator that the chain's runs integrate.
    sym = symmetric_vectors()
    e = np.eye(8)
    even = [e[0], e[1], sym["psi1"], sym["psi2"], sym["psi3"]]
    odd = [sym["psi1_minus"], sym["psi2_minus"], sym["psi3_minus"]]
    decoupling = max(abs(np.vdot(o, op @ v))
                     for op in model.hamiltonian_terms(hilbert.build_subspace())
                     for o in odd for v in even)

    norm_drift = _closed_run(PulseKind.TQD_EXACT).metadata["max_norm_drift"]
    trace_drift = _open_run(0.01, 0.05).metadata["max_trace_drift"]
    halving = abs(
        _closed_run(PulseKind.TQD_EXACT).final_fidelity
        - _closed_run(PulseKind.TQD_EXACT, dt=IntegratorConfig.dt / 2).final_fidelity
    )
    passed = (
        closure < 1e-12 and decoupling < 1e-14 and norm_drift < 1e-8
        and trace_drift < 1e-6 and halving < 1e-6
    )
    return CriterionResult(
        "structural-invariants",
        "chain and open-space closure, odd-sector decoupling, norm/trace preservation, "
        "dt convergence",
        passed,
        {"closure": closure, "odd_sector": decoupling,
         "norm_drift": norm_drift, "trace_drift": trace_drift, "step_halving": halving},
        "closure < 1e-12, decoupling < 1e-14, norm < 1e-8, trace < 1e-6, halving < 1e-6",
    )


def check_model_hierarchy() -> CriterionResult:
    p = StirapParams()
    params = ModelParams()
    cfg = IntegratorConfig()
    f_full = _closed_run(PulseKind.TQD_EXACT).final_fidelity

    target3 = np.array([1.0, 0.0, SQRT2]) / SQRT3
    target2 = np.array([1.0, SQRT2]) / SQRT3

    def final_fidelity(operators, coefficients, psi0, target):
        drives = reduced_drives(coefficients, p, params.delta)
        return dynamics.evolve_schrodinger(
            operators, drives, np.array(psi0, dtype=complex), p.t_f, cfg, target=target
        ).final_fidelity

    f3 = final_fidelity(DETUNED_LAMBDA_OPERATORS, detuned_lambda_coefficients, [1, 0, 0], target3)
    f2 = final_fidelity(TWO_LEVEL_OPERATORS, two_level_coefficients, [1, 0], target2)
    spread = max(f_full, f3, f2) - min(f_full, f3, f2)
    return CriterionResult(
        "model-hierarchy",
        "two-level, three-level and full dynamics agree on the final fidelity",
        spread < 0.02,
        {"full": f_full, "three_level": f3, "two_level": f2, "spread": spread},
        "max spread < 0.02",
    )


def check_fit_recovery() -> CriterionResult:
    p = StirapParams()
    times = pulses.sample_grid(p.t_f, 501)
    _, exact = pulses.tqd_amplitudes(p, ModelParams.delta, times)
    _, rms = pulses.fit_two_gaussians(times, exact)

    reference = pulses.default_fitted_pulse()
    refit, _ = pulses.fit_two_gaussians(times, reference(times))
    rel_err = 0.0
    for got, want in zip(refit.terms, reference.terms):
        for attr in ("amplitude", "center", "width"):
            rel_err = max(
                rel_err, abs(getattr(got, attr) - getattr(want, attr)) / abs(getattr(want, attr))
            )
    return CriterionResult(
        "fit-recovery",
        "two-Gaussian fit quality on the exact waveform and self-recovery",
        rms < 0.01 and rel_err < 0.01,
        {"rms_residual": rms, "self_recovery_rel_err": rel_err},
        "rms < 0.01 g, parameter recovery < 1%",
    )


CRITERIA = (
    check_physical_benchmark,
    check_decoherence_point,
    check_closed_tqd,
    check_method_ordering,
    check_oracle_equivalence,
    check_boundary_conditions,
    check_structural_invariants,
    check_model_hierarchy,
    check_fit_recovery,
)


def run_all() -> list[CriterionResult]:
    results = []
    for check in CRITERIA:
        start = time.perf_counter()
        results.append(check())
        results[-1].wall_s = time.perf_counter() - start
    return results


def report_json(results: list[CriterionResult]) -> str:
    return json.dumps({"passed": all(r.passed for r in results),
                       "criteria": [asdict(r) for r in results]}, indent=2, sort_keys=True)
