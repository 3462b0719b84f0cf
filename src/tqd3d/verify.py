"""Quantitative acceptance checks for the whole pipeline.

Each criterion re-measures a headline quantity (benchmark fidelity, pulse
boundary values, oracle agreements, structural invariants) and compares it
against a fixed tolerance.  Used by the CLI `verify` command and by the
acceptance test module.  Expensive simulations are shared across criteria
via module-level caches.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import dynamics, experiments, hilbert, model, pulses
from .dynamics import IntegratorConfig
from .model import ModelParams
from .pulses import PulseKind, PulseSet, StirapParams


@dataclass
class CriterionResult:
    cid: str
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
        return f"{status} {self.cid}: {self.description} [{vals}; tolerance: {self.tolerance}]"


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


def check_physical_benchmark() -> CriterionResult:
    result = _open_run(experiments.BENCHMARK_KAPPA, experiments.BENCHMARK_GAMMA)
    f = result.final_fidelity
    return CriterionResult(
        "benchmark",
        "open-system fidelity at the predicted cavity-QED rates",
        abs(f - 0.991) <= 0.005,
        {"final_fidelity": f},
        "0.991 +- 0.005",
    )


def check_decoherence_point() -> CriterionResult:
    f = _open_run(0.01, 0.05).final_fidelity
    return CriterionResult(
        "decoherence-point",
        "open-system fidelity at kappa=0.01g, gamma=0.05g",
        abs(f - 0.97) <= 0.01,
        {"final_fidelity": f},
        "0.97 +- 0.01",
    )


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
            model.berry_counterdiabatic_numeric(p, t)
            - model.h_counterdiabatic(float(pulses.mixing_angle_rate(p, t)))
        )))
        for t in times
    )
    eig_gap = 0.0
    for t in rng.uniform(0.0, p.t_f, 100):
        omega_a, omega_b = pulses.stirap_amplitudes(p, t)
        vals = np.linalg.eigvalsh(model.h_effective_lambda(float(omega_a), float(omega_b)))
        lam = float(pulses.rabi_norm(p, t)) / np.sqrt(3.0)
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
    theta_f = abs(float(pulses.mixing_angle(p, p.t_f)) + np.arctan(np.sqrt(2.0)))
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
    sub = hilbert.build_subspace()
    terms_full = model.hamiltonian_terms(full)
    terms_sub = model.hamiltonian_terms(sub)
    idx = hilbert.subspace_indices(sub, full)
    open_idx = hilbert.subspace_indices(model.open_space(), full)
    p = StirapParams()
    params = ModelParams()
    stirap = PulseSet(PulseKind.STIRAP, p)
    h_stirap_full = model.make_h_of_t(terms_full, params, stirap)
    rng = np.random.default_rng(1)

    # The chain is closed under H(t); the open-system space also under every jump.
    closure = max(_leakage(op, open_idx) for op, _ in model.collapse_channels(params, full))
    for t in rng.uniform(0.0, p.t_f, 200):
        omega_a, omega_b = pulses.tqd_amplitudes(p, params.delta, t)
        for h in (
            h_stirap_full(t),
            model.assemble_hamiltonian(terms_full, complex(omega_a), complex(omega_b),
                                       g=params.g, delta=params.delta),
        ):
            closure = max(closure, _leakage(h, idx), _leakage(h, open_idx))

    sym = model.symmetric_vectors()
    e = np.eye(8)
    even = [e[0], e[1], sym["psi1"], sym["psi2"], sym["psi3"]]
    odd = [sym["psi1_minus"], sym["psi2_minus"], sym["psi3_minus"]]
    h8 = model.make_h_of_t(terms_sub, params, stirap)(0.4 * p.t_f)
    decoupling = max(abs(np.vdot(o, h8 @ v)) for o in odd for v in even)

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

    target3 = np.array([1.0, 0.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    target2 = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)

    def h3(t):
        omega_a, omega_b = pulses.tqd_amplitudes(p, params.delta, t)
        return model.h_effective_detuned(complex(omega_a), complex(omega_b), params.delta)

    def h2(t):
        omega_a, omega_b = pulses.tqd_amplitudes(p, params.delta, t)
        return model.h_two_level(complex(omega_a), complex(omega_b), params.delta)

    f3 = dynamics.evolve_schrodinger(
        h3, np.array([1, 0, 0], dtype=complex), p.t_f, cfg, target=target3
    ).final_fidelity
    f2 = dynamics.evolve_schrodinger(
        h2, np.array([1, 0], dtype=complex), p.t_f, cfg, target=target2
    ).final_fidelity
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
    payload = {
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "id": r.cid,
                "description": r.description,
                "passed": r.passed,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "wall_s": r.wall_s,
            }
            for r in results
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
