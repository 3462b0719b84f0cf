"""Fixed-step RK4 evolution for pure states and density matrices, plus observables.

Pure-state runs live on the 8-dim invariant subspace; open-system runs need
more, because spontaneous emission leaves it, and use the 16 states reachable
from |phi_1> once the collapse operators are added (model.open_space).  The
dissipator is precomputed once as a sparse superoperator acting on the
row-major vectorization of rho, so each right-hand side costs two dense
matrix products plus one sparse matvec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import hilbert
from .hilbert import HilbertSpace


# Drift allowed at a recorded point before the run raises IntegratorInstabilityError.
NORM_TOL = 1e-6  # | ||psi|| - 1 |
TRACE_TOL = 1e-4  # | tr(rho) - 1 |
# Most negative eigenvalue of rho recorded without a positivity warning.
POSITIVITY_TOL = 1e-5


class IntegratorInstabilityError(RuntimeError):
    """Norm or trace drift beyond tolerance; reduce dt."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.002
    record_every: int = 50

    def __post_init__(self):
        if self.dt <= 0 or self.record_every < 1:
            raise ValueError("dt must be positive and record_every >= 1")


@dataclass
class SimResult:
    """Recorded time series from one evolution."""

    times: np.ndarray
    populations: np.ndarray  # (n_times, n_tracked + 1); last column = leaked
    fidelity: np.ndarray
    final_state: np.ndarray  # vector (pure) or matrix (density)
    metadata: dict = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])


def target_state(space: HilbertSpace) -> np.ndarray:
    """Equal superposition of |g0,g0,vac>, |gL,gL,vac>, |gR,gR,vac>."""
    sub = hilbert.build_subspace()
    vec = np.zeros(sub.dim, dtype=complex)
    vec[[0, 6, 7]] = 1.0 / np.sqrt(3.0)
    return hilbert.embed(vec, sub, space)


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """|<target|psi>|^2 for vectors, <target|rho|target> for matrices."""
    target = np.asarray(target)
    state = np.asarray(state)
    if state.shape[-1] != target.shape[0]:
        raise ValueError(
            f"dimension mismatch: state {state.shape} vs target {target.shape}"
        )
    if state.ndim == 1:
        return float(np.abs(np.vdot(target, state)) ** 2)
    if state.ndim == 2:
        return float(np.real(target.conj() @ state @ target))
    raise ValueError("state must be a vector or a square matrix")


def _rk4(
    h_of_t: Callable[[float], np.ndarray],
    state: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig,
    target: np.ndarray | None,
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    record: Callable[[float, np.ndarray], np.ndarray],
    drift: Callable[[np.ndarray], float],
    drift_name: str,
    tol: float,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SimResult:
    """Classic fixed-step RK4 from 0 to t_f, shared by both equations of motion.

    H is evaluated at t, t + dt/2 and t + dt; rhs(h, state) is d/dt state.
    post_step maps each new state. At every recorded point drift(state) must
    stay within tol, record(t, state) gives the population row, and the
    fidelity against target (default: first basis state) is stored.
    """
    if target is None:
        target = np.zeros(state.shape[0], dtype=complex)
        target[0] = 1.0
    n_steps = int(round(t_f / cfg.dt))
    dt = t_f / n_steps  # land exactly on t_f
    rec_set = set(range(0, n_steps + 1, cfg.record_every)) | {n_steps}
    times, pops, fids = [], [], []

    def keep(step, state):
        times.append(step * dt)
        pops.append(record(step * dt, state))
        fids.append(fidelity(state, target))

    h_next = h_of_t(0.0)
    max_drift = 0.0
    keep(0, state)
    for step in range(n_steps):
        t = step * dt
        h0 = h_next
        h_half = h_of_t(t + dt / 2)
        h_next = h_of_t(t + dt)
        k1 = rhs(h0, state)
        k2 = rhs(h_half, state + 0.5 * dt * k1)
        k3 = rhs(h_half, state + 0.5 * dt * k2)
        k4 = rhs(h_next, state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if post_step is not None:
            state = post_step(state)
        if (step + 1) in rec_set:
            d = drift(state)
            max_drift = max(max_drift, d)
            if d > tol:
                raise IntegratorInstabilityError(
                    f"{drift_name} drift {d:.2e} > {tol:.0e} at t={t + dt:.4g}; "
                    "reduce dt"
                )
            keep(step + 1, state)

    return SimResult(
        times=np.array(times),
        populations=np.array(pops),
        fidelity=np.array(fids),
        final_state=state,
        metadata={f"max_{drift_name}_drift": max_drift, "dt": dt, "n_steps": n_steps},
    )


def _leaked_row(weights: np.ndarray, tracked: np.ndarray | None) -> np.ndarray:
    """Tracked populations plus the untracked remainder as the last column."""
    p = weights if tracked is None else weights[tracked]
    return np.concatenate([p, [max(0.0, weights.sum() - p.sum())]])


def evolve_schrodinger(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> SimResult:
    """Integrate i d/dt psi = H(t) psi with classic RK4.

    tracked: indices whose |amplitude|^2 is recorded (defaults to all);
    target: state against which the fidelity trace is computed.
    """
    psi = np.array(psi0, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    return _rk4(
        h_of_t, psi, t_f, cfg, target,
        rhs=lambda h, psi: -1j * (h @ psi),
        record=lambda t, psi: _leaked_row(np.abs(psi) ** 2, tracked),
        drift=lambda psi: abs(np.linalg.norm(psi) - 1.0),
        drift_name="norm", tol=NORM_TOL,
    )


def dissipator_superoperator(
    channels: list[tuple[np.ndarray, float]], dim: int
) -> sp.csr_matrix:
    """Sparse superoperator D with D vec(rho) = sum_c rate_c (L rho L+ - {L+L, rho}/2).

    Row-major vectorization: vec(A X B) = (A kron B^T) vec(X).
    """
    total = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    eye = sp.identity(dim, dtype=complex, format="csr")
    for op, rate in channels:
        if rate == 0.0:
            continue
        lop = sp.csr_matrix(op)
        ldl = (lop.conj().T @ lop).tocsr()
        total = total + rate * (
            sp.kron(lop, lop.conj(), format="csr")
            - 0.5 * sp.kron(ldl, eye, format="csr")
            - 0.5 * sp.kron(eye, ldl.T, format="csr")
        )
    return total.tocsr()


def evolve_lindblad(
    h_of_t: Callable[[float], np.ndarray],
    channels: list[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> SimResult:
    """Integrate the master equation with RK4, symmetrizing rho each step.

    Trace drift beyond TRACE_TOL raises; negative eigenvalues beyond
    POSITIVITY_TOL at recorded points are kept as warnings in the metadata,
    not fixed up.
    """
    rho = np.array(rho0, dtype=complex)
    dim = rho.shape[0]
    if hilbert.max_nonhermiticity(rho) > 1e-9 or abs(np.trace(rho).real - 1.0) > 1e-6:
        raise ValueError("rho0 must be Hermitian with unit trace")

    dissipator = dissipator_superoperator(channels, dim)
    has_dissipation = dissipator.nnz > 0

    def rhs(h, rho):
        out = -1j * (h @ rho - rho @ h)
        if has_dissipation:
            out += (dissipator @ rho.reshape(-1)).reshape(dim, dim)
        return out

    warnings: list[str] = []
    min_eigenvalue = 0.0

    def record(t, rho):
        nonlocal min_eigenvalue
        lam_min = float(np.linalg.eigvalsh(rho)[0])
        min_eigenvalue = min(min_eigenvalue, lam_min)
        if lam_min < -POSITIVITY_TOL:
            warnings.append(f"eigenvalue {lam_min:.2e} < -{POSITIVITY_TOL:.0e} at t={t:.4g}")
        return _leaked_row(np.real(np.diag(rho)), tracked)

    result = _rk4(
        h_of_t, rho, t_f, cfg, target, rhs=rhs, record=record,
        drift=lambda rho: abs(np.trace(rho).real - 1.0),
        drift_name="trace", tol=TRACE_TOL,
        post_step=lambda rho: 0.5 * (rho + rho.conj().T),
    )
    result.metadata.update(min_eigenvalue=min_eigenvalue, positivity_warnings=warnings)
    return result
