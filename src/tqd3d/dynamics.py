"""Fixed-step RK4 evolution for pure states and density matrices, plus observables.

Pure-state runs live on the 8-dim invariant subspace; open-system runs need
more, because spontaneous emission leaves it, and use the 16 states reachable
from |phi_1> once the collapse operators are added (model.open_space).  The
dissipator is precomputed once as a sparse superoperator acting on the
row-major vectorization of rho, so each right-hand side costs two dense
matrix products plus one sparse matvec.  A batch of pure states that share a
step schedule (the cells of a sweep) runs as one (B, d) state through the
same RK4 driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from . import hilbert
from .hilbert import HilbertSpace


# Drift allowed at a recorded point before the run raises IntegratorInstabilityError.
NORM_TOL = 1e-6  # | ||psi|| - 1 |
TRACE_TOL = 1e-4  # | tr(rho) - 1 |
# Most negative eigenvalue of rho recorded without a positivity warning.
POSITIVITY_TOL = 1e-5
# RK4 steps whose time-dependent inputs are evaluated in one call.
BLOCK_STEPS = 100


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
    """Recorded time series from one evolution (a batch adds a cell axis after time)."""

    times: np.ndarray
    populations: np.ndarray  # (n_times, n_tracked + 1); last column = leaked
    fidelity: np.ndarray
    final_state: np.ndarray  # vector (pure), matrix (density) or (cells, d) batch
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


def fidelity(state: np.ndarray, target: np.ndarray):
    """|<target|psi>|^2 for a state vector, <target|rho|target> for a density matrix.

    A state shaped like target is a vector, or a batch of vectors with one
    target row each (one fidelity per row); a state with one more axis than a
    1-D target is a density matrix.
    """
    target = np.asarray(target)
    state = np.asarray(state)
    if state.shape[-1] != target.shape[-1]:
        raise ValueError(
            f"dimension mismatch: state {state.shape} vs target {target.shape}"
        )
    if state.shape == target.shape:
        if state.ndim == 1:
            return float(np.abs(np.vdot(target, state)) ** 2)
        return np.abs(np.einsum("...i,...i->...", target.conj(), state)) ** 2
    if state.ndim == 2 and target.ndim == 1:
        return float(np.real(target.conj() @ state @ target))
    raise ValueError("state must be a vector, a batch of vectors or a square matrix")


def _rk4(
    inputs: Callable[[np.ndarray], Iterable],
    state: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig,
    target: np.ndarray,
    rhs: Callable[[object, np.ndarray], np.ndarray],
    record: Callable[[float, np.ndarray], np.ndarray],
    drift: Callable[[np.ndarray], float | np.ndarray],
    drift_name: str,
    tol: float,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SimResult:
    """Classic fixed-step RK4 from 0 to t_f, shared by both equations of motion.

    inputs(times) gives rhs's time-dependent input (H, or a batch's weights)
    at each of the given times, in order. It is called on t = 0 and then on
    the t + dt/2 and t + dt of BLOCK_STEPS steps at a time. rhs(h, state) is
    d/dt state; post_step maps each new state. At every recorded point
    record(t, state) gives the population row, the fidelity against target is
    stored, and drift(state) must stay within tol. A single state raises
    IntegratorInstabilityError; drift gives one value per cell of a batch, and
    a drifting cell continues as NaN with the error in metadata["failures"].
    """
    n_steps = int(round(t_f / cfg.dt))
    dt = t_f / n_steps  # land exactly on t_f
    rec_set = set(range(0, n_steps + 1, cfg.record_every)) | {n_steps}
    times, pops, fids = [], [], []
    failures: dict[int, IntegratorInstabilityError] = {}

    def keep(step, state):
        times.append(step * dt)
        pops.append(record(step * dt, state))
        fids.append(fidelity(state, target))

    (h_next,) = inputs(np.zeros(1))
    max_drift = 0.0
    keep(0, state)
    for first in range(0, n_steps, BLOCK_STEPS):
        steps = range(first, min(first + BLOCK_STEPS, n_steps))
        t = np.arange(steps.start, steps.stop) * dt
        block = iter(inputs(np.column_stack([t + dt / 2, t + dt]).ravel()))
        for step in steps:
            t = step * dt
            h0, h_half, h_next = h_next, next(block), next(block)
            k1 = rhs(h0, state)
            k2 = rhs(h_half, state + 0.5 * dt * k1)
            k3 = rhs(h_half, state + 0.5 * dt * k2)
            k4 = rhs(h_next, state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if post_step is not None:
                state = post_step(state)
            if (step + 1) in rec_set:
                d = drift(state)
                drifts = np.atleast_1d(d)
                for cell in np.flatnonzero(drifts > tol):
                    error = IntegratorInstabilityError(
                        f"{drift_name} drift {drifts[cell]:.2e} > {tol:.0e} "
                        f"at t={t + dt:.4g}; reduce dt"
                    )
                    if np.ndim(d) == 0:
                        raise error
                    failures[int(cell)] = error
                    state[cell] = np.nan
                max_drift = max(max_drift, float(np.max(drifts, initial=0.0,
                                                        where=drifts <= tol)))
                keep(step + 1, state)

    return SimResult(
        times=np.array(times),
        populations=np.array(pops),
        fidelity=np.array(fids),
        final_state=state,
        metadata={f"max_{drift_name}_drift": max_drift, "dt": dt, "n_steps": n_steps,
                  "failures": failures},
    )


def _leaked_row(weights: np.ndarray, tracked: np.ndarray | None) -> np.ndarray:
    """Tracked populations plus the untracked remainder as the last column (per cell)."""
    p = weights if tracked is None else weights[..., tracked]
    leaked = np.maximum(0.0, weights.sum(axis=-1) - p.sum(axis=-1))
    return np.concatenate([p, leaked[..., None]], axis=-1)


def _batch_inputs_and_rhs(drives):
    """inputs and rhs of a batch: -i H psi per cell from the operators' nonzero entries.

    Entry e of operator k adds coefficient[k] * value_e * psi[col_e] to row_e,
    so each right-hand side is one gather, one product and one sum per row.
    Every cell's arithmetic is the same whatever else is in its batch.
    """
    mask = (drives.operators != 0).transpose(1, 0, 2)  # (row, operator, column)
    empty = np.flatnonzero(~mask.any(axis=(1, 2)))
    mask[empty, 0, empty] = True  # a zero entry, so every row has a sum
    rows, ks, cols = np.nonzero(mask)
    values = -1j * drives.operators[ks, rows, cols]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))

    def inputs(times):
        return (c[:, ks] * values for c in drives(times))  # (cells, entries) per time

    def rhs(weights, psi):
        return np.add.reduceat(weights * psi[:, cols], starts, axis=1)

    return inputs, rhs


def evolve_schrodinger(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> SimResult:
    """Integrate i d/dt psi = H(t) psi with classic RK4, for one state or a batch.

    One state psi0 (d,) evolves under h_of_t: t -> H(t). A batch psi0 (B, d)
    runs its cells side by side: h_of_t then has the structure operators
    `operators` (K, d, d) and maps an array of times to coefficients
    (times, B, K), and cell b evolves under sum_k c[t, b, k] operators[k]
    (model.CellDrives). The operators act on the batch entry by entry, with
    no H(t) stored. A batch cell whose norm drifts beyond NORM_TOL continues
    as NaN, its IntegratorInstabilityError in metadata["failures"].

    tracked: indices whose |amplitude|^2 is recorded (defaults to all);
    target: state against which the fidelity trace is computed (default: the
    first basis state).
    """
    psi = np.array(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-9):
        raise ValueError("psi0 must be normalized")
    if target is None:
        target = np.eye(psi.shape[-1], dtype=complex)[0]
    if psi.ndim == 1:
        inputs, rhs = (lambda times: map(h_of_t, times)), (lambda h, psi: -1j * (h @ psi))
    else:
        inputs, rhs = _batch_inputs_and_rhs(h_of_t)
    return _rk4(
        inputs, psi, t_f, cfg, np.broadcast_to(target, psi.shape), rhs=rhs,
        record=lambda t, psi: _leaked_row(np.abs(psi) ** 2, tracked),
        drift=lambda psi: np.abs(np.linalg.norm(psi, axis=-1) - 1.0),
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

    if target is None:
        target = np.eye(dim, dtype=complex)[0]
    result = _rk4(
        lambda times: map(h_of_t, times), rho, t_f, cfg, target, rhs=rhs, record=record,
        drift=lambda rho: abs(np.trace(rho).real - 1.0),
        drift_name="trace", tol=TRACE_TOL,
        post_step=lambda rho: 0.5 * (rho + rho.conj().T),
    )
    result.metadata.update(min_eigenvalue=min_eigenvalue, positivity_warnings=warnings)
    return result
