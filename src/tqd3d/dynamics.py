"""Fixed-step RK4 evolution for pure states and density matrices, plus observables.

Pure-state runs live on the 8-dim invariant subspace; open-system runs need
more, because spontaneous emission leaves it, and use the 16 states reachable
from |phi_1> once the collapse operators are added (model.open_space).  A
batch of cells that share a step schedule (the cells of a sweep) runs as one
(B, n) state through the same RK4 driver: cell b evolves under
sum_k c[t, b, k] G_k, fixed structure operators G_k with per-cell
coefficients, applied entry by entry, so a cell's numbers do not depend on
its batch.  The master equation is one such batch: its state is the
row-major vectorization of rho restricted to the entries its Liouvillian
reaches from rho0 (84 of 256 on the open-system space), and its structure
operators are the commutators -i[G_k, .] and the dissipators at unit rate.
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
    final_state: np.ndarray  # vector or matrix, with a leading cell axis for a batch
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
    1-D target is a density matrix, and one with two more a batch of them.
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
    if state.ndim == 3 and target.ndim == 1:  # one matrix at a time: a cell's F is its own
        return np.array([np.real(target.conj() @ rho @ target) for rho in state])
    raise ValueError("state must be a vector, a batch of vectors or square matrices")


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
    unpack: Callable[[np.ndarray], np.ndarray] = lambda state: state,
) -> SimResult:
    """Classic fixed-step RK4 from 0 to t_f, shared by both equations of motion.

    inputs(times) gives rhs's time-dependent input (H, or a batch's weights)
    at each of the given times, in order. It is called on t = 0 and then on
    the t + dt/2 and t + dt of BLOCK_STEPS steps at a time. rhs(h, state) is
    d/dt state; post_step maps each new state. At every recorded point
    record(t, unpack(state)) gives the population row, the fidelity of
    unpack(state) against target is stored, and drift(state) must stay within
    tol (NaN is beyond it). A single state raises IntegratorInstabilityError;
    drift gives one value per cell of a batch, and a drifting cell continues
    as NaN with the error in metadata["failures"]. A batch cell whose inputs
    turned NaN failed in the caller, which reports it. final_state is
    unpack(state) at t_f.
    """
    n_steps = int(round(t_f / cfg.dt))
    dt = t_f / n_steps  # land exactly on t_f
    rec_set = set(range(0, n_steps + 1, cfg.record_every)) | {n_steps}
    times, pops, fids = [], [], []
    failures: dict[int, IntegratorInstabilityError] = {}

    def keep(step, state):
        shown = unpack(state)
        times.append(step * dt)
        pops.append(record(step * dt, shown))
        fids.append(fidelity(shown, target))

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
                bad = ~(drifts <= tol)  # a NaN drift too: the state overflowed
                if np.ndim(d):  # skip cells that failed already or whose inputs failed
                    bad &= ~np.isnan(h_next).any(axis=-1)
                    bad[list(failures)] = False
                for cell in np.flatnonzero(bad):
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
        final_state=unpack(state),
        metadata={f"max_{drift_name}_drift": max_drift, "dt": dt, "n_steps": n_steps,
                  "rhs_evals": 4 * n_steps, "state_shape": state.shape,
                  "failures": failures},
    )


def _leaked_row(weights: np.ndarray, tracked: np.ndarray | None) -> np.ndarray:
    """Tracked populations plus the untracked remainder as the last column (per cell)."""
    p = weights if tracked is None else weights[..., tracked]
    leaked = np.maximum(0.0, weights.sum(axis=-1) - p.sum(axis=-1))
    return np.concatenate([p, leaked[..., None]], axis=-1)


def _batch_inputs_and_rhs(coefficients, operators):
    """inputs and rhs of a batch: d/dt x = sum_k c[t, b, k] operators[k] x per cell.

    coefficients(times) gives c as (times, cells, K); operators are K dense or
    sparse (n, n) matrices. Entry e of operator k adds c[k] * value_e *
    x[col_e] to row_e, entries ordered by row, operator and column, so each
    right-hand side is one gather, one product and one sum per row. Every
    cell's arithmetic is the same whatever else is in its batch.
    """
    parts = [sp.coo_matrix(op) for op in operators]
    rows = np.concatenate([p.row for p in parts])
    # A zero entry on each row that no operator touches, so every row has a sum.
    empty = np.setdiff1d(np.arange(parts[0].shape[0]), rows)
    rows = np.concatenate([rows, empty])
    ks = np.concatenate([np.full(p.nnz, k) for k, p in enumerate(parts)] + [0 * empty])
    cols = np.concatenate([p.col for p in parts] + [empty]).astype(np.intp)  # take's own type
    values = np.concatenate([p.data for p in parts] + [np.zeros(empty.size, complex)])
    order = np.lexsort((cols, ks, rows))
    rows, ks, cols, values = rows[order], ks[order], cols[order], values[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))

    def inputs(times):
        return (c[:, ks] * values for c in coefficients(times))  # (cells, entries) per time

    def rhs(weights, x):
        return np.add.reduceat(weights * x.take(cols, axis=1, mode="clip"), starts, axis=1)

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
        inputs, rhs = _batch_inputs_and_rhs(h_of_t, -1j * h_of_t.operators)
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


@dataclass(frozen=True)
class Liouvillian:
    """Structure superoperators of a master equation on the entries of rho they reach.

    entries are the row-major positions i*dim + j of the entries of rho that
    can be nonzero, ascending; operators[k] acts on rho's values there.
    """

    dim: int
    entries: np.ndarray
    operators: tuple[sp.csr_matrix, ...]

    @classmethod
    def reachable(cls, hamiltonians, dissipators, rho0: np.ndarray) -> "Liouvillian":
        """-i[H_k, .] for each operator H_k, then each dissipator, on rho0's closed support.

        dissipators are superoperators on the row-major vec(rho)
        (dissipator_superoperator). A nonzero <i|S|j> of any operator leads
        from entry j to entry i; the support is every entry reachable from
        the nonzero entries of rho0 (hilbert.closure), so it is closed under
        each operator whatever its coefficient. Built from sparse patterns only.
        """
        dim = rho0.shape[-1]
        eye = sp.identity(dim, dtype=complex, format="csr")
        full = [-1j * (sp.kron(h, eye) - sp.kron(eye, np.transpose(h))) for h in hamiltonians]
        full = [sp.csr_matrix(op) for op in full + list(dissipators)]
        for op in full:
            op.eliminate_zeros()  # a stored zero links no entries
        links = sum(abs(op) for op in full).T  # links[j, i]: entry j feeds entry i
        start = np.flatnonzero(np.reshape(rho0, (-1, dim * dim)).any(axis=0))
        entries = hilbert.closure(links, start)
        return cls(dim, entries, tuple(op[entries][:, entries] for op in full))


def evolve_lindblad(
    liouvillian: Liouvillian,
    coefficients: Callable[[np.ndarray], np.ndarray],
    rho0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> SimResult:
    """Integrate d/dt rho = sum_k c[t, b, k] operators[k] rho with RK4, one run or a batch.

    rho0 (d, d) is one run and rho0 (B, d, d) a batch of B cells; either runs
    as a (B, n) state on the n liouvillian.entries, to which rho0 must be
    confined (Liouvillian.reachable). coefficients(times) gives c as
    (times, cells, K). Each step symmetrizes rho to (rho + rho+)/2. Trace
    drift beyond TRACE_TOL raises for one run; a batch cell that drifts
    continues as NaN with its error in metadata["failures"]. Negative
    eigenvalues beyond POSITIVITY_TOL at recorded points are kept as warnings
    in the metadata, not fixed up. final_state, populations and fidelity
    carry a cell axis for a batch only.
    """
    dim, entries = liouvillian.dim, liouvillian.entries
    rho = np.array(rho0, dtype=complex)
    single = rho.ndim == 2
    cells = rho.reshape(-1, dim, dim)
    flat = cells.reshape(len(cells), dim * dim)
    position = np.full(dim * dim, -1)
    position[entries] = np.arange(entries.size)
    rows, cols = np.divmod(entries, dim)
    transpose = position[cols * dim + rows]
    if (any(hilbert.max_nonhermiticity(c) > 1e-9 for c in cells)
            or np.any(np.abs(np.trace(cells, axis1=1, axis2=2).real - 1.0) > 1e-6)):
        raise ValueError("rho0 must be Hermitian with unit trace")
    if np.any(transpose < 0):
        raise ValueError("the Liouvillian's support is not closed under transposition")
    if np.any(np.delete(flat, entries, axis=1)):
        raise ValueError("rho0 must lie on the Liouvillian's support")
    diagonal = np.flatnonzero(rows == cols)

    def unpack(state):
        out = np.zeros((len(state), dim * dim), dtype=complex)
        out[:, entries] = state
        out = out.reshape(-1, dim, dim)
        return out[0] if single else out

    warnings: list[str] = []
    min_eigenvalue = 0.0

    def record(t, rho):
        nonlocal min_eigenvalue
        stack = rho.reshape(-1, dim, dim)
        finite = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2)))
        lam_min = np.linalg.eigvalsh(stack[finite])[:, 0]
        min_eigenvalue = min(min_eigenvalue, float(np.min(lam_min, initial=0.0)))
        for b, lam in zip(finite, lam_min):
            if lam < -POSITIVITY_TOL:
                warnings.append(("" if single else f"cell {b}: ")
                                + f"eigenvalue {lam:.2e} < -{POSITIVITY_TOL:.0e} at t={t:.4g}")
        # Reductions go cell by cell, so that no cell's numbers depend on its batch.
        pops = np.array([_leaked_row(np.real(np.diag(cell)), tracked) for cell in stack])
        return pops[0] if single else pops

    def drift(state):
        drifts = np.array([abs(cell[diagonal].real.sum() - 1.0) for cell in state])
        return drifts[0] if single else drifts

    if target is None:
        target = np.eye(dim, dtype=complex)[0]
    inputs, rhs = _batch_inputs_and_rhs(coefficients, liouvillian.operators)
    result = _rk4(
        inputs, flat[:, entries], t_f, cfg, target, rhs=rhs, record=record,
        drift=drift, drift_name="trace", tol=TRACE_TOL,
        post_step=lambda state: 0.5 * (state + state.take(transpose, axis=1, mode="clip").conj()),
        unpack=unpack,
    )
    result.metadata.update(min_eigenvalue=min_eigenvalue, positivity_warnings=warnings,
                           support=int(entries.size), cells=len(cells))
    return result
