"""Fixed-step RK4 evolution for pure states and density matrices, plus observables.

Pure-state runs live on the 8-dim invariant subspace; open-system runs need
more, because spontaneous emission leaves it, and use the 16 states reachable
from |phi_1> once the collapse operators are added (model.open_space).  A
batch of cells that share a step schedule (the cells of a sweep) runs as one
(B, n) state through the same RK4 driver: cell b evolves under
sum_k c[t, b, k] G_k, fixed structure operators G_k with per-cell
coefficients, applied entry by entry, so a cell's numbers do not depend on
its batch.  The master equation is one such batch with real coefficients:
its state is the real coordinates of rho on the entries its Liouvillian
reaches from rho0 (Re rho_ii, and Re and Im rho_ij for i < j: 84 numbers
for 84 of 256 entries on the open-system space), and its structure
operators are the commutators -i[G_k, .] with Hermitian G_k and the
dissipators at unit rate, as real matrices.  rho is Hermitian by
construction.

A step costs few numpy calls: the per-entry weights c[t, b, k] * value come
already multiplied by dt/2, built for as many times at once as fit in
WEIGHT_CHUNK_BYTES, so each right-hand side adds a stage increment
(dt/2) k_i to the array it is given, and the last stage adds its own to the
sum of the others.  A batch's right-hand side is one call to scipy's
compiled CSR matrix-vector product: the weights of one time are the data
of a block-diagonal (B n, B n) CSR matrix, one block per cell, whose index
arrays are built once per batch.  The routine is called directly because
at B = 1 the dispatch of a csr_array's `@` costs more than the product.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from . import hilbert
from .hilbert import HilbertSpace


# Drift allowed at a recorded point before the run raises IntegratorInstabilityError.
NORM_TOL = 1e-6  # | ||psi|| - 1 |
TRACE_TOL = 1e-4  # | tr(rho) - 1 |
# Most negative eigenvalue of rho recorded without a positivity warning.
POSITIVITY_TOL = 1e-5
# RK4 steps whose time-dependent inputs are evaluated in one call.
BLOCK_STEPS = 100
# Size of the per-entry weights a batch builds at once: a chunk of a block's
# times small enough to stay in cache. Whole runs against whole blocks: a
# 32-cell open batch took 1.5x the time and 80 MB more RSS; against one time
# per chunk: one open cell and a 39-cell closed batch took 1.15x the time.
WEIGHT_CHUNK_BYTES = 128 * 1024


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
    inputs: Callable[[np.ndarray, float], Iterable],
    state: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig,
    target: np.ndarray,
    rhs: Callable[[object, np.ndarray, np.ndarray], None],
    record: Callable[[float, np.ndarray], np.ndarray],
    drift: Callable[[np.ndarray], float | np.ndarray],
    drift_name: str,
    tol: float,
    unpack: Callable[[np.ndarray], np.ndarray] = lambda state: state,
) -> SimResult:
    """Classic fixed-step RK4 from 0 to t_f, shared by both equations of motion.

    inputs(times, scale) gives rhs's time-dependent input (H, or a batch's
    weights) at each of the given times, in order, multiplied by scale =
    dt/2, so that rhs(w, x, out) adds the stage increment (dt/2) d/dt x to
    out. It is called on t = 0 and then on the t + dt/2 and t + dt of
    BLOCK_STEPS steps at a time. With a_i = (dt/2) k_i a step is
    state + (a1 + 2 a2 + 2 a3 + a4) / 3. The sum is collected in its own
    array, away from the state's magnitude, and the last stage's product
    is added to it directly; the equation being linear, the third stage
    takes 2 (state + a2) and gives 2 a3. Summing the stages into copies of
    the state instead would round each a_i at the state's magnitude, which
    moved closed 25 000-step runs by 1e-12. At every recorded point
    record(t, unpack(state)) gives the population row, the fidelity of
    unpack(state) against target is stored, and drift(state) must stay
    within tol (NaN is beyond it). A single state raises
    IntegratorInstabilityError; drift gives one value per cell of a batch,
    and a drifting cell continues as NaN with the error in
    metadata["failures"]. A batch cell whose inputs turned NaN failed in the
    caller, which reports it. final_state is unpack(state) at t_f.
    metadata["integrate_s"] and ["record_s"] split the wall time between
    the steps and the recorded points; the clock is read at recorded points
    only.
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

    (w_next,) = inputs(np.zeros(1), dt / 2)
    max_drift = integrate_s = 0.0
    clock = time.perf_counter()
    keep(0, state)
    record_s = time.perf_counter() - clock
    clock += record_s
    for first in range(0, n_steps, BLOCK_STEPS):
        steps = range(first, min(first + BLOCK_STEPS, n_steps))
        t = np.arange(steps.start, steps.stop) * dt
        block = iter(inputs(np.column_stack([t + dt / 2, t + dt]).ravel(), dt / 2))
        for step in steps:
            t = step * dt
            w0, w_half, w_next = w_next, next(block), next(block)
            total = np.zeros(state.shape, state.dtype)
            rhs(w0, state, total)  # a1
            a = np.zeros(state.shape, state.dtype)
            rhs(w_half, state + total, a)  # a2
            total += a
            total += a
            y = state + a
            y += y
            a = np.zeros(state.shape, state.dtype)
            rhs(w_half, y, a)  # 2 a3
            total += a
            rhs(w_next, state + a, total)  # a1 + 2 a2 + 2 a3 + a4
            total /= 3
            total += state
            state = total
            if (step + 1) in rec_set:
                now = time.perf_counter()
                integrate_s += now - clock
                d = drift(state)
                drifts = np.atleast_1d(d)
                bad = ~(drifts <= tol)  # a NaN drift too: the state overflowed
                if np.ndim(d):  # skip cells that failed already or whose inputs failed
                    bad &= ~np.isnan(w_next).any(axis=-1)
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
                clock = time.perf_counter()
                record_s += clock - now

    return SimResult(
        times=np.array(times),
        populations=np.array(pops),
        fidelity=np.array(fids),
        final_state=unpack(state),
        metadata={f"max_{drift_name}_drift": max_drift, "dt": dt, "n_steps": n_steps,
                  "rhs_evals": 4 * n_steps, "state_shape": state.shape,
                  "failures": failures, "integrate_s": integrate_s, "record_s": record_s},
    )


def _leaked_row(weights: np.ndarray, tracked: np.ndarray | None) -> np.ndarray:
    """Tracked populations plus the untracked remainder as the last column (per cell)."""
    p = weights if tracked is None else weights[..., tracked]
    leaked = np.maximum(0.0, weights.sum(axis=-1) - p.sum(axis=-1))
    return np.concatenate([p, leaked[..., None]], axis=-1)


def _batch_inputs_and_rhs(coefficients, operators, cells: int):
    """inputs and rhs of a batch: d/dt x = sum_k c[t, b, k] operators[k] x per cell.

    coefficients(times) gives c as (times, cells, K); operators are K dense or
    sparse (n, n) matrices. Entry e of operator k adds c[k] * value_e *
    x[col_e] to row_e, entries ordered by row, operator and column.
    inputs(times, scale) evaluates c once and yields the weights
    c[k_e] * (value_e * scale) of each time as a (cells, E) array, built for
    as many times at once as fit in WEIGHT_CHUNK_BYTES.

    Those weights, cell after cell, are the data of one block-diagonal
    (cells * n, cells * n) CSR matrix whose indptr and indices are built here
    once, so rhs(weights, x, out) is one CSR matrix-vector product, added to
    out; a row with no entries adds nothing. Weights and x are complex, or
    both real for real coefficients and operators. scipy's compiled
    csr_matvec is called directly: at one cell, a csr_array's `@` spends
    longer on dispatch than the product takes. The product adds each row's
    terms to out on its own, in entry order, so every cell's arithmetic is
    the same whatever else is in its batch.
    """
    parts = [sp.coo_matrix(op) for op in operators]
    n = parts[0].shape[0]
    rows = np.concatenate([p.row for p in parts])
    ks = np.concatenate([np.full(p.nnz, k) for k, p in enumerate(parts)])
    cols = np.concatenate([p.col for p in parts])
    values = np.concatenate([p.data for p in parts])
    order = np.lexsort((cols, ks, rows))
    rows, ks, cols, values = rows[order], ks[order], cols[order], values[order]
    size = cells * n
    offsets = np.arange(cells)[:, None]
    indptr = np.append(np.searchsorted(rows, np.arange(n)) + values.size * offsets,
                       values.size * cells).astype(np.int32)
    indices = (cols + n * offsets).ravel().astype(np.int32)
    if indptr[-1] != values.size * cells or not np.all((indices >= 0) & (indices < size)):
        raise ValueError(f"a batch of {cells} cells overflows 32-bit CSR indices")

    def inputs(times, scale):
        c = coefficients(times)  # (times, cells, K)
        scaled = values * scale
        chunk = max(1, WEIGHT_CHUNK_BYTES // (max(c.shape[1], 1) * scaled.nbytes))

        def chunks():
            for first in range(0, len(c), chunk):
                weights = c[first:first + chunk].take(ks, axis=2)
                weights *= scaled
                yield weights

        return itertools.chain.from_iterable(chunks())  # (cells, entries) per time

    # rhs(weights, x, out) adds the product to out, as csr_matvec does.
    return inputs, functools.partial(csr_matvec, size, size, indptr, indices)


def evolve_schrodinger(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> SimResult:
    """Integrate i d/dt psi = H(t) psi with classic RK4, for one state or a batch.

    A plain h_of_t maps t to H(t), and psi0 (d,) evolves under it. An h_of_t
    with structure operators `operators` (K, d, d) maps an array of times to
    coefficients (times, B, K), and cell b evolves under
    sum_k c[t, b, k] operators[k] (model.CellDrives), applied entry by entry
    with no H(t) stored. psi0 (B, d) is then a batch of B cells: a cell whose
    norm drifts beyond NORM_TOL continues as NaN, its
    IntegratorInstabilityError in metadata["failures"]. psi0 (d,) runs as a
    batch of one and gives results without the cell axis; its drift raises.

    tracked: indices whose |amplitude|^2 is recorded (defaults to all);
    target: state against which the fidelity trace is computed (default: the
    first basis state).
    """
    psi = np.array(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-9):
        raise ValueError("psi0 must be normalized")
    if target is None:
        target = np.eye(psi.shape[-1], dtype=complex)[0]
    if not hasattr(h_of_t, "operators"):
        state = psi

        def inputs(times, scale):
            return ((-1j * scale) * h_of_t(t) for t in times)

        def rhs(h, psi, out):
            out += h @ psi

    else:
        state = psi.reshape(-1, psi.shape[-1])
        inputs, rhs = _batch_inputs_and_rhs(h_of_t, -1j * h_of_t.operators, len(state))

    def unpack(state):
        return state.reshape(psi.shape)

    return _rk4(
        inputs, state, t_f, cfg, np.broadcast_to(target, psi.shape), rhs=rhs,
        record=lambda t, psi: _leaked_row(np.abs(psi) ** 2, tracked),
        drift=lambda state: np.abs(np.linalg.norm(unpack(state), axis=-1) - 1.0),
        drift_name="norm", tol=NORM_TOL, unpack=unpack,
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
    """Structure superoperators of a master equation on real coordinates of rho.

    entries are the row-major positions i*dim + j of the entries of rho that
    can be nonzero, ascending. rho is Hermitian, so its values there are
    fixed by real coordinates x: Re rho_ii for each diagonal entry, and
    Re rho_ij then Im rho_ij for each entry i < j, in the order of entries.
    rho's value at entries[e] is x[real_of[e]] + i imag_sign[e] x[imag_of[e]]
    (imag_sign is 1 above the diagonal, -1 below it and 0 on it).
    operators[k] is the real matrix of the k-th superoperator on x.
    """

    dim: int
    entries: np.ndarray
    operators: tuple[sp.csr_matrix, ...]
    real_of: np.ndarray
    imag_of: np.ndarray
    imag_sign: np.ndarray

    @classmethod
    def reachable(cls, hamiltonians, dissipators, rho0: np.ndarray) -> "Liouvillian":
        """-i[H_k, .] for each Hermitian H_k, then each dissipator, on rho0's closed support.

        dissipators are superoperators on the row-major vec(rho)
        (dissipator_superoperator). A nonzero <i|S|j> of any operator leads
        from entry j to entry i; the support is every entry reachable from
        the nonzero entries of rho0 (hilbert.closure), so it is closed under
        each operator whatever its coefficient. Built from sparse patterns
        only. ValueError if the support is not closed under transposition or
        an operator does not map Hermitian rho to Hermitian rho.
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

        rows, cols = np.divmod(entries, dim)
        position = np.full(dim * dim, -1)
        position[entries] = np.arange(entries.size)
        mirror = position[cols * dim + rows]  # entry j, i of entry i, j
        if np.any(mirror < 0):
            raise ValueError("the Liouvillian's support is not closed under transposition")
        sign = np.sign(cols - rows)
        width = sign + 1  # own coordinates: none below the diagonal, 1 on it, 2 above it
        first = np.cumsum(width) - width
        real_of = np.where(sign >= 0, first, first[mirror])
        imag_of = real_of + (sign != 0)

        # basis @ x are rho's values on entries. dual, basis+ over its column
        # norms, maps them back: x = Re(dual @ values), and Im(dual @ values)
        # is zero exactly when the values are those of a Hermitian rho.
        shape, at = (entries.size, entries.size), np.arange(entries.size)
        basis = sp.csr_matrix((np.ones(entries.size), (at, real_of)), shape)
        basis += sp.csr_matrix((1j * sign, (at, imag_of)), shape)
        dual = (basis.conj().T / abs(basis).power(2).sum(axis=0).T).tocsr()
        operators = []
        for op in full:
            real = dual @ op[entries][:, entries] @ basis
            if np.max(abs(real.data.imag), initial=0.0) > 1e-12 * np.max(abs(real.data),
                                                                         initial=1.0):
                raise ValueError("a structure operator does not preserve Hermiticity")
            real = sp.csr_matrix(real.real)
            real.eliminate_zeros()
            operators.append(real)
        return cls(dim, entries, tuple(operators), real_of, imag_of, sign)

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """The real coordinates (..., n) of Hermitian rho (..., dim, dim)."""
        values = np.reshape(rho, np.shape(rho)[:-2] + (self.dim * self.dim,))[..., self.entries]
        x = np.empty(values.shape)
        x[..., self.real_of] = values.real
        x[..., self.imag_of[self.imag_sign > 0]] = values[..., self.imag_sign > 0].imag
        return x

    def density(self, x: np.ndarray) -> np.ndarray:
        """rho (..., dim, dim) from its real coordinates x (..., n)."""
        rho = np.zeros(x.shape[:-1] + (self.dim * self.dim,), dtype=complex)
        rho[..., self.entries] = x[..., self.real_of] + 1j * (self.imag_sign
                                                              * x[..., self.imag_of])
        return rho.reshape(x.shape[:-1] + (self.dim, self.dim))


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
    as a (B, n) real state, the coordinates of rho on liouvillian.entries, to
    which rho0 must be confined (Liouvillian.reachable). coefficients(times)
    gives c as (times, cells, K), real (ValueError for a nonzero imaginary
    part); rho stays Hermitian by construction. Trace drift beyond TRACE_TOL
    raises for one run; a batch cell that drifts continues as NaN with its
    error in metadata["failures"]. Negative eigenvalues beyond
    POSITIVITY_TOL at recorded points are kept as warnings in the metadata,
    not fixed up. final_state, populations and fidelity carry a cell axis
    for a batch only.
    """
    dim, entries = liouvillian.dim, liouvillian.entries
    rho = np.array(rho0, dtype=complex)
    single = rho.ndim == 2
    cells = rho.reshape(-1, dim, dim)
    if (any(hilbert.max_nonhermiticity(c) > 1e-9 for c in cells)
            or np.any(np.abs(np.trace(cells, axis1=1, axis2=2).real - 1.0) > 1e-6)):
        raise ValueError("rho0 must be Hermitian with unit trace")
    if np.any(np.delete(cells.reshape(len(cells), dim * dim), entries, axis=1)):
        raise ValueError("rho0 must lie on the Liouvillian's support")
    diagonal = liouvillian.real_of[entries // dim == entries % dim]

    def unpack(state):
        out = liouvillian.density(state)
        return out[0] if single else out

    def real_coefficients(times):
        c = coefficients(times)
        if np.iscomplexobj(c) and np.any(np.abs(c.imag) > 0):
            raise ValueError("master-equation coefficients must be real")
        return c.real

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
        drifts = np.array([abs(cell[diagonal].sum() - 1.0) for cell in state])
        return drifts[0] if single else drifts

    if target is None:
        target = np.eye(dim, dtype=complex)[0]
    inputs, rhs = _batch_inputs_and_rhs(real_coefficients, liouvillian.operators, len(cells))
    result = _rk4(
        inputs, liouvillian.coordinates(cells), t_f, cfg, target, rhs=rhs, record=record,
        drift=drift, drift_name="trace", tol=TRACE_TOL, unpack=unpack,
    )
    result.metadata.update(min_eigenvalue=min_eigenvalue, positivity_warnings=warnings,
                           support=int(entries.size), cells=len(cells))
    return result
