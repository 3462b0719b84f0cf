"""Fixed-step RK4 evolution for pure states and density matrices, plus observables.

Pure-state runs live on the 8-dim invariant subspace; open-system runs need
more, because spontaneous emission leaves it, and use the 16 states reachable
from |phi_1> once the collapse operators are added (model.open_space).  The
RK4 driver integrates one thing: a (B, n) state whose cell b evolves under
sum_k c[t, b, k] G_k, fixed structure operators G_k with per-cell
coefficients, applied entry by entry, so a cell's numbers do not depend on
its batch.  The cells of a sweep share a step schedule and run as one batch;
a single run is a batch of one, and a plain t -> H(t) is one cell whose
coefficients are the entries of H(t) on the d*d matrix units.  The master
equation is such a batch with real coefficients: its state is the real
coordinates of rho on the entries its Liouvillian reaches from rho0
(Re rho_ii, and Re and Im rho_ij for i < j: 84 numbers for 84 of 256
entries on the open-system space), and its structure operators are the
commutators -i[G_k, .] with Hermitian G_k and the dissipators at unit rate,
as real matrices.  rho is Hermitian by construction.

The per-entry weights c[t, b, k] * value come already multiplied by dt/2,
built for a chunk of steps at a time, so each right-hand side adds a stage
increment (dt/2) k_i to the array it is given, and the last stage adds its
own to the sum of the others.  The weights of one time are the data of a
block-diagonal (B n, B n) CSR matrix, one block per cell, whose index
arrays are built once per batch, and scipy's compiled CSR matrix-vector
product (called directly: at B = 1 the dispatch of a csr_array's `@` costs
more than the product) applies it.  A step is either of two executors with
the same arithmetic and the same bits.  The step loop makes a dozen numpy
calls and four products per step; at one open cell each call costs about
as much as its arithmetic.  The step program writes a whole chunk of steps
as one CSR matrix whose rows are the stages, each row reading only rows
before it, and runs it as one product written into its own input vector:
one compiled call per chunk.  Small batches (up to PROGRAM_STEP_BYTES of
program per step: one to three open cells, up to about 30 closed cells)
take the program, larger ones the loop, on which the program's constant
rows cost more than the numpy calls they replace.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

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
# Size of the per-entry weights the step loop builds at once: a chunk of a
# block's steps small enough to stay in cache. Whole runs against whole
# blocks: a 32-cell open batch took 1.5x the time and 80 MB more RSS; against
# one time per chunk: one open cell and a 39-cell closed batch took 1.15x.
WEIGHT_CHUNK_BYTES = 128 * 1024
# A batch whose step program (_step_program: data, indices and work vector)
# takes at most PROGRAM_STEP_BYTES per step runs as step programs of about
# PROGRAM_BYTES per call, a larger one through the step loop. Per step, with
# weights prebuilt: one open cell 12-19 -> 4-5 us, three 16-23 -> 12-17 us,
# four 23-32 -> 31-34 us; one closed cell 12 -> 0.6 us, 24 cells 27-29 ->
# 11-12 us, 32 about even, 39 cells 34 -> 39 us. 1 MB per call beat 256 KB,
# 512 KB and 2 MB from one to 24 cells.
PROGRAM_STEP_BYTES = 128 * 1024
PROGRAM_BYTES = 1024 * 1024
THIRD = 1.0 / 3.0


class IntegratorInstabilityError(RuntimeError):
    """Norm or trace drift beyond tolerance; reduce dt."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.002
    record_every: int = 50

    def __post_init__(self):
        if not 0 < self.dt < math.inf or self.record_every < 1:
            raise ValueError("dt must be positive and finite and record_every >= 1")


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
    """|<target|psi>|^2 for state vectors, <target|rho|target> for density matrices.

    A state shaped like target holds vectors, one target vector each; a state
    (..., d, d) with a 1-D target holds density matrices. Leading axes are
    batch axes, with one fidelity per vector or matrix.
    """
    target = np.asarray(target)
    state = np.asarray(state)
    if state.shape[-1] != target.shape[-1]:
        raise ValueError(
            f"dimension mismatch: state {state.shape} vs target {target.shape}"
        )
    if state.shape == target.shape:
        return np.abs(np.einsum("...i,...i->...", target.conj(), state)) ** 2
    if target.ndim == 1 and state.ndim >= 2 and state.shape[-2] == state.shape[-1]:
        return np.einsum("i,...ij,j->...", target.conj(), state, target).real
    raise ValueError("state must be vectors shaped like target or square matrices")


def _rk4(
    coefficients: Callable[[np.ndarray], np.ndarray],
    operators,
    state: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig,
    target: np.ndarray,
    record: Callable[[float, np.ndarray], np.ndarray],
    drift: Callable[[np.ndarray], np.ndarray],
    drift_name: str,
    tol: float,
    unpack: Callable[[np.ndarray], np.ndarray] = lambda state: state,
) -> SimResult:
    """Classic fixed-step RK4 from 0 to t_f of d/dt x_b = sum_k c[t, b, k] operators[k] x_b.

    state is (cells, n), one row x_b per cell, and coefficients(times) gives c
    as (times, cells, K). The weights (_batch_csr, scaled by dt/2, so that a
    right-hand side adds the stage increment (dt/2) d/dt x to the array it
    is given) are built for t = 0 and then, from one coefficients call per
    BLOCK_STEPS steps, for the t + dt/2 and t + dt of a chunk of steps at a
    time; a chunk ends at a recorded point or at the end of a block. With
    a_i = (dt/2) k_i a step is state + (a1 + 2 a2 + 2 a3 + a4) * THIRD. The
    sum is collected apart from the state, away from its magnitude, and the
    last stage's product is added to it directly; the equation being linear,
    the third stage takes 2 (state + a2) and gives 2 a3. Summing the stages
    into copies of the state instead would round each a_i at the state's
    magnitude, which moved closed 25 000-step runs by 1e-12. A batch whose
    step program is at most PROGRAM_STEP_BYTES runs its chunks as step
    programs (_step_program), a larger one through the step loop
    (_step_loop); both do the same arithmetic, with the same results.

    At every recorded point record(t, unpack(state)) gives the population
    rows and the fidelity of unpack(state) against target is stored, each
    with a cell axis after time; drift(state) gives one value per cell, which
    must stay within tol (NaN is beyond it). A drifting cell continues as NaN
    and its IntegratorInstabilityError goes into metadata["failures"]; a cell
    whose coefficients turned NaN failed in the caller, which reports it.
    final_state is unpack(state) at t_f. metadata["integrate_s"] and
    ["record_s"] split the wall time between the steps and the recorded
    points; the clock is read at recorded points only, and ["executor"] and
    ["chunk_steps"] name the executor and the steps of a chunk. ValueError
    if t_f is less than half a step.
    """
    if not t_f / cfg.dt > 0.5:  # round(t_f / dt) >= 1, and not NaN
        raise ValueError(f"t_f = {t_f:g} makes no step of dt = {cfg.dt:g}")
    n_steps = int(round(t_f / cfg.dt))
    dt = t_f / n_steps  # land exactly on t_f
    every = cfg.record_every
    times, pops, fids = [], [], []
    failures: dict[int, IntegratorInstabilityError] = {}
    cells, n = state.shape
    weights, indptr, indices = _batch_csr(operators, cells, dt / 2)
    step_bytes = _program_bytes(indices.size, cells * n, state.itemsize)
    program = step_bytes <= PROGRAM_STEP_BYTES
    budget, per_step = ((PROGRAM_BYTES, step_bytes) if program
                        else (WEIGHT_CHUNK_BYTES, 2 * indices.size * state.itemsize))
    chunk = max(1, min(BLOCK_STEPS, every, budget // max(per_step, 1)))
    if program:
        executor, advance = "step program", _step_program(indptr, indices, chunk, state.dtype)
    else:
        executor, advance = "step loop", _step_loop(indptr, indices)

    def keep(step, state):
        shown = unpack(state)
        times.append(step * dt)
        pops.append(record(step * dt, shown))
        fids.append(fidelity(shown, target))

    (w_next,) = weights(coefficients(np.zeros(1)))
    max_drift = integrate_s = 0.0
    clock = time.perf_counter()
    keep(0, state)
    record_s = time.perf_counter() - clock
    clock += record_s
    for first in range(0, n_steps, BLOCK_STEPS):
        last = min(first + BLOCK_STEPS, n_steps)
        t = np.arange(first, last) * dt
        block = coefficients(np.column_stack([t + dt / 2, t + dt]).ravel())
        step = first
        while step < last:
            stop = min(last, step + chunk, (step // every + 1) * every)
            w = weights(block[2 * (step - first):2 * (stop - first)])
            state = advance(state, w_next, w.reshape(stop - step, 2, *w.shape[1:]))
            w_next = w[-1]
            step = stop
            if step % every and step < n_steps:
                continue
            now = time.perf_counter()
            integrate_s += now - clock
            drifts = drift(state)
            healthy = drifts <= tol  # a NaN drift is not: the state overflowed
            if healthy.all():
                max_drift = max(max_drift, float(np.max(drifts, initial=0.0)))
            else:
                # skip cells that failed already or whose inputs failed
                bad = ~healthy & ~np.isnan(w_next).any(axis=-1)
                bad[list(failures)] = False
                for cell in np.flatnonzero(bad):
                    failures[int(cell)] = IntegratorInstabilityError(
                        f"{drift_name} drift {drifts[cell]:.2e} > {tol:.0e} "
                        f"at t={(step - 1) * dt + dt:.4g}; reduce dt"
                    )
                    state[cell] = np.nan
                max_drift = max(max_drift, float(np.max(drifts, initial=0.0, where=healthy)))
            keep(step, state)
            clock = time.perf_counter()
            record_s += clock - now

    return SimResult(
        times=np.array(times),
        populations=np.array(pops),
        fidelity=np.array(fids),
        final_state=unpack(state),
        metadata={f"max_{drift_name}_drift": max_drift, "dt": dt, "n_steps": n_steps,
                  "rhs_evals": 4 * n_steps, "state_shape": state.shape,
                  "failures": failures, "integrate_s": integrate_s, "record_s": record_s,
                  "executor": executor, "chunk_steps": chunk},
    )


def _program_bytes(entries: int, size: int, itemsize: int) -> int:
    """Bytes of one step of a step program: data and int32 indices, and 8 work segments."""
    return (4 * entries + 12 * size) * (itemsize + 4) + 8 * size * itemsize


def _step_loop(indptr: np.ndarray, indices: np.ndarray):
    """advance(state, w0, w): len(w) RK4 steps, a handful of numpy calls each.

    w0 are the weights of the first step's t, w[s] those of step s's
    t + dt/2 and t + dt (_batch_csr, (cells, E) each).
    """
    rhs = _rhs(indptr, indices)

    def advance(state, w0, w):
        for w_half, w_next in w:
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
            total *= THIRD
            total += state
            state, w0 = total, w_next
        return state

    return advance


def _step_program(indptr: np.ndarray, indices: np.ndarray, steps: int, dtype):
    """advance(state, w0, w) as _step_loop's, in one csr_matvec call for up to `steps` steps.

    The work vector is x followed by eight segments of N = cells * n per
    step, one row each, with the loop's arithmetic as CSR rows (M is the
    batch matrix; every row's terms are summed from 0 in stored order):

        A1 = w0 M x              S4 = x + B3
        S2 = x + A1              T  = A1 + A2 + A2 + B3 + w1 M S4
        A2 = wh M S2             X  = THIRD T + x
        Y  = 2 x + 2 A2
        B3 = wh M Y

    X, the next step's x, is the last segment. Every row reads lower rows
    only, so one product of the program matrix with the work vector written
    into itself is a forward substitution over the steps. The k-step index
    arrays are those of one step, shifted by 8N per step, built here once; a
    shorter call runs on their prefix. Per call, the weights go into their
    data slots: w0, wh and wh contiguous, w1 interleaved with T's ones.
    The rows give the loop's numbers for any finite state below half the
    largest float (2 x + 2 A2 can overflow where 2 (x + A2) does not). A
    stage that overflows differs: complex (1+0j) (inf + ib) has a NaN
    imaginary part where the loop's x + A1 keeps b. Both then end the step
    with a NaN in the state, as the overflow reaches T and the loop's
    T * THIRD multiplies inf by the zero imaginary part of THIRD + 0j, so
    both give the cell a NaN drift.
    """
    _check_in_place()
    size, entries = len(indptr) - 1, len(indices)
    counts = np.diff(indptr)
    row = np.arange(size)
    segment = size * np.arange(1, 9)  # columns of A1, S2, A2, Y, B3, S4, T, X

    def pairs(a, b):
        return np.column_stack([a, b]).ravel()

    # T row r: A1, A2, A2, B3, then the entries of row r of M on S4
    first = 4 * row + indptr[:-1]
    ones = (first[:, None] + np.arange(4)).ravel()
    slots = np.arange(entries) + 4 * (np.repeat(row, counts) + 1)
    t_columns = np.empty(4 * size + entries, np.int64)
    t_columns[ones] = (row[:, None] + segment[[0, 2, 2, 4]]).ravel()
    t_columns[slots] = indices + segment[5]
    t_data = np.zeros(t_columns.size, dtype)
    t_data[ones] = 1.0
    columns = np.concatenate([
        indices, pairs(row, row + segment[0]), indices + segment[1],
        pairs(row, row + segment[2]), indices + segment[3], pairs(row, row + segment[4]),
        t_columns, pairs(row + segment[6], row)])
    lengths = np.concatenate([counts, np.full(size, 2), counts, np.full(size, 2), counts,
                              np.full(size, 2), counts + 4, np.full(size, 2)])
    data = np.concatenate([
        np.zeros(entries), np.ones(2 * size), np.zeros(entries), np.full(2 * size, 2.0),
        np.zeros(entries), np.ones(2 * size), t_data, pairs(np.full(size, THIRD), np.ones(size)),
    ]).astype(dtype)
    per_step = data.size
    a2 = slice(entries + 2 * size, 2 * entries + 2 * size)
    b3 = slice(2 * entries + 4 * size, 3 * entries + 4 * size)
    w1 = slots + 3 * entries + 6 * size

    if max(per_step * steps, size + 8 * size * steps) > np.iinfo(np.int32).max:
        raise ValueError(f"a step program of {steps} steps overflows 32-bit CSR indices")
    program_indptr = np.concatenate([np.zeros(size, np.int32), np.cumsum(
        np.concatenate([[0], np.tile(lengths, steps)]), dtype=np.int32)])
    shift = 8 * size * np.arange(steps, dtype=np.int32)
    program_indices = (columns.astype(np.int32) + shift[:, None]).ravel()
    data = np.tile(data, (steps, 1))
    work = np.zeros(size + 8 * size * steps, dtype)

    def advance(state, w0, w):
        k = len(w)
        rows = size + 8 * size * k
        slots_k = data[:k]
        slots_k[0, :entries] = w0.reshape(-1)
        slots_k[1:, :entries] = w[:-1, 1].reshape(k - 1, entries)
        slots_k[:, a2] = slots_k[:, b3] = w[:, 0].reshape(k, entries)
        slots_k[:, w1] = w[:, 1].reshape(k, entries)
        work[:size] = state.reshape(-1)
        work[size:rows] = 0
        csr_matvec(rows, rows, program_indptr, program_indices, data.reshape(-1), work, work)
        return work[rows - size:rows].reshape(state.shape)

    return advance


@functools.cache
def _check_in_place():
    """RuntimeError unless csr_matvec reads rows it has already written in the same call.

    The step program writes its product into the vector it multiplies;
    scipy's kernel reads x and writes y element by element, so the rows
    computed first are seen by the rows after them. Checked on a 3-row
    matrix before the first program runs.
    """
    work = np.array([1.0, 0.0, 0.0])
    csr_matvec(3, 3, np.array([0, 0, 1, 2], np.int32), np.array([0, 1], np.int32),
               np.array([2.0, 3.0]), work, work)
    if not np.array_equal(work, [1.0, 2.0, 6.0]):
        raise RuntimeError("scipy's csr_matvec does not read the rows it has written in "
                           f"the same call (got {work}); the RK4 step program needs it")


def _leaked_row(weights: np.ndarray, tracked: np.ndarray | None) -> np.ndarray:
    """Tracked populations plus the untracked remainder as the last column (per cell).

    take keeps p in C order, so each row is summed as a cell alone would be;
    a fancy index can lay a batch out column-major, and its rows are then
    summed in another order.
    """
    p = weights if tracked is None else weights.take(tracked, axis=-1)
    leaked = np.maximum(0.0, weights.sum(axis=-1) - p.sum(axis=-1))
    return np.concatenate([p, leaked[..., None]], axis=-1)


def _rhs(indptr: np.ndarray, indices: np.ndarray):
    """rhs(weights, x, out) adds the batch matrix (_batch_csr) times x to out, as csr_matvec does."""
    size = len(indptr) - 1
    return functools.partial(csr_matvec, size, size, indptr, indices)


def _batch_csr(operators, cells: int, scale: float):
    """weights, indptr, indices of a batch: d/dt x = sum_k c[t, b, k] operators[k] x per cell.

    operators are K dense or sparse (n, n) matrices. Entry e of operator k
    adds c[k] * value_e * x[col_e] to row_e, entries ordered by row,
    operator and column. weights(c) maps c (times, cells, K) to the weights
    c[k_e] * (value_e * scale), (times, cells, E); ValueError for another
    cells or K.

    Those weights of one time, cell after cell, are the data of one
    block-diagonal (cells * n, cells * n) CSR matrix with the index arrays
    indptr and indices (int32), built here once; a row with no entries adds
    nothing. Weights and x are complex, or both real for real coefficients
    and operators. scipy's compiled csr_matvec (_rhs) adds each row's terms
    to out on its own, in entry order, so every cell's arithmetic is the
    same whatever else is in its batch; it is called directly because at
    one cell a csr_array's `@` spends longer on dispatch than the product
    takes.
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
    scaled = values * scale

    def weights(c):
        if c.shape[1:] != (cells, len(parts)):  # csr_matvec reads cells * E weights per time
            raise ValueError(f"coefficients {c.shape[1:]} for {cells} cells of "
                             f"{len(parts)} operators")
        w = c.take(ks, axis=2)
        w *= scaled
        return w

    return weights, indptr, indices


def _one_cell(result: SimResult) -> SimResult:
    """The only cell of a batch of one without its cell axis; a drift failure is raised."""
    failures = result.metadata["failures"]
    if failures:
        raise failures[0]
    return replace(result, populations=result.populations[:, 0],
                   fidelity=result.fidelity[:, 0], final_state=result.final_state[0])


def _matrix_units(h_of_t: Callable[[float], np.ndarray], d: int):
    """A plain t -> H(t) as one cell's coefficients on the d*d matrix units E_ij, -1j folded in."""
    def coefficients(times):
        return np.array([h_of_t(t) for t in times], dtype=complex).reshape(len(times), 1, d * d)

    units = [sp.coo_matrix(([-1j], ([i], [j])), shape=(d, d)) for i in range(d) for j in range(d)]
    return coefficients, units


def evolve_schrodinger(
    h_of_t: Callable,
    psi0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> SimResult:
    """Integrate i d/dt psi = H(t) psi with classic RK4, for one state or a batch.

    An h_of_t with structure operators `operators` (K, d, d) maps an array of
    times to coefficients (times, B, K), and cell b evolves under
    sum_k c[t, b, k] operators[k] (model.CellDrives), applied entry by entry
    with no H(t) stored. A plain h_of_t maps t to H(t); its entries are the
    coefficients of one cell on the d*d matrix units. psi0 (B, d) is a batch
    of B cells: a cell whose norm drifts beyond NORM_TOL continues as NaN,
    its IntegratorInstabilityError in metadata["failures"]. psi0 (d,) runs as
    a batch of one and gives results without the cell axis; its drift
    failure is raised when the run ends.

    tracked: indices whose |amplitude|^2 is recorded (defaults to all);
    target: state against which the fidelity trace is computed (default: the
    first basis state).
    """
    psi = np.array(psi0, dtype=complex)
    d = psi.shape[-1]
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-9):
        raise ValueError("psi0 must be normalized")
    if target is None:
        target = np.eye(d, dtype=complex)[0]
    if hasattr(h_of_t, "operators"):
        coefficients, operators = h_of_t, -1j * h_of_t.operators
    else:
        coefficients, operators = _matrix_units(h_of_t, d)
    state = psi.reshape(-1, d)
    result = _rk4(
        coefficients, operators, state, t_f, cfg, np.broadcast_to(target, state.shape),
        record=lambda t, psi: _leaked_row(np.abs(psi) ** 2, tracked),
        drift=lambda psi: np.abs(np.linalg.norm(psi, axis=-1) - 1.0),
        drift_name="norm", tol=NORM_TOL,
    )
    return _one_cell(result) if psi.ndim == 1 else result


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

    @functools.cached_property
    def _density_map(self):
        """Coordinates, signs and positions in rho viewed as floats of rho's Re and Im parts."""
        return (np.concatenate([self.real_of, self.imag_of]),
                np.concatenate([np.ones(self.entries.size), self.imag_sign]),
                np.concatenate([2 * self.entries, 2 * self.entries + 1]))

    def density(self, x: np.ndarray) -> np.ndarray:
        """rho (..., dim, dim) from its real coordinates x (..., n)."""
        coordinates, signs, positions = self._density_map
        rho = np.zeros(x.shape[:-1] + (2 * self.dim * self.dim,))
        values = x.take(coordinates, axis=-1)
        values *= signs
        values += 0.0  # an imaginary part -0.0 is 0.0, as in rho's other zeros
        rho[..., positions] = values
        return rho.view(complex).reshape(x.shape[:-1] + (self.dim, self.dim))


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

    rho0 (B, d, d) is a batch of B cells and rho0 (d, d) a batch of one;
    either runs as a (B, n) real state, the coordinates of rho on
    liouvillian.entries, to which rho0 must be confined
    (Liouvillian.reachable). coefficients(times) gives c as (times, cells, K),
    real (ValueError for a nonzero imaginary part); rho stays Hermitian by
    construction. A cell whose trace drifts beyond TRACE_TOL continues as NaN
    with its error in metadata["failures"]; one run raises it when the run
    ends. Negative eigenvalues beyond POSITIVITY_TOL at recorded points are
    kept as warnings in the metadata ("cell b: " first in a batch), not
    fixed up. final_state, populations and fidelity carry a cell axis for a
    batch only.
    """
    dim, entries = liouvillian.dim, liouvillian.entries
    rho = np.array(rho0, dtype=complex)
    cells = rho.reshape(-1, dim, dim)
    if (any(hilbert.max_nonhermiticity(c) > 1e-9 for c in cells)
            or np.any(np.abs(np.trace(cells, axis1=1, axis2=2).real - 1.0) > 1e-6)):
        raise ValueError("rho0 must be Hermitian with unit trace")
    if np.any(np.delete(cells.reshape(len(cells), dim * dim), entries, axis=1)):
        raise ValueError("rho0 must lie on the Liouvillian's support")
    diagonal = liouvillian.real_of[entries // dim == entries % dim]

    def real_coefficients(times):
        c = coefficients(times)
        if np.iscomplexobj(c) and np.any(np.abs(c.imag) > 0):
            raise ValueError("master-equation coefficients must be real")
        return c.real

    warnings: list[tuple[int, str]] = []  # (cell, text)
    min_eigenvalue = 0.0

    def record(t, rho):
        nonlocal min_eigenvalue
        finite = np.isfinite(rho.view(float)).all(axis=(1, 2))
        lam_min = np.linalg.eigvalsh(rho if finite.all() else rho[finite])[:, 0]
        min_eigenvalue = min(min_eigenvalue, float(np.min(lam_min, initial=0.0)))
        negative = lam_min < -POSITIVITY_TOL
        if negative.any():
            for b, lam in zip(np.flatnonzero(finite)[negative], lam_min[negative]):
                warnings.append((b, f"eigenvalue {lam:.2e} < -{POSITIVITY_TOL:.0e} at t={t:.4g}"))
        return _leaked_row(np.diagonal(rho, axis1=1, axis2=2).real, tracked)

    def drift(state):  # cell by cell, so that no cell's sum depends on its batch
        return np.array([abs(cell[diagonal].sum() - 1.0) for cell in state])

    if target is None:
        target = np.eye(dim, dtype=complex)[0]
    result = _rk4(
        real_coefficients, liouvillian.operators, liouvillian.coordinates(cells), t_f, cfg,
        target, record=record, drift=drift, drift_name="trace", tol=TRACE_TOL,
        unpack=liouvillian.density,
    )
    result.metadata.update(
        min_eigenvalue=min_eigenvalue, support=int(entries.size), cells=len(cells),
        positivity_warnings=[f"cell {b}: {text}" if rho.ndim == 3 else text
                             for b, text in warnings])
    return _one_cell(result) if rho.ndim == 2 else result
