"""Fixed-step RK4 evolution for pure states and density matrices, plus observables.

Pure-state runs live on the 8-dim invariant subspace; open-system runs need
more, because spontaneous emission leaves it, and use the 16 states reachable
from |phi_1> once the collapse operators are added (model.open_space).  The
RK4 driver integrates one thing: a (B, n) state whose cell b evolves under
sum_k c[t, b, k] G_k, fixed structure operators G_k with per-cell
coefficients, applied entry by entry, so a cell's numbers do not depend on
its batch.  The cells of a sweep share a step schedule and run as one batch,
and a single run is a batch of one; every Schrodinger run, the reduced
three- and two-level models included, comes as Hermitian structure operators
and real coefficients (model.hamiltonian_terms with model.CellDrives,
verify.DETUNED_LAMBDA_OPERATORS with verify.detuned_lambda_coefficients).  A
Schrodinger run integrates the lumped state: amplitudes that start equal in
every cell and that every structure operator keeps equal (hilbert.lump)
are one amplitude.  On the chain from |phi_1> the L and R members of each
pair are equal for all t, the paper's symmetric states, so 5 amplitudes and
10 weights per cell carry 8 amplitudes and 17 weights; populations,
fidelity and norm drift are taken on the full psi.  The master
equation is such a batch with real coefficients: its state is the real
coordinates of rho on the entries its Liouvillian reaches from rho0, lumped
the same way as complex entries before real parts are taken.  A block that
is its own transpose holds one real number and any other block and its
transpose hold Re and Im of one value; from |phi_1><phi_1| on the
open-system space each entry equals its L<->R mirror image, so 44 numbers
carry 84 of the 256 entries.  Its structure operators are the commutators
-i[G_k, .] with Hermitian G_k and the dissipators at unit rate, as real
matrices.  rho is Hermitian by construction.  A recorded point keeps its
time, its fidelity, which for rho reads only rho's block on the target's
states, and in a single run a copy of the lumped state; the population rows,
and for rho the positivity check (eigvalsh of rho's diagonal blocks on its
support, stacked, one call per block size), come from one pass over the kept
states after the last step, over t_f's alone in a batch (_Observer).

The per-entry weights c[t, b, k] * value come already multiplied by dt/2,
built for a chunk of steps at a time (complex ones entry by entry, real
ones, the master equation's, as a matrix product with one nonzero term per
weight; on the step program real ones are written by such products straight
into the program), so each right-hand side adds a stage increment
(dt/2) k_i to the array it is given, and the last stage adds its own to the
sum of the others.  The weights of one time are the data of a
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
program per step: one to six open cells, seven on TQD or STIRAP drives, up
to about 49 closed cells) take the program, larger ones the loop, on which
the program's constant rows cost more than the numpy calls they replace.
Either executor holds only the structure operators whose coefficients are
nonzero somewhere at t = 0, reading their columns of each block in place,
and takes the others in again at the first block that drives them (_rk4):
the paper's TQD pulses fix Re omega_a = Im omega_b = 0 and its STIRAP
pulses are real and undetuned, so a closed run holds 4 (TQD) or 3 (STIRAP)
of its 6 operators, the reduced TQD runs 3 of 5 and 1 of 2, and an open run
at nonzero rates integrates 181 or 161 of the Liouvillian's 229 nonzeros per
cell, with the bits all 229 give.
The compiled product is loaded from scipy's extension module alone
(_load_sparsetools), and the open-system superoperators on vec(rho) are
numpy arrays of their nonzeros (Superoperator), so no run imports
scipy.sparse: of the commands, only verify's pulse fit loads it, through
scipy.optimize.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import hilbert
from .hilbert import BasisState, HilbertSpace, LevelA, LevelB


def _load_sparsetools():
    """scipy's compiled sparse kernels (scipy/sparse/_sparsetools) without importing scipy.sparse.

    The extension needs only numpy, where `import scipy.sparse` costs about
    160 ms and 15 MB. Loading it adds it to sys.modules; left there, a later
    `import scipy.sparse` would find it and never set its `_sparsetools`
    attribute. ImportError, naming the directories searched, if it is not there.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    path = [os.path.join(location, "sparse") for location in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"no {name} in {path}", name=name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


csr_matvec = _load_sparsetools().csr_matvec


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
# weights prebuilt: 84-coordinate open cells: one 12-19 -> 4-5 us, three
# 16-23 -> 12-17 us, four 23-32 -> 31-34 us; lumped 44-coordinate open cells
# (20 KB per step): one 11-23 -> 2-4 us, three 17-25 -> 6-10 us, six 22-32 ->
# 16-24 us, eight about even, twelve 35-41 -> 38-51 us; 8-amplitude closed
# cells: one 12 -> 0.6 us, 24 cells 27-29 -> 11-12 us, 32 about even, 39
# cells 34 -> 39 us; lumped 5-amplitude closed cells: 39 cells 27-28 ->
# 20-22 us (103 KB per step), 64 cells 32-34 -> 36-38 us. 1 MB per call beat
# 256 KB, 512 KB and 2 MB from one to 24 cells.
PROGRAM_STEP_BYTES = 128 * 1024
PROGRAM_BYTES = 1024 * 1024
THIRD = 1.0 / 3.0
# Most RK4 steps one run may take: 400 times the 25 000 of a run at the
# default dt and t_f, 200 times the 50 000 of verify's half-step run.
STEP_CAP = 10_000_000
# Most bytes one cell of a run may keep for its recorded points (times,
# fidelities and, in a single run, states and population rows), per cell so
# that whether a sweep runs does not depend on its batches: 64 times the 252 KB
# of an open run at the defaults, above the 12.6 MB of that run recorded at
# every step. A batch of cells keeps at most its cells times this.
RECORD_CAP = 16 * 1024 * 1024


class IntegratorInstabilityError(RuntimeError):
    """Norm or trace drift beyond tolerance (reduce dt), or coefficients that are not finite."""


class StepCapError(ValueError):
    """A run of more than STEP_CAP steps (t_f / dt above it, infinite included),
    or one whose recorded points would take more than RECORD_CAP bytes per cell."""


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
    populations: np.ndarray  # (n_times, n_tracked + 1), last = leaked; a batch: t_f's only
    fidelity: np.ndarray
    final_state: np.ndarray  # vector or matrix, with a leading cell axis for a batch
    metadata: dict = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])


def target_state(space: HilbertSpace) -> np.ndarray:
    """Equal superposition of |g0,g0,vac>, |gL,gL,vac>, |gR,gR,vac>."""
    return sum(space.ket(BasisState(a, b, 0, 0)) for a, b in (
        (LevelA.g0, LevelB.g0), (LevelA.gL, LevelB.gL), (LevelA.gR, LevelB.gR))) / np.sqrt(3.0)


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


def step_count(t_f: float, dt: float) -> int:
    """round(t_f / dt), the RK4 steps of a run to t_f with steps of about dt > 0.

    ValueError if that is no step (t_f / dt at most 0.5, or NaN), StepCapError
    (a ValueError) if it is more than STEP_CAP (t_f / dt infinite included).
    """
    steps = float(t_f) / float(dt)  # overflows to inf, where numpy floats would warn
    if not steps > 0.5:  # round(t_f / dt) >= 1, and not NaN
        raise ValueError(f"t_f = {t_f:g} makes no step of dt = {dt:g}")
    if not steps <= STEP_CAP:  # and finite
        raise StepCapError(f"t_f = {t_f:g} takes more than {STEP_CAP} steps of dt = {dt:g}")
    return int(round(steps))


class _Observer:
    """What _rk4 reads of one kind of lumped state (cells, n), and what a run keeps of it.

    drift(state) gives one value per cell, named drift_name, within tol;
    fidelity(state) is a recorded point's one call of the global
    dynamics.fidelity; record(times, states) gives population rows of states
    (points, cells, n) and unpack(state) full states. Each recorded point
    keeps its time and fidelity, and in series (a run of one state) a copy
    of the state; a batch's record pass reads t_f's state alone.
    """

    def __init__(self, drift, drift_name, tol, fidelity, unpack, record, reported, series):
        self.drift, self.drift_name, self.tol = drift, drift_name, tol
        self.fidelity, self.unpack, self.record = fidelity, unpack, record
        self.reported, self.series = reported, series
        self.failures: dict[int, Exception] = {}

    def start(self, points: int, dt: float, state: np.ndarray):
        """Room for points recorded points of state; StepCapError for more than RECORD_CAP
        bytes per cell (a row: one number per unpacked entry, one for the leak)."""
        cells, n = state.shape
        per_cell = points * (16 + self.series * (
            n * state.itemsize + 8 * (1 + self.unpack(state[:1]).shape[-1])))
        if per_cell > RECORD_CAP:
            raise StepCapError(f"{points} recorded points take {per_cell} bytes per cell, "
                               f"more than {RECORD_CAP}; raise record_every or dt")
        self.dt, self.kept, self.max_drift = dt, 0, 0.0
        self.times, self.fids = np.empty(points), np.empty((points, cells))
        self.states = np.empty((points, cells, n), state.dtype) if self.series else None

    def check(self, step: int, state: np.ndarray, c: np.ndarray):
        """Fail, as NaN from here on, each cell whose drift first goes beyond tol (NaN is), with
        reported[cell] (read as cells fail: model.CellDrives.errors fills as pulses fail) if
        its coefficients c (cells, K) of the last t are not finite and the caller has it,
        else an IntegratorInstabilityError. One max decides; a failure looks at each cell."""
        drifts = self.drift(state)
        worst = drifts.max(initial=0.0)
        if worst <= self.tol:  # a NaN drift is not: the state overflowed
            self.max_drift = max(self.max_drift, float(worst))
            return
        healthy = drifts <= self.tol
        bad = ~healthy
        bad[list(self.failures)] = False  # failed already
        nonfinite = ~np.isfinite(c).all(-1)
        t = (step - 1) * self.dt + self.dt
        for cell in map(int, np.flatnonzero(bad)):
            self.failures[cell] = (
                self.reported[cell] if nonfinite[cell] and cell in self.reported else
                IntegratorInstabilityError(
                    f"coefficients not finite by t={t:.4g}" if nonfinite[cell] else
                    f"{self.drift_name} drift {drifts[cell]:.2e} > {self.tol:.0e} at "
                    f"t={t:.4g}; reduce dt"))
            state[cell] = np.nan
        self.max_drift = max(self.max_drift, float(np.max(drifts, initial=0.0, where=healthy)))

    def keep(self, step: int, state: np.ndarray):
        self.times[self.kept], self.fids[self.kept] = step * self.dt, self.fidelity(state)
        if self.series:
            self.states[self.kept] = state  # the step program's state is its work vector
        self.kept += 1

    def finish(self, state: np.ndarray) -> SimResult:
        """The run at t_f: the record pass over the kept states, in slices of at most
        PROGRAM_BYTES unpacked; populations and fidelity carry a cell axis after time."""
        kept, at = (self.states, self.times) if self.series else (state[None], self.times[-1:])
        points = max(1, PROGRAM_BYTES // max(self.unpack(kept[0]).nbytes, 1))  # per slice
        pops = [self.record(at[i:i + points], kept[i:i + points])
                for i in range(0, len(at), points)]
        return SimResult(self.times, np.concatenate(pops), self.fids, self.unpack(state),
                         {f"max_{self.drift_name}_drift": self.max_drift,
                          "failures": self.failures})


def _rk4(coefficients: Callable[[np.ndarray], np.ndarray], operators, state: np.ndarray,
         t_f: float, cfg: IntegratorConfig, observer: _Observer) -> SimResult:
    """Classic fixed-step RK4 from 0 to t_f of d/dt x_b = sum_k c[t, b, k] operators[k] x_b.

    state is (cells, n), one row x_b per cell, and coefficients(times) gives c
    as (times, cells, K); ValueError for another cells or K. A complex state
    takes c cast to complex, a real one c's real part: ValueError for a
    nonzero imaginary part, NaN included. The executor takes c of t = 0 and
    then, from one coefficients call per BLOCK_STEPS steps, those of the
    t + dt/2 and t + dt of a chunk of steps at a time; a chunk ends at a
    recorded point or at the end of a block. It turns them into weights
    (_batch_csr, scaled by dt/2, so that a right-hand side adds the stage
    increment (dt/2) d/dt x to the array it is given). With
    a_i = (dt/2) k_i a step is state + (a1 + 2 a2 + 2 a3 + a4) * THIRD. The
    sum is collected apart from the state, away from its magnitude, and the
    last stage's product is added to it directly; the equation being linear,
    the third stage takes 2 (state + a2) and gives 2 a3. Summing the stages
    into copies of the state instead would round each a_i at the state's
    magnitude, which moved closed 25 000-step runs by 1e-12. A batch whose
    step program is at most PROGRAM_STEP_BYTES runs its chunks as step
    programs (_step_program), a larger one through the step loop
    (_step_loop); both do the same arithmetic, with the same results.

    The executor holds only the operators driven at t = 0: those whose
    coefficient is nonzero, NaN included, in some cell (_driven). A left-out
    operator would add +-0.0 * x to a row sum. Every row sum starts from a
    zeroed array and so never stands at -0.0, and adding +-0.0 to any other
    value leaves it as it is: for finite states the run is, bit for bit,
    the one that holds every operator. Each block is read in place, every
    column kept (_batch_csr). At each block start the left-out columns are
    checked over the block; if one is nonzero anywhere in it, NaN included,
    the executor is built again, as at set-up, with every operator from
    that block on, starting from the coefficients of the block's first t.

    At every recorded point observer.check tests each cell's drift and a
    failing cell's coefficients of the last t (all K: a left-out one is +-0.0
    in its block). observer.keep keeps the point; observer.finish(state)
    gives the result, to which _rk4 adds metadata["setup_s"] (from entry to
    the first recorded point: index arrays, executor and the t = 0
    coefficients), ["integrate_s"] and ["record_s"] split the wall time
    between set-up, the steps and the recording (the recorded points and the
    record pass); the clock is read at entry, at recorded points and after
    the pass only. ["blocks"] counts the coefficients calls, ["operators"]
    the operators held at t_f and ["rebuilds"] the executors built again (0
    or 1), and ["executor"] and ["chunk_steps"] name the executor at t_f and
    the steps of its chunks. The step count is step_count(t_f, cfg.dt), whose
    errors are raised before any step, and so is observer.start's
    StepCapError for recorded points over RECORD_CAP bytes per cell.
    """
    entry = time.perf_counter()
    n_steps = step_count(t_f, cfg.dt)
    dt = t_f / n_steps  # land exactly on t_f
    every = cfg.record_every
    cells, n = state.shape
    real = not np.iscomplexobj(state)
    observer.start(-(-n_steps // every) + 1, dt, state)  # t = 0, every every-th step, t_f

    def coefficients_at(times):
        c = coefficients(times)
        if real and np.iscomplexobj(c) and np.any(c.imag != 0):  # NaN too
            raise ValueError("master-equation coefficients must be real")
        c = c.real if real else np.asarray(c, dtype=complex)
        if c.shape[1:] != (cells, len(operators)):  # csr_matvec reads cells * E weights
            raise ValueError(f"coefficients {c.shape[1:]} for {cells} cells of "
                             f"{len(operators)} operators")
        return c

    def build(driven, c0):
        """advance, executor and chunk steps of the operators driven, from c0 (all K)."""
        weights, spread, indptr, indices = _batch_csr(operators, cells, dt / 2, driven)
        step_bytes = _program_bytes(indices.size, cells * n, state.itemsize)
        program = step_bytes <= PROGRAM_STEP_BYTES
        budget, per_step = ((PROGRAM_BYTES, step_bytes) if program
                            else (WEIGHT_CHUNK_BYTES, 2 * indices.size * state.itemsize))
        chunk = max(1, min(BLOCK_STEPS, every, budget // max(per_step, 1)))
        if program:
            return (_step_program(indptr, indices, chunk, state.dtype, weights, c0, spread),
                    "step program", chunk)
        return _step_loop(indptr, indices, weights, c0), "step loop", chunk

    # overflow and inf * 0 warn nothing: such a cell fails by its drift or coefficients
    with np.errstate(invalid="ignore", over="ignore"):
        (c_last,) = coefficients_at(np.zeros(1))
        nonzero = _driven(c_last)
        driven, left_out = np.flatnonzero(nonzero), np.flatnonzero(~nonzero)
        advance, executor, chunk = build(driven, c_last)
        rebuilds = 0

        integrate_s = 0.0
        clock = time.perf_counter()
        setup_s = clock - entry
        observer.keep(0, state)
        record_s = time.perf_counter() - clock
        clock += record_s
        starts = range(0, n_steps, BLOCK_STEPS)
        for first in starts:
            last = min(first + BLOCK_STEPS, n_steps)
            t = np.arange(first, last) * dt
            block = coefficients_at(np.column_stack([t + dt / 2, t + dt]).ravel())
            if left_out.size and block.take(left_out, axis=-1).any():  # NaN too, not +-0.0
                driven, left_out, rebuilds = np.arange(len(operators)), left_out[:0], 1
                advance, executor, chunk = build(driven, c_last)
            c_last = block[-1].copy()  # the next block's first t (a view keeps block)
            step = first
            while step < last:
                stop = min(last, step + chunk, (step // every + 1) * every)
                state = advance(state, block[2 * (step - first):2 * (stop - first)])
                step = stop
                if step % every and step < n_steps:
                    continue
                now = time.perf_counter()
                integrate_s += now - clock
                observer.check(step, state, block[2 * (step - first) - 1])  # the last t
                observer.keep(step, state)
                clock = time.perf_counter()
                record_s += clock - now
            del block  # freed before the next block is computed

    result = observer.finish(state)
    result.metadata.update(
        dt=dt, n_steps=n_steps, rhs_evals=4 * n_steps, state_shape=state.shape,
        setup_s=setup_s, integrate_s=integrate_s, record_s=record_s + time.perf_counter() - clock,
        blocks=1 + len(starts), executor=executor, chunk_steps=chunk, operators=driven.size,
        rebuilds=rebuilds)
    return result


def _program_bytes(entries: int, size: int, itemsize: int) -> int:
    """Bytes of one step of a step program: data and int32 indices, and 8 work segments."""
    return (4 * entries + 12 * size) * (itemsize + 4) + 8 * size * itemsize


def _step_loop(indptr: np.ndarray, indices: np.ndarray, weights, c0: np.ndarray):
    """advance(state, c): len(c) // 2 RK4 steps, a handful of numpy calls each.

    c are the coefficients of each step's t + dt/2 and t + dt, interleaved
    (2 steps, cells, K), and weights (_batch_csr) turns them into the
    weights of each time. c0 are those of the first call's first t; each
    call keeps the weights of its last time for the next call's first.
    """
    rhs = _rhs(indptr, indices)
    (w0,) = weights(c0[None])

    def advance(state, c):
        nonlocal w0
        w = weights(c)
        for w_half, w_next in w.reshape(len(c) // 2, 2, *w.shape[1:]):
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


def _step_program(indptr: np.ndarray, indices: np.ndarray, steps: int, dtype, weights,
                  c0: np.ndarray, spread: np.ndarray | None):
    """advance(state, c) as _step_loop's, in one csr_matvec call for up to `steps` steps.

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
    Without a spread (complex weights) they come from weights(c), and T's
    go in through one flat index. With one (_batch_csr's, real weights) the
    coefficients go straight into the slots, with one 2-D product per cell
    and slot group (one matmul call over the cells) and no weights array:
    A1, A2 and B3 are c @ spread (B3 its own product, which beat a copy of
    A2), and a cell's T rows, its ones and its w1 together, are [c, 1] @ U
    with U the constant (K + 1, 4 n + E) matrix whose last row holds the
    ones. Every slot has
    one nonzero term, so it holds the weight weights(c) gives, bit for bit,
    and so do the ones, but for a cell whose coefficients are not finite:
    inf * 0 makes them NaN too, and the cell fails as it does with weights.

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
    a2 = entries + 2 * size  # first slot of A2, B3 and T
    b3 = 2 * entries + 4 * size
    t0 = 3 * entries + 6 * size

    # The work vector (size + 8 size per step) is shorter than the data (4 entries
    # + 12 size per step), so the data's length alone can overflow an index.
    if per_step * steps > np.iinfo(np.int32).max:
        raise ValueError(f"a step program of {steps} steps overflows 32-bit CSR indices")
    program_indptr = np.concatenate([np.zeros(size, np.int32), np.cumsum(
        np.concatenate([[0], np.tile(lengths, steps)]), dtype=np.int32)])
    shift = 8 * size * np.arange(steps, dtype=np.int32)
    program_indices = (columns.astype(np.int32) + shift[:, None]).ravel()
    data = np.tile(data, (steps, 1))
    flat = data.reshape(-1)
    work = np.zeros(size + 8 * size * steps, dtype)

    if spread is None:
        w1 = (slots + t0 + per_step * np.arange(steps)[:, None]).ravel()
        (w_last,) = weights(c0[None])

        def fill(c, k):
            nonlocal w_last
            w = weights(c).reshape(k, 2, entries)
            data[0, :entries] = w_last.reshape(-1)
            data[1:k, :entries] = w[:-1, 1]
            data[:k, a2:a2 + entries] = data[:k, b3:b3 + entries] = w[:, 0]
            flat[w1[:k * entries]] = w[:, 1].reshape(-1)
            w_last = w[-1, 1]
    else:
        cells, (n_ops, e) = len(c0), spread.shape
        span = 4 * (size // max(cells, 1)) + e  # a cell's T rows: ones and w1
        spread_t = np.zeros((n_ops + 1, span))
        if cells:  # cell 0's T rows, whose layout every cell repeats
            spread_t[n_ops, ones[:span - e]] = 1.0
            spread_t[:n_ops, slots[:e]] = spread

        def by_cell(first, width):  # (cells, steps, width) view of each cell's slots
            return data[:, first:first + cells * width].reshape(
                steps, cells, width).transpose(1, 0, 2)

        a1_slots, a2_slots, b3_slots = by_cell(0, e), by_cell(a2, e), by_cell(b3, e)
        t_slots = by_cell(t0, span)
        full = np.ones((cells, steps + 1, n_ops + 1))  # [c, 1]; step 0: the last call's last t
        full[:, 0, :n_ops] = c0

        def fill(c, k):
            full[:, 1:k + 1, :n_ops] = c[1::2].transpose(1, 0, 2)
            np.matmul(full[:, :k, :n_ops], spread, out=a1_slots[:, :k])
            for slots in (a2_slots, b3_slots):
                np.matmul(c[::2].transpose(1, 0, 2), spread, out=slots[:, :k])
            np.matmul(full[:, 1:k + 1], spread_t, out=t_slots[:, :k])
            full[:, 0] = full[:, k]

    def advance(state, c):
        k = len(c) // 2
        rows = size + 8 * size * k
        fill(c, k)
        work[:size] = state.reshape(-1)
        work[size:rows] = 0
        csr_matvec(rows, rows, program_indptr, program_indices, flat, work, work)
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


def _driven(c: np.ndarray) -> np.ndarray:
    """(K,) bools: is column k of coefficients c (..., K) nonzero, NaN included, in some row.

    A column of +0.0 and -0.0 only is not: its operator's entries add
    +-0.0 * x to a row sum, which leaves every sum that does not stand at
    -0.0 as it is.
    """
    return (c != 0).reshape(-1, c.shape[-1]).any(axis=0)


def _batch_csr(operators, cells: int, scale: float, driven):
    """weights, spread, indptr, indices of a batch: d/dt x = sum_k c[t, b, k] operators[k] x per cell.

    operators are K dense (n, n) matrices, (K, n, n) as np.asarray gives
    them, of which those at the indices driven are taken in. Entry e, a
    nonzero of a driven operator k, adds c[k] * value_e * x[col_e] to row_e,
    entries ordered by row, operator and column. weights(c) maps c
    (times, cells, K), every operator's column, to the weights
    c[k_e] * (value_e * scale), (times, cells, E), of the operators' dtype.
    Complex weights take c[k_e] and multiply. Real ones are one product
    c @ spread, spread (K, E) holding value_e * scale in row k_e, zeros
    elsewhere (all zeros for a left-out operator; None for complex
    weights): each weight has that one nonzero term, so it is the same
    product, bit for bit, but for the edges. A -0.0 coefficient gives +0.0,
    and an infinite one makes every weight of its cell non-finite (inf * 0
    is NaN, silenced by _rk4's np.errstate).

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
    operators = np.asarray(operators)
    n = operators.shape[-1]
    ks, rows, cols = np.nonzero(operators[driven])
    ks = np.asarray(driven, dtype=np.intp)[ks]  # each entry's index among all K
    values = operators[ks, rows, cols]
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
    k, e = len(operators), values.size
    spread = None
    if not np.iscomplexobj(scaled):  # row k_e of spread holds entry e's value, else zeros
        spread = np.zeros((k, e))
        spread[ks, np.arange(e)] = scaled

    def weights(c):
        if spread is None:
            w = c.take(ks, axis=2)
            w *= scaled
            return w
        return (c.reshape(len(c) * cells, k) @ spread).reshape(len(c), cells, e)

    return weights, spread, indptr, indices


def _one_cell(result: SimResult) -> SimResult:
    """The only cell of a batch of one without its cell axis; its failure is raised."""
    failures = result.metadata["failures"]
    if failures:
        raise failures[0]
    return replace(result, populations=result.populations[:, 0],
                   fidelity=result.fidelity[:, 0], final_state=result.final_state[0])


def evolve_schrodinger(
    operators: np.ndarray,
    coefficients: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
    reported: Mapping[int, Exception] = MappingProxyType({}),
) -> SimResult:
    """Integrate i d/dt psi = H(t) psi with classic RK4, for one state or a batch.

    Cell b evolves under H_b(t) = sum_k c[t, b, k] operators[k]: operators
    are K fixed structure operators (K, d, d), and coefficients(times) gives
    c as (times, B, K) (model.hamiltonian_terms and model.CellDrives), complex
    or real, applied entry by entry with no H(t) stored. psi0 (B, d) is a
    batch of B cells: a cell whose norm drifts beyond NORM_TOL, or whose
    coefficients stop being finite, continues as NaN with its first failure
    in metadata["failures"]: reported[cell] (reported maps cell to the
    caller's error, as model.CellDrives.errors does) for coefficients no
    longer finite, else an IntegratorInstabilityError (_Observer). A batch
    records populations at t_f only: a sweep returns F there. psi0 (d,)
    runs as a batch of one and gives results without the cell axis; its
    failure is raised when the run ends.

    The run integrates one amplitude per block of hilbert.lump: amplitudes
    that start equal in every cell and that every operator keeps equal stay
    equal, so the lumped state y holds one of each and psi is
    y[:, labels]. From |phi_1> on the chain that is the paper's symmetric
    grouping, 5 amplitudes for 8. Populations, fidelity, norm drift and
    final_state come from psi.

    tracked: indices whose |amplitude|^2 is recorded (defaults to all);
    target: state against which the fidelity trace is computed (default: the
    first basis state).
    """
    psi = np.array(psi0, dtype=complex)
    d = psi.shape[-1]
    if not np.all(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) <= 1e-9):  # NaN is not
        raise ValueError("psi0 must be normalized")
    if target is None:
        target = np.eye(d, dtype=complex)[0]
    state = psi.reshape(-1, d)
    labels, lumped = hilbert.lump(operators, state)
    firsts = np.unique(labels, return_index=True)[1]  # each block's first amplitude

    def unpack(y):
        return y.take(labels, axis=-1)

    target = np.broadcast_to(target, state.shape)
    observer = _Observer(
        drift=lambda y: np.abs(np.linalg.norm(unpack(y), axis=-1) - 1.0), drift_name="norm",
        tol=NORM_TOL, fidelity=lambda y: fidelity(unpack(y), target), unpack=unpack,
        record=lambda times, y: _leaked_row(np.abs(unpack(y)) ** 2, tracked),
        reported=reported, series=psi.ndim == 1)
    result = _rk4(coefficients, -1j * lumped, state[:, firsts], t_f, cfg, observer)
    return _one_cell(result) if psi.ndim == 1 else result


class Superoperator(NamedTuple):
    """The nonzeros S[rows[e], cols[e]] = values[e] of a superoperator on the row-major vec(rho).

    Each (row, column) appears once, ascending in row then column, as a CSR
    matrix stores them; no value is zero.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.values.size


def _index_type(size: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every index in range(size)."""
    return np.min_scalar_type(max(size - 1, 0))


def _nonzeros(op: np.ndarray, index_type: np.dtype):
    """rows, cols (of index_type) and values of the nonzeros of dense op, row by row."""
    rows, cols = np.nonzero(op)
    return rows.astype(index_type), cols.astype(index_type), op[rows, cols]


def _kron(a, b, dim: int, scale: complex):
    """rows, cols and values of kron(a, b) * scale, a and b given by their nonzeros, b dim x dim.

    Either factor may be a stack of operators' nonzeros; the indices keep
    the factors' type, which must hold the product's.
    """
    (a_rows, a_cols, a_values), (b_rows, b_cols, b_values) = a, b
    values = np.multiply.outer(a_values, b_values).ravel()
    values *= scale
    return (a_rows[:, None] * dim + b_rows).ravel(), (a_cols[:, None] * dim + b_cols).ravel(), values


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, each part rounded from two rounded products, as scipy's compiled sparse product.

    numpy's complex multiply may fuse a multiply and an add in its vector
    loop and not in the loop's remainder, and so may a BLAS product.
    """
    product = np.empty(np.broadcast(a, b).shape, complex)
    product.real = a.real * b.real - a.imag * b.imag
    product.imag = a.real * b.imag + a.imag * b.real
    return product


def _coalesce(parts, channel: np.ndarray, rates, size: int) -> Superoperator:
    """sum_c rates[c] (sum of channel c's terms) of a (size, size) matrix, its nonzeros.

    parts are (rows, cols, values) of terms, taken in order; channel[e] is
    the channel of the e-th term, ascending. The arithmetic is scipy's for
    rate_1 (a + b + ...) + rate_2 (...) + ... of sparse matrices: per (row,
    column), a channel's sum starts from 0 and adds its terms in array
    order, is scaled by its rate, and the channels' sums add up from 0 in
    order; no zero sum is stored. (scipy drops a channel's zero sum before
    scaling; that sum, scaled by a finite rate, is +0.0 or -0.0 and changes
    no bit of a sum that starts from 0.) One stable sort by row, then column,
    keeps that order of the terms of each (row, column), and np.bincount adds
    them in it: a least significant digit sort of two stable argsorts, radix
    sorts on indices of 8 or 16 bits (_index_type).
    """
    empty = (np.empty(0, _index_type(size)),) * 2 + (np.empty(0, complex),)
    rows, cols, values = (np.concatenate(side) for side in zip(empty, *parts))
    order = np.argsort(cols, kind="stable")
    order = order[np.argsort(rows[order], kind="stable")]
    rows, cols, channel = rows[order], cols[order], channel[order]
    entry = np.ones(rows.size, dtype=bool)  # the first term of each (row, column)
    entry[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    term = entry.copy()  # the first term of each channel's sum there
    term[1:] |= channel[1:] != channel[:-1]
    firsts = np.flatnonzero(term)
    labels = np.cumsum(term)
    labels -= 1
    sums = _sums(labels, values.real[order], values.imag[order], firsts.size)
    sums *= np.asarray(rates)[channel[firsts]]
    labels = np.cumsum(entry[firsts])
    labels -= 1
    at = np.flatnonzero(entry)
    totals = _sums(labels, sums.real, sums.imag, at.size)
    keep = np.flatnonzero(totals != 0)
    at = at[keep]
    return Superoperator(rows[at].astype(np.intp), cols[at].astype(np.intp), totals[keep])


def _sums(labels: np.ndarray, real: np.ndarray, imag: np.ndarray, size: int) -> np.ndarray:
    """Per label in range(size), the complex sum from 0 of its values, in array order."""
    sums = np.empty(size, complex)
    sums.real = np.bincount(labels, real, size)
    sums.imag = np.bincount(labels, imag, size)
    return sums


def dissipator_superoperator(channels: list[tuple[np.ndarray, float]], dim: int) -> Superoperator:
    """Superoperator D with D vec(rho) = sum_c rate_c (L rho L+ - {L+L, rho}/2), its nonzeros.

    Every L is a quantum jump: at most one nonzero per row, else ValueError.
    Then L+L is diagonal, and as scipy's sparse product sums it, (L+L)[j, j]
    = sum_k L[k, j] conj(L[k, j]) adds the products (_product) from 0 in
    ascending k; a zero sum is not stored. Row-major vectorization:
    vec(A X B) = (A kron B^T) vec(X), so a channel adds rate (L kron conj L
    - L+L kron I / 2 - I kron (L+L)^T / 2). Each channel's three terms are
    summed, scaled by its rate, and the channels summed in order
    (_coalesce): the arithmetic of the same sum of scipy.sparse matrices,
    for finite rates; a channel of rate 0 adds nothing. The nonzeros of each
    L are read once, I's come from arange, and each kron has one entry per
    pair of nonzeros of its factors, so no array is dense over dim^4.
    """
    channels = [(op, rate) for op, rate in channels if rate != 0.0]
    index_type = _index_type(dim * dim)
    eye = (np.arange(dim, dtype=index_type),) * 2 + (np.ones(dim, dtype=complex),)
    parts = []
    for op, _ in channels:
        jump = rows, cols, values = _nonzeros(op, index_type)
        if np.any(rows[1:] == rows[:-1]):  # np.nonzero's rows ascend
            raise ValueError("a collapse operator has more than one nonzero in a row")
        product = _product(values, values.conj())
        diagonal = _sums(cols, product.real, product.imag, dim)  # in ascending k per column
        at = np.flatnonzero(diagonal).astype(index_type)
        own = at, at, diagonal[at]
        # numpy's complex multiply rounds by its loop, so L kron conj L takes the
        # shape of scipy's kron: one outer product per channel
        parts += [_kron(jump, (rows, cols, values.conj()), dim, 1.0),
                  _kron(own, eye, dim, -0.5), _kron(eye, own, dim, -0.5)]
    lengths = np.array([values.size for _, _, values in parts], dtype=np.intp)
    channel = np.arange(len(channels), dtype=_index_type(len(channels))).repeat(3).repeat(lengths)
    return _coalesce(parts, channel, [rate for _, rate in channels], dim * dim)


@dataclass(frozen=True)
class Liouvillian:
    """Structure superoperators of a master equation on real coordinates of rho.

    entries are the row-major positions i*dim + j of the entries of rho that
    can be nonzero, ascending. They fall into blocks of entries that stay
    equal (hilbert.lump), and transposing the entries of a block gives one
    block. rho is Hermitian, so its values there are fixed by real
    coordinates x: one for a block that is its own transpose, whose value is
    real, and Re then Im of the value for the lower-numbered block of any
    other pair, in the order of blocks. rho's value at entries[e] is
    x[real_of[e]] + i imag_sign[e] x[imag_of[e]] (imag_sign is 1 on the
    lower block of a pair, -1 on its transpose and 0 on a block of its own).
    Without lumping that is Re rho_ii for each diagonal entry, and Re rho_ij
    then Im rho_ij for each entry i < j. operators[k] is the real matrix of
    the k-th superoperator on x, (K, n, n) for K superoperators.
    """

    dim: int
    entries: np.ndarray
    operators: np.ndarray
    real_of: np.ndarray
    imag_of: np.ndarray
    imag_sign: np.ndarray

    @classmethod
    def reachable(cls, hamiltonians, dissipators, rho0: np.ndarray) -> "Liouvillian":
        """-i[H_k, .] for each Hermitian H_k, then each dissipator, on rho0's lumped support.

        dissipators are Superoperators on the row-major vec(rho)
        (dissipator_superoperator), and -i[H, .] is one too,
        -i H kron I + i I kron H^T (_kron, _coalesce). A nonzero <i|S|j> of
        any operator leads from entry j to entry i; the support is every
        entry reachable from the nonzero entries of rho0 along those links
        (hilbert.closure), so it is closed under each operator whatever its
        coefficient.
        Each operator restricted to it is a dense complex matrix, (84, 84)
        from |phi_1><phi_1| on the open-system space or the 80-dim product
        space; nothing is dense over dim^4. Its entries are lumped by
        hilbert.lump from rho0's values under those matrices; only then are
        real coordinates chosen. From |phi_1><phi_1| on the open-system
        space that merges each entry with its L<->R mirror: 44 coordinates
        for 84 entries. ValueError if the support or its blocks are not
        closed under transposition, or an operator does not map Hermitian
        rho to Hermitian rho.
        """
        dim = rho0.shape[-1]
        size = dim * dim
        index_type = _index_type(size)
        eye = (np.arange(dim, dtype=index_type),) * 2 + (np.ones(dim, dtype=complex),)
        full = []
        for h in hamiltonians:
            rows, cols, values = _nonzeros(h, index_type)
            parts = [_kron((rows, cols, values), eye, dim, -1j),
                     _kron(eye, (cols, rows, values), dim, 1j)]  # H^T's nonzeros
            full.append(_coalesce(parts, np.zeros(2 * dim * values.size, np.uint8), [1.0], size))
        full += dissipators
        sources = np.concatenate([op.cols for op in full])  # entry cols[e] feeds rows[e]
        targets = np.concatenate([op.rows for op in full])
        values = np.reshape(rho0, (-1, size))
        entries = hilbert.closure(sources, targets, np.flatnonzero(values.any(axis=0)), size)

        position = np.full(size, -1)
        position[entries] = np.arange(entries.size)
        restricted = np.zeros((len(full), entries.size, entries.size), dtype=complex)
        for k, op in enumerate(full):
            rows, cols = position[op.rows], position[op.cols]
            inside = (rows >= 0) & (cols >= 0)
            restricted[k, rows[inside], cols[inside]] = op.values[inside]
        labels, _ = hilbert.lump(restricted, values[:, entries])

        rows, cols = np.divmod(entries, dim)
        mirror = position[cols * dim + rows]  # entry j, i of entry i, j
        if np.any(mirror < 0):
            raise ValueError("the Liouvillian's support is not closed under transposition")
        partner = np.empty(labels.max() + 1, dtype=int)
        partner[labels] = labels[mirror]  # the block of each block's transpose
        if np.any(partner[labels] != labels[mirror]):
            raise ValueError("the Liouvillian's blocks are not closed under transposition")
        sign = np.sign(partner - np.arange(partner.size))
        width = sign + 1  # own coordinates: none for the upper block of a pair, else 1 or 2
        first = np.cumsum(width) - width
        real_of = np.where(sign >= 0, first, first[partner])[labels]
        sign = sign[labels]
        imag_of = real_of + (sign != 0)

        # basis @ x are rho's values on entries. dual, basis+ over its column
        # norms, maps them back: x = Re(dual @ values), and Im(dual @ values)
        # is zero exactly when the values are those of a Hermitian rho.
        at = np.arange(entries.size)
        basis = np.zeros((entries.size, width.sum()), dtype=complex)
        basis[at, real_of] = 1.0
        basis[at, imag_of] += 1j * sign
        dual = basis.conj().T / (np.abs(basis) ** 2).sum(axis=0)[:, None]
        real = dual @ restricted @ basis
        if np.max(abs(real.imag), initial=0.0) > 1e-12 * np.max(abs(real), initial=1.0):
            raise ValueError("a structure operator does not preserve Hermiticity")
        return cls(dim, entries, real.real.copy(), real_of, imag_of, sign)

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """The real coordinates (..., n) of Hermitian rho (..., dim, dim), equal within blocks."""
        values = np.reshape(rho, np.shape(rho)[:-2] + (self.dim * self.dim,))[..., self.entries]
        x = np.empty(values.shape[:-1] + (self.imag_of.max() + 1,))
        x[..., self.real_of] = values.real
        x[..., self.imag_of[self.imag_sign > 0]] = values[..., self.imag_sign > 0].imag
        return x

    def _reader(self, positions: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """read(x): the floats of rho at positions (...) from its real coordinates x (..., n).

        rho is viewed as floats, Re then Im of each entry: position
        2 (i dim + j) + 1 is Im rho_ij. read(x) is (..., positions.size), one
        take, one multiply by 1.0 or imag_sign and one add of 0.0, so an
        imaginary part -0.0 reads 0.0. Every reading of rho, density
        included, goes through here. A position off the support reads
        x[0] * 0.0 + 0.0: 0.0 for finite x, NaN for a failed cell's.
        """
        taken = np.zeros((self.dim * self.dim, 2), dtype=int)
        signs = np.zeros((self.dim * self.dim, 2))
        taken[self.entries] = np.column_stack([self.real_of, self.imag_of])
        signs[self.entries] = np.column_stack([np.ones(self.entries.size), self.imag_sign])
        at = np.ravel(positions)
        taken, signs = taken.reshape(-1)[at], signs.reshape(-1)[at]

        def read(x):
            values = x.take(taken, axis=-1)
            values *= signs
            values += 0.0
            return values

        return read

    def _block_reader(self, states: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """read(x): rho's blocks rho[states, states] (..., *states.shape, s) from x (..., n).

        states (..., s) lists the s states of each block, whose entries are
        read as in _reader.
        """
        states = np.asarray(states)
        entries = states[..., :, None] * self.dim + states[..., None, :]
        read = self._reader(2 * entries[..., None] + np.arange(2))
        return lambda x: read(x).view(complex).reshape(x.shape[:-1] + entries.shape)

    @functools.cached_property
    def _positivity_readers(self):
        """One _block_reader per block size, largest first, for rho's diagonal blocks.

        rho is block-diagonal: states i and j share a block when the support
        links them through entries (i, k), (k, l), ... (hilbert.closure). A
        state off the support is a block of one, reading 0.0. From
        |phi_1><phi_1| on the open-system space the blocks hold 8, 3, 3, 1 and
        1 states.
        """
        rows, cols = np.divmod(self.entries, self.dim)  # entry (i, j) links i to j
        first = np.full(self.dim, -1)  # each state's block, by its first state
        for state in range(self.dim):
            if first[state] < 0:
                first[hilbert.closure(rows, cols, [state], self.dim)] = state
        labels = np.flatnonzero(first == np.arange(self.dim))  # np.unique imports numpy.ma
        blocks = [np.flatnonzero(first == label) for label in labels]
        sizes = sorted({block.size for block in blocks}, reverse=True)
        return [self._block_reader([block for block in blocks if block.size == size])
                for size in sizes]

    def least_eigenvalue(self, x: np.ndarray) -> np.ndarray:
        """Least eigenvalue (...) of each rho from its real coordinates x (..., n).

        The least over rho's diagonal blocks (_positivity_readers), with one
        stacked eigvalsh per block size larger than one; a block of one state
        is its own eigenvalue. x must be finite.
        """
        least = []
        for read in self._positivity_readers:
            blocks = read(x)  # (..., blocks, size, size)
            least.append(blocks.real[..., 0, 0] if blocks.shape[-1] == 1
                         else np.linalg.eigvalsh(blocks)[..., 0])
        return np.concatenate(least, axis=-1).min(axis=-1)

    @functools.cached_property
    def density(self) -> Callable[[np.ndarray], np.ndarray]:
        """density(x): rho (..., dim, dim) from its real coordinates x (..., n).

        The _block_reader of all dim states, built once per Liouvillian: a
        build costs several calls on the open-system support.
        """
        return self._block_reader(np.arange(self.dim))


def evolve_lindblad(
    liouvillian: Liouvillian,
    coefficients: Callable[[np.ndarray], np.ndarray],
    rho0: np.ndarray,
    t_f: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    tracked: np.ndarray | None = None,
    target: np.ndarray | None = None,
    reported: Mapping[int, Exception] = MappingProxyType({}),
) -> SimResult:
    """Integrate d/dt rho = sum_k c[t, b, k] operators[k] rho with RK4, one run or a batch.

    rho0 (B, d, d) is a batch of B cells and rho0 (d, d) a batch of one;
    either runs as a (B, n) real state, the coordinates of rho on
    liouvillian.entries, to which rho0 must be confined
    (Liouvillian.reachable). coefficients(times) gives c as (times, cells, K),
    real (ValueError for a nonzero imaginary part); rho stays Hermitian by
    construction. A cell whose trace drifts beyond TRACE_TOL, or whose
    coefficients stop being finite, continues as NaN with its first failure
    in metadata["failures"], reported[cell] or an IntegratorInstabilityError
    as in evolve_schrodinger; one run raises it when the run ends. Negative
    eigenvalues beyond POSITIVITY_TOL where populations are recorded (at t_f
    in a batch) are warnings in the metadata ("cell b: " first in a batch,
    in the order of cell), not fixed up; metadata["min_eigenvalue"] is the
    least eigenvalue seen, at most 0. The check runs per slice of the
    record pass (_Observer.finish) on the finite cells' coordinates
    (Liouvillian.least_eigenvalue: eigvalsh of rho's diagonal blocks): a
    failed cell is NaN and has no eigenvalues. Each recorded point reads
    from the coordinates only what it needs: its fidelity rho's block on the
    target's nonzero states, the populations the diagonal coordinates, and
    the drift their sum per cell, with the bits the full rho would give.
    final_state, populations and fidelity carry a cell axis for a batch only.
    """
    dim, entries = liouvillian.dim, liouvillian.entries
    rho = np.array(rho0, dtype=complex)
    cells = rho.reshape(-1, dim, dim)
    if (not np.isfinite(cells).all()  # first: inf - inf would warn below
            or not all(hilbert.max_nonhermiticity(c) <= 1e-9 for c in cells)
            or not np.all(np.abs(np.trace(cells, axis1=1, axis2=2).real - 1.0) <= 1e-6)):
        raise ValueError("rho0 must be Hermitian with unit trace")
    x0 = liouvillian.coordinates(cells)
    if not np.array_equal(liouvillian.density(x0), cells):  # == as in hilbert.lump
        raise ValueError("rho0 must lie on the Liouvillian's support, equal within its blocks")
    diagonal = liouvillian.real_of[entries // dim == entries % dim]
    populations = liouvillian._reader(2 * (dim + 1) * np.arange(dim))  # Re rho_ii

    warnings: list[tuple[int, str]] = []  # (cell, text)
    min_eigenvalue = 0.0

    def record(times, x):  # x (points, cells, n)
        nonlocal min_eigenvalue
        finite = np.isfinite(x).all(axis=-1)
        lam_min = liouvillian.least_eigenvalue(x if finite.all() else x[finite]).ravel()
        min_eigenvalue = min(min_eigenvalue, float(np.min(lam_min, initial=0.0)))
        negative = lam_min < -POSITIVITY_TOL
        if negative.any():
            point_of, cell_of = np.nonzero(finite)
            for i, b, lam in zip(point_of[negative], cell_of[negative], lam_min[negative]):
                warnings.append(
                    (b, f"eigenvalue {lam:.2e} < -{POSITIVITY_TOL:.0e} at t={times[i]:.4g}"))
        return _leaked_row(populations(x), tracked)

    target = np.eye(dim, dtype=complex)[0] if target is None else np.asarray(target)
    if target.shape != (dim,):
        raise ValueError(f"dimension mismatch: rho ({dim}, {dim}) vs target {target.shape}")
    seen = np.flatnonzero(target)  # fidelity reads rho on these states only
    corner, seen_target = liouvillian._block_reader(seen), target[seen]
    observer = _Observer(
        # each row summed in C order, as a cell alone would be (_leaked_row)
        drift=lambda x: np.abs(x.take(diagonal, axis=-1).sum(axis=-1) - 1.0),
        drift_name="trace", tol=TRACE_TOL, fidelity=lambda x: fidelity(corner(x), seen_target),
        unpack=liouvillian.density, record=record, reported=reported, series=rho.ndim == 2)
    result = _rk4(coefficients, liouvillian.operators, x0, t_f, cfg, observer)
    result.metadata.update(
        min_eigenvalue=min_eigenvalue, support=int(entries.size), coordinates=x0.shape[1],
        cells=len(cells),
        positivity_warnings=[f"cell {b}: {text}" if rho.ndim == 3 else text
                             for b, text in warnings])
    return _one_cell(result) if rho.ndim == 2 else result
