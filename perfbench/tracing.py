"""Spans around the public functions of each tqd3d module, recorded from outside.

`instrument(tracer)` swaps each wrapped module attribute for a timing wrapper
and puts the original back on exit, so untraced iterations run the unmodified
program. Spans live in flat `array('q')` columns (a sweep iteration records
close to a million) and are written once, when the run ends.

A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# evolve_* spans carry these SimResult.metadata keys into the per-layer numbers.
_DRIFT_KEYS = ("max_norm_drift", "max_trace_drift")


class Tracer:
    """In-memory span store: name, start, end (ns), parent index, iteration id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id, self.start, self.end, self.parent, self.iteration = (
            array("q") for _ in range(5)
        )
        self.info: dict[int, dict] = {}
        self._stack = [-1]
        self.iteration_id = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn recording one span per call; after(args, result) gives the span's info."""
        nid = self.intern(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.iteration.append(self.iteration_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                self.info[idx] = after(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "iteration": np.frombuffer(self.iteration, dtype=np.int64),
        }

    def write(self, path: Path):
        """Write every span plus the name table as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _evolve_info(args, result) -> dict:
    meta = result.metadata
    state = result.final_state
    return {
        "dim": int(state.shape[0]),
        "steps": int(meta["n_steps"]),
        "density": state.ndim == 2,
        "drift": max(float(meta.get(k, 0.0)) for k in _DRIFT_KEYS),
        "min_eigenvalue": float(meta.get("min_eigenvalue", 0.0)),
    }


def _write_info(args, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the public entry points of cli, experiments, model, pulses, hilbert, dynamics."""
    from tqd3d import cli, dynamics, experiments, hilbert, model, pulses

    patches = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "cli.load_config", None),
        (experiments, "simulate_closed", "experiments.simulate_closed", None),
        (experiments, "simulate_open", "experiments.simulate_open", None),
        (experiments, "run_fidelity_surface", "experiments.run_fidelity_surface", None),
        (model, "hamiltonian_terms", "model.hamiltonian_terms", None),
        (model, "collapse_channels", "model.collapse_channels", None),
        (pulses.PulseSet, "amplitudes", "pulses.amplitudes", None),
        (hilbert, "build_full_space", "hilbert.build_full_space", None),
        (hilbert, "build_subspace", "hilbert.build_subspace", None),
        (dynamics, "evolve_schrodinger", "dynamics.evolve_schrodinger", _evolve_info),
        (dynamics, "evolve_lindblad", "dynamics.evolve_lindblad", _evolve_info),
        (dynamics, "dissipator_superoperator", "dynamics.dissipator_superoperator",
         lambda args, result: {"nnz": int(result.nnz)}),
    ]
    patches += [
        (experiments, name, f"experiments.{name}", _write_info)
        for name in ("write_csv", "write_sim_result", "write_sweep_grid",
                     "write_plot_script", "write_manifest")
    ]

    make_h_of_t = model.make_h_of_t

    def traced_make_h_of_t(terms, params, pulse_set):
        name = f"model.h_of_t:d{terms.space.dim}_{pulse_set.kind.value}"
        return tracer.wrap(name, make_h_of_t(terms, params, pulse_set))

    eigvalsh = np.linalg.eigvalsh
    traced_eigvalsh = tracer.wrap("dynamics.positivity", eigvalsh)

    def eigvalsh_from_dynamics(a, *args, **kwargs):
        # Only the positivity check inside tqd3d.dynamics is a layer boundary.
        if sys._getframe(1).f_globals.get("__name__") == dynamics.__name__:
            return traced_eigvalsh(a, *args, **kwargs)
        return eigvalsh(a, *args, **kwargs)

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    originals += [(model, "make_h_of_t", make_h_of_t), (np.linalg, "eigvalsh", eigvalsh)]
    try:
        for owner, attr, name, after in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
        model.make_h_of_t = traced_make_h_of_t
        np.linalg.eigvalsh = eigvalsh_from_dynamics
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer numbers from the spans of one iteration

# Computed RK4 kernel counts (4 right-hand sides per step). They count
# arithmetic and array sizes only and ignore cache misses.
_COMPLEX_MAC_FLOPS = 8  # one complex multiply-add
_COMPLEX_BYTES = 16

# (state dim, pulse kind) pairs the workloads evaluate H(t) for: the
# baseline's 8-dim exact-pulse and 80-dim fitted-pulse per-call H(t) costs.
H_OF_T_VARIANTS = ("d8_tqd", "d80_tqd-fitted")


def rhs_counts(dim: int, density: bool, nnz: int) -> dict[str, int]:
    """Computed flops and bytes touched per RK4 step for one state of this size.

    Schrodinger: H @ psi, 8 d^2 flops per right-hand side.
    Lindblad: H @ rho - rho @ H (2 * 8 d^3 + 2 d^2) plus the CSR dissipator
    matvec (8 nnz) and its add (2 d^2).
    Bytes per right-hand side: H, the state in and the derivative out, plus
    the CSR dissipator (16-byte values, 4-byte column indices and row pointers).
    """
    d = dim
    if density:
        per_rhs = 2 * _COMPLEX_MAC_FLOPS * d**3 + 2 * d * d + _COMPLEX_MAC_FLOPS * nnz + 2 * d * d
        state_bytes = _COMPLEX_BYTES * d * d
        dissipator_bytes = (_COMPLEX_BYTES + 4) * nnz + 4 * (d * d + 1) if nnz else 0
    else:
        per_rhs = _COMPLEX_MAC_FLOPS * d * d
        state_bytes = _COMPLEX_BYTES * d
        dissipator_bytes = 0
    h_bytes = _COMPLEX_BYTES * d * d
    return {
        "rhs_flops": 4 * per_rhs,
        "state_bytes": state_bytes,
        "rhs_bytes": 4 * (h_bytes + 2 * state_bytes + dissipator_bytes),
    }


def layer_metrics(tracer: Tracer, iteration: int) -> dict[str, float]:
    """Per-layer numbers for one traced iteration (seconds, microseconds, counts)."""
    cols = tracer.arrays()
    sel = np.flatnonzero(cols["iteration"] == iteration)
    names = np.array(tracer.names)[cols["name_id"][sel]]
    dur = (cols["end_ns"][sel] - cols["start_ns"][sel]) / 1e9
    parent = cols["parent"][sel]
    # Spans of one iteration are contiguous, so parent indices map by offset.
    local_parent = np.where(parent >= 0, parent - (sel[0] if sel.size else 0), -1)
    has_parent = local_parent >= 0
    child_s = np.bincount(local_parent[has_parent], weights=dur[has_parent],
                          minlength=sel.size)
    self_s = dur - child_s
    parent_name = np.where(has_parent, names[np.maximum(local_parent, 0)], "")

    def mask(prefix, of=names):
        return np.char.startswith(of, prefix)

    def total(m):
        return float(dur[m].sum())

    def per_call_us(m, values=None):
        n = int(m.sum())
        return float((dur if values is None else values)[m].sum() / n * 1e6) if n else 0.0

    amp = names == "pulses.amplitudes"
    h = mask("model.h_of_t")
    evolve = mask("dynamics.evolve_")
    pos = names == "dynamics.positivity"
    diss = names == "dynamics.dissipator_superoperator"
    cells = mask("experiments.simulate_")
    writes = mask("experiments.write_") & ~mask("experiments.write_", parent_name)
    hilb = mask("hilbert.build_")

    infos = [tracer.info.get(int(i), {}) for i in sel[evolve]]
    steps = sum(i["steps"] for i in infos)
    nnz = max([tracer.info.get(int(i), {}).get("nnz", 0) for i in sel[diss]], default=0)
    widest = max(infos, key=lambda i: i["dim"], default=None)
    counts = rhs_counts(widest["dim"], widest["density"], nnz) if widest else {
        "rhs_flops": 0, "state_bytes": 0, "rhs_bytes": 0}
    evolve_self = float(self_s[evolve].sum())
    cell_s = dur[cells]
    evolve_in_cell = evolve & mask("experiments.simulate_", parent_name)

    out = {
        "pulses.amplitudes_calls": int(amp.sum()),
        "pulses.amplitudes_s": total(amp),
        "pulses.amplitudes_us": per_call_us(amp),
        "model.h_of_t_calls": int(h.sum()),
        "model.h_of_t_us": per_call_us(h),
        "model.h_of_t_self_us": per_call_us(h, self_s),
        "model.terms_calls": int((names == "model.hamiltonian_terms").sum()),
        "model.terms_s": total(names == "model.hamiltonian_terms"),
        "model.channels_s": total(names == "model.collapse_channels"),
        "hilbert.build_calls": int(hilb.sum()),
        "hilbert.build_s": total(hilb),
        "hilbert.state_dim": widest["dim"] if widest else 0,
        "dynamics.evolve_s": total(evolve),
        "dynamics.self_s": evolve_self,
        "dynamics.steps": steps,
        "dynamics.step_self_us": evolve_self / steps * 1e6 if steps else 0.0,
        "dynamics.rhs_evals": 4 * steps,
        "dynamics.rhs_flops": counts["rhs_flops"],
        "dynamics.rhs_bytes": counts["rhs_bytes"],
        "dynamics.state_bytes": counts["state_bytes"],
        "dynamics.dissipator_nnz": nnz,
        "dynamics.dissipator_build_s": total(diss),
        "dynamics.positivity_calls": int(pos.sum()),
        "dynamics.positivity_s": total(pos),
        "dynamics.positivity_us": per_call_us(pos),
        "dynamics.max_drift": max([i["drift"] for i in infos], default=0.0),
        "dynamics.min_eigenvalue": min([i["min_eigenvalue"] for i in infos], default=0.0),
        "experiments.cells": int(cells.sum()),
        "experiments.cell_s_median": float(statistics.median(cell_s)) if cell_s.size else 0.0,
        "experiments.cell_s_max": float(cell_s.max()) if cell_s.size else 0.0,
        "experiments.cell_overhead_s": total(cells) - total(evolve_in_cell),
        "experiments.write_s": total(writes),
        "experiments.write_bytes": sum(
            tracer.info.get(int(i), {}).get("bytes", 0) for i in sel[writes]),
        "cli.main_s": total(names == "cli.main"),
        "cli.load_config_s": total(names == "cli.load_config"),
        "trace.spans": int(sel.size),
    }
    for variant in H_OF_T_VARIANTS:
        out[f"model.h_of_t_us.{variant}"] = per_call_us(names == f"model.h_of_t:{variant}")
    return out
