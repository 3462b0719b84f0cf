"""Command-line front end.

Subcommands: pulses (export sampled control waveforms), simulate (one
evolution, closed or open), sweep (figure-style scans), verify (acceptance
criteria).  All quantities are dimensionless in units of the cavity coupling
g.  Configuration comes from an optional flat key=value file, overridable by
TQD3D_<KEY> environment variables.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numerical instability (also: failed sweep cells), 4 resource cap exceeded,
5 i/o error, 70 anything else (a bug, or a sweep worker process that died).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, experiments, pulses
from .dynamics import IntegratorConfig, IntegratorInstabilityError, StepCapError, step_count
from .experiments import CellSettingsError, GridCapError
from .model import ModelParams
from .pulses import FittedPulse, GaussianTerm, PulseKind, PulseSynthesisError, StirapParams

_FIT = pulses.default_fitted_pulse().terms

ENV_PREFIX = "TQD3D_"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_CAP = 4
EXIT_IO = 5
EXIT_SOFTWARE = 70  # EX_SOFTWARE of BSD sysexits.h


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Scalar settings; g is fixed to 1 as the unit."""

    delta: float = ModelParams.delta
    t_f: float = ModelParams.t_f
    omega0: float = StirapParams.omega0
    tau_frac: float = pulses.TAU_FRAC
    width_frac: float = pulses.WIDTH_FRAC
    kappa: float = ModelParams.kappa
    gamma: float = ModelParams.gamma
    dt: float = IntegratorConfig.dt
    record_every: int = IntegratorConfig.record_every
    sweep_dt: float = experiments.SWEEP_DT
    threads: int = 1
    fit_amp1: float = _FIT[0].amplitude
    fit_center1: float = _FIT[0].center
    fit_width1: float = _FIT[0].width
    fit_amp2: float = _FIT[1].amplitude
    fit_center2: float = _FIT[1].center
    fit_width2: float = _FIT[1].width
    # sweep ranges as "min:max:count"
    surface_tf: str = "10:100:46"
    surface_delta: str = "0.5:10:39"
    robustness_dev: str = "-0.1:0.1:21"
    decoherence_kappa: str = "0:0.05:26"
    decoherence_gamma: str = "0:0.05:26"

    def stirap_params(self) -> StirapParams:
        return StirapParams.for_duration(self.t_f, self.omega0, self.tau_frac,
                                         self.width_frac)

    def fitted_pulse(self) -> FittedPulse:
        return FittedPulse((
            GaussianTerm(self.fit_amp1, self.fit_center1, self.fit_width1),
            GaussianTerm(self.fit_amp2, self.fit_center2, self.fit_width2),
        ))

    def model_params(self) -> ModelParams:
        return ModelParams(delta=self.delta, t_f=self.t_f, kappa=self.kappa, gamma=self.gamma)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt, record_every=self.record_every)

    def sweep_integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.sweep_dt, record_every=self.record_every)

    def pulse_set(self, kind: PulseKind):
        fitted = self.fitted_pulse() if kind is PulseKind.TQD_FITTED else None
        try:  # e.g. a TQD kind at zero detuning
            return pulses.PulseSet(kind=kind, stirap=self.stirap_params(),
                                   delta=self.delta, fitted=fitted)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def load_config(path: str | None) -> tuple[RunConfig, str]:
    """Parse the key=value file plus environment overrides.

    Returns the config and the canonical text that went into it (for hashing).
    """
    cfg = RunConfig()
    source_lines = []
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = (s.strip() for s in line.partition("="))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            setattr(cfg, key, _coerce(key, value))
            source_lines.append(f"{key} = {value}")
    for key in _FIELD_TYPES:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            setattr(cfg, key, _coerce(key, env))
            source_lines.append(f"{key} = {env}  # env")
    check_threads(cfg.threads, "threads")
    try:  # physical and step settings are checked before any work starts
        cfg.model_params()
        cfg.stirap_params()
        cfg.fitted_pulse()
        for name, integrator in (("dt", cfg.integrator()), ("sweep_dt", cfg.sweep_integrator())):
            try:
                step_count(cfg.t_f, integrator.dt)
            except ValueError as exc:  # a StepCapError stays one
                raise type(exc)(f"{name}: {exc}") from exc
    except StepCapError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, "\n".join(source_lines)


def check_threads(threads: int, source: str):
    """Worker count must lie in 1..cpu_count; checked before any work starts."""
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ConfigError(f"{source} = {threads} outside 1..{cpus} (cpu count)")


def parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}, expected min:max:count") from exc
    if n < 1:
        raise ConfigError(f"range {text!r} must have a count of at least 1")
    if n > experiments.GRID_CAP:  # before the values are allocated
        raise GridCapError(f"range {text!r} exceeds {experiments.GRID_CAP} cells")
    values = np.linspace(lo, hi, n)
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ConfigError(f"range {text!r} must be strictly increasing")
    return values


def _provenance(cfg: RunConfig, **extra) -> dict:
    info = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    info.update(extra)
    return info


def _write_manifest(out: Path, cfg_text: str, cfg: RunConfig, outputs: list[str]):
    digest = hashlib.sha256(cfg_text.encode()).hexdigest()
    entries = {"config_sha256": digest, "outputs": ";".join(outputs),
               "tqd3d_version": __version__, "numpy_version": np.__version__,
               "scipy_version": scipy.__version__,
               "python_version": platform.python_version()}
    entries.update({f.name: getattr(cfg, f.name) for f in fields(RunConfig)})
    experiments.write_manifest(out / "manifest.txt", entries)


def cmd_pulses(cfg: RunConfig, cfg_text: str, out: Path) -> int:
    p = cfg.stirap_params()
    times = pulses.sample_grid(cfg.t_f)
    # first, so a PulseSynthesisError leaves no output behind
    omega_ap, omega_bp = pulses.tqd_amplitudes(p, cfg.delta, times)

    omega_a, omega_b = pulses.stirap_amplitudes(p, times)
    theta = pulses.mixing_angle(p, times)
    theta_dot = pulses.mixing_angle_rate(p, times)
    experiments.write_csv(
        out / "stirap_pulses.csv",
        ["t*g", "Omega_A/g", "Omega_B/g", "theta", "theta_dot"],
        zip(times, omega_a, omega_b, theta, theta_dot),
        _provenance(cfg, pulse_kind="stirap"),
    )
    experiments.write_csv(
        out / "tqd_pulses.csv",
        ["t*g", "abs_Omega_A_prime/g", "Omega_B_prime/g", "Omega_B_fitted/g"],
        zip(times, np.abs(omega_ap), omega_bp, cfg.fitted_pulse()(times)),
        _provenance(cfg, pulse_kind="tqd"),
    )
    experiments.write_plot_script(
        out / "stirap_pulses.gp", "stirap_pulses.csv", "Adiabatic pulse pair",
        columns=(1, 2, 3), labels=("Omega_A", "Omega_B"),
    )
    experiments.write_plot_script(
        out / "tqd_pulses.gp", "tqd_pulses.csv", "Counterdiabatic pulses",
        columns=(1, 2, 3, 4), labels=("|Omega_A'|", "Omega_B'", "Omega_B''"),
    )
    _write_manifest(out, cfg_text, cfg,
                    ["stirap_pulses.csv", "tqd_pulses.csv"])
    return EXIT_OK


_METHODS = {
    "stirap": PulseKind.STIRAP,
    "tqd": PulseKind.TQD_EXACT,
    "tqd-fitted": PulseKind.TQD_FITTED,
}


def cmd_simulate(cfg: RunConfig, cfg_text: str, out: Path, method: str,
                 open_system: bool) -> int:
    kind = _METHODS[method]
    run = experiments.simulate_open if open_system else experiments.simulate_closed
    result = run(cfg.model_params(), cfg.pulse_set(kind), cfg.integrator())
    name = f"simulate_{method}_{'open' if open_system else 'closed'}"
    experiments.write_sim_result(
        out / f"{name}.csv", result,
        _provenance(cfg, method=method, open_system=open_system),
    )
    experiments.write_plot_script(
        out / f"{name}.gp", f"{name}.csv", f"Populations and fidelity ({method})",
        columns=tuple(range(1, 12)),
        labels=tuple(f"P_phi{i}" for i in range(1, 9)) + ("P_leaked", "F"),
    )
    _write_manifest(out, cfg_text, cfg, [f"{name}.csv"])
    warnings = result.metadata.get("positivity_warnings")
    if warnings:
        print(f"{len(warnings)} positivity warnings, min eigenvalue "
              f"{result.metadata['min_eigenvalue']:.3g}; first: {warnings[0]}", file=sys.stderr)
    print(f"final_fidelity={result.final_fidelity:.6f}")
    return EXIT_OK


_SURFACES = {  # figure: (output name, plot mode, swept t_f, swept delta)
    "4a": ("fidelity_surface", "map", True, True),
    "4b": ("fidelity_vs_delta", "lines", False, True),
    "4c": ("fidelity_vs_tf", "lines", True, False),
}


def cmd_sweep(cfg: RunConfig, cfg_text: str, out: Path, figure: str,
              threads: int) -> int:
    if figure in _SURFACES:
        name, mode, sweep_tf, sweep_delta = _SURFACES[figure]
        grid = experiments.run_fidelity_surface(
            parse_range(cfg.surface_tf) if sweep_tf else cfg.t_f,
            parse_range(cfg.surface_delta) if sweep_delta else cfg.delta,
            omega0=cfg.omega0, tau_frac=cfg.tau_frac, width_frac=cfg.width_frac,
            cfg=cfg.sweep_integrator(), threads=threads,
        )
        plot = {"title": f"Final fidelity ({name})", "mode": mode}
    elif figure == "8":
        grid = experiments.run_robustness_scan(
            parse_range(cfg.robustness_dev), params=cfg.model_params(),
            cfg=cfg.sweep_integrator(),
            pulse_set=cfg.pulse_set(PulseKind.TQD_FITTED), threads=threads,
        )
        name = "robustness"
        plot = {"title": "Robustness to parameter deviations", "columns": (1, 2, 3, 4, 5),
                "labels": experiments.ROBUSTNESS_PARAMETERS}
    elif figure == "9":
        grid = experiments.run_decoherence_surface(
            parse_range(cfg.decoherence_kappa), parse_range(cfg.decoherence_gamma),
            params=cfg.model_params(), cfg=cfg.sweep_integrator(), threads=threads,
            pulse_set=cfg.pulse_set(PulseKind.TQD_FITTED),
        )
        name = "decoherence_surface"
        plot = {"title": f"Final fidelity ({name})", "mode": "map"}
    else:
        raise ConfigError(f"unknown figure {figure!r}")
    experiments.write_sweep_grid(out / f"{name}.csv", grid)
    experiments.write_plot_script(out / f"{name}.gp", f"{name}.csv", **plot)
    _write_manifest(out, cfg_text, cfg, [f"{name}.csv"])
    if grid.annotations:
        failed = sorted(grid.annotations.items())
        print(f"{len(failed)} of {grid.values.size} cells failed", file=sys.stderr)
        for idx, note in failed[:3]:
            print(f"  cell {','.join(map(str, idx))}: {note}", file=sys.stderr)
        return EXIT_INSTABILITY
    return EXIT_OK


def cmd_verify(out: Path) -> int:
    from . import verify

    results = verify.run_all()
    for r in results:
        print(r.line())
    (out / "verify_report.json").write_text(verify.report_json(results) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqd3d",
        description="Counterdiabatic two-atom qutrit entanglement simulations",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pulses", help="export sampled control waveforms")

    sim = sub.add_parser("simulate", help="run one evolution")
    sim.add_argument("--method", choices=sorted(_METHODS), default="tqd-fitted")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--open", dest="open_system", action="store_true")
    group.add_argument("--closed", dest="open_system", action="store_false")
    sim.set_defaults(open_system=False)

    swp = sub.add_parser("sweep", help="run a figure-style scan")
    swp.add_argument("--figure", choices=["4a", "4b", "4c", "8", "9"], required=True)
    swp.add_argument("--threads", type=int, default=None)

    sub.add_parser("verify", help="run the acceptance criteria")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, cfg_text = load_config(args.config)
        if getattr(args, "threads", None) is not None:
            check_threads(args.threads, "--threads")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "pulses":
            return cmd_pulses(cfg, cfg_text, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, cfg_text, out, args.method, args.open_system)
        if args.command == "sweep":
            threads = args.threads if args.threads is not None else cfg.threads
            return cmd_sweep(cfg, cfg_text, out, args.figure, threads)
        if args.command == "verify":
            return cmd_verify(out)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, CellSettingsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PulseSynthesisError as exc:
        print(f"config error: no counterdiabatic pulse for these settings: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except IntegratorInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (GridCapError, StepCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # outside the taxonomy above: a bug, or a worker that died
        cause = f"{type(exc).__name__}: {exc}"
        # loaded once a process pool has run, so not imported here
        pools = sys.modules.get("concurrent.futures.process")
        if pools is not None and isinstance(exc, pools.BrokenProcessPool):
            cause = f"a worker process died ({cause})"
        print(f"internal error: {cause}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
