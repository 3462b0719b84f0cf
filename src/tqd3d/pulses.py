"""Time-dependent control amplitudes.

Covers the adiabatic (STIRAP) Gaussian pair, the mixing angle theta(t) and its
analytic rate, the counterdiabatic amplitudes of the detuned system (one rule,
counterdiabatic_amplitudes, for every caller), and a two-Gaussian least-squares
fit that replaces them with an experimentally simple waveform.

All rates are in units of the cavity coupling g and times in units of 1/g.
Functions are vectorized over t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

SQRT2 = np.sqrt(2.0)

# Default Gaussian delay and width of the adiabatic pair, as fractions of t_f.
TAU_FRAC = 0.12
WIDTH_FRAC = 0.16

# Largest delta*theta_dot that counterdiabatic_amplitudes treats as zero, not a sign clash.
SIGN_TOL = 1e-12

# Levenberg-Marquardt limits of fit_two_gaussians: evaluations per fitted
# parameter and the gradient tolerance.
FIT_MAX_ITER = 500
FIT_GRADIENT_TOL = 1e-10


class PulseSynthesisError(ValueError):
    """No counterdiabatic pulse: delta*theta_dot > 0 (a sign clash, no real amplitude),
    or theta or theta_dot 0/0 where the pulse pair vanishes; the CLI exits 2."""


class FitError(RuntimeError):
    """Raised when the two-Gaussian fit does not converge."""

    def __init__(self, message, best_rms=None):
        super().__init__(message)
        self.best_rms = best_rms


@dataclass(frozen=True)
class StirapParams:
    """Gaussian pulse pair parameters: amplitude, center offset, width, duration."""

    omega0: float = 0.35
    t_f: float = 50.0
    tau: float | None = None
    width: float | None = None

    def __post_init__(self):
        if self.tau is None:
            object.__setattr__(self, "tau", TAU_FRAC * self.t_f)
        if self.width is None:
            object.__setattr__(self, "width", WIDTH_FRAC * self.t_f)
        # the amplitudes divide by width**2 and theta_dot by Omega_A**2 + 2 Omega_B**2,
        # at most about 5 omega0**2; neither may underflow nor overflow
        if not (0 < self.omega0 and 0 < 5 * self.omega0 * self.omega0 < math.inf
                and 0 < self.width * self.width < math.inf):
            raise ValueError("omega0 must be positive, and 5 omega0**2 and width**2 "
                             "positive and finite")
        if not (self.t_f < math.inf and 0 < self.tau < self.t_f / 2):
            raise ValueError("tau must lie in (0, t_f/2) for a finite t_f")

    @classmethod
    def for_duration(cls, t_f: float, omega0: float, tau_frac: float,
                     width_frac: float) -> "StirapParams":
        """Pulse pair whose delay and width are the given fractions of t_f."""
        return cls(omega0=omega0, t_f=t_f, tau=tau_frac * t_f, width=width_frac * t_f)


def stirap_amplitudes(p: StirapParams, t):
    """(Omega_A, Omega_B) at time t.

    Omega_A is a single Gaussian centered at t_f/2 + tau with weight 2/sqrt(5);
    Omega_B adds a 1/sqrt(5) copy of the same Gaussian to a full-amplitude one
    centered at t_f/2 - tau, so the pulses overlap in the counterintuitive order.
    """
    return _stirap_pair(p, t)[3:]


def _stirap_pair(p: StirapParams, t):
    """t as a float array, the late and early Gaussians, Omega_A and Omega_B."""
    t = np.asarray(t, dtype=float)
    late = np.exp(-((t - p.t_f / 2 - p.tau) ** 2) / p.width**2)
    early = np.exp(-((t - p.t_f / 2 + p.tau) ** 2) / p.width**2)
    omega_a = (2 / np.sqrt(5)) * p.omega0 * late
    omega_b = (1 / np.sqrt(5)) * p.omega0 * late + p.omega0 * early
    return t, late, early, omega_a, omega_b


def rabi_norm(p: StirapParams, t):
    """Omega(t) = sqrt(Omega_A^2 + 2 Omega_B^2)."""
    omega_a, omega_b = stirap_amplitudes(p, t)
    return np.sqrt(omega_a**2 + 2 * omega_b**2)


def mixing_angle(p: StirapParams, t):
    """theta(t) = arctan(-Omega_A / (sqrt(2) Omega_B)), in (-pi/2, pi/2).

    Omega_B > 0, so arctan is continuous, wherever the pair does not underflow;
    PulseSynthesisError names the first t (in array order) where it does: 0/0.
    """
    t, _, _, omega_a, omega_b = _stirap_pair(p, t)
    if np.any(omega_b == 0):
        first = np.ravel(t)[np.argmax(np.ravel(omega_b) == 0)]
        raise PulseSynthesisError(f"theta is 0/0 at t={first:.6g}: the pulse pair vanishes there")
    return np.arctan(-omega_a / (SQRT2 * omega_b))


def mixing_angle_rate(p: StirapParams, t):
    """Analytic theta_dot(t) = sqrt(2)(Omega_A dOmega_B - dOmega_A Omega_B)/Omega^2."""
    t, late, early, omega_a, omega_b = _stirap_pair(p, t)
    dlate = -2 * (t - p.t_f / 2 - p.tau) / p.width**2 * late
    dearly = -2 * (t - p.t_f / 2 + p.tau) / p.width**2 * early
    domega_a = (2 / np.sqrt(5)) * p.omega0 * dlate
    domega_b = (1 / np.sqrt(5)) * p.omega0 * dlate + p.omega0 * dearly
    norm_sq = omega_a**2 + 2 * omega_b**2
    with np.errstate(invalid="ignore", divide="ignore"):  # not finite where the pair vanishes
        return SQRT2 * (omega_a * domega_b - domega_a * omega_b) / norm_sq


def tqd_amplitudes(p: StirapParams, delta: float, t):
    """Counterdiabatic drive amplitudes (Omega_A', Omega_B') on the detuned system.

    The two-level reduction ties the drive to the mixing-angle rate through
    |Omega_A'|^2 = -3*delta*theta_dot, which requires delta*theta_dot <= 0.
    Omega_B' is taken real and nonnegative; the relative phase is fixed by
    Omega_A' = -i*sqrt(2)*Omega_B' so the Stark shifts cancel as a global phase.
    Raises PulseSynthesisError where delta*theta_dot > 0 or theta_dot is not
    finite (see counterdiabatic_amplitudes).
    """
    omega_a_prime, omega_b_prime, (error,) = counterdiabatic_amplitudes(
        mixing_angle_rate(p, t), [delta], t)
    if error is not None:
        raise error
    return omega_a_prime[..., 0], omega_b_prime[..., 0]


def counterdiabatic_amplitudes(theta_dot, deltas, t):
    """tqd_amplitudes of each detuning from the mixing-angle rate theta_dot at times t.

    The one home of the rule |Omega_A'|^2 = -3*delta*theta_dot, for single
    runs and model.CellDrives alike. Returns both amplitudes, shaped
    t.shape + (len(deltas),), and per detuning None or the PulseSynthesisError
    of the first time in array order (as a call per time would meet it) at
    which delta*theta_dot exceeds SIGN_TOL or theta_dot is not finite (the
    pulse pair vanishes there, every detuning fails); that column is NaN
    from then on.
    """
    theta_dot, deltas = np.asarray(theta_dot), np.asarray(deltas, dtype=float)
    times = np.broadcast_to(np.asarray(t, dtype=float), theta_dot.shape).ravel()
    vanishes = ~np.isfinite(theta_dot.ravel())
    magnitude = theta_dot[..., None] * deltas  # delta * theta_dot, then the root in place
    failed = np.logical_or.accumulate(
        (magnitude > SIGN_TOL).reshape(times.size, deltas.size) | vanishes[:, None])
    magnitude *= -3.0
    np.sqrt(np.maximum(magnitude, 0.0, out=magnitude), out=magnitude)
    magnitude[failed.reshape(magnitude.shape)] = np.nan
    firsts = (times.size - np.count_nonzero(failed, axis=0)).tolist()  # times.size if none
    errors = [None if first == times.size else PulseSynthesisError(
        f"theta_dot not finite at t={times[first]:.6g}: the pulse pair vanishes there"
        if vanishes[first] else
        f"delta*theta_dot > 0 at t={times[first]:.6g}; cannot take a real amplitude root")
        for first in firsts]
    return -1j * magnitude, magnitude / SQRT2, errors


@dataclass(frozen=True)
class GaussianTerm:
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if not (abs(self.amplitude) < math.inf and abs(self.center) < math.inf):
            raise ValueError("amplitude and center must be finite")
        # __call__ divides by width**2, which must neither underflow nor overflow
        if not (0 < self.width < math.inf and 0 < self.width * self.width < math.inf):
            raise ValueError("width must be positive, with a finite nonzero square")


@dataclass(frozen=True)
class FittedPulse:
    """Sum of Gaussian terms, evaluated with __call__."""

    terms: tuple[GaussianTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("FittedPulse needs at least one term")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        with np.errstate(over="ignore"):  # a far center squares to inf: the term reads 0
            for g in self.terms:
                total = total + g.amplitude * np.exp(-((t - g.center) ** 2) / g.width**2)
        return total

    def scaled(self, factor: float) -> "FittedPulse":
        """Same shape with all amplitudes multiplied by factor."""
        return FittedPulse(
            tuple(GaussianTerm(g.amplitude * factor, g.center, g.width) for g in self.terms)
        )


def default_fitted_pulse() -> FittedPulse:
    """Reference two-Gaussian replacement for Omega_B' at delta=3.6, t_f=50."""
    return FittedPulse(
        (
            GaussianTerm(amplitude=0.3861, center=25.6816, width=12.2827),
            GaussianTerm(amplitude=0.3227, center=25.6808, width=5.7835),
        )
    )


def fit_two_gaussians(times: np.ndarray, values: np.ndarray) -> tuple[FittedPulse, float]:
    """Least-squares fit of two Gaussians to sampled data.

    Deterministic Levenberg-Marquardt start: both centers at mid-span, widths
    0.16*span and half that, amplitudes each half the sampled peak. Returns the
    fitted pulse and the rms residual.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 50 or not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("need at least 50 finite samples")
    # Imported here: scipy.optimize is a third of the import time of tqd3d.cli.
    from scipy.optimize import least_squares

    span = times.max() - times.min()
    mid = 0.5 * (times.max() + times.min())
    peak = float(values.max())
    x0 = np.array([peak / 2, mid, 0.16 * span, peak / 2, mid, 0.08 * span])

    def model(x, t):
        a1, c1, w1, a2, c2, w2 = x
        return a1 * np.exp(-((t - c1) ** 2) / w1**2) + a2 * np.exp(-((t - c2) ** 2) / w2**2)

    def residual(x):
        return model(x, times) - values

    result = least_squares(
        residual, x0, method="lm", max_nfev=FIT_MAX_ITER * len(x0), gtol=FIT_GRADIENT_TOL,
        xtol=1e-14, ftol=1e-14,
    )
    rms = float(np.sqrt(np.mean(result.fun**2)))
    if result.status <= 0:
        raise FitError(f"fit did not converge: {result.message}", best_rms=rms)
    a1, c1, w1, a2, c2, w2 = result.x
    pulse = FittedPulse(
        (GaussianTerm(a1, c1, abs(w1)), GaussianTerm(a2, c2, abs(w2)))
    )
    return pulse, rms


class PulseKind(Enum):
    STIRAP = "stirap"
    TQD_EXACT = "tqd"
    TQD_FITTED = "tqd-fitted"


@dataclass(frozen=True)
class PulseSet:
    """One evaluation channel pair (Omega_A, Omega_B) of a given kind.

    STIRAP evaluates the resonant Gaussian pair; the TQD kinds evaluate the
    counterdiabatic amplitudes for the detuned system, either synthesized
    exactly from theta_dot or taken from a two-Gaussian fit.
    """

    kind: PulseKind
    stirap: StirapParams
    delta: float = 0.0
    fitted: FittedPulse | None = None

    def __post_init__(self):
        if self.kind is not PulseKind.STIRAP and self.delta == 0.0:
            raise ValueError("TQD pulse kinds require a nonzero detuning")
        if self.kind is PulseKind.TQD_FITTED and self.fitted is None:
            raise ValueError("TQD_FITTED requires a fitted pulse")

    def amplitudes(self, t):
        if self.kind is PulseKind.STIRAP:
            omega_a, omega_b = stirap_amplitudes(self.stirap, t)
        elif self.kind is PulseKind.TQD_EXACT:
            omega_a, omega_b = tqd_amplitudes(self.stirap, self.delta, t)
        else:
            omega_b = self.fitted(t)
            omega_a = -1j * SQRT2 * omega_b
        return omega_a, omega_b


def sample_grid(t_f: float, n: int = 1001) -> np.ndarray:
    """Uniform sampling grid on [0, t_f] used for CSV export and fitting."""
    return np.linspace(0.0, t_f, n)
