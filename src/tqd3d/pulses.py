"""Time-dependent control amplitudes.

Covers the adiabatic (STIRAP) Gaussian pair, the mixing angle theta(t) and its
analytic rate, the counterdiabatic drive amplitudes synthesized from theta_dot
on the detuned alternative system, and a two-Gaussian least-squares fit used to
replace the synthesized waveform with an experimentally simple one.

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

# Largest delta*theta_dot that tqd_amplitudes treats as zero rather than a sign clash.
SIGN_TOL = 1e-12

# Levenberg-Marquardt limits of fit_two_gaussians: evaluations per fitted
# parameter and the gradient tolerance.
FIT_MAX_ITER = 500
FIT_GRADIENT_TOL = 1e-10


class PulseSynthesisError(ValueError):
    """Raised when the counterdiabatic amplitude would be imaginary (sign clash)."""


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
        if not (0 < self.omega0 < math.inf and 0 < self.width < math.inf):
            raise ValueError("omega0 and width must be positive and finite")
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
    t = np.asarray(t, dtype=float)
    late = np.exp(-((t - p.t_f / 2 - p.tau) ** 2) / p.width**2)
    early = np.exp(-((t - p.t_f / 2 + p.tau) ** 2) / p.width**2)
    omega_a = (2 / np.sqrt(5)) * p.omega0 * late
    omega_b = (1 / np.sqrt(5)) * p.omega0 * late + p.omega0 * early
    return omega_a, omega_b


def stirap_amplitude_rates(p: StirapParams, t):
    """Analytic time derivatives (dOmega_A/dt, dOmega_B/dt)."""
    t = np.asarray(t, dtype=float)
    late = np.exp(-((t - p.t_f / 2 - p.tau) ** 2) / p.width**2)
    early = np.exp(-((t - p.t_f / 2 + p.tau) ** 2) / p.width**2)
    dlate = -2 * (t - p.t_f / 2 - p.tau) / p.width**2 * late
    dearly = -2 * (t - p.t_f / 2 + p.tau) / p.width**2 * early
    domega_a = (2 / np.sqrt(5)) * p.omega0 * dlate
    domega_b = (1 / np.sqrt(5)) * p.omega0 * dlate + p.omega0 * dearly
    return domega_a, domega_b


def rabi_norm(p: StirapParams, t):
    """Omega(t) = sqrt(Omega_A^2 + 2 Omega_B^2)."""
    omega_a, omega_b = stirap_amplitudes(p, t)
    return np.sqrt(omega_a**2 + 2 * omega_b**2)


def mixing_angle(p: StirapParams, t):
    """theta(t) = arctan(-Omega_A / (sqrt(2) Omega_B)), in (-pi/2, pi/2).

    Omega_B > 0 everywhere for the Gaussian pair, so arctan is continuous.
    """
    omega_a, omega_b = stirap_amplitudes(p, t)
    return np.arctan(-omega_a / (SQRT2 * omega_b))


def mixing_angle_rate(p: StirapParams, t):
    """Analytic theta_dot(t) = sqrt(2)(Omega_A dOmega_B - dOmega_A Omega_B)/Omega^2."""
    omega_a, omega_b = stirap_amplitudes(p, t)
    domega_a, domega_b = stirap_amplitude_rates(p, t)
    norm_sq = omega_a**2 + 2 * omega_b**2
    return SQRT2 * (omega_a * domega_b - domega_a * omega_b) / norm_sq


def tqd_amplitudes(p: StirapParams, delta: float, t):
    """Counterdiabatic drive amplitudes (Omega_A', Omega_B') on the detuned system.

    The two-level reduction ties the drive to the mixing-angle rate through
    |Omega_A'|^2 = -3*delta*theta_dot, which requires delta*theta_dot <= 0.
    Omega_B' is taken real and nonnegative; the relative phase is fixed by
    Omega_A' = -i*sqrt(2)*Omega_B' so the Stark shifts cancel as a global phase.
    Raises PulseSynthesisError where delta*theta_dot > 0 (see
    counterdiabatic_amplitudes).
    """
    omega_a_prime, omega_b_prime, error = counterdiabatic_amplitudes(
        mixing_angle_rate(p, t), delta, t)
    if error is not None:
        raise error
    return omega_a_prime, omega_b_prime


def counterdiabatic_amplitudes(theta_dot, delta: float, t):
    """tqd_amplitudes from the mixing-angle rate theta_dot at times t, and its failure.

    The failure is None, or the PulseSynthesisError of the first time in
    array order (as a call per time would meet it) at which delta*theta_dot
    exceeds SIGN_TOL; from that time on both amplitudes are NaN.
    """
    product = delta * np.asarray(theta_dot)
    magnitude = np.sqrt(np.maximum(-3.0 * product, 0.0))
    failing = np.flatnonzero(product > SIGN_TOL)
    error = None
    if failing.size:
        first = failing[0]
        bad = float(np.broadcast_to(np.asarray(t, dtype=float), product.shape).flat[first])
        error = PulseSynthesisError(
            f"delta*theta_dot > 0 at t={bad:.6g}; cannot take a real amplitude root"
        )
        magnitude = np.where(np.arange(product.size).reshape(product.shape) < first,
                             magnitude, np.nan)
    return -1j * magnitude, magnitude / SQRT2, error


@dataclass(frozen=True)
class GaussianTerm:
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if not (abs(self.amplitude) < math.inf and abs(self.center) < math.inf):
            raise ValueError("amplitude and center must be finite")
        if not 0 < self.width < math.inf:
            raise ValueError("width must be positive and finite")


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
    # Imported here: scipy.optimize is a third of the import time of tqd3d.cli.
    from scipy.optimize import least_squares

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 50:
        raise ValueError("need at least 50 samples")
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
