import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from tqd3d import pulses
from tqd3d.pulses import (
    FittedPulse,
    GaussianTerm,
    PulseKind,
    PulseSet,
    PulseSynthesisError,
    StirapParams,
)

SQRT2 = math.sqrt(2.0)


def scalar_amplitudes(t):
    """Independent plain-math evaluation of the default Gaussian pair."""
    late = math.exp(-((t - 25.0 - 6.0) / 8.0) ** 2)
    early = math.exp(-((t - 25.0 + 6.0) / 8.0) ** 2)
    return (2 / math.sqrt(5)) * 0.35 * late, (1 / math.sqrt(5)) * 0.35 * late + 0.35 * early


def test_default_parameter_fractions(default_pulses):
    assert default_pulses.tau == pytest.approx(6.0)
    assert default_pulses.width == pytest.approx(8.0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        StirapParams(omega0=-1.0)
    with pytest.raises(ValueError):
        StirapParams(tau=30.0)
    # theta_dot divides by Omega_A**2 + 2 Omega_B**2, at most about 5 omega0**2
    for omega0 in (1e160, 1e300, 1e-170):
        with pytest.raises(ValueError, match="omega0"):
            StirapParams(omega0=omega0)
    rate = pulses.mixing_angle_rate(StirapParams(omega0=1e150), pulses.sample_grid(50.0))
    assert np.all(np.isfinite(rate))


def test_peak_value(default_pulses):
    # at its center t_f/2 + tau = 31 the first Gaussian is exactly 1
    omega_a, _ = pulses.stirap_amplitudes(default_pulses, 31.0)
    assert omega_a == pytest.approx((2 / math.sqrt(5)) * 0.35, abs=1e-15)


@pytest.mark.parametrize("t", [0.0, 3.7, 19.0, 25.0, 31.0, 44.2, 50.0])
def test_amplitudes_match_scalar_oracle(default_pulses, t):
    omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
    ref_a, ref_b = scalar_amplitudes(t)
    assert omega_a == pytest.approx(ref_a, abs=1e-12)
    assert omega_b == pytest.approx(ref_b, abs=1e-12)


def test_tail_values_frozen(default_pulses):
    omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, 0.0)
    assert omega_a == pytest.approx(9.427791254348553e-08, rel=1e-12)
    assert omega_b == pytest.approx(1.2427741339911605e-03, rel=1e-12)


def test_early_gaussian_peak(default_pulses):
    # second component of Omega_B peaks at t_f/2 - tau = 19 with amplitude omega0
    t = 19.0
    _, omega_b = pulses.stirap_amplitudes(default_pulses, t)
    shared = (1 / math.sqrt(5)) * 0.35 * math.exp(-((t - 31.0) / 8.0) ** 2)
    assert omega_b - shared == pytest.approx(0.35, abs=1e-15)


def test_mixing_angle_boundaries(default_pulses):
    assert float(pulses.mixing_angle(default_pulses, 0.0)) == pytest.approx(
        -5.3641727316593864e-05, rel=1e-9
    )
    theta_f = float(pulses.mixing_angle(default_pulses, 50.0))
    assert theta_f == pytest.approx(-0.9552272175064699, rel=1e-9)
    assert abs(theta_f + math.atan(SQRT2)) < 2e-3


def test_mixing_angle_quarter_pi(default_pulses):
    def gap(t):
        omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
        return float(omega_a) - SQRT2 * float(omega_b)

    t_star = brentq(gap, 20.0, 49.0)
    assert float(pulses.mixing_angle(default_pulses, t_star)) == pytest.approx(
        -math.pi / 4, abs=1e-12
    )


def test_mixing_angle_continuity(default_pulses):
    t = np.arange(0.0, 50.0 + 1e-9, 0.05)
    theta = pulses.mixing_angle(default_pulses, t)
    assert np.max(np.abs(np.diff(theta))) < 0.02
    assert np.all(np.abs(theta) < np.pi / 2)


def test_rate_matches_central_difference(default_pulses, rng):
    h = 1e-4
    for t in rng.uniform(h, 50.0 - h, 100):
        numeric = (
            float(pulses.mixing_angle(default_pulses, t + h))
            - float(pulses.mixing_angle(default_pulses, t - h))
        ) / (2 * h)
        assert abs(float(pulses.mixing_angle_rate(default_pulses, t)) - numeric) < 1e-6


def test_rate_nonpositive(default_pulses):
    t = np.linspace(0.0, 50.0, 5001)
    assert np.all(pulses.mixing_angle_rate(default_pulses, t) <= 0.0)


def test_rate_quadrature(default_pulses):
    t = np.linspace(0.0, 50.0, 200001)
    integral = float(np.trapezoid(pulses.mixing_angle_rate(default_pulses, t), t))
    delta_theta = float(
        pulses.mixing_angle(default_pulses, 50.0) - pulses.mixing_angle(default_pulses, 0.0)
    )
    assert integral == pytest.approx(delta_theta, abs=1e-6)
    assert integral == pytest.approx(-0.95517, abs=1e-4)


def test_tqd_peak_frozen(default_pulses):
    # dense-sampling maximization oracle, frozen
    t = np.linspace(0.0, 50.0, 200001)
    _, omega_b_prime = pulses.tqd_amplitudes(default_pulses, 3.6, t)
    i = int(np.argmax(omega_b_prime))
    assert float(omega_b_prime[i]) == pytest.approx(0.7239534, abs=1e-5)
    assert float(t[i]) == pytest.approx(25.68, abs=0.01)
    # the two-Gaussian replacement peaks nearby with a slightly smaller value
    assert abs(float(omega_b_prime[i]) - 0.7088) < 0.02


def test_tqd_defining_relation(default_pulses):
    t = np.linspace(0.5, 49.5, 211)
    omega_a_prime, omega_b_prime = pulses.tqd_amplitudes(default_pulses, 3.6, t)
    theta_dot = pulses.mixing_angle_rate(default_pulses, t)
    assert np.max(np.abs(np.abs(omega_a_prime) ** 2 / (3 * 3.6) - np.abs(theta_dot))) < 1e-9
    # phase lock: Omega_B' = i Omega_A' / sqrt(2), up to one ulp of rounding
    assert np.allclose(omega_b_prime, 1j * omega_a_prime / SQRT2, rtol=1e-15, atol=0)
    # consistency |Omega_A'|^2 + 3*delta*theta_dot = 0
    assert np.max(np.abs(np.abs(omega_a_prime) ** 2 + 3 * 3.6 * theta_dot)) < 1e-9


def test_tqd_sign_violation(default_pulses):
    with pytest.raises(PulseSynthesisError):
        pulses.tqd_amplitudes(default_pulses, -3.6, 25.0)


def test_tqd_sign_violation_names_first_time(default_pulses):
    # Before t = -40 the sign clash is below SIGN_TOL, so the first offending
    # time is neither the first time nor the largest violation (near t = 25).
    times = np.linspace(-60.0, 50.0, 221)
    first = None
    for t in times:  # one call per time, in order, as a step-by-step run makes them
        try:
            pulses.tqd_amplitudes(default_pulses, -1.0, t)
        except PulseSynthesisError as exc:
            first = str(exc)
            break
    with pytest.raises(PulseSynthesisError) as vector:
        pulses.tqd_amplitudes(default_pulses, -1.0, times)
    assert first is not None and "t=-60" not in first
    assert str(vector.value) == first
    # One counterdiabatic_amplitudes call on several detunings: each column is
    # the rule restated here, NaN from its own first failing time on.
    times = times[::10]  # every 5: delta = -1 fails from t = -40 on
    with pytest.raises(PulseSynthesisError) as single:
        pulses.tqd_amplitudes(default_pulses, -1.0, times)
    deltas = (2.0, 3.6, -1.0, 3.6)
    theta_dot = pulses.mixing_angle_rate(default_pulses, times)
    omega_a, omega_b, errors = pulses.counterdiabatic_amplitudes(theta_dot, deltas, times)
    assert omega_a.shape == omega_b.shape == (times.size, len(deltas))
    for k, delta in enumerate(deltas):
        magnitude = np.sqrt(np.maximum(-3.0 * (delta * theta_dot), 0.0))
        if delta < 0:
            magnitude[times >= -40.0] = np.nan
        assert np.array_equal(omega_a[:, k], -1j * magnitude, equal_nan=True)
        assert np.array_equal(omega_b[:, k], magnitude / SQRT2, equal_nan=True)
    assert np.isnan(omega_a[:, 2]).sum() == np.isnan(omega_b[:, 2]).sum() == 19
    assert [error is None for error in errors] == [True, True, False, True]
    assert str(errors[2]) == str(single.value) and "at t=-40;" in str(errors[2])
    # Backwards, delta = -1 fails first at t = 50: NaN on to t = -60, where it would not fail.
    omega_a, _, errors = pulses.counterdiabatic_amplitudes(theta_dot[::-1], deltas, times[::-1])
    assert np.isnan(omega_a[:, 2]).all() and "at t=50;" in str(errors[2])
    # A theta_dot that is not finite (a vanished pulse pair, 0/0) fails every
    # detuning from its time on: delta = -1 before its own clash at t = -40.
    theta_dot[2] = np.nan  # t = -50
    omega_a, omega_b, errors = pulses.counterdiabatic_amplitudes(theta_dot, deltas, times)
    for k, delta in enumerate(deltas):
        magnitude = np.sqrt(np.maximum(-3.0 * (delta * theta_dot), 0.0))
        magnitude[times >= -50.0] = np.nan
        assert np.array_equal(omega_a[:, k], -1j * magnitude, equal_nan=True)
        assert np.array_equal(omega_b[:, k], magnitude / SQRT2, equal_nan=True)
    assert {str(error) for error in errors} == {
        "theta_dot not finite at t=-50: the pulse pair vanishes there"}
    (error,) = pulses.counterdiabatic_amplitudes(np.inf, [3.6], 0.0)[2]
    assert str(error) == "theta_dot not finite at t=0: the pulse pair vanishes there"


def _pair_and_rate(p, t):
    """Omega_A, Omega_B and theta_dot as separate formulas, restated to pin their bits."""
    t = np.asarray(t, dtype=float)
    late = np.exp(-((t - p.t_f / 2 - p.tau) ** 2) / p.width**2)
    early = np.exp(-((t - p.t_f / 2 + p.tau) ** 2) / p.width**2)
    omega_a = (2 / np.sqrt(5)) * p.omega0 * late
    omega_b = (1 / np.sqrt(5)) * p.omega0 * late + p.omega0 * early
    dlate = -2 * (t - p.t_f / 2 - p.tau) / p.width**2 * late
    dearly = -2 * (t - p.t_f / 2 + p.tau) / p.width**2 * early
    domega_a = (2 / np.sqrt(5)) * p.omega0 * dlate
    domega_b = (1 / np.sqrt(5)) * p.omega0 * dlate + p.omega0 * dearly
    norm_sq = omega_a**2 + 2 * omega_b**2
    with np.errstate(invalid="ignore", divide="ignore"):
        return omega_a, omega_b, SQRT2 * (omega_a * domega_b - domega_a * omega_b) / norm_sq


@pytest.mark.parametrize("params", [
    StirapParams(), StirapParams(omega0=1.3, t_f=20.0, tau=3.0, width=2.5),
    StirapParams.for_duration(100.0, 0.35, 0.12, 0.01),  # the pair vanishes: NaN rates
    StirapParams(omega0=1e150)], ids=["default", "short", "narrow", "strong"])
@pytest.mark.parametrize("t", [np.linspace(-100.0, 200.0, 3001), 0.0, 31.0, np.float64(-7.5)],
                         ids=["array", "zero", "peak", "numpy-scalar"])
def test_pair_and_rate_keep_their_bits(params, t):
    want = _pair_and_rate(params, t)
    got = (*pulses.stirap_amplitudes(params, t), pulses.mixing_angle_rate(params, t))
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("params, vanishes_from", [
    (StirapParams(), None), (StirapParams(omega0=1.3, t_f=20.0, tau=3.0, width=2.5), 81.3),
    (StirapParams.for_duration(100.0, 0.35, 0.12, 0.01), 89.3),
    (StirapParams(omega0=1e150), None)],
    ids=["default", "short", "narrow", "strong"])
def test_mixing_angle_keeps_its_bits_and_fails_where_the_pair_vanishes(params, vanishes_from):
    """theta where Omega_B > 0 is the formula's, bit for bit; where the pair vanishes it raises.

    On t in [30, 200] the short and narrow pairs underflow from t = 81.3 and
    89.3 on. Any warning would fail the test (RuntimeWarning is an error in
    this suite).
    """
    t = np.linspace(30.0, 200.0, 1701)
    omega_a, omega_b, _ = _pair_and_rate(params, t)
    held = omega_b > 0
    theta = pulses.mixing_angle(params, t[held])
    assert theta.tobytes() == np.arctan(-omega_a[held] / (SQRT2 * omega_b[held])).tobytes()
    if vanishes_from is None:
        assert held.all()
        return
    first = t[np.argmin(held)]
    assert first == pytest.approx(vanishes_from)
    with pytest.raises(PulseSynthesisError, match=f"^theta is 0/0 at t={first:.6g}: "
                                                  "the pulse pair vanishes there$"):
        pulses.mixing_angle(params, t)
    with pytest.raises(PulseSynthesisError, match=f"^theta is 0/0 at t={first:.6g}: "):
        pulses.mixing_angle(params, float(first))  # one time, no array


def test_fitted_pulse_values():
    pulse = pulses.default_fitted_pulse()
    assert float(pulse(25.68)) == pytest.approx(0.7087999872, abs=1e-8)
    assert float(pulse(0.0)) == pytest.approx(0.00487604791, abs=1e-9)


def test_fitted_pulse_single_term_peak():
    pulse = FittedPulse((GaussianTerm(0.42, 12.0, 3.0),))
    assert float(pulse(12.0)) == 0.42


def test_fitted_pulse_nonnegative_real():
    pulse = pulses.default_fitted_pulse()
    values = pulse(np.linspace(0.0, 50.0, 1001))
    assert np.all(values >= 0.0)
    assert np.isrealobj(values)


@pytest.mark.parametrize("center", [1e300, -1e300])
def test_far_center_term_reads_zero_without_a_warning(center):
    # (t - center)**2 overflows to inf, and exp(-inf) = 0 is the term's value.
    pulse = FittedPulse((GaussianTerm(0.3, center, 5.0), GaussianTerm(0.4, 25.0, 1e-154)))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        values = pulse(np.array([0.0, 25.0, 50.0]))
    assert values.tolist() == [0.0, 0.4, 0.0]


def test_fit_recovers_own_model_class():
    reference = pulses.default_fitted_pulse()
    t = pulses.sample_grid(50.0, 501)
    fitted, rms = pulses.fit_two_gaussians(t, reference(t))
    assert rms < 1e-9
    for got, want in zip(fitted.terms, reference.terms):
        assert got.amplitude == pytest.approx(want.amplitude, rel=0.01)
        assert got.center == pytest.approx(want.center, rel=0.01)
        assert got.width == pytest.approx(want.width, rel=0.01)


def test_fit_exact_waveform(default_pulses):
    t = pulses.sample_grid(50.0, 501)
    _, exact = pulses.tqd_amplitudes(default_pulses, 3.6, t)
    fitted, rms = pulses.fit_two_gaussians(t, exact)
    assert rms < 0.01
    assert np.max(np.abs(fitted(t) - exact)) < 0.05


def test_fit_zero_waveform():
    t = pulses.sample_grid(50.0, 101)
    fitted, rms = pulses.fit_two_gaussians(t, np.zeros_like(t))
    assert rms < 1e-12
    assert all(abs(term.amplitude) < 1e-6 for term in fitted.terms)


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        pulses.fit_two_gaussians(np.linspace(0, 50, 10), np.zeros(10))


def test_pulse_set_invariants(default_pulses):
    with pytest.raises(ValueError):
        PulseSet(PulseKind.TQD_EXACT, default_pulses, delta=0.0)
    with pytest.raises(ValueError):
        PulseSet(PulseKind.TQD_FITTED, default_pulses, delta=3.6, fitted=None)


def test_pulse_set_channels(default_pulses):
    exact = PulseSet(PulseKind.TQD_EXACT, default_pulses, delta=3.6)
    omega_a, omega_b = exact.amplitudes(25.0)
    assert complex(omega_a) == pytest.approx(-1j * SQRT2 * complex(omega_b))
    fitted = PulseSet(
        PulseKind.TQD_FITTED, default_pulses, delta=3.6,
        fitted=pulses.default_fitted_pulse(),
    )
    omega_a, omega_b = fitted.amplitudes(25.68)
    assert complex(omega_b) == pytest.approx(0.7088, abs=1e-4)
    assert complex(omega_a) == pytest.approx(-1j * SQRT2 * 0.7088, abs=1e-3)
