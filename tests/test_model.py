import math

import numpy as np
import pytest

from tqd3d import dynamics, hilbert, model, pulses
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind, PulseSet, StirapParams

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def reference_subspace_matrix(omega_a, omega_b, g=1.0):
    """Chain Hamiltonian on phi_1..phi_8 written out entry by entry."""
    h = np.zeros((8, 8), dtype=complex)
    h[0, 1] = omega_a
    h[4, 6] = omega_b
    h[5, 7] = omega_b
    h[1, 2] = h[1, 3] = h[2, 4] = h[3, 5] = g
    return h + h.conj().T


def h_stirap(terms, params, p):
    """t -> H(t) of the resonant model under the adiabatic Gaussian pair."""
    return model.make_h_of_t(terms, params, PulseSet(PulseKind.STIRAP, p))


def test_resonant_matches_reference(terms8, default_params, default_pulses):
    for t in (0.0, 12.5, 23.1, 40.0):
        omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
        got = h_stirap(terms8, default_params, default_pulses)(t)
        assert np.allclose(got, reference_subspace_matrix(omega_a, omega_b), atol=1e-15)


def test_resonant_couplings(terms8, default_params, default_pulses):
    t = 23.1
    h = h_stirap(terms8, default_params, default_pulses)(t)
    omega_a, _ = pulses.stirap_amplitudes(default_pulses, t)
    assert h[1, 2] == pytest.approx(1.0)  # g coupling phi_2 <-> phi_3
    assert h[1, 3] == pytest.approx(1.0)
    assert h[0, 1] == pytest.approx(omega_a)


def test_resonant_zero_pulse_structure(terms8, default_params):
    h = model.assemble_hamiltonian(terms8, 0.0, 0.0, g=1.0)
    assert np.count_nonzero(h) == 8  # four g couplings plus adjoints


def test_full_space_projection_consistent(
    terms8, terms80, subspace, full_space, default_params, default_pulses
):
    t = 17.3
    idx = hilbert.subspace_indices(subspace, full_space)
    h80 = h_stirap(terms80, default_params, default_pulses)(t)
    h8 = h_stirap(terms8, default_params, default_pulses)(t)
    assert np.allclose(h80[np.ix_(idx, idx)], h8)


def test_terms_follow_basis_order(terms80, full_space, rng):
    # A reordered 80-state space gets the canonical terms reordered the same way.
    perm = rng.permutation(full_space.dim)
    permuted = hilbert.HilbertSpace(tuple(full_space.basis[i] for i in perm))
    terms = model.hamiltonian_terms(permuted)
    for name in ("drive_a", "drive_b", "cavity", "excited"):
        assert np.array_equal(getattr(terms, name), getattr(terms80, name)[np.ix_(perm, perm)])


def test_detuned_diagonal_and_phase(terms8, default_pulses):
    t = 20.0
    omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
    h = model.assemble_hamiltonian(terms8, complex(omega_a), complex(omega_b),
                                   g=1.0, delta=3.6)
    assert h[1, 1] == pytest.approx(3.6)  # phi_2 carries an excited level
    assert h[4, 4] == pytest.approx(3.6)  # phi_5 too
    assert h[0, 0] == 0.0
    assert h[0, 1] == pytest.approx(complex(omega_a))
    assert complex(omega_a).real == pytest.approx(0.0)
    assert complex(omega_a).imag < 0.0


def test_detuned_hermitian_random_times(terms80, default_pulses, rng):
    for t in rng.uniform(0.0, 50.0, 100):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        h = model.assemble_hamiltonian(terms80, complex(omega_a), complex(omega_b),
                                       g=1.0, delta=3.6)
        assert hilbert.max_nonhermiticity(h) < 1e-12


def test_symmetric_vectors():
    sym = model.symmetric_vectors()
    e = np.eye(8)
    assert np.allclose(sym["psi3"], (e[6] + e[7]) / SQRT2)
    assert np.allclose(sym["psi1_minus"], (e[2] - e[3]) / SQRT2)


def test_bright_dark_vectors():
    vecs = model.bright_dark_vectors()
    sym = model.symmetric_vectors()
    e = np.eye(8)
    assert np.allclose(vecs["dark"], (e[1] - SQRT2 * sym["psi2"]) / SQRT3)
    for a in ("dark", "plus", "minus"):
        assert np.linalg.norm(vecs[a]) == pytest.approx(1.0)
    assert abs(np.vdot(vecs["dark"], vecs["plus"])) < 1e-14
    assert abs(np.vdot(vecs["dark"], vecs["minus"])) < 1e-14


def test_odd_sector_decoupled(terms8, default_params, default_pulses):
    sym = model.symmetric_vectors()
    e = np.eye(8)
    even = [e[0], e[1], sym["psi1"], sym["psi2"], sym["psi3"]]
    odd = [sym["psi1_minus"], sym["psi2_minus"], sym["psi3_minus"]]
    for t in (0.0, 10.0, 25.0, 42.0):
        h = h_stirap(terms8, default_params, default_pulses)(t)
        for o in odd:
            for v in even:
                assert abs(np.vdot(o, h @ v)) < 1e-14


def test_bright_sector_block(terms8, default_params, default_pulses):
    # conjugating by the dark/bright frame exposes the +-sqrt(3)g static block
    vecs = model.bright_dark_vectors()
    h = model.assemble_hamiltonian(terms8, 0.0, 0.0, g=1.0)
    assert np.vdot(vecs["plus"], h @ vecs["plus"]) == pytest.approx(SQRT3)
    assert np.vdot(vecs["minus"], h @ vecs["minus"]) == pytest.approx(-SQRT3)
    assert np.vdot(vecs["dark"], h @ vecs["dark"]) == pytest.approx(0.0, abs=1e-14)


def test_effective_lambda_eigenvalues(default_pulses, rng):
    for t in rng.uniform(0.0, 50.0, 100):
        omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
        vals = np.linalg.eigvalsh(model.h_effective_lambda(float(omega_a), float(omega_b)))
        lam = float(pulses.rabi_norm(default_pulses, t)) / SQRT3
        assert np.max(np.abs(vals - np.array([-lam, 0.0, lam]))) < 1e-10


def test_effective_lambda_equal_amplitudes():
    omega0 = 0.35
    vals = np.linalg.eigvalsh(model.h_effective_lambda(omega0, omega0))
    assert np.allclose(vals, [-omega0, 0.0, omega0], atol=1e-14)


def test_eigensystem_identity(default_pulses, rng):
    for t in rng.uniform(0.0, 50.0, 100):
        omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
        h = model.h_effective_lambda(float(omega_a), float(omega_b))
        es = model.effective_eigensystem(default_pulses, t)
        assert es.values[1] == 0.0
        for k in range(3):
            resid = h @ es.vectors[:, k] - es.values[k] * es.vectors[:, k]
            assert np.max(np.abs(resid)) < 1e-10
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_dark_vector_at_final_angle(default_pulses):
    es = model.effective_eigensystem(default_pulses, 50.0)
    dark = es.vectors[:, 1]
    target = np.array([1.0, 0.0, SQRT2]) / SQRT3
    assert abs(abs(np.vdot(target, dark)) - 1.0) < 1e-5


def test_effective_detuned_structure(default_pulses, rng):
    for t in rng.uniform(0.5, 49.5, 20):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        h = model.h_effective_detuned(complex(omega_a), complex(omega_b), 3.6)
        assert np.allclose(np.diag(h), [0.0, 3.6, 0.0])
        assert h[0, 1] == pytest.approx(complex(omega_a) / SQRT3)
        assert h[1, 2] == pytest.approx(-SQRT2 * complex(omega_b) / SQRT3)
        assert h[0, 2] == 0.0
    h0 = model.h_effective_detuned(0.0, 0.0, 3.6)
    assert np.allclose(np.linalg.eigvalsh(h0), [0.0, 0.0, 3.6])


def test_two_level_coupling_magnitude(default_pulses, rng):
    for t in rng.uniform(0.5, 49.5, 50):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        h = model.h_two_level(complex(omega_a), complex(omega_b), 3.6)
        theta_dot = float(pulses.mixing_angle_rate(default_pulses, t))
        assert abs(h[0, 1]) == pytest.approx(abs(theta_dot), abs=1e-12)
        assert h[0, 1] == pytest.approx(1j * theta_dot)
        assert h[0, 0] == h[1, 1] == 0.0


def test_two_level_zero_pulses():
    assert np.allclose(model.h_two_level(0.0, 0.0, 3.6), 0.0)


def test_two_level_phase_violation():
    with pytest.raises(ValueError):
        model.h_two_level(0.5, 0.5 / SQRT2, 3.6)  # real pair breaks the phase lock


def test_two_level_propagator_is_rotation(default_pulses):
    cfg = dynamics.IntegratorConfig(dt=0.005)

    def h2(t):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        return model.h_two_level(complex(omega_a), complex(omega_b), 3.6)

    result = dynamics.evolve_schrodinger(
        h2, np.array([1.0, 0.0], dtype=complex), 50.0, cfg,
        target=np.array([1.0, SQRT2]) / SQRT3,
    )
    theta_span = float(
        pulses.mixing_angle(default_pulses, 50.0) - pulses.mixing_angle(default_pulses, 0.0)
    )
    rotated = np.array([math.cos(theta_span), -math.sin(theta_span)])
    assert abs(np.vdot(rotated, result.final_state)) ** 2 > 0.999999
    assert result.final_fidelity > 0.9999


def test_counterdiabatic_closed_form():
    h = model.h_counterdiabatic(-0.07)
    assert h[0, 2] == pytest.approx(-0.07j)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(np.linalg.eigvalsh(h), [-0.07, 0.0, 0.07])
    assert np.allclose(model.h_counterdiabatic(0.0), 0.0)


def test_berry_formula_matches_closed_form(default_pulses, rng):
    for t in rng.uniform(0.5, 49.5, 50):
        theta_dot = float(pulses.mixing_angle_rate(default_pulses, t))
        numeric = model.berry_counterdiabatic_numeric(default_pulses, t)
        assert np.max(np.abs(numeric - model.h_counterdiabatic(theta_dot))) < 1e-6
        assert hilbert.max_nonhermiticity(numeric) < 1e-9


def test_berry_formula_constant_pulses():
    numeric = model.berry_counterdiabatic_numeric(lambda t: (0.2, 0.3), 10.0, h_step=1e-4)
    assert np.max(np.abs(numeric)) < 1e-9


def test_berry_requires_step_for_callable():
    with pytest.raises(ValueError):
        model.berry_counterdiabatic_numeric(lambda t: (0.2, 0.3), 10.0)


def test_collapse_channels(full_space):
    params = ModelParams(kappa=0.01, gamma=0.05)
    channels = model.collapse_channels(params, full_space)
    assert len(channels) == 11
    rates = sorted(r for _, r in channels)
    assert rates == pytest.approx([0.01, 0.01] + [0.025] * 9)

    # every channel lowers the total excitation number by one: [N, L] = -L
    number = hilbert.excited_projector(full_space)
    for mode in ("L", "R"):
        a = hilbert.annihilation_operator(full_space, mode)
        number = number + a.conj().T @ a
    for op, _ in channels:
        assert np.allclose(number @ op - op @ number, -op)


def test_collapse_channels_zero_rates(full_space):
    channels = model.collapse_channels(ModelParams(), full_space)
    assert all(rate == 0.0 for _, rate in channels)


def test_subspace_closure(terms80, subspace, full_space, default_params, default_pulses, rng):
    idx = hilbert.subspace_indices(subspace, full_space)
    inside = np.zeros(full_space.dim, dtype=bool)
    inside[idx] = True
    for t in rng.uniform(0.0, 50.0, 200):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        for h in (
            h_stirap(terms80, default_params, default_pulses)(t),
            model.assemble_hamiltonian(terms80, complex(omega_a), complex(omega_b),
                                       g=1.0, delta=3.6),
        ):
            leakage = h[~inside][:, idx]
            assert np.max(np.abs(leakage)) < 1e-12


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=0.0)
    with pytest.raises(ValueError):
        ModelParams(kappa=-0.1)


def test_cell_drives_share_pulse_synthesis(monkeypatch, terms8):
    # Cells with equal PulseSets get one amplitudes call per evaluation, and the
    # same coefficients as when each cell has a CellDrives of its own.
    fitted = PulseSet(PulseKind.TQD_FITTED, StirapParams(), delta=3.6,
                      fitted=pulses.default_fitted_pulse())
    bad = PulseSet(PulseKind.TQD_EXACT, StirapParams(), delta=-1.0)
    cells = [(ModelParams(g=g), fitted) for g in (1.0, 0.9, 1.1)]
    cells += [(ModelParams(delta=-1.0), bad), (ModelParams(delta=-1.0, g=1.2), bad)]
    times = np.linspace(0.0, 50.0, 7)
    alone = np.concatenate([model.CellDrives(terms8, [cell])(times) for cell in cells], axis=1)
    calls = []
    amplitudes = PulseSet.amplitudes
    monkeypatch.setattr(PulseSet, "amplitudes",
                        lambda self, t: calls.append(self) or amplitudes(self, t))
    drives = model.CellDrives(terms8, cells)
    together = drives(times)
    assert calls[:2] == [fitted, bad]  # then the failing set's prefix search
    assert calls.count(fitted) == 1
    assert np.array_equal(together, alone, equal_nan=True)
    assert np.all(together[:, 1, 4] == 0.9)  # the cells' own couplings
    assert np.all(np.isnan(together[:, 3:]))  # the failing set fails at t = 0
    assert set(drives.errors) == {3, 4} and drives.errors[3] is drives.errors[4]
