import math
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import h_of_t, hamiltonian, structure_stack, structure_terms

from tqd3d import dynamics, experiments, hilbert, model, pulses, verify
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
    return h_of_t(terms, params, PulseSet(PulseKind.STIRAP, p))


def detuned_lambda(omega_a, omega_b, delta):
    """The 3-dim detuned Hamiltonian: its coefficients contracted with its structure operators."""
    c = verify.detuned_lambda_coefficients(omega_a, omega_b, delta)
    return np.tensordot(c, verify.DETUNED_LAMBDA_OPERATORS, axes=1)


def two_level(omega_a, omega_b, delta):
    """The 2-dim Hamiltonian: its coefficients contracted with its structure operators."""
    return np.tensordot(verify.two_level_coefficients(omega_a, omega_b, delta),
                        verify.TWO_LEVEL_OPERATORS, axes=1)


def bright_dark_vectors() -> dict[str, np.ndarray]:
    """Dark and bright combinations of |phi_2> and |psi_2> with |psi_1| (8-dim)."""
    e = np.eye(8, dtype=complex)
    sym = verify.symmetric_vectors()
    dark = (e[1] - SQRT2 * sym["psi2"]) / SQRT3
    plus = (SQRT2 * e[1] + SQRT3 * sym["psi1"] + sym["psi2"]) / np.sqrt(6.0)
    minus = (SQRT2 * e[1] - SQRT3 * sym["psi1"] + sym["psi2"]) / np.sqrt(6.0)
    return {"dark": dark, "plus": plus, "minus": minus}


@dataclass(frozen=True)
class Eigensystem:
    """Instantaneous eigensystem of the 3-dim effective Hamiltonian."""

    values: np.ndarray  # (lambda_minus, lambda_0, lambda_plus)
    vectors: np.ndarray  # columns n_minus, n_0, n_plus


def effective_eigensystem(p: StirapParams, t: float) -> Eigensystem:
    """Analytic dark/bright eigensystem parametrized by the mixing angle."""
    theta = float(pulses.mixing_angle(p, t))
    norm = float(pulses.rabi_norm(p, t))
    lam = norm / SQRT3
    # Dark vector (-cos, 0, sin); bright vectors carry the sign assignment that
    # pairs each with its eigenvalue for the branch theta in (-pi/2, pi/2).
    n0 = np.array([-np.cos(theta), 0.0, np.sin(theta)], dtype=complex)
    n_plus = np.array([-np.sin(theta), 1.0, -np.cos(theta)], dtype=complex) / SQRT2
    n_minus = np.array([np.sin(theta), 1.0, np.cos(theta)], dtype=complex) / SQRT2
    values = np.array([-lam, 0.0, lam])
    vectors = np.column_stack([n_minus, n0, n_plus])
    return Eigensystem(values=values, vectors=vectors)


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
    h = hamiltonian(terms8, 0.0, 0.0, g=1.0)
    assert np.count_nonzero(h) == 8  # four g couplings plus adjoints


def test_full_space_projection_consistent(
    terms8, terms80, subspace, full_space, default_params, default_pulses
):
    t = 17.3
    idx = hilbert.subspace_indices(subspace, full_space)
    h80 = h_stirap(terms80, default_params, default_pulses)(t)
    h8 = h_stirap(terms8, default_params, default_pulses)(t)
    assert np.allclose(h80[np.ix_(idx, idx)], h8)


def test_terms_follow_basis_order(full_space, rng):
    # A reordered 80-state space gets the canonical terms reordered the same way.
    perm = rng.permutation(full_space.dim)
    permuted = hilbert.HilbertSpace(tuple(full_space.basis[i] for i in perm))
    terms = model.hamiltonian_terms(permuted)
    assert np.array_equal(terms, model.hamiltonian_terms(full_space)[:, perm[:, None], perm])


@pytest.mark.parametrize("which", ["chain", "open_space", "full_space"])
def test_hamiltonian_terms_match_the_test_builder(which):
    """The runs' stack equals the tests' own, bit for bit, signed zeros included."""
    space = {"chain": hilbert.build_subspace, "open_space": model.open_space,
             "full_space": hilbert.build_full_space}[which]()
    terms = model.hamiltonian_terms(space)
    assert terms.shape == (6, space.dim, space.dim)
    assert terms.tobytes() == structure_stack(structure_terms(space)).tobytes()
    # built once per space, and shared read-only
    assert model.hamiltonian_terms(type(space)(space.basis)) is terms
    assert not terms.flags.writeable


@pytest.mark.parametrize("kind", list(PulseKind), ids=lambda kind: kind.value)
def test_make_h_of_t_is_the_hamiltonian_of_the_pulses(kind, subspace, terms8):
    params = ModelParams()
    pulse_set = experiments.default_pulse_set(kind, params)
    h = model.make_h_of_t(model.hamiltonian_terms(subspace), params, pulse_set)
    want = h_of_t(terms8, params, pulse_set)
    for t in (0.0, 12.5, 23.1, 40.0):
        assert np.allclose(h(t), want(t), rtol=0, atol=1e-14)


def test_detuned_diagonal_and_phase(terms8, default_pulses):
    t = 20.0
    omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
    h = hamiltonian(terms8, complex(omega_a), complex(omega_b),
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
        h = hamiltonian(terms80, complex(omega_a), complex(omega_b),
                                       g=1.0, delta=3.6)
        assert hilbert.max_nonhermiticity(h) < 1e-12


def test_symmetric_vectors():
    sym = verify.symmetric_vectors()
    e = np.eye(8)
    assert np.allclose(sym["psi3"], (e[6] + e[7]) / SQRT2)
    assert np.allclose(sym["psi1_minus"], (e[2] - e[3]) / SQRT2)


def test_bright_dark_vectors():
    vecs = bright_dark_vectors()
    sym = verify.symmetric_vectors()
    e = np.eye(8)
    assert np.allclose(vecs["dark"], (e[1] - SQRT2 * sym["psi2"]) / SQRT3)
    for a in ("dark", "plus", "minus"):
        assert np.linalg.norm(vecs[a]) == pytest.approx(1.0)
    assert abs(np.vdot(vecs["dark"], vecs["plus"])) < 1e-14
    assert abs(np.vdot(vecs["dark"], vecs["minus"])) < 1e-14


def test_odd_sector_decoupled(terms8, default_params, default_pulses):
    sym = verify.symmetric_vectors()
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
    vecs = bright_dark_vectors()
    h = hamiltonian(terms8, 0.0, 0.0, g=1.0)
    assert np.vdot(vecs["plus"], h @ vecs["plus"]) == pytest.approx(SQRT3)
    assert np.vdot(vecs["minus"], h @ vecs["minus"]) == pytest.approx(-SQRT3)
    assert np.vdot(vecs["dark"], h @ vecs["dark"]) == pytest.approx(0.0, abs=1e-14)


def test_effective_lambda_eigenvalues(default_pulses, rng):
    for t in rng.uniform(0.0, 50.0, 100):
        omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
        vals = np.linalg.eigvalsh(verify.h_effective_lambda(float(omega_a), float(omega_b)))
        lam = float(pulses.rabi_norm(default_pulses, t)) / SQRT3
        assert np.max(np.abs(vals - np.array([-lam, 0.0, lam]))) < 1e-10


def test_effective_lambda_equal_amplitudes():
    omega0 = 0.35
    vals = np.linalg.eigvalsh(verify.h_effective_lambda(omega0, omega0))
    assert np.allclose(vals, [-omega0, 0.0, omega0], atol=1e-14)


def test_eigensystem_identity(default_pulses, rng):
    for t in rng.uniform(0.0, 50.0, 100):
        omega_a, omega_b = pulses.stirap_amplitudes(default_pulses, t)
        h = verify.h_effective_lambda(float(omega_a), float(omega_b))
        es = effective_eigensystem(default_pulses, t)
        assert es.values[1] == 0.0
        for k in range(3):
            resid = h @ es.vectors[:, k] - es.values[k] * es.vectors[:, k]
            assert np.max(np.abs(resid)) < 1e-10
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_dark_vector_at_final_angle(default_pulses):
    es = effective_eigensystem(default_pulses, 50.0)
    dark = es.vectors[:, 1]
    target = np.array([1.0, 0.0, SQRT2]) / SQRT3
    assert abs(abs(np.vdot(target, dark)) - 1.0) < 1e-5


def test_effective_detuned_structure(default_pulses, rng):
    for t in rng.uniform(0.5, 49.5, 20):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        h = detuned_lambda(complex(omega_a), complex(omega_b), 3.6)
        assert np.allclose(np.diag(h), [0.0, 3.6, 0.0])
        assert h[0, 1] == pytest.approx(complex(omega_a) / SQRT3)
        assert h[1, 2] == pytest.approx(-SQRT2 * complex(omega_b) / SQRT3)
        assert h[0, 2] == 0.0
    h0 = detuned_lambda(0.0, 0.0, 3.6)
    assert np.allclose(np.linalg.eigvalsh(h0), [0.0, 0.0, 3.6])


def test_two_level_coupling_magnitude(default_pulses, rng):
    for t in rng.uniform(0.5, 49.5, 50):
        omega_a, omega_b = pulses.tqd_amplitudes(default_pulses, 3.6, t)
        h = two_level(complex(omega_a), complex(omega_b), 3.6)
        theta_dot = float(pulses.mixing_angle_rate(default_pulses, t))
        assert abs(h[0, 1]) == pytest.approx(abs(theta_dot), abs=1e-12)
        assert h[0, 1] == pytest.approx(1j * theta_dot)
        assert h[0, 0] == h[1, 1] == 0.0


def test_two_level_zero_pulses():
    assert np.allclose(two_level(0.0, 0.0, 3.6), 0.0)


def test_two_level_phase_violation():
    with pytest.raises(ValueError):
        two_level(0.5, 0.5 / SQRT2, 3.6)  # real pair breaks the phase lock


def test_two_level_propagator_is_rotation(default_pulses):
    cfg = dynamics.IntegratorConfig(dt=0.005)
    h2 = verify.reduced_drives(verify.two_level_coefficients, default_pulses, 3.6)
    result = dynamics.evolve_schrodinger(
        verify.TWO_LEVEL_OPERATORS, h2, np.array([1.0, 0.0], dtype=complex), 50.0, cfg,
        target=np.array([1.0, SQRT2]) / SQRT3,
    )
    theta_span = float(
        pulses.mixing_angle(default_pulses, 50.0) - pulses.mixing_angle(default_pulses, 0.0)
    )
    rotated = np.array([math.cos(theta_span), -math.sin(theta_span)])
    assert abs(np.vdot(rotated, result.final_state)) ** 2 > 0.999999
    assert result.final_fidelity > 0.9999


def test_counterdiabatic_closed_form():
    h = verify.h_counterdiabatic(-0.07)
    assert h[0, 2] == pytest.approx(-0.07j)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(np.linalg.eigvalsh(h), [-0.07, 0.0, 0.07])
    assert np.allclose(verify.h_counterdiabatic(0.0), 0.0)


def test_berry_formula_matches_closed_form(default_pulses, rng):
    for t in rng.uniform(0.5, 49.5, 50):
        theta_dot = float(pulses.mixing_angle_rate(default_pulses, t))
        numeric = verify.berry_counterdiabatic_numeric(default_pulses, t)
        assert np.max(np.abs(numeric - verify.h_counterdiabatic(theta_dot))) < 1e-6
        assert hilbert.max_nonhermiticity(numeric) < 1e-9


def test_berry_formula_constant_pulses():
    numeric = verify.berry_counterdiabatic_numeric(lambda t: (0.2, 0.3), 10.0, h_step=1e-4)
    assert np.max(np.abs(numeric)) < 1e-9


def test_berry_requires_step_for_callable():
    with pytest.raises(ValueError):
        verify.berry_counterdiabatic_numeric(lambda t: (0.2, 0.3), 10.0)


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
            hamiltonian(terms80, complex(omega_a), complex(omega_b),
                                       g=1.0, delta=3.6),
        ):
            leakage = h[~inside][:, idx]
            assert np.max(np.abs(leakage)) < 1e-12


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=0.0)
    with pytest.raises(ValueError):
        ModelParams(kappa=-0.1)


def test_cell_drives_share_pulse_synthesis(monkeypatch):
    # Cells with equal PulseSets get one amplitudes call per evaluation, and the
    # same coefficients as when each cell has a CellDrives of its own.
    fitted = PulseSet(PulseKind.TQD_FITTED, StirapParams(), delta=3.6,
                      fitted=pulses.default_fitted_pulse())
    bad = PulseSet(PulseKind.TQD_EXACT, StirapParams(), delta=-1.0)
    cells = [(ModelParams(g=g), fitted) for g in (1.0, 0.9, 1.1)]
    cells += [(ModelParams(delta=-1.0), bad), (ModelParams(delta=-1.0, g=1.2), bad)]
    times = np.linspace(0.0, 50.0, 7)
    alone = np.concatenate([model.CellDrives([cell])(times) for cell in cells], axis=1)
    calls = []
    amplitudes = PulseSet.amplitudes
    monkeypatch.setattr(PulseSet, "amplitudes",
                        lambda self, t: calls.append(self) or amplitudes(self, t))
    drives = model.CellDrives(cells)
    together = drives(times)
    assert calls == [fitted]  # exact TQD sets take their pulses from theta_dot
    assert np.array_equal(together, alone, equal_nan=True)
    assert np.all(together[:, 1, 4] == 0.9)  # the cells' own couplings
    assert np.all(np.isnan(together[:, 3:]))  # the failing set fails at t = 0
    assert set(drives.errors) == {3, 4} and drives.errors[3] is drives.errors[4]


def test_cell_drives_share_theta_dot(monkeypatch):
    # Exact-TQD cells that differ only in delta get one theta_dot evaluation per
    # call, the coefficients each cell gets alone, and tqd_amplitudes's note.
    deltas = [2.0, 3.6, -1.0, 3.6, 5.0]
    cells = [(ModelParams(delta=d), PulseSet(PulseKind.TQD_EXACT, StirapParams(), delta=d))
             for d in deltas]
    times = np.linspace(-60.0, 50.0, 23)  # delta = -1 fails from t = -40 on
    alone = np.concatenate([model.CellDrives([cell])(times) for cell in cells], axis=1)
    with pytest.raises(pulses.PulseSynthesisError) as single:
        pulses.tqd_amplitudes(StirapParams(), -1.0, times)
    calls = []
    rate = pulses.mixing_angle_rate
    monkeypatch.setattr(pulses, "mixing_angle_rate",
                        lambda p, t: calls.append(p) or rate(p, t))
    drives = model.CellDrives(cells)
    together = drives(times)
    assert calls == [StirapParams()]
    assert np.array_equal(together, alone, equal_nan=True)
    failing = np.isnan(together[:, 2]).all(axis=1)
    assert np.array_equal(failing, times >= -40.0) and not np.isnan(together[~failing]).any()
    assert not np.isnan(np.delete(together, 2, axis=1)).any()
    assert set(drives.errors) == {2} and str(drives.errors[2]) == str(single.value)
    assert "at t=-40;" in str(single.value)
    assert np.isnan(drives(times + 110.0)[:, 2]).all()  # a failed cell stays NaN
    assert calls == [StirapParams()] * 2


def test_open_coefficients_read_the_closed_layout():
    # Open runs read CellDrives' one layout: Re and Im of omega_a and omega_b,
    # the real parts of g and the detuning, then each cell's kappa and gamma,
    # bit for bit, a failing cell's NaN included.
    stirap = StirapParams()
    cells = [
        (ModelParams(kappa=0.01), PulseSet(PulseKind.STIRAP, stirap)),
        (ModelParams(g=0.9, gamma=0.02), PulseSet(PulseKind.TQD_FITTED, stirap, delta=3.6,
                                                  fitted=pulses.default_fitted_pulse())),
        (ModelParams(kappa=0.03, gamma=0.04), PulseSet(PulseKind.TQD_EXACT, stirap, delta=3.6)),
        (ModelParams(delta=-1.0, gamma=0.05), PulseSet(PulseKind.TQD_EXACT, stirap, delta=-1.0)),
    ]
    params = [p for p, _ in cells]
    times = np.linspace(-60.0, 50.0, 23)  # delta = -1 fails from t = -40 on
    c = model.CellDrives(cells)(times)
    rates = np.broadcast_to([[p.kappa, p.gamma] for p in params], c.shape[:2] + (2,))
    want = np.concatenate([np.stack([c[..., 0].real, c[..., 0].imag, c[..., 2].real,
                                     c[..., 2].imag, c[..., 4].real, c[..., 5].real], axis=-1),
                           rates], axis=-1)
    got = model.open_coefficients(model.CellDrives(cells), params)(times)
    assert got.shape == (len(times), 4, 8) and got.dtype == float
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.isnan(got[:, 3, [0, 2, 4, 5]]).all(axis=1), times >= -40.0)
    assert not np.isnan(got[:, :3]).any()
