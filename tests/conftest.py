import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import tqd3d
from tqd3d import hilbert
from tqd3d.hilbert import LevelA, LevelB
from tqd3d.model import ModelParams
from tqd3d.pulses import PulseKind, StirapParams


def fresh_python(*args: str, env: dict | None = None, timeout: float = 60, popen: bool = False):
    """python args... in a fresh interpreter that imports this tqd3d, with env over os.environ.

    The tqd3d package's src/ comes first on PYTHONPATH. The run goes to its
    end, its output captured as text, a non-zero exit raising
    CalledProcessError; with popen it is only started, as a Popen in a
    session of its own with stdout and stderr piped.
    """
    src = str(Path(tqd3d.__file__).resolve().parents[1])
    environ = {**os.environ, **(env or {}),
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, *args]
    if popen:
        return subprocess.Popen(argv, env=environ, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
    return subprocess.run(argv, env=environ, capture_output=True, text=True, timeout=timeout,
                          check=True)


class Terms(NamedTuple):
    """The lowering parts D_A, D_B and C of H(t) and the excited projector P_e on one space."""

    drive_a: np.ndarray
    drive_b: np.ndarray
    cavity: np.ndarray
    excited: np.ndarray


def transition_operator(space, from_level, to_level) -> np.ndarray:
    """|to><from| on the atom of both levels, identity elsewhere: one basis state at a time.

    The tests' own builder, a loop over the basis with dictionary lookups,
    apart from hilbert's index maps.
    """
    atom = {LevelA: "a", LevelB: "b"}[type(from_level)]
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for j, s in enumerate(space.basis):
        if getattr(s, atom) is not from_level:
            continue
        i = space.index.get(s._replace(**{atom: to_level}))
        if i is not None:
            op[i, j] = 1.0
    return op


def annihilation_operator(space, mode: str) -> np.ndarray:
    """Photon annihilation for mode "L" or "R" on the {0,1} Fock space, state by state."""
    field = {"L": "n_left", "R": "n_right"}[mode]
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for j, s in enumerate(space.basis):
        if getattr(s, field) != 1:
            continue
        i = space.index.get(s._replace(**{field: 0}))
        if i is not None:
            op[i, j] = 1.0
    return op


def excited_projector(space) -> np.ndarray:
    """|e0><e0|_A + |eL><eL|_B + |eR><eR|_B, state by state: the excited atoms on the diagonal."""
    diag = np.array([float(s.a in hilbert.EXCITED_A) + float(s.b in hilbert.EXCITED_B)
                     for s in space.basis])
    return np.diag(diag).astype(complex)


def structure_terms(space) -> Terms:
    """The tests' own H(t) terms on space, built apart from tqd3d.model and hilbert's index maps.

    D_A = |g0><e0| on atom A, D_B = sum_i |g_i><e_i| on atom B and
    C = sum_i a_i (|e0><g_i|_A + |e_i><g0|_B), from the loop builders
    above. The products in C pass through states outside a subspace, so
    every term is built on the 80 states and restricted to space by basis
    lookup.
    """
    full = hilbert.build_full_space()

    def flip(from_level, to_level):
        return transition_operator(full, from_level, to_level)

    cavity = sum(annihilation_operator(full, mode) @ (flip(g_a, LevelA.e0) + flip(LevelB.g0, e_b))
                 for mode, g_a, e_b in (("L", LevelA.gL, LevelB.eL), ("R", LevelA.gR, LevelB.eR)))
    terms = (flip(LevelA.e0, LevelA.g0), flip(LevelB.eL, LevelB.gL) + flip(LevelB.eR, LevelB.gR),
             cavity, excited_projector(full))
    idx = hilbert.subspace_indices(space, full)
    return Terms(*(op[np.ix_(idx, idx)] for op in terms))


def structure_stack(terms: Terms) -> np.ndarray:
    """The six Hermitian operators runs integrate, (6, d, d): X_A, Y_A, X_B, Y_B, C + C+, P_e.

    X = D + D+ and Y = i(D - D+) for each drive D, with Y as iD - iD+, whose
    real parts are +0.0 (i(D - D+) is -0.0 where D+ has its ones).
    """
    hermitian = []
    for d in (terms.drive_a, terms.drive_b):
        hermitian += [d + d.conj().T, 1j * d - 1j * d.conj().T]
    return np.stack(hermitian + [terms.cavity + terms.cavity.conj().T, terms.excited])


def hamiltonian(terms: Terms, omega_a, omega_b, g=1.0, delta=0.0) -> np.ndarray:
    """H = omega_a D_A + omega_b D_B + g C + h.c. + delta P_e."""
    lower = omega_a * terms.drive_a + omega_b * terms.drive_b + g * terms.cavity
    return lower + lower.conj().T + delta * terms.excited


def h_of_t(terms: Terms, params: ModelParams, pulse_set):
    """t -> H(t) under pulse_set's amplitudes: resonant for STIRAP pulses, detuned for TQD ones."""
    delta = 0.0 if pulse_set.kind is PulseKind.STIRAP else params.delta

    def at(t):
        omega_a, omega_b = pulse_set.amplitudes(t)
        return hamiltonian(terms, complex(omega_a), complex(omega_b), params.g, delta)

    return at


@pytest.fixture(scope="session")
def full_space():
    return hilbert.build_full_space()


@pytest.fixture(scope="session")
def subspace():
    return hilbert.build_subspace()


@pytest.fixture(scope="session")
def terms8(subspace):
    return structure_terms(subspace)


@pytest.fixture(scope="session")
def terms80(full_space):
    return structure_terms(full_space)


@pytest.fixture(scope="session")
def default_pulses():
    return StirapParams()


@pytest.fixture(scope="session")
def default_params():
    return ModelParams()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
