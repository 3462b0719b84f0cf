"""Counterdiabatic pulse engineering and simulation of one-step two-atom
qutrit entanglement in a bimodal cavity."""

from .dynamics import IntegratorConfig, SimResult, evolve_lindblad, evolve_schrodinger, fidelity, target_state
from .hilbert import BasisState, HilbertSpace, LevelA, LevelB, build_subspace
from .model import ModelParams
from .pulses import FittedPulse, GaussianTerm, PulseKind, PulseSet, StirapParams

__all__ = [
    "BasisState",
    "FittedPulse",
    "GaussianTerm",
    "HilbertSpace",
    "IntegratorConfig",
    "LevelA",
    "LevelB",
    "ModelParams",
    "PulseKind",
    "PulseSet",
    "SimResult",
    "StirapParams",
    "build_subspace",
    "evolve_lindblad",
    "evolve_schrodinger",
    "fidelity",
    "target_state",
]

__version__ = "0.1.0"
