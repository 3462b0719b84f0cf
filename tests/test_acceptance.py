"""Acceptance suite: every release criterion, one pass/fail line per check.

Heavy simulation results are cached inside tqd3d.verify, so the open-system
benchmark and closed-system comparison runs execute once and are shared
between criteria.  Run with `pytest tests/test_acceptance.py -v -s` to see
the printed criterion lines.
"""

import dataclasses

import numpy as np
import pytest

from tqd3d import hilbert, model, verify


@pytest.mark.parametrize(
    "check", verify.CRITERIA, ids=lambda check: check.__name__.removeprefix("check_")
)
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


def _chain_state_and_outsider():
    """A chain state's full-space index, and a state outside the open-system space."""
    full = hilbert.build_full_space()
    chain = hilbert.subspace_indices(hilbert.build_subspace(), full)
    inside = hilbert.subspace_indices(model.open_space(), full)
    return chain[0], np.setdiff1d(np.arange(full.dim), inside)[0]


def _leaking_drive_b(terms):
    source, outsider = _chain_state_and_outsider()
    drive_b = terms.drive_b.copy()
    drive_b[outsider, source] = 1.0
    return dataclasses.replace(terms, drive_b=drive_b)


def _leaking_jump(channels):
    source, outsider = _chain_state_and_outsider()
    jump = np.zeros_like(channels[0][0])
    jump[outsider, source] = 1.0
    return channels + [(jump, 1.0)]


def _odd_coupling(terms):
    cavity = terms.cavity.copy()
    cavity[2, 0] += 1.0  # |phi_1> to one state of the psi1 pair only, so to psi1_minus too
    return dataclasses.replace(terms, cavity=cavity)


@pytest.mark.parametrize("name, fault, measured", [
    ("hamiltonian_terms", _leaking_drive_b, "closure"),
    ("collapse_channels", _leaking_jump, "closure"),
    ("chain_terms", _odd_coupling, "odd_sector"),
], ids=["drive_b_leaves_open_space", "jump_leaves_open_space", "odd_sector_coupled"])
def test_structural_invariants_fail_on_a_planted_fault(monkeypatch, name, fault, measured):
    """Each structure or collapse operator the check reads can fail it on its own."""
    # Unpatched first: this fills the cached runs and spaces, so no fault reaches them.
    assert verify.check_structural_invariants().passed
    original = getattr(model, name)
    monkeypatch.setattr(model, name, lambda *args: fault(original(*args)))
    result = verify.check_structural_invariants()
    assert result.measured[measured] > 0
    assert result.passed is False
