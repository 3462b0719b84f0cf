"""Golden outputs: CLI runs compared with files an earlier version wrote.

Each file under tests/golden/ is a CLI output preceded by two `# golden`
lines: the command that wrote it (OUT standing for the output directory)
and its exit code. A rerun must give the same exit code, the same `#` lines
and header, and every data field within DATA_TOL. A deliberate change
regenerates a file with its own command; a regression is never hidden that
way.
"""

import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from tqd3d import cli

GOLDEN = Path(__file__).with_name("golden")
DATA_TOL = 1e-12


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in cli._FIELD_TYPES:
        monkeypatch.delenv(cli.ENV_PREFIX + key.upper(), raising=False)


def _golden(name):
    """(command words after `python -m tqd3d.cli`, exit code, CSV lines) of a golden file."""
    lines = (GOLDEN / name).read_text().splitlines()
    meta = dict(line.removeprefix("# golden ").split(" = ", 1)
                for line in lines if line.startswith("# golden "))
    return (shlex.split(meta["command"]), int(meta["exit code"]),
            [line for line in lines if not line.startswith("# golden ")])


def _run(words, out: Path, monkeypatch, *extra) -> int:
    """Run a golden command in-process: leading KEY=VALUE words set the environment."""
    while "=" in words[0]:
        key, _, value = words.pop(0).partition("=")
        monkeypatch.setenv(key, value)
    assert words[:3] == ["python", "-m", "tqd3d.cli"]
    return cli.main([str(out) if w == "OUT" else w for w in words[3:]] + list(extra))


def _split(lines):
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line for line in lines if not line.startswith("#")]
    return comments, header, np.array([[float(x) for x in row.split(",")] for row in rows])


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.csv")))
def test_golden_output(name, tmp_path, monkeypatch):
    words, code, expected = _golden(name)
    assert _run(words, tmp_path, monkeypatch) == code
    comments, header, data = _split((tmp_path / name).read_text().splitlines())
    want_comments, want_header, want = _split(expected)
    assert comments == want_comments
    assert header == want_header
    assert data.shape == want.shape
    assert np.array_equal(np.isnan(data), np.isnan(want))
    assert np.max(np.abs(data - want), initial=0.0, where=~np.isnan(want)) <= DATA_TOL


def test_open_sweep_threads_byte_identical(tmp_path, monkeypatch):
    words, code, _ = _golden("decoherence_surface.csv")
    threads = min(2, os.cpu_count() or 1)
    assert _run(list(words), tmp_path / "serial", monkeypatch) == code
    assert _run(list(words), tmp_path / "pool", monkeypatch, "--threads", str(threads)) == code
    name = "decoherence_surface.csv"
    assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
