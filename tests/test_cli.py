import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import signal
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from conftest import fresh_python
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tqd3d
from tqd3d import cli, dynamics, experiments
from tqd3d.pulses import PulseKind


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in cli._FIELD_TYPES:
        monkeypatch.delenv(cli.ENV_PREFIX + key.upper(), raising=False)


def read_csv(path):
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    return header, np.array([[float(x) for x in row] for row in data])


def test_pulses_outputs(tmp_path):
    assert cli.main(["--out", str(tmp_path), "pulses"]) == 0

    header, data = read_csv(tmp_path / "stirap_pulses.csv")
    assert header == ["t*g", "Omega_A/g", "Omega_B/g", "theta", "theta_dot"]
    theta = data[:, 3]
    assert abs(theta[0]) < 1e-4
    assert theta[-1] == pytest.approx(-0.9552, abs=1e-3)
    assert np.max(data[:, 1]) == pytest.approx(2 / np.sqrt(5) * 0.35, abs=1e-4)

    header, data = read_csv(tmp_path / "tqd_pulses.csv")
    assert header == ["t*g", "abs_Omega_A_prime/g", "Omega_B_prime/g",
                      "Omega_B_fitted/g"]
    assert np.max(data[:, 2]) == pytest.approx(0.7240, abs=1e-3)
    assert np.max(data[:, 3]) == pytest.approx(0.7088, abs=1e-3)
    # |Omega_A'| = sqrt(2) Omega_B' samplewise
    assert np.max(np.abs(data[:, 1] - np.sqrt(2) * data[:, 2])) < 1e-10

    assert (tmp_path / "stirap_pulses.gp").exists()
    assert (tmp_path / "tqd_pulses.gp").exists()
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "config_sha256 = " in manifest
    assert "outputs = stirap_pulses.csv;tqd_pulses.csv" in manifest


def test_manifest_records_versions(tmp_path):
    assert cli.main(["--out", str(tmp_path), "pulses"]) == 0
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    entries = dict(line.split(" = ", 1) for line in lines)
    assert entries["tqd3d_version"] == tqd3d.__version__
    assert entries["numpy_version"] == np.__version__
    assert entries["scipy_version"] == scipy.__version__
    assert entries["python_version"] == platform.python_version()


def _digest_run(tmp_path):
    """A config file plus one override, the digest hashlib gives of their text, and the env."""
    config = tmp_path / "run.cfg"
    config.write_text("t_f = 40.0  # shorter protocol\ndt = 0.01\n")
    env = {"TQD3D_DELTA": "3.2"}
    with mock.patch.dict(os.environ, env):
        _, text = cli.load_config(str(config))
    assert text == "t_f = 40.0\ndt = 0.01\ndelta = 3.2  # env"
    return config, hashlib.sha256(text.encode()).hexdigest(), env


def _manifest_digest(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)["config_sha256"]


def test_manifest_digest_is_sha256_of_the_config_text(tmp_path, monkeypatch):
    config, digest, env = _digest_run(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "pulses"]) == 0
    assert _manifest_digest(tmp_path) == digest


def test_manifest_digest_through_hashlib(tmp_path):
    # Without CPython's built-in SHA-256 modules cli falls back on hashlib,
    # with the same digest.
    config, digest, env = _digest_run(tmp_path)
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from tqd3d import cli; print('hashlib' in sys.modules); "
            "sys.exit(cli.main(['--config', sys.argv[1], '--out', sys.argv[2], 'pulses']))")
    proc = fresh_python("-c", code, str(config), str(tmp_path), env=env)
    assert proc.stdout.splitlines()[0] == "True"
    assert _manifest_digest(tmp_path) == digest


def test_config_file_and_env_override(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("t_f = 40.0  # shorter protocol\ndt = 0.01\n")
    monkeypatch.setenv("TQD3D_T_F", "30.0")
    cfg, text = cli.load_config(str(config))
    assert cfg.t_f == 30.0
    assert cfg.dt == 0.01
    assert "t_f = 30.0  # env" in text


def test_malformed_config_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("not_a_key = 5\n")
    code = cli.main(["--config", str(config), "--out", str(tmp_path), "pulses"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad.cfg:1" in err
    assert "unknown key" in err


def test_bad_value_and_missing_file(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("dt = fast\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "pulses"]) == 2
    assert cli.main(["--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path), "pulses"]) == 2


def test_config_not_utf8_exit_code(tmp_path, capsys):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"dt = 0.01\n\xff\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "pulses"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {config}") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("SURFACE_TF", "10:100:46\n1,2,3"),
                                        ("DT", "0.002\n"), ("DELTA", "1\t")])
def test_non_printable_config_value_exits_2_without_output(tmp_path, monkeypatch, capsys,
                                                           key, value):
    # A newline would write a bare line into the CSV's '#' block and the manifest.
    monkeypatch.setenv(f"TQD3D_{key}", value)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "simulate", "--method", "tqd"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: bad value for {key.lower()!r}")
    assert not out.exists()


def test_parse_range():
    values = cli.parse_range("0:1:5")
    assert np.allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(cli.ConfigError):
        cli.parse_range("1:0:5")
    with pytest.raises(cli.ConfigError):
        cli.parse_range("0:1")


def test_simulate_closed_fitted(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("dt = 0.01\n")
    code = cli.main(["--config", str(config), "--out", str(tmp_path),
                     "simulate", "--method", "tqd-fitted", "--closed"])
    assert code == 0
    out = capsys.readouterr().out
    fidelity = float(out.strip().split("=")[1])
    assert fidelity >= 0.99
    header, data = read_csv(tmp_path / "simulate_tqd-fitted_closed.csv")
    assert header[-1] == "F"
    assert data[-1, -1] == pytest.approx(fidelity, abs=1e-6)


def test_simulate_detects_miscalibrated_amplitude(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("dt = 0.01\nfit_amp1 = 0.7722\n")  # doubled first amplitude
    assert cli.main(["--config", str(config), "--out", str(tmp_path),
                     "simulate", "--method", "tqd-fitted", "--closed"]) == 0
    fidelity = float(capsys.readouterr().out.strip().split("=")[1])
    assert fidelity < 0.95


def test_simulate_prints_positivity_warnings(tmp_path, monkeypatch, capsys):
    # A coarse step at a large kappa takes rho's least eigenvalue to -1.07e-5,
    # below -POSITIVITY_TOL at five recorded points; the run still succeeds.
    for key, value in (("DT", "0.3"), ("KAPPA", "2"), ("GAMMA", "0"), ("RECORD_EVERY", "1")):
        monkeypatch.setenv(f"TQD3D_{key}", value)
    assert cli.main(["--out", str(tmp_path / "warned"), "simulate", "--open"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "final_fidelity=0.134769\n"
    assert captured.err == ("5 positivity warnings, min eigenvalue -1.07e-05; first: "
                            "eigenvalue -1.05e-05 < -1e-05 at t=27.25\n")
    _, data = read_csv(tmp_path / "warned" / "simulate_tqd-fitted_open.csv")
    assert data.shape == (168, 11) and np.isfinite(data).all()  # t = 0 and 167 steps
    for key in ("DT", "KAPPA", "GAMMA", "RECORD_EVERY"):  # the default run warns of nothing
        monkeypatch.delenv(f"TQD3D_{key}")
    assert cli.main(["--out", str(tmp_path / "clean"), "simulate", "--open"]) == 0
    assert capsys.readouterr().err == ""


def test_negative_zero_rates_write_the_rows_of_zero_rates(tmp_path, monkeypatch):
    # A -0.0 coefficient gives +0.0 weights, so no field becomes "-0".
    monkeypatch.setenv("TQD3D_DT", "0.05")
    rows = {}
    for rate in ("0.0", "-0.0"):
        monkeypatch.setenv("TQD3D_KAPPA", rate)
        monkeypatch.setenv("TQD3D_GAMMA", rate)
        assert cli.main(["--out", str(tmp_path / rate), "simulate", "--open"]) == 0
        text = (tmp_path / rate / "simulate_tqd-fitted_open.csv").read_text()
        rows[rate] = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows["-0.0"] == rows["0.0"]
    assert "-0" not in {field for line in rows["-0.0"] for field in line.split(",")}


def test_sweep_figure_4b(tmp_path, monkeypatch):
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "3:4:3")
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.02")
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b"]) == 0
    header, data = read_csv(tmp_path / "fidelity_vs_delta.csv")
    assert header == ["delta/g", "F"]
    assert data.shape == (3, 2)
    assert np.all(data[:, 1] > 0.99)
    assert (tmp_path / "fidelity_vs_delta.gp").exists()
    assert (tmp_path / "manifest.txt").exists()


def test_sweep_figure_4b_default_grid_matches_references(tmp_path):
    # The figure's own grid (0.5:10:39 at sweep_dt 0.01) against the recorded
    # benchmark fidelities, which were taken from the per-cell runner.
    references = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "references.json").read_text())
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b"]) == 0
    _, data = read_csv(tmp_path / "fidelity_vs_delta.csv")
    expected = references["sweep_4b"]["values"][:39]
    assert np.allclose(data[:, 0], 0.5 + 0.25 * np.arange(39))
    assert np.max(np.abs(data[:, 1] - expected)) <= references["tolerance"]


def test_sweep_figure_9(tmp_path, monkeypatch):
    monkeypatch.setenv("TQD3D_DECOHERENCE_KAPPA", "0:0.02:2")
    monkeypatch.setenv("TQD3D_DECOHERENCE_GAMMA", "0:0.02:2")
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.02")
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "9"]) == 0
    header, data = read_csv(tmp_path / "decoherence_surface.csv")
    assert header == ["kappa/g", "gamma/g", "F"]
    assert data.shape == (4, 3)
    fid = data[:, 2].reshape(2, 2)
    assert fid[0, 0] > 0.99
    assert np.all(fid <= fid[0, 0] + 1e-12)


def test_sweep_grid_cap_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TQD3D_SURFACE_TF", "10:100:300")
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "0.5:10:300")
    code = cli.main(["--out", str(tmp_path), "sweep", "--figure", "4a"])
    assert code == cli.EXIT_CAP
    assert "resource cap" in capsys.readouterr().err


def test_sweep_count_over_grid_cap_exits_before_allocating(tmp_path, monkeypatch, capsys):
    """A count of 1e13 points is refused by the cap, not by an 80 TB linspace."""
    def no_linspace(*args, **kwargs):
        raise AssertionError("a range past the grid cap reached np.linspace")

    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "0.5:10:10000000000000")
    code = cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b"])
    assert code == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and err.count("\n") == 1


def _simulated_fidelity(out, method) -> float:
    return read_csv(out / f"simulate_{method}_closed.csv")[1][-1, -1]


def test_sweep_4b_honours_pulse_shape(tmp_path, monkeypatch):
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "3.6:3.6:1")
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.05")
    monkeypatch.setenv("TQD3D_DT", "0.05")
    fids = {}
    for tau_frac in ("0.12", "0.2"):
        monkeypatch.setenv("TQD3D_TAU_FRAC", tau_frac)
        out = tmp_path / tau_frac
        assert cli.main(["--out", str(out), "sweep", "--figure", "4b"]) == 0
        fids[tau_frac] = read_csv(out / "fidelity_vs_delta.csv")[1][0, 1]
        assert cli.main(["--out", str(out), "simulate", "--method", "tqd"]) == 0
        # the 4b cell at the configured t_f and delta is the closed tqd run
        assert fids[tau_frac] == _simulated_fidelity(out, "tqd")
    assert abs(fids["0.12"] - fids["0.2"]) > 1e-3


def test_sweep_8_honours_fitted_pulse(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("dt = 0.05\nsweep_dt = 0.05\nfit_amp1 = 0.7722\n"
                      "robustness_dev = 0:0:1\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path),
                     "sweep", "--figure", "8"]) == 0
    header, data = read_csv(tmp_path / "robustness.csv")
    assert cli.main(["--config", str(config), "--out", str(tmp_path),
                     "simulate", "--method", "tqd-fitted"]) == 0
    fidelity = _simulated_fidelity(tmp_path, "tqd-fitted")
    assert fidelity < 0.95
    for column in range(1, len(header)):
        assert data[0, column] == fidelity


def test_sweep_failed_cells_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "-1:3.6:2")
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.05")
    code = cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b"])
    assert code == cli.EXIT_INSTABILITY
    assert "1 of 2 cells failed" in capsys.readouterr().err
    text = (tmp_path / "fidelity_vs_delta.csv").read_text()
    assert "# cell_0_error = PulseSynthesisError: " in text
    data = read_csv(tmp_path / "fidelity_vs_delta.csv")[1]
    assert np.isnan(data[0, 1])
    assert data[1, 1] > 0.99


def test_sweep_4c_failed_cells_exit_code(tmp_path, monkeypatch, capsys):
    # Each t_f is a schedule and a StirapParams of its own; delta = -1 clashes
    # with theta_dot from t = 0 on in every one.
    monkeypatch.setenv("TQD3D_DELTA", "-1")
    monkeypatch.setenv("TQD3D_SURFACE_TF", "10:100:3")
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "4c"]) == cli.EXIT_INSTABILITY
    assert "3 of 3 cells failed" in capsys.readouterr().err
    text = (tmp_path / "fidelity_vs_tf.csv").read_text()
    for cell in range(3):
        assert (f"# cell_{cell}_error = PulseSynthesisError: delta*theta_dot > 0 at t=0; "
                "cannot take a real amplitude root\n") in text
    data = read_csv(tmp_path / "fidelity_vs_tf.csv")[1]
    assert np.array_equal(data[:, 0], [10.0, 55.0, 100.0]) and np.isnan(data[:, 1]).all()


# At width_frac = 0.01 both Gaussians of the pulse pair underflow near t = 0,
# where theta_dot is 0/0: no counterdiabatic pulse there.
_VANISHED = "theta_dot not finite at t=0: the pulse pair vanishes there"


@pytest.mark.parametrize("setting, argv, message", [
    ("TQD3D_WIDTH_FRAC=0.01", ["simulate", "--method", "tqd"], _VANISHED),
    ("TQD3D_WIDTH_FRAC=0.01", ["simulate", "--method", "tqd", "--open"], _VANISHED),
    ("TQD3D_WIDTH_FRAC=0.01", ["pulses"], _VANISHED),
    ("TQD3D_DELTA=-1", ["pulses"],
     "delta*theta_dot > 0 at t=0; cannot take a real amplitude root"),
], ids=["vanished_closed", "vanished_open", "vanished_pulses", "negative_delta_pulses"])
def test_no_counterdiabatic_pulse_exits_2_without_output(tmp_path, monkeypatch, capsys,
                                                         setting, argv, message):
    key, _, value = setting.partition("=")
    monkeypatch.setenv(key, value)
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: no counterdiabatic pulse for these settings: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_vanished_pulse_pair_fails_sweep_cells(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TQD3D_WIDTH_FRAC", "0.01")
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "1:3.6:2")
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.05")
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b"]) == cli.EXIT_INSTABILITY
    assert "2 of 2 cells failed" in capsys.readouterr().err
    text = (tmp_path / "fidelity_vs_delta.csv").read_text()
    for cell in range(2):
        assert f"# cell_{cell}_error = PulseSynthesisError: {_VANISHED}\n" in text
    assert np.isnan(read_csv(tmp_path / "fidelity_vs_delta.csv")[1][:, 1]).all()


def test_sweep_cell_bug_propagates(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("bug in a cell")

    monkeypatch.setattr(cli.experiments, "simulate_closed_batch", broken)
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "3:4:2")
    code = cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b", "--threads", "1"])
    assert code == cli.EXIT_SOFTWARE
    first, *rest = capsys.readouterr().err.splitlines()
    assert first == "internal error: TypeError: bug in a cell"
    assert rest[0] == "Traceback (most recent call last):" and "in broken" in "\n".join(rest)


def _dies_in_a_worker(*args, **kwargs):
    """A sweep batch whose worker process dies, as one the out-of-memory killer ends."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("the batch ran in the parent process")
    os._exit(9)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two worker processes")
def test_a_dead_sweep_worker_exits_70(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.experiments, "simulate_closed_batch", _dies_in_a_worker)
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "3:4:2")
    code = cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b", "--threads", "2"])
    assert code == cli.EXIT_SOFTWARE
    first, *rest = capsys.readouterr().err.splitlines()
    assert first.startswith("internal error: a worker process died (BrokenProcessPool: ")
    assert rest[0] == "Traceback (most recent call last):"
    assert not list(tmp_path.glob("*.csv"))


def _children(pid):
    return [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two worker processes")
@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/PID/task/TID/children to find the workers")
def test_sigint_exits_130_and_leaves_no_worker(tmp_path):
    # in a session of its own, so the finally ends its workers too
    proc = fresh_python("-m", "tqd3d.cli", "--out", str(tmp_path), "sweep", "--figure", "4a",
                        "--threads", "2", popen=True)
    try:
        deadline = time.monotonic() + 30
        while len(workers := _children(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(workers) == 2, "the sweep started no pool"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
        assert (proc.returncode, out, err) == (cli.EXIT_INTERRUPT, "", "interrupted\n")
        deadline = time.monotonic() + 5
        while any(Path(f"/proc/{pid}").exists() for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
        assert not list(tmp_path.glob("*.csv"))
    finally:
        # Only after the checks: a worker the CLI left must fail the test, not die here.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group has ended
            pass
        proc.wait()


@pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1])
def test_threads_validated_before_work(tmp_path, monkeypatch, capsys, threads):
    def no_work(*args, **kwargs):
        raise AssertionError("sweep started despite an invalid thread count")

    monkeypatch.setattr(cli.experiments, "_run_cells", no_work)
    argv = ["--out", str(tmp_path), "sweep", "--figure", "4b"]
    assert cli.main(argv + ["--threads", str(threads)]) == cli.EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err
    monkeypatch.setenv("TQD3D_THREADS", str(threads))
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert cli.main(argv + ["--threads", "1"]) == cli.EXIT_CONFIG
    assert "threads" in capsys.readouterr().err


def test_sweep_8_threads_match(tmp_path, monkeypatch):
    # Fig 8 has four schedules; fig 4b has one, cut 20 + 19 at two threads.
    monkeypatch.setenv("TQD3D_ROBUSTNESS_DEV", "-0.1:0.1:3")
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.05")
    for figure, name, header, count in [
            ("8", "robustness", "deviation,F_t_f,F_g,F_delta,F_amplitude", 3),
            ("4b", "fidelity_vs_delta", "delta/g,F", 39)]:
        rows = {}
        for threads in (1, min(2, os.cpu_count() or 1)):
            out = tmp_path / figure / str(threads)
            assert cli.main(["--out", str(out), "sweep", "--figure", figure,
                             "--threads", str(threads)]) == 0
            lines = (out / f"{name}.csv").read_text().splitlines()
            rows[threads] = [line for line in lines if not line.startswith("#")]
        assert rows[1][0] == header
        assert len(rows[1]) == 1 + count
        assert len(set(map(tuple, rows.values()))) == 1


def test_sweep_provenance_names_pulse_shape(tmp_path, monkeypatch):
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.05")
    monkeypatch.setenv("TQD3D_SURFACE_DELTA", "3.6:3.6:1")
    monkeypatch.setenv("TQD3D_TAU_FRAC", "0.2")
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "4b"]) == 0
    text = (tmp_path / "fidelity_vs_delta.csv").read_text()
    assert "# tau_frac = 0.2\n" in text and "# width_frac = 0.16\n" in text

    monkeypatch.setenv("TQD3D_DECOHERENCE_KAPPA", "0:0:1")
    monkeypatch.setenv("TQD3D_DECOHERENCE_GAMMA", "0:0:1")
    monkeypatch.setenv("TQD3D_FIT_AMP1", "0.39")
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", "9"]) == 0
    text = (tmp_path / "decoherence_surface.csv").read_text()
    assert "# pulse_kind = tqd-fitted\n" in text and "# fit_amp1 = 0.39\n" in text


@pytest.mark.parametrize("setting, argv", [
    ("TQD3D_DELTA=-1", ["simulate", "--method", "tqd"]),
    ("TQD3D_TAU_FRAC=0.6", ["pulses"]),
    ("TQD3D_KAPPA=-1", ["simulate", "--open"]),
    ("TQD3D_DELTA=0", ["simulate", "--method", "tqd"]),
    ("TQD3D_DELTA=0", ["sweep", "--figure", "8"]),
    ("TQD3D_OMEGA0=1e160", ["simulate", "--method", "tqd"]),
    ("TQD3D_OMEGA0=1e300", ["simulate", "--method", "tqd"]),
    ("TQD3D_OMEGA0=1e300", ["sweep", "--figure", "4b"]),
], ids=["negative_delta", "tau_frac", "negative_kappa", "zero_delta_simulate",
        "zero_delta_sweep_8", "omega0_squared_overflows", "omega0_huge",
        "omega0_huge_sweep_4b"])
def test_bad_physical_setting_exit_code(tmp_path, monkeypatch, capsys, setting, argv):
    key, _, value = setting.partition("=")
    monkeypatch.setenv(key, value)
    monkeypatch.setenv("TQD3D_DT", "0.05")
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("settings, method, open_system, message", [
    ("TQD3D_DELTA=60", "tqd", False,
     r"norm drift 9\.30e\+05 > 1e-06 at t=2\.5; reduce dt"),
    ("TQD3D_KAPPA=60", "tqd-fitted", True,
     r"trace drift (?P<drift>\S+) > 1e-04 at t=10; reduce dt"),
    ("TQD3D_DELTA=1000", "tqd", False,
     r"norm drift inf > 1e-06 at t=2\.5; reduce dt"),
    ("TQD3D_DELTA=1e308 TQD3D_DT=5", "tqd-fitted", False,
     r"norm drift nan > 1e-06 at t=50; reduce dt"),
], ids=["closed", "open", "norm_overflows", "weights_overflow"])
def test_simulate_instability_exit_code(tmp_path, monkeypatch, capsys, settings, method,
                                        open_system, message):
    """A single run that drifts exits 3 with the note its cell gets in a sweep.

    Its one stderr line is that note: an overflow in the run warns nothing,
    and finite coefficients whose weights overflow are a drift, not
    coefficients that are not finite.
    """
    monkeypatch.setenv("TQD3D_DT", "0.05")
    for setting in settings.split():
        key, _, value = setting.partition("=")
        monkeypatch.setenv(key, value)
    argv = ["simulate", "--method", method, "--open" if open_system else "--closed"]
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_INSTABILITY
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    match = re.fullmatch(f"numerical instability: ({message})\n", err)
    assert match
    if open_system:
        drift = float(match["drift"])
        assert math.isfinite(drift) and drift > dynamics.TRACE_TOL

    cfg, _ = cli.load_config(None)
    params = cfg.model_params()
    batch = experiments.simulate_open_batch if open_system else experiments.simulate_closed_batch
    ((f, note),) = batch([(params, cfg.pulse_set(PulseKind(method)))], params.t_f,
                         cfg.integrator())
    assert math.isnan(f)
    assert note == f"IntegratorInstabilityError: {match[1]}"


def test_io_error_exit_code(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert cli.main(["--out", str(out), "pulses"]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    # an unreadable config file stays a configuration error
    assert cli.main(["--config", str(tmp_path), "--out", str(tmp_path / "o"),
                     "pulses"]) == cli.EXIT_CONFIG


def test_verify_writes_report(tmp_path, monkeypatch, capsys):
    from tqd3d import verify

    monkeypatch.setattr(verify, "CRITERIA", (verify.check_boundary_conditions,
                                             verify.check_oracle_equivalence))
    assert cli.main(["--out", str(tmp_path), "verify"]) == cli.EXIT_OK
    assert capsys.readouterr().out.count("PASS ") == 2
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert [c["passed"] for c in report["criteria"]] == [True, True]
    assert all(c["wall_s"] > 0 for c in report["criteria"])


@pytest.mark.parametrize("setting, figure", [
    ("TQD3D_ROBUSTNESS_DEV=-0.6:0.1:3", "8"),
    ("TQD3D_DECOHERENCE_KAPPA=-0.1:0:2", "9"),
    ("TQD3D_SURFACE_DELTA=-1:1:3", "4b"),
    ("TQD3D_SURFACE_TF=-10:50:2", "4c"),
    ("TQD3D_SURFACE_DELTA=0.5:10:0", "4b"),
    ("TQD3D_DELTA=0", "4c"),
], ids=["deviation", "negative_kappa", "zero_delta", "negative_tf", "empty_range",
        "fixed_zero_delta"])
def test_sweep_axis_outside_domain_exit_code(tmp_path, monkeypatch, capsys, setting, figure):
    def no_work(*args, **kwargs):
        raise AssertionError("sweep started despite an invalid axis value")

    monkeypatch.setattr(cli.experiments, "_run_cells", no_work)
    key, _, value = setting.partition("=")
    monkeypatch.setenv(key, value)
    assert cli.main(["--out", str(tmp_path), "sweep", "--figure", figure]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


# Each probe runs its commands in one fresh interpreter and checks, after the import and
# after each command, that none of its modules is loaded; then that each output file
# exists, and for a sweep that its CSV has the rows and columns its settings give.
_PROBES = {
    # scipy.optimize is a third of the import time; only pulse fitting needs it.
    # The process pool takes 5-7 ms more; only a sweep with threads > 1 needs it.
    # scipy.sparse takes about 160 ms; dynamics loads only its compiled kernels.
    # scipy itself is read only for the manifest's version line.
    # hashlib loads OpenSSL's _hashlib, 3.6 MB, for the manifest's one SHA-256.
    "import_leaves_out_the_fitter": (
        [], {}, ["scipy.optimize", "concurrent.futures.process", "scipy.sparse", "scipy",
                 "_hashlib"], {}),
    # Closed runs apply their operators with the kernels alone; of the
    # commands only verify's pulse fit loads scipy.sparse, through scipy.optimize.
    "closed_runs_leave_out_scipy_sparse": (
        [["simulate", "--method", "tqd"], ["sweep", "--figure", "4b"]],
        {"TQD3D_DT": "0.05", "TQD3D_SURFACE_DELTA": "3:4:3"}, ["scipy.sparse"],
        {"simulate_tqd_closed.csv": None, "fidelity_vs_delta.csv": (3, 2)}),
    # The Liouvillian and its dissipators are built with numpy alone. numpy.ma
    # (1.2 MB) stays out too: a bare np.unique imports it.
    "open_runs_leave_out_scipy_sparse": (
        [["simulate", "--open"], ["sweep", "--figure", "9"]],
        {"TQD3D_DT": "0.05", "TQD3D_SWEEP_DT": "0.05",
         "TQD3D_DECOHERENCE_KAPPA": "0:0.02:2", "TQD3D_DECOHERENCE_GAMMA": "0:0.02:2"},
        ["scipy.sparse", "numpy.ma"],
        {"simulate_tqd-fitted_open.csv": None, "decoherence_surface.csv": (4, 3)}),
    # rho's blocks come from hilbert.closure: importing scipy.sparse.csgraph
    # for them would add about 11 MB to the peak RSS of an open run.
    "open_simulate_leaves_out_csgraph": (
        [["simulate", "--open"]], {"TQD3D_DT": "0.05"}, ["scipy.sparse.csgraph"],
        {"simulate_tqd-fitted_open.csv": None}),
}


@pytest.mark.parametrize("commands, env, modules, outputs", _PROBES.values(), ids=_PROBES)
def test_fresh_interpreter_leaves_out(tmp_path, commands, env, modules, outputs):
    code = ("import sys, tqd3d.cli\n"
            f"print('probe', 0, *[m in sys.modules for m in {modules!r}])\n"
            f"for argv in {commands!r}:\n"
            "    code = tqd3d.cli.main(['--out', sys.argv[1], *argv])\n"
            f"    print('probe', code, *[m in sys.modules for m in {modules!r}])\n")
    proc = fresh_python("-c", code, str(tmp_path), env=env, timeout=120)
    probes = [line for line in proc.stdout.splitlines() if line.startswith("probe ")]
    assert probes == [" ".join(["probe", "0"] + ["False"] * len(modules))] * (1 + len(commands))
    for name, shape in outputs.items():
        assert (tmp_path / name).exists()
        if shape is not None:
            assert read_csv(tmp_path / name)[1].shape == shape


@pytest.mark.parametrize("setting, argv, code", [
    ("TQD3D_DT=100", ["simulate"], cli.EXIT_CONFIG),
    ("TQD3D_DT=nan", ["simulate"], cli.EXIT_CONFIG),
    ("TQD3D_DT=inf", ["simulate"], cli.EXIT_CONFIG),
    ("TQD3D_RECORD_EVERY=0", ["simulate"], cli.EXIT_CONFIG),
    ("TQD3D_SWEEP_DT=100", ["sweep", "--figure", "4a"], cli.EXIT_CONFIG),
    ("TQD3D_SWEEP_DT=100", ["sweep", "--figure", "4b"], cli.EXIT_CONFIG),
    ("TQD3D_SWEEP_DT=30", ["sweep", "--figure", "4c"], cli.EXIT_CONFIG),  # the swept t_f = 10
    ("TQD3D_SWEEP_DT=60", ["sweep", "--figure", "8"], cli.EXIT_CONFIG),  # deviation -0.5: t_f 25
    ("TQD3D_DT=1e-320", ["simulate"], cli.EXIT_CAP),  # t_f / dt overflows to inf
    ("TQD3D_SWEEP_DT=1e-320", ["sweep", "--figure", "4b"], cli.EXIT_CAP),
    ("TQD3D_SURFACE_TF=10:1e9:2", ["sweep", "--figure", "4c"], cli.EXIT_CAP),  # 1e11 steps
], ids=["dt_100", "dt_nan", "dt_inf", "record_every_0", "sweep_dt_100_4a", "sweep_dt_100",
        "swept_tf",
        "tf_deviation", "dt_subnormal_cap", "sweep_dt_subnormal_cap", "swept_tf_cap"])
def test_step_settings_exit_2_before_work(tmp_path, monkeypatch, capsys, setting, argv, code):
    """A step setting that cannot run exits 2, one over dynamics.STEP_CAP exits 4."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started despite a step setting that cannot run")

    monkeypatch.setattr(cli.experiments, "_run_cells", no_work)
    monkeypatch.setattr(cli.experiments, "simulate_closed", no_work)
    key, _, value = setting.partition("=")
    monkeypatch.setenv(key, value)
    if key == "TQD3D_SWEEP_DT" and value == "60":
        monkeypatch.setenv("TQD3D_ROBUSTNESS_DEV", "-0.5:0:3")
    assert cli.main(["--out", str(tmp_path), *argv]) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == cli.EXIT_CONFIG else "resource cap: "
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("settings, argv, outputs", [
    ({"DT": "1e-300"}, ["verify"], ["verify_report.json"]),
    ({"DT": "1e-300"}, ["pulses"], ["stirap_pulses.csv", "tqd_pulses.csv"]),
    ({"T_F": "1e6", "SURFACE_TF": "40:50:2", "SURFACE_DELTA": "3:4:2"},
     ["sweep", "--figure", "4a"], ["fidelity_surface.csv"]),
    ({"SWEEP_DT": "1e-9", "DT": "0.05"}, ["simulate", "--method", "tqd"],
     ["simulate_tqd_closed.csv"]),
], ids=["verify_dt", "pulses_dt", "4a_t_f", "simulate_sweep_dt"])
def test_command_not_refused_on_steps_it_does_not_take(tmp_path, monkeypatch, settings, argv,
                                                       outputs):
    """A step setting that would cap or stop another command's run does not stop this one."""
    for key, value in settings.items():
        monkeypatch.setenv(cli.ENV_PREFIX + key, value)
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_OK
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
        if name.endswith(".csv"):
            assert (tmp_path / name).with_suffix(".gp").exists()
    if argv != ["verify"]:
        assert f"outputs = {';'.join(outputs)}" in (tmp_path / "manifest.txt").read_text()


@pytest.mark.parametrize("argv", [["simulate"], ["simulate", "--open"],
                                  ["sweep", "--figure", "4b"]], ids=["closed", "open", "4b"])
def test_recorded_memory_cap_exits_4_before_a_step(tmp_path, monkeypatch, capsys, argv):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran despite recorded points over the cap")

    # A fig-4b cell keeps a time and a fidelity at each of its 101 recorded
    # points: 1616 bytes.
    monkeypatch.setattr(dynamics, "RECORD_CAP", 1000)
    monkeypatch.setattr(dynamics, "_batch_csr", no_step)
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert re.fullmatch(r"resource cap: \d+ recorded points take \d+ bytes per cell, "
                        r"more than 1000; raise record_every or dt\n", err)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("over, record_every", [(0, None), (1, None), (0, "50"), (0, "25")],
                         ids=["at", "over", "record_every_50", "record_every_25"])
def test_recorded_memory_cap_does_not_depend_on_threads(tmp_path, monkeypatch, capsys, over,
                                                        record_every):
    # Fig 4b at dt 0.05: 1000 steps, 21 recorded points of 16 bytes per cell
    # (a sweep keeps the time and fidelity of each), in one 39-cell batch at
    # one thread and 20 + 19 at two. Recording every 25th step keeps 41 points.
    monkeypatch.setenv("TQD3D_SWEEP_DT", "0.05")
    if record_every:
        monkeypatch.setenv("TQD3D_RECORD_EVERY", record_every)
    monkeypatch.setattr(dynamics, "RECORD_CAP", 21 * 16 - over)
    capped = over or record_every == "25"
    codes = [cli.main(["--out", str(tmp_path / str(threads)), "sweep", "--figure", "4b",
                       "--threads", str(threads)])
             for threads in (1, min(2, os.cpu_count() or 1))]
    assert codes == [cli.EXIT_CAP if capped else 0] * 2
    assert capsys.readouterr().err.count("resource cap:") == 2 * capped


_NUMERIC_KEYS = [f.name for f in cli.fields(cli.RunConfig) if f.type in ("float", "int")]
_TESTED_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e300"]
# Each command with the step and grid settings that keep it short; the tested
# key's own setting replaces them.
_COMMANDS = {
    "pulses": (["pulses"], {}),
    "simulate": (["simulate", "--open", "--method", "tqd-fitted"], {"dt": "0.05"}),
    **{f"sweep-{figure}": (["sweep", "--figure", figure], {
        "sweep_dt": "0.05", "surface_tf": "40:50:2", "surface_delta": "3:4:2",
        "robustness_dev": "-0.1:0.1:2", "decoherence_kappa": "0:0.05:2",
        "decoherence_gamma": "0:0.05:2"}) for figure in ("4b", "4c", "8", "9")},
}


@pytest.mark.parametrize("key, value, command", [
    pytest.param(key, value, command,
                 id=f"{key}-{value}" + ("" if command == "simulate" else f"-{command}"))
    for command in _COMMANDS for key in _NUMERIC_KEYS for value in _TESTED_VALUES])
def test_non_finite_setting_gives_no_nan_output(tmp_path, monkeypatch, key, value, command):
    """A run with a non-finite, zero, negative, tiny or huge setting exits 0, 2, 3 or 4.

    Exit 0 means no NaN in any CSV. Runs are `pulses`, `simulate --open` and
    the closed and open sweeps on 2-cell grids.
    """
    argv, short = _COMMANDS[command]
    for name, setting in {**short, key: value}.items():
        monkeypatch.setenv(cli.ENV_PREFIX + name.upper(), setting)
    code = cli.main(["--out", str(tmp_path), *argv])
    fields = [field for csv in tmp_path.glob("*.csv")
              for line in csv.read_text().splitlines() if not line.startswith("#")
              for field in line.split(",")]
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INSTABILITY, cli.EXIT_CAP)
    assert code != cli.EXIT_OK or "nan" not in fields


@pytest.mark.parametrize("command", ["simulate", "sweep-4b"])
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_NUMERIC_KEYS),
       value=st.one_of(st.floats(), st.integers(-10**6, 10**6)).map(repr))
def test_drawn_setting_gives_no_nan_output(command, key, value):
    """As test_non_finite_setting_gives_no_nan_output, for one drawn setting of a numeric key.

    The floats include NaN, +-inf, 0, negative, subnormal and huge values.
    Draws that pass the configuration checks but take more than 20 000 steps
    are skipped. The environment is set per draw (the autouse fixture runs
    once per test).
    """
    argv, short = _COMMANDS[command]
    env = {cli.ENV_PREFIX + name.upper(): setting
           for name, setting in {**short, key: value}.items()}
    with mock.patch.dict(os.environ, env), tempfile.TemporaryDirectory() as out:
        try:  # the command's own step, which it prices before any work
            cfg, _ = cli.load_config(None)
            steps = dynamics.step_count(cfg.t_f, cfg.dt if command == "simulate" else cfg.sweep_dt)
        except ValueError:  # a config error or a step cap: no work starts
            pass
        else:
            assume(steps <= 20_000)
        code = cli.main(["--out", out, *argv])
        fields = [field for csv in Path(out).glob("*.csv")
                  for line in csv.read_text().splitlines() if not line.startswith("#")
                  for field in line.split(",")]
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INSTABILITY, cli.EXIT_CAP)
    assert code != cli.EXIT_OK or "nan" not in fields
