"""Experiment configs, CLI, artifacts, reproducibility and the check gate."""

import json
import subprocess
import sys

import numpy as np
import pytest

import isofluid.experiments as E
from isofluid import diagnostics as diag
from isofluid import io as io_
from isofluid.cli import main as cli_main
from isofluid.spectral import Grid, ScalarField


def test_config_validation():
    with pytest.raises(E.BadConfig):
        E.ExperimentConfig.from_dict({"kind": "teleport"})
    with pytest.raises(E.BadConfig):
        E.ExperimentConfig.from_dict({"kind": "simulate", "warp": 9})
    with pytest.raises(E.BadConfig):
        E.ExperimentConfig.from_dict({"kind": "simulate", "schema_version": 99})
    cfg = E.ExperimentConfig.from_dict({"kind": "simulate", "t_end": 0.5})
    assert cfg.t_end == 0.5


def test_generators():
    g = Grid(1, 8.0, 128)
    st = E.make_initial(g, {"generator": "gaussian"})
    gamma_mass = float(np.exp(-g.r2).sum() * g.weight)
    assert abs(st.mass() - gamma_mass) < 1e-12
    st2 = E.make_initial(g, {"generator": "perturbed_gaussian", "amplitude": 0.3, "mode": 2})
    assert st2.mass() > 0
    with pytest.raises(E.BadConfig):
        E.make_initial(g, {"generator": "perturbed_gaussian", "amplitude": 1.5})
    st3 = E.make_initial(g, {"generator": "two_bump", "separation": 2.0})
    assert st3.sqrtR.values.min() >= 0.0
    st4 = E.make_initial(g, {"generator": "prepared_gaussian", "theta": 0.1, "iota": 0.3})
    assert st4.sqrtR.values.min() >= 0.1 - 1e-12
    with pytest.raises(E.BadConfig):
        E.make_initial(g, {"generator": "fractal"})
    psi = E.make_wavefunction(g, {"generator": "offset_gaussian", "offset": 0.3}, eps=1.0)
    assert abs(psi.mass() - gamma_mass) < 1e-10  # mass matched by default


def test_snapshot_roundtrip_bitwise(tmp_path):
    g = Grid(2, 3.0, 16)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = io_.write_snapshot(io_.snapshot_path(tmp_path, "R", 1.5), f, 1.5)
    assert path.name == "snap_t1.500000_R.isof"
    back, t = io_.read_snapshot(path)
    assert t == 1.5
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.isof"
        bad.write_bytes(b"NOPE" + bytes(32))
        io_.read_snapshot(bad)


def test_cli_tau(tmp_path):
    rc = cli_main(["tau", "--out", str(tmp_path), "--t-end", "5.0"])
    assert rc == 0
    rows = (tmp_path / "tau.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t,tau,taudot")
    assert len(rows) > 10
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert "config_hash" in meta


def test_cli_simulate_and_reproducibility(tmp_path):
    # at this coarse resolution the vacuum floor must sit above the scheme's
    # tail-ringing scale (the default 1e-10 * mean targets n >= 128 grids)
    cfg = {
        "kind": "simulate",
        "grid": {"d": 1, "ell": 6.0, "n": 64},
        "params": {"nu": 0.05, "eps": 0.1, "r1": 0.02, "dt_policy": "fixed", "dt": 5e-3,
                   "viscous_form": "bounded", "r_min": 1e-6},
        "initial": {"generator": "perturbed_gaussian", "amplitude": 0.2, "mode": 1},
        "t_end": 0.05,
        "snapshot_every": 5,
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csv1 = (out1 / "diagnostics.csv").read_bytes()
    csv2 = (out2 / "diagnostics.csv").read_bytes()
    assert csv1 == csv2  # identical config + seed -> bitwise identical CSV
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["status"] == "ok"
    assert meta["config_hash"] == io_.config_hash(meta["config"])
    assert (out1 / "diagnostics.columns.json").exists()
    snaps = sorted(out1.glob("snap_*_R.isof"))
    assert snaps, "snapshots were requested"
    field, t = io_.read_snapshot(snaps[0])
    assert field.grid.n == 64


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "simulate", "bogus_key": 1}))
    assert cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 3
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    assert cli_main(["simulate", "--config", str(worse), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "command,config",
    [
        (["simulate"], {"params": {"bogus": 1}}),
        (["simulate"], {"params": {"nu": -1}}),
        (["simulate"], {"grid": {"n": "x"}}),
        (["sweep", "--axis", "delta"], {"params": {"bogus": 1}}),
        (["simulate"], {"params": {"nu": 0.1},
                        "initial": {"generator": "prepared_gaussian", "theta": -1}}),
        (["simulate"], {"params": {"nu": 0.1},
                        "initial": {"generator": "perturbed_gaussian", "amplitude": "x"}}),
        (["simulate"], {"params": {"nu": 0.1}, "initial": "gaussian"}),
        (["simulate"], {"params": {"nu": 0.1}, "t_end": "x"}),
    ],
    ids=["unknown_param", "negative_nu", "non_integer_n", "sweep_unknown_param",
         "negative_theta", "non_numeric_amplitude", "initial_not_a_dict", "non_numeric_t_end"],
)
def test_cli_bad_construction_exits_3(tmp_path, command, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_cli_sweep_delta(tmp_path):
    cfg = {
        "grid": {"d": 1, "ell": 6.0, "n": 64},
        "params": {"nu": 0.05, "eps": 0.1, "r0": 0.01, "r1": 0.01,
                   "dt_policy": "fixed", "dt": 2e-3, "viscous_form": "bounded"},
        "initial": {"generator": "prepared_gaussian", "theta": 0.3, "iota": 0.4},
        "t_end": 0.05,
        "ladder": [1e-3, 1e-4, 1e-5],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "--axis", "delta", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("axis")
    meta = json.loads((out / "metadata.json").read_text())
    diffs = [row["l2_density_diff"] for row in meta["pairwise"]]
    assert len(diffs) == 2
    assert diffs[0] > diffs[1]  # paper's delta -> 0 convergence, numeric proxy


def test_cli_check_filter(tmp_path):
    rc = cli_main(["check", "--filter", "spectral", "--out", str(tmp_path)])
    assert rc == 0


def test_check_catches_injected_sign_error(monkeypatch):
    stress = diag.korteweg_stress
    monkeypatch.setattr(
        diag, "korteweg_stress", lambda sp, s: [[-a for a in row] for row in stress(sp, s)]
    )
    ok, failures = E.check(filter="korteweg", verbose=False)
    assert not ok
    assert any("korteweg_residual" in f for f in failures)


def test_console_entrypoint():
    out = subprocess.run(
        [sys.executable, "-m", "isofluid.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "simulate" in out.stdout
