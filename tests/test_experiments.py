"""Experiment configs, CLI, artifacts, reproducibility and the check gate."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

import isofluid.experiments as E
from isofluid import diagnostics as diag
from isofluid import io as io_
from isofluid import solver
from isofluid.cli import main as cli_main
from isofluid.spectral import Grid


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
    assert abs(g.quad(st.R) - gamma_mass) < 1e-12
    st2 = E.make_initial(g, {"generator": "perturbed_gaussian", "amplitude": 0.3, "mode": 2})
    assert g.quad(st2.R) > 0
    with pytest.raises(E.BadConfig):
        E.make_initial(g, {"generator": "perturbed_gaussian", "amplitude": 1.5})
    st3 = E.make_initial(g, {"generator": "two_bump", "separation": 2.0})
    assert st3.R.min() >= 0.0
    st4 = E.make_initial(g, {"generator": "prepared_gaussian", "theta": 0.1, "iota": 0.3})
    assert np.sqrt(st4.R).min() >= 0.1 - 1e-12
    with pytest.raises(E.BadConfig):
        E.make_initial(g, {"generator": "fractal"})
    psi = E.make_wavefunction(g, {"generator": "offset_gaussian", "offset": 0.3}, eps=1.0)
    assert abs(g.quad(np.abs(psi.psi) ** 2) - gamma_mass) < 1e-10  # mass matched by default


def test_snapshot_roundtrip_bitwise(tmp_path):
    g = Grid(2, 3.0, 16)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    path = io_.write_snapshot(io_.snapshot_path(tmp_path, "R", 1.5), g, f, 1.5)
    assert path.name == "snap_t1.500000_R.isof"
    back, t = io_.read_snapshot(path)
    assert t == 1.5
    assert back.grid == g
    assert np.array_equal(back.values, f)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.isof"
        bad.write_bytes(b"NOPE" + bytes(32))
        io_.read_snapshot(bad)
    good = path.read_bytes()
    for name, data in (("short_header", good[:31]), ("short_body", good[:-8]),
                       ("trailing_bytes", good + bytes(8))):
        bad = tmp_path / f"{name}.isof"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=name):
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
    assert meta["cfl_binding"] == {}  # fixed step: no CFL family binds
    assert meta["config_hash"] == io_.config_hash(meta["config"])
    assert (out1 / "diagnostics.columns.json").exists()
    snaps = sorted(out1.glob("snap_*_R.isof"))
    assert snaps, "snapshots were requested"
    field, t = io_.read_snapshot(snaps[0])
    assert field.grid.n == 64


@pytest.mark.parametrize("command", ["simulate", "longtime"])
def test_cli_metadata_counts_cfl_binding(tmp_path, command):
    cfg = {
        "grid": {"d": 1, "ell": 8.0, "n": 64},
        "params": {"nu": 0.1, "eps": 0.1, "eta1": 1e-14, "eta2": 1e-13, "s": 2,
                   "dt_policy": "cfl", "dt": 5e-3},
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.02,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    binding = meta["cfl_binding"]
    assert binding
    assert set(binding) <= {"advective", "acoustic", "viscous", "korteweg", "eta2", "dt_cap"}
    if command == "simulate":
        assert sum(binding.values()) == meta["n_steps"]


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "simulate", "bogus_key": 1}))
    assert cli_main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 3
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    assert cli_main(["simulate", "--config", str(worse), "--out", str(tmp_path)]) == 3


NU = {"params": {"nu": 0.1}}  # passes the params boundary, so the case tests its own key


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
        (["korteweg"], {"initial": "x"}),
        (["korteweg"], {"initial": {"generator": "offset_gaussian", "offset": "x"}}),
        (["korteweg"], {"ladder": [[1e-3]]}),
        (["korteweg"], {"ladder": [1, 2]}),
        (["korteweg"], {"params": {"eps": "x"}}),
        (["korteweg"], {"params": {"eps": -1}}),
        (["sweep", "--axis", "drag_ell"], {"ladder": [0, 1], **NU}),
        (["sweep", "--axis", "drag_ell"], {"ladder": ["a"], **NU}),
        (["simulate"], {"diag_every": "x", **NU}),
        (["simulate"], {"snapshot_every": "x", **NU}),
        (["simulate"], [1, 2]),
        (["simulate"], {"ladder": [1, "a"], **NU}),
        (["simulate"], {"grid": {"n": math.inf}, **NU}),
        (["simulate"], {"initial": {"generator": "perturbed_gaussian", "mode": math.inf}, **NU}),
        (["simulate"], {"out_under_file": True, **NU}),
        (["tau"], {"t_end": -1}),
        (["tau"], {"t_end": 0}),
        (["check"], {"filter": 3}),
        (["sweep", "--axis", "delta"], {"threads": "x", **NU}),
        (["simulate"], {"t_end": math.nan, **NU}),
        (["longtime"], {"t_end": math.nan, **NU}),
        (["korteweg"], {"t_end": math.nan}),
        (["tau"], {"t_end": math.nan}),
        (["simulate"], {"t_end": math.inf, **NU}),
        (["tau"], {"t_end": math.inf}),
        (["simulate"], {"grid": {"ell": 1e-120}, "initial": {"generator": "prepared_gaussian"},
                        **NU}),
        (["simulate"], {"params": {"nu": math.nan}}),
        (["simulate"], {"params": {"nu": 0.1, "dt_policy": "fixed", "dt": math.nan}}),
        (["simulate"], {"params": {"nu": 0.1, "r0": math.inf}}),
    ],
    ids=["unknown_param", "negative_nu", "non_integer_n", "sweep_unknown_param",
         "negative_theta", "non_numeric_amplitude", "initial_not_a_dict", "non_numeric_t_end",
         "korteweg_initial_not_a_dict", "korteweg_non_numeric_offset", "korteweg_short_pair",
         "korteweg_scalar_pairs", "korteweg_non_numeric_eps", "korteweg_negative_eps",
         "drag_ell_zero_ell", "drag_ell_non_numeric_ell", "non_integer_diag_every",
         "non_integer_snapshot_every", "config_not_an_object", "non_numeric_ladder",
         "infinite_n", "infinite_mode", "out_under_a_file", "tau_negative_t_end",
         "tau_zero_t_end", "non_string_filter", "non_integer_threads", "nan_t_end",
         "longtime_nan_t_end", "korteweg_nan_t_end", "tau_nan_t_end", "infinite_t_end",
         "tau_infinite_t_end", "vanishing_ell", "nan_nu", "nan_dt", "inf_r0"],
)
def test_cli_bad_construction_exits_3(tmp_path, capsys, command, config):
    out = tmp_path / "out"
    if isinstance(config, dict) and config.pop("out_under_file", False):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("bad config: ")
    assert not out.exists()


# a valid config of each kind on grids of n <= 32; build() runs none of them
BUILD_BASES = {
    "simulate": {"params": {"nu": 0.1, "eps": 0.1},
                 "initial": {"generator": "perturbed_gaussian", "amplitude": 0.2, "mode": 1}},
    "longtime": {"params": {"nu": 0.1, "eta1": 1e-14, "eta2": 1e-13},
                 "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4}},
    "sweep_delta": {"params": {"nu": 0.1}, "ladder": [1e-3, 1e-4],
                    "initial": {"generator": "random_positive", "roughness": 4.0}},
    "sweep_eta": {"params": {"nu": 0.1}, "ladder": [1e-10, 1e-11],
                  "initial": {"generator": "two_bump", "separation": 2.0, "width": 1.0}},
    "sweep_drag_ell": {"params": {"nu": 0.1, "eps": 0.1}, "ladder": [4.0, 8.0]},
    "korteweg_crosscheck": {"params": {"eps": 1.0}, "ladder": [[1e-3, 5e-4], [1e-4, 2.5e-4]],
                            "initial": {"generator": "plane_wave_phase", "offset": 0.3}},
    "tau": {},
    "check": {"filter": "spectral"},
}
BUILD_KEYS = [
    *[(f.name,) for f in dataclasses.fields(E.ExperimentConfig) if f.name != "out_dir"],
    *[("grid", k) for k in ("d", "ell", "n")],
    *[("params", f.name) for f in dataclasses.fields(E.ParamSet)],
    *[("initial", k) for k in ("generator", "amplitude", "mode", "separation", "width",
                               "theta", "iota", "roughness", "velocity_amplitude", "seed",
                               "offset", "offset_width", "mass_match")],
    ("ladder", 0), ("ladder", 1),
]
BAD_VALUES = ["x", "", None, True, [], [1.0], {}, {"a": 1}, math.nan, math.inf, -math.inf,
              0, 0.0, -1, -2.5, 1e-300, 1e300, 2**40, 10**400]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(kind=st.sampled_from(sorted(BUILD_BASES)), key=st.sampled_from(BUILD_KEYS),
       value=st.sampled_from(BAD_VALUES))
def test_build_returns_or_raises_bad_config(kind, key, value):
    raw = {"kind": kind, "grid": {"d": 1, "ell": 6.0, "n": 16}, "t_end": 0.1,
           **json.loads(json.dumps(BUILD_BASES[kind]))}
    if key == ("grid", "n") and isinstance(value, (int, float)) and value > 32:
        value = 32  # a huge power of two would be allocated, not rejected
    if len(key) == 1:
        raw[key[0]] = value
    elif key[0] == "ladder":
        raw.setdefault("ladder", [1e-3, 1e-4])[key[1]] = value
    else:
        raw.setdefault(key[0], {})[key[1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        raw["out_dir"] = out = os.path.join(tmp, "out")
        try:
            inputs = E.ExperimentConfig.from_dict(raw).build()
        except E.BadConfig:
            assert not os.path.exists(out)
        else:
            assert inputs.out.is_dir()


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


def test_cli_sweep_csv_independent_of_threads(tmp_path):
    # each ladder point runs alone whatever the pool size, so the sweep's
    # CSV is byte-identical with one thread and with two
    cfg = {
        "grid": {"d": 1, "ell": 6.0, "n": 64},
        "params": {"nu": 0.05, "eps": 0.1, "r0": 0.01, "r1": 0.01,
                   "dt_policy": "fixed", "dt": 2e-3, "viscous_form": "bounded"},
        "initial": {"generator": "prepared_gaussian", "theta": 0.3, "iota": 0.4},
        "t_end": 0.02,
        "ladder": [1e-3, 1e-4, 1e-5, 1e-6],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        args = ["sweep", "--axis", "delta", "--config", str(cfg_path), "--out", str(out)]
        assert cli_main([*args, "--threads", threads]) == 0
        csvs.append((out / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_korteweg_short_horizon(tmp_path):
    # a horizon shorter than the row's dt: both solvers take one cut step to
    # t_end, inside the tau table
    cfg = {
        "grid": {"d": 1, "ell": 8.0, "n": 128},
        "params": {"eps": 1.0},
        "initial": {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0},
        "t_end": 0.0005,
        "ladder": [[1e-3, 2e-3]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["korteweg", "--config", str(cfg_path), "--out", str(out)]) == 0
    [row] = json.loads((out / "metadata.json").read_text())["rows"]
    assert row["status"] == "ok" and row["t_end"] == 0.0005
    assert math.isfinite(row["diff_rel"])


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


def _count_runs(monkeypatch):
    from isofluid import solver

    calls = []

    def counted(*args, _orig=solver.run, **kwargs):
        calls.append(1)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(solver, "run", counted)
    return calls


@pytest.mark.parametrize("filter,runs", [("energy", 3), ("bd", 4), (None, 5)])
def test_check_runs_the_identity_ladder_once(monkeypatch, filter, runs):
    # the energy and bd families share the three drag runs of one check()
    # call; bd adds its nu = 0 run and a full check the mass run
    calls = _count_runs(monkeypatch)
    ok, failures = E.check(filter, verbose=False)
    assert ok, failures
    assert len(calls) == runs


def test_check_ladder_does_not_outlive_its_call(monkeypatch):
    calls = _count_runs(monkeypatch)
    for expected in (3, 6):
        assert E.check("energy", verbose=False)[0]
        assert len(calls) == expected


def test_sampled_families_build_one_backend_per_grid_shape(monkeypatch):
    from isofluid import spectral

    built = []

    class Counted(spectral.Spectral):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(spectral, "Spectral", Counted)
    for family in (E._check_csiszar, E._check_llogl):
        built.clear()
        assert family() == []
        assert len(built) <= 2


def test_cli_check_metadata_records_each_family(tmp_path, capsys):
    out = tmp_path / "check"
    assert cli_main(["check", "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failures"] == []
    suite = [
        "tau", "spectral", "rescaling", "korteweg", "csiszar", "llogl", "compat",
        "mass", "energy", "bd", "nls", "prepare", "snapshots",
    ]
    families = meta["families"]
    assert sorted(families) == sorted(suite)
    assert all(f["ok"] is True and f["seconds"] >= 0.0 for f in families.values())
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[1] for ln in lines if ln.startswith("[ok]")] == suite


def test_simulate_metadata_records_where_a_run_stopped(tmp_path):
    # a grossly unstable fixed step (dt = 0.3) stops early; a stable one does not
    cfg = {
        "grid": {"d": 1, "ell": 6.0, "n": 64},
        "params": {"nu": 0.5, "eps": 1.0, "dt_policy": "fixed", "dt": 0.3,
                   "viscous_form": "bounded"},
        "initial": {"generator": "perturbed_gaussian", "amplitude": 0.4},
        "t_end": 3.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    meta = json.loads((out / "metadata.json").read_text())
    stop = meta["stop"]
    assert stop["reason"] == meta["status"] != "ok"
    assert stop["step"] == meta["n_steps"] + 1
    assert len(stop["cell"]) == 1 and 0 <= stop["cell"][0] < 64
    cfg["params"].update(dt=1e-3, r_min=1e-6)
    cfg["t_end"] = 3e-3
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "stop" not in json.loads((out / "metadata.json").read_text())


def test_simulate_stops_a_cfl_run_over_the_step_budget(tmp_path):
    # the eta2 family's CFL step is 4.01e-8 here: 249,168 steps to t_end,
    # more than solver.MAX_STEPS, and far above dt_min; the run stops before
    # its first step
    cfg = {
        "grid": {"d": 2, "ell": 6.0, "n": 16},
        "params": {"nu": 0.1, "eps": 0.1, "eta2": 0.999, "s": 5, "dt_policy": "cfl"},
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.01,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == meta["stop"]["reason"] == "budget"
    assert meta["stop"]["step"] == 1 and meta["n_steps"] == 0
    assert len(meta["stop"]["cell"]) == 2
    assert 10 * 1251 < solver.MAX_STEPS < 249_168


# parameter values from zero to the extremes; a delta or eta of 1, an eta1
# with alpha <= 4 or an eta2 with s <= d is a bad config
FUZZ_VALUES = [0.0, 0.0, 1e-300, 1e-12, 1e-3, 0.1, 10.0, 1e3, 1e300]
FUZZ_SMALL = [0.0, 0.0, 0.0, 1e-300, 1e-12, 1e-3, 0.5, 0.999, 1.0]
FUZZ_INITIAL = [
    {"generator": "gaussian"},
    {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
    {"generator": "perturbed_gaussian", "amplitude": 0.9, "mode": 3},
    {"generator": "two_bump", "separation": 2.0},
    {"generator": "random_positive", "roughness": 8.0},
]


@st.composite
def tiny_simulate_configs(draw):
    """A whole `simulate` run on a grid of n = 8..16 to t_end <= 0.01 with
    fixed steps of at least 1e-3, so that no run takes more than 10 steps."""
    params = {name: draw(st.sampled_from(FUZZ_VALUES)) for name in ("nu", "eps", "r0", "r1")}
    for name in ("delta1", "delta2", "eta1", "eta2"):
        params[name] = draw(st.sampled_from(FUZZ_SMALL))
    params.update(
        alpha=draw(st.sampled_from([4.0, 5.0, 8.0, 8.0, 1e3])),
        s=draw(st.sampled_from([1, 3, 3, 5])),
        dt_policy="fixed",
        dt=draw(st.sampled_from([1e-3, 5e-3, 1e-2])),
        viscous_form=draw(st.sampled_from(["auto", "bounded", "vacuum"])),
    )
    return {
        "kind": "simulate",
        "grid": {"d": draw(st.sampled_from([1, 2])), "ell": draw(st.sampled_from([1.0, 6.0])),
                 "n": draw(st.sampled_from([8, 16]))},
        "params": params,
        "initial": draw(st.sampled_from(FUZZ_INITIAL)),
        "t_end": draw(st.sampled_from([0.0, 1e-3, 0.01])),
        "diag_every": draw(st.sampled_from([0, 1, 3])),
        "snapshot_every": draw(st.sampled_from([0, 2])),
    }


@settings(max_examples=120)
@given(tiny_simulate_configs())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_fuzz_tiny_runs_exit_cleanly(config):
    # a whole run ends in 0 (ok), 2 (run failure) or 3 (bad config, and then
    # no output directory), never in a traceback, and numpy warns of nothing:
    # a diverging run records the inf or nan it computed in silence
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        out = os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(["simulate", "--config", cfg, "--out", out])
        assert rc in (0, 2, 3)
        if rc == 3:
            assert not os.path.exists(out)
        if rc == 0:
            assert os.path.isfile(os.path.join(out, "metadata.json"))


@pytest.mark.parametrize("command", ["simulate", "longtime"])
def test_metadata_splits_the_run_time(tmp_path, command):
    cfg = {
        "grid": {"d": 2, "ell": 6.0, "n": 16},
        "params": {"nu": 0.1, "eps": 0.1, "dt_policy": "fixed", "dt": 5e-3},
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.02,
        "snapshot_every": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    timing = json.loads((out / "metadata.json").read_text())["timing"]
    parts = ("advance_s", "diagnostics_s", "snapshots_s")
    assert set(timing) == {*parts, "wall_s", "steps_per_s", "transforms", "peak_rss_mb", "io_s"}
    assert all(timing[k] > 0 for k in parts[:2]) and timing["snapshots_s"] >= 0
    assert sum(timing[k] for k in parts) <= timing["wall_s"]
    assert timing["steps_per_s"] == pytest.approx(4 / timing["wall_s"])


def test_timing_counts_the_run_transforms_and_io(tmp_path, monkeypatch):
    # the backend's own count equals the scipy.fft calls a monkeypatched
    # counter sees over the same run; simulate adds peak RSS and io_s, and
    # the counting leaves diagnostics.csv as a plain run writes it
    cfg = {
        "grid": {"d": 2, "ell": 6.0, "n": 16},
        "params": {"nu": 0.1, "eps": 0.1, "delta1": 1e-4, "dt_policy": "fixed", "dt": 5e-3},
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.02,
        "snapshot_every": 2,
    }
    raw = {**cfg, "kind": "simulate", "out_dir": str(tmp_path / "plain")}
    inputs = E.ExperimentConfig.from_dict(raw).build()
    [(_, initial, params)] = inputs.points
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        orig = getattr(scipy.fft, name)
        monkeypatch.setattr(
            scipy.fft, name, lambda *a, _orig=orig, **k: calls.append(1) or _orig(*a, **k)
        )
    traj = solver.run(initial, params, cfg["t_end"], snapshot_every=2)
    monkeypatch.undo()
    assert traj.timing["transforms"] == len(calls) > 0
    assert traj.timing["peak_rss_mb"] > 0
    io_.write_diagnostics_csv(inputs.out, traj.records, 2)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    timing = json.loads((out / "metadata.json").read_text())["timing"]
    assert timing["transforms"] == len(calls)
    assert timing["peak_rss_mb"] > 0 and timing["io_s"] > 0
    csv_name = "diagnostics.csv"
    assert (out / csv_name).read_bytes() == (inputs.out / csv_name).read_bytes()


def test_llogl_family_sorts_the_radii_once_per_grid(monkeypatch):
    # the sorted radii and their tail sums are tables of the grid's backend
    sorts = []
    original = np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1) or original(*a, **k))
    assert E._check_llogl() == []
    assert len(sorts) == 2  # one 1D and one 2D grid
