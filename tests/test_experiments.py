"""Experiment configs, CLI, artifacts, reproducibility and the check gate."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

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


def test_cli_tau_far_horizon(tmp_path):
    # the closed form holds the first integral wherever exp(u^2) is finite
    assert cli_main(["tau", "--out", str(tmp_path), "--t-end", "1e300"]) == 0
    rows = (tmp_path / "tau.csv").read_text().strip().splitlines()
    t, tau, taudot, res = map(float, rows[-1].split(","))
    assert t == 1e300 and abs(tau / 5.267783742771559e301 - 1.0) < 1e-12
    assert abs(res) < 1e-12


def test_cli_tau_past_t_max_exits_3_and_prints_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["tau", "--out", str(out), "--t-end", "1e308"]) == 3
    cap = capsys.readouterr()
    assert cap.out == "" and not out.exists()
    assert cap.err.startswith("bad config: ") and cap.err.count("\n") == 1
    assert "T_MAX" in cap.err


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


def test_drag_ell_sweep_of_the_readme_config_is_a_bad_config(tmp_path, capsys):
    # README's minimal simulate config keeps eta1 and eta2 on; the drag_ell
    # ladder refuses each, naming it, before any output or step
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A minimal simulate config:\n\n```json\n(.*?)```", readme, re.S).group(1)
    cfg = json.loads(block)
    assert cfg["params"]["eta1"] > 0 and cfg["params"]["eta2"] > 0
    for key in ("eta1", "eta2"):
        path, out = tmp_path / f"{key}.json", tmp_path / key
        path.write_text(json.dumps(cfg))
        assert cli_main(["sweep", "--axis", "drag_ell", "--config", str(path),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"bad config: params.{key} ") and err.count("\n") == 1
        assert not out.exists()
        del cfg["params"][key]


NU = {"params": {"nu": 0.1}}  # passes the params boundary, so the case tests its own key
_TINY = {"grid": {"d": 1, "ell": 6.0, "n": 16}, "params": {"nu": 0.1, "eps": 0.1}}


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
        (["sweep", "--axis", "delta"], {"threads": 2, **NU}),
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
        (["simulate"], {"grid": {"N": 64}, **NU}),
        (["simulate"], {"initial": {"generator": "prepared_gaussian", "thetta": 0.3}, **NU}),
        (["simulate"], {"initial": {"generator": "gaussian", "theta": 0.3}, **NU}),
        (["simulate"], {"initial": {"generator": "prepared_gaussian",
                                    "velocity_amplitude": 0.1}, **NU}),
        (["korteweg"], {"initial": {"generator": "gaussian", "offset": 0.3}}),
        (["korteweg"], {"initial": {"generator": "offset_gaussian", "mode": 2}}),
        (["simulate"], {"grid": {"n": 64.7}, **NU}),
        (["simulate"], {"grid": {"d": 1.9}, **NU}),
        (["simulate"], {"grid": {"ell": "6"}, **NU}),
        (["simulate"], {"initial": {"generator": "perturbed_gaussian", "mode": 2.5}, **NU}),
        (["simulate"], {"initial": {"generator": "perturbed_gaussian", "amplitude": "0.3"},
                        **NU}),
        (["korteweg"], {"initial": {"generator": "plane_wave_phase", "mass_match": 1}}),
        (["simulate"], {"initial": {"generator": "prepared_gaussian", "theta": True}, **NU}),
        (["simulate"], {"params": {"nu": True}}),
        (["simulate"], {"params": {"nu": 0.1, "r_min": True}}),
        (["simulate"], {"params": {"nu": 0.1, "cfl": True}}),
        (["simulate"], {"params": {"nu": 0.1, "alpha": "8"}}),
        (["simulate"], {"params": {"nu": 0.1, "eta2": 1e-13, "s": 2.5}}),
        (["simulate"], {"schema_version": True, **NU}),
        *[(cmd, {"t_end": 1e307}) for cmd in (["simulate"], ["sweep"], ["longtime"],
                                              ["korteweg"], ["tau"])],
        (["simulate"], {"diag_every": -2, **NU}),
        (["simulate"], {"snapshot_every": -3, **NU}),
        # threads is no longer a config key: a stale one is refused whatever its value
        *[(["sweep", "--axis", "delta"], {"threads": v, **NU}) for v in ("x", -4, 0)],
        (["simulate", "--seed", "x"], NU),
        (["simulate", "--bogus"], NU),
        (["sweep", "--axis", "delta", "--threads", "2"], NU),
        ([], NU),
        (["simulate"], {"kind": "longtime", **NU}),
        (["sweep", "--axis", "delta"], {"ladder": [1e-2, 1e-4, 1e-3], **NU}),
        (["korteweg"], {"initial": {"generator": "sech"}}),
        (["simulate"], {"params": {"nu": 0.1, "dt_policy": "adaptive"}}),
        (["simulate"], {"params": {"nu": 0.1, "cfl": 0.0}}),
        (["simulate"], {"params": {"nu": 0.1, "r_min": -1.0}}),
        # initial data of mass 0: each generator's values underflow
        (["simulate"], {**_TINY, "initial": {"generator": "two_bump", "separation": 1e300}}),
        (["korteweg"], {"grid": _TINY["grid"],
                        "initial": {"generator": "offset_gaussian", "offset": 1e300}}),
        # finite data whose mass overflows to inf
        (["simulate"], {**_TINY, "initial": {"generator": "prepared_gaussian", "theta": 1e154}}),
    ],
    ids=["unknown_param", "negative_nu", "non_integer_n", "sweep_unknown_param",
         "negative_theta", "non_numeric_amplitude", "initial_not_a_dict", "non_numeric_t_end",
         "korteweg_initial_not_a_dict", "korteweg_non_numeric_offset", "korteweg_short_pair",
         "korteweg_scalar_pairs", "korteweg_non_numeric_eps", "korteweg_negative_eps",
         "drag_ell_zero_ell", "drag_ell_non_numeric_ell", "non_integer_diag_every",
         "non_integer_snapshot_every", "config_not_an_object", "non_numeric_ladder",
         "infinite_n", "infinite_mode", "out_under_a_file", "tau_negative_t_end",
         "tau_zero_t_end", "non_string_filter", "threads_key_is_unknown", "nan_t_end",
         "longtime_nan_t_end", "korteweg_nan_t_end", "tau_nan_t_end", "infinite_t_end",
         "tau_infinite_t_end", "vanishing_ell", "nan_nu", "nan_dt", "inf_r0",
         "unknown_grid_key", "misspelt_initial_key", "foreign_initial_key",
         "velocity_of_prepared_data", "korteweg_gaussian_offset", "korteweg_foreign_mode",
         "fractional_n", "fractional_d", "string_ell", "fractional_mode", "string_amplitude",
         "integer_mass_match", "bool_theta", "bool_nu", "bool_r_min", "bool_cfl",
         "string_alpha", "fractional_s", "bool_schema_version",
         *[f"{kind}_t_end_past_t_max" for kind in ("simulate", "sweep", "longtime", "korteweg",
                                                   "tau")],
         "negative_diag_every", "negative_snapshot_every", "non_integer_threads",
         "negative_threads", "zero_threads", "non_integer_seed_flag",
         "unknown_flag", "threads_flag", "no_command", "simulate_of_a_longtime_config",
         "non_monotone_ladder", "korteweg_unknown_generator", "unknown_dt_policy", "zero_cfl",
         "negative_r_min", "simulate_of_no_mass", "korteweg_of_no_mass",
         "simulate_of_infinite_mass"],
)
def test_cli_bad_construction_exits_3(tmp_path, capsys, command, config):
    out = tmp_path / "out"
    if isinstance(config, dict) and config.pop("out_under_file", False):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("bad config: ") and err.count("\n") == 1
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


def _build_config(kind, key, value) -> dict:
    """The BUILD_BASES config of kind on a 1D n = 16 grid, with value at key."""
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
    return raw


@given(kind=st.sampled_from(sorted(BUILD_BASES)), key=st.sampled_from(BUILD_KEYS),
       value=st.sampled_from(BAD_VALUES))
def test_build_returns_or_raises_bad_config(kind, key, value):
    # build raises BadConfig or returns finite initial data, and numpy warns
    # of nothing (the suite makes a warning an error)
    raw = _build_config(kind, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        raw["out_dir"] = out = os.path.join(tmp, "out")
        try:
            inputs = E.ExperimentConfig.from_dict(raw).build()
        except E.BadConfig:
            assert not os.path.exists(out)
        else:
            assert inputs.out.is_dir()
            arrays = [a for _, init, _ in inputs.points for a in (init.R, init.M)]
            arrays += [inputs.psi0.psi] if inputs.psi0 is not None else []
            assert all(np.isfinite(a).all() for a in arrays)


# the (kind, initial key, value) of the space above whose initial data came
# out not finite and were accepted, some with numpy's warnings
NOT_FINITE_INITIAL = [
    *[(kind, "velocity_amplitude", v) for kind in ("simulate", "sweep_delta", "sweep_eta")
      for v in (math.nan, math.inf, -math.inf)],
    *[("korteweg_crosscheck", "offset", v) for v in (math.nan, math.inf, -math.inf)],
    ("simulate", "amplitude", math.nan),
    ("sweep_eta", "separation", math.nan),
    ("sweep_eta", "width", math.nan),
    *[("longtime", "theta", v) for v in (math.nan, math.inf, 1e300)],
    *[(kind, key, v) for kind, key in (("sweep_delta", "roughness"),
                                        ("korteweg_crosscheck", "offset_width"))
      for v in (math.nan, 0, 0.0, 1e-300)],
]


@pytest.mark.parametrize("kind,key,value", NOT_FINITE_INITIAL)
def test_initial_data_that_are_not_finite_are_a_bad_config(kind, key, value):
    raw = _build_config(kind, ("initial", key), value)
    with tempfile.TemporaryDirectory() as tmp:
        raw["out_dir"] = out = os.path.join(tmp, "out")
        with pytest.raises(E.BadConfig):
            E.ExperimentConfig.from_dict(raw).build()
        assert not os.path.exists(out)


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


def test_cli_check_filter_matching_no_family_is_a_bad_config(tmp_path, capsys):
    # a filter that selects nothing would check nothing and exit 0
    out = tmp_path / "out"
    assert cli_main(["check", "--filter", "zzz", "--out", str(out)]) == 3
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("bad config: ") and cap.err.count("\n") == 1
    families = list(E._families(None))
    assert len(families) == 13 and all(name in cap.err for name in families)
    assert not out.exists()


@pytest.mark.parametrize("ell", [1e300, 1e-300])
def test_grid_half_width_whose_tables_overflow_is_a_bad_config(tmp_path, capsys, ell):
    # |y|^2 overflows at ell = 1e300 (the run went on with NaN columns) and
    # |k|^2 at ell = 1e-300 (the run failed with an OverflowError): both are
    # refused before any warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"d": 1, "n": 64, "ell": ell},
        "params": {"eps": 0.1, "dt_policy": "fixed", "dt": 1e-4}, "t_end": 1e-3}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("bad config: half-width") and err.count("\n") == 1
    assert not out.exists()


def test_check_catches_injected_sign_error(monkeypatch):
    # the identity checks take the stress entries from the one function the
    # solver's force takes them from
    entries = diag.korteweg_stress_entries
    monkeypatch.setattr(diag, "korteweg_stress_entries", lambda *args: -entries(*args))
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


def test_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a 2D n = 128 field has 16,384 values, more than OpenBLAS sums before
    # it splits a dot product over its threads; the diagnostics.csv of a few
    # steps with a core record at each is the same bytes under one and two
    # OpenBLAS threads
    config = {
        "kind": "simulate",
        "grid": {"d": 2, "ell": 8.0, "n": 128},
        "params": {
            "nu": 0.1, "eps": 0.1, "r0": 0.02, "r1": 0.02, "delta1": 1e-4, "delta2": 1e-7,
            "eta1": 1e-14, "eta2": 1e-22, "alpha": 8.0, "s": 3, "dt_policy": "fixed",
            "dt": 1e-3,
        },
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.003,
        "diag_every": 1,
    }
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(E.__file__))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "isofluid.cli", "simulate", "--config", str(cfg),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        csvs.append((out / "diagnostics.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _count_runs(monkeypatch):
    """One entry per run of solver.run from now on: per row of a ladder."""
    from isofluid import solver

    calls = []

    def counted(initial, params, *args, _orig=solver.run, **kwargs):
        calls.extend([1] * (1 if isinstance(params, E.ParamSet) else len(params)))
        return _orig(initial, params, *args, **kwargs)

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


def test_check_random_stacks_are_the_fields_drawn_one_at_a_time():
    # the csiszar and llogl families draw in the order of one field at a
    # time, alternating grids, and each stack's rows are those fields bitwise
    rng = np.random.default_rng(11)
    grids = (Grid(1, 6.0, 64), Grid(2, 6.0, 32))
    fields = [E.random_positive_field(grids[i % 2], rng) for i in range(100)]
    seen = []
    for index, ops in E._random_stacks(11):
        assert ops.rows == len(index) <= diag.stack_rows(ops.grid)
        for row, i in enumerate(index):
            assert ops.grid == grids[i % 2] and np.array_equal(ops._R_raw[row], fields[i])
        seen += index
    assert sorted(seen) == list(range(100))


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


@pytest.mark.parametrize("dt,t_end,code,reason", [
    # every snapshot of t <= 3e-7 is snap_t0.000000_*: build foresees it
    (1e-7, 3e-7, 3, "the snapshots at t = 0 and t <= 1e-07 share a file name"),
    # t = 6e-7 and 1.2e-6 both round to 0.000001: only the run finds it
    (6e-7, 1.5e-6, 2, "t = 6e-07 and t = 1.2e-06 both name snap_t0.000001_*.isof"),
], ids=["foreseen", "run"])
def test_simulate_snapshot_name_collision_exits_with_its_reason(tmp_path, capsys, dt, t_end,
                                                                code, reason):
    # snapshot names keep 6 decimals of t; snapshots that would share a file
    # end the command, and no snapshot file is written, so none is overwritten
    cfg = {"grid": {"d": 1, "ell": 8.0, "n": 16},
           "params": {"nu": 0.1, "eps": 0.1, "dt_policy": "fixed", "dt": dt},
           "t_end": t_end, "snapshot_every": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert reason in err and err.count("\n") == 1
    if code == 3:
        assert not out.exists()
    else:
        assert err.startswith("run failed: snapshot name collision: ")
        assert not list(out.glob("*.isof"))
        assert json.loads((out / "metadata.json").read_text())["n_steps"] == 3


@pytest.mark.parametrize("command", ["simulate", "longtime"])
def test_simulate_and_longtime_write_through_one_writer(tmp_path, capsys, command):
    # longtime writes simulate's run: the same diagnostics.csv and snapshot
    # files, and simulate's metadata keys plus its attraction targets; and
    # its build refuses snapshots whose names would clash, as simulate's does
    def run(cmd, config, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return cli_main([cmd, "--config", str(cfg), "--out", str(out)])

    config = {"grid": {"d": 1, "ell": 6.0, "n": 64},
              "params": {"nu": 0.05, "eps": 0.1, "r1": 0.02, "dt_policy": "fixed", "dt": 5e-3,
                         "viscous_form": "bounded", "r_min": 1e-6},
              "initial": {"generator": "perturbed_gaussian", "amplitude": 0.2},
              "t_end": 0.06, "snapshot_every": 5}
    outs = {cmd: tmp_path / cmd for cmd in ("simulate", command)}
    assert all(run(cmd, config, out) == 0 for cmd, out in outs.items())
    out = outs[command]
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for k, row in enumerate(rows) if k % 5 == 0 or k == 12]
    names = {io_.snapshot_path(out, name, t).name for t in times for name in ("R", "Lambda0")}
    assert len(rows) == 13 and {p.name for p in out.glob("*.isof")} == names
    for name in [*names, "diagnostics.csv"]:
        assert (out / name).read_bytes() == (outs["simulate"] / name).read_bytes()
    keys = {"config", "config_hash", "version", "status", "n_steps", "cfl_binding", "params",
            "timing"}
    meta = json.loads((out / "metadata.json").read_text())
    assert set(meta) == keys | ({"targets"} if command == "longtime" else set())
    assert meta["n_steps"] == 12
    clash = {**_TINY, "params": {**_FIXED, "dt": 1e-7}, "t_end": 3e-7, "snapshot_every": 1}
    assert run(command, clash, tmp_path / "clash") == 3
    err = capsys.readouterr().err
    assert err.startswith("bad config: ") and "share a file name" in err
    assert not (tmp_path / "clash").exists()


@pytest.mark.parametrize("kind", ["sweep_delta", "sweep_eta"])
def test_sweep_builds_its_initial_state_once(tmp_path, monkeypatch, kind):
    # the ladder's runs share one initial state, which no run writes into
    made = []
    make = E.make_initial
    monkeypatch.setattr(E, "make_initial", lambda *a: made.append(1) or make(*a))
    raw = {"kind": kind, **_TINY, "out_dir": str(tmp_path / "out")}
    inputs = E.ExperimentConfig.from_dict(raw).build()
    assert len(made) == 1 and len(inputs.points) == len(E.DEFAULT_LADDER[kind]) == 3
    assert all(init is inputs.points[0][1] for _, init, _ in inputs.points)


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
    # the eta2 family's CFL step is 4.63e-8 here: 215,786 steps to t_end,
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
    assert 10 * 1080 < solver.MAX_STEPS < 215_786


_FIXED = {"nu": 0.1, "eps": 0.1, "dt_policy": "fixed", "dt": 1e-3}


@pytest.mark.parametrize(
    "command,config",
    [
        (["simulate"], {**_TINY, "params": _FIXED, "t_end": 0.5}),
        (["longtime"], {**_TINY, "params": _FIXED, "t_end": 0.5}),
        (["sweep", "--axis", "delta"], {**_TINY, "params": _FIXED, "t_end": 0.5}),
        (["korteweg"], {**_TINY, "ladder": [[1e-3, 2e-3], [1e-3, 1e-3]], "t_end": 0.5}),
        (["simulate"], {**_TINY, "params": {**_FIXED, "dt": 1e-13}, "t_end": 1e-11}),
        (["korteweg"], {**_TINY, "ladder": [[1e-3, 1e-13]], "t_end": 1e-11}),
    ],
    ids=["simulate", "longtime", "sweep", "korteweg", "simulate_below_dt_min",
         "korteweg_below_dt_min"],
)
def test_fixed_steps_that_would_stop_a_run_are_a_bad_config(tmp_path, capsys, command, config):
    # fixed steps had no budget, so a small dt ran for minutes (a korteweg
    # row of dt 1e-300 never ended): 500 steps pass the budget of 300 here,
    # and a dt below DT_MIN is refused before the hydro row's underflow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with mock.patch.object(solver, "MAX_STEPS", 300):
        assert cli_main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("bad config: dt = ") and err.count("\n") == 1
    assert not out.exists()


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
# numbers an initial-data key may be drawn instead of its spec's own
FUZZ_BAD_NUMBERS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300]


@st.composite
def tiny_simulate_configs(draw):
    """A whole `simulate` run on a grid of n = 8..16 to t_end <= 0.01, with
    fixed steps of at least 1e-3 (no more than 10 steps) or CFL steps capped
    at the same dt (no more than the test's step budget), from one of
    FUZZ_INITIAL whose numeric keys may each be one of FUZZ_BAD_NUMBERS."""
    params = {name: draw(st.sampled_from(FUZZ_VALUES)) for name in ("nu", "eps", "r0", "r1")}
    for name in ("delta1", "delta2", "eta1", "eta2"):
        params[name] = draw(st.sampled_from(FUZZ_SMALL))
    params.update(
        alpha=draw(st.sampled_from([4.0, 5.0, 8.0, 8.0, 1e3])),
        s=draw(st.sampled_from([1, 3, 3, 5])),
        dt_policy=draw(st.sampled_from(["fixed", "cfl"])),
        cfl=draw(st.sampled_from([0.4, 1.0, 2.0])),
        dt=draw(st.sampled_from([1e-3, 5e-3, 1e-2])),
        viscous_form=draw(st.sampled_from(["auto", "bounded", "vacuum"])),
    )
    initial = dict(draw(st.sampled_from(FUZZ_INITIAL)))
    for key, kind in E._INITIAL_TYPES[initial["generator"]].items():
        value = draw(st.one_of(st.none(), st.sampled_from(FUZZ_BAD_NUMBERS)))
        if kind == "float" and value is not None:
            initial[key] = value
    return {
        "kind": "simulate",
        "grid": {"d": draw(st.sampled_from([1, 2])), "ell": draw(st.sampled_from([1.0, 6.0])),
                 "n": draw(st.sampled_from([8, 16]))},
        "params": params,
        "initial": initial,
        "t_end": draw(st.sampled_from([0.0, 1e-3, 0.01])),
        "diag_every": draw(st.sampled_from([0, 1, 3])),
        "snapshot_every": draw(st.sampled_from([0, 2])),
    }


# the cold pressure's sound speed overflows in the CFL rate; the run stops
# "underflow" (exit 2) in silence
CFL_OVERFLOW = {
    "kind": "simulate", "grid": {"d": 1, "ell": 6.0, "n": 8},
    "params": {"nu": 0.1, "eps": 0.1, "eta1": 0.999, "alpha": 1e3, "dt_policy": "cfl"},
    "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4}, "t_end": 0.01,
}


@settings(max_examples=120)
@given(tiny_simulate_configs())
@example(CFL_OVERFLOW)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_fuzz_tiny_runs_exit_cleanly(config):
    # a whole run ends in 0 (ok), 2 (run failure) or 3 (bad config, and then
    # no output directory), never in a traceback, and numpy warns of nothing:
    # a diverging run records the inf or nan it computed in silence.  A run
    # longer than 300 steps stops "budget"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(solver, "MAX_STEPS", 300):
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
