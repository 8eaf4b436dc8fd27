"""The names and file formats the benchmark under perfbench/ reads from the
package: a change that breaks one of them fails here, in the test suite,
rather than in a benchmark run.  The benchmark files are only read."""

import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import isofluid
from isofluid import diagnostics, experiments, solver
from isofluid import io as io_
from isofluid.cli import main as cli_main
from isofluid.lognls import crosscheck_hydro_params
from isofluid.rescaling import madelung
from isofluid.spectral import Grid
from isofluid.tauode import tau_cover

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, with no bytecode written beside it."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = dont_write
    return mod


def test_tracer_finds_every_required_name():
    tr = _load("tracer").Tracer()
    tr.add_isofluid_targets()  # builds the wrappers; installs none
    assert tr.absent == []


def test_traced_records_split_into_their_tiers():
    # diagnostics.core_calls and full_calls count the spans the tracer names
    # by binding record's `full`: a run records a full record at its start
    # and its end, and its core records between as one pending stack
    tr = _load("tracer").Tracer()
    tr.add_isofluid_targets()
    state, params = experiments.full_reg_setup(n=64)
    tr.install()
    try:
        traj = solver.run(state, params, 0.02, diag_every=1)
    finally:
        tr.uninstall()
    assert traj.status == "ok" and 3 <= traj.n_steps < diagnostics.stack_rows(state.grid)
    assert len(traj.records) == traj.n_steps + 1
    names = [tr.names[i] for i in tr.name_id]
    assert names.count("diagnostics.record[core]") == 1
    assert names.count("diagnostics.record[full]") == 2


def test_probe_advance_runs():
    _load("workloads").probe_advance(1)


def test_crit3_tau_is_the_tau_cover_of_its_horizon():
    # the workload hands solver.run the tau it would solve when given none
    crit3 = _load("workloads").Crit3(Path("unused"), 0)
    crit3.setup()
    tau = tau_cover(crit3.t_end, crit3.state.t)
    assert tau.t_max == crit3.tau.t_max
    for name in ("t", "tau", "taudot"):
        assert np.array_equal(getattr(tau, name), getattr(crit3.tau, name)), name


# calls per advance of each traced substep but the CFL, which run makes once
# per step under the CFL policy
SUBSTEP_CALLS = {"drag_flow": 2, "linear_flow": 2, "density_forces": 1, "n_rhs": 3,
                 "vacuum_sponge": 1}


def _crosscheck_run():
    g = Grid(1, 8.0, 256)
    psi0 = experiments.make_wavefunction(
        g, {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}, eps=1.0
    )
    return madelung(psi0), crosscheck_hydro_params(1.0, 1e-4, 2.5e-4), 1e-3


@pytest.mark.parametrize(
    "setup",
    [lambda: (*experiments.full_reg_setup(n=256), 5e-3), _crosscheck_run],
    ids=["full_reg", "crosscheck"],
)
def test_traced_substeps_stay_on_the_advance_path(monkeypatch, setup):
    # a step that skipped a traced substep would zero its per-layer metric
    substeps = _load("tracer").STEPPER_SUBSTEPS.values()
    assert set(substeps) == {*SUBSTEP_CALLS, "cfl_dt"}
    calls = dict.fromkeys(substeps, 0)
    for name in substeps:

        def counted(self, *args, _orig=getattr(solver._Stepper, name), _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(solver._Stepper, name, counted)
    state, params, t_end = setup()
    traj = solver.run(state, params, t_end, diag_every=0)
    assert traj.status == "ok" and traj.n_steps >= 3
    cfl_steps = traj.n_steps if params.dt_policy == "cfl" else 0
    assert calls == {"cfl_dt": cfl_steps,
                     **{name: k * traj.n_steps for name, k in SUBSTEP_CALLS.items()}}


def test_simulate_snapshots_read_back_with_their_grid(tmp_path):
    cfg = {
        "kind": "simulate",
        "grid": {"d": 2, "ell": 6.0, "n": 16},
        "params": {"nu": 0.1, "eps": 0.1, "dt_policy": "fixed", "dt": 5e-3},
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.01,
        "snapshot_every": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    grid = Grid(2, 6.0, 16)
    for t in (0.0, 0.01):
        for name in ("R", "Lambda0", "Lambda1"):
            field, t_read = io_.read_snapshot(io_.snapshot_path(out, name, t))
            assert field.grid == grid and t_read == t
            assert field.values.shape == grid.shape and np.all(np.isfinite(field.values))
    assert len(list(out.glob("*.isof"))) == 6


def test_every_exported_name_resolves():
    for name in isofluid.__all__:
        assert hasattr(isofluid, name), name
    modules = [info.name for info in pkgutil.iter_modules(isofluid.__path__)]
    assert "spectral" in modules and "solver" in modules
    for modname in modules:
        mod = importlib.import_module(f"isofluid.{modname}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{modname}.{name}"


def test_reproducibility_gate_outputs_are_byte_identical(tmp_path):
    # perfbench/run.py's reproducibility gate fails every call whose output
    # digest differs from the first: the korteweg metadata rows (hashed by
    # GateXcheck.gate) and simulate's diagnostics.csv must not move from run
    # to run, so the runs' timing goes beside the rows, never inside them
    korteweg = {
        "kind": "korteweg_crosscheck",
        "grid": {"d": 1, "ell": 8.0, "n": 64},
        "params": {"eps": 1.0},
        "initial": {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0},
        "t_end": 0.01,
        "ladder": [[1e-3, 5e-4], [1e-4, 2.5e-4]],
    }
    simulate = {
        "kind": "simulate",
        "grid": {"d": 2, "ell": 6.0, "n": 16},
        "params": {"nu": 0.1, "eps": 0.1, "dt_policy": "fixed", "dt": 5e-3},
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.02,
    }
    outputs = {"korteweg": [], "simulate": []}
    for cmd, cfg in (("korteweg", korteweg), ("simulate", simulate)):
        cfg_path = tmp_path / f"{cmd}.json"
        cfg_path.write_text(json.dumps(cfg))
        for i in range(2):
            out = tmp_path / f"{cmd}{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
            meta = json.loads((out / "metadata.json").read_text())
            if cmd == "korteweg":
                assert [r["status"] for r in meta["rows"]] == ["ok", "ok"]
                assert [sorted(t) for t in meta["timing"]] == [["hydro", "nls"]] * 2
                assert all("timing" not in r for r in meta["rows"])
                outputs[cmd].append(json.dumps(meta["rows"], sort_keys=True).encode())
            else:
                outputs[cmd].append((out / "diagnostics.csv").read_bytes())
    for cmd, (first, second) in outputs.items():
        assert first == second, cmd
