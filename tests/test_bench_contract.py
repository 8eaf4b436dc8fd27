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

import isofluid
from isofluid import io as io_
from isofluid.cli import main as cli_main
from isofluid.spectral import Grid

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


def test_probe_advance_runs():
    _load("workloads").probe_advance(1)


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
