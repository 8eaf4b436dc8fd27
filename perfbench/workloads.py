"""The benchmark workloads, each driving isofluid from outside through its
public functions, `_Stepper` methods and the `isofluid.cli.main` entry point.

A workload has four steps: `setup` (import isofluid and build the inputs;
timed as set-up), `prepare` (clear outputs; untimed), `call` (the timed
calls) and `gate` (correctness checks on what the call produced; untimed).
Nothing here imports numpy or isofluid at module level, so that `setup`
measures the whole import.

The inputs are the fixed configurations the project's acceptance criteria
and ROADMAP baselines name; the generators they use are deterministic, so
every run of one version of the code must write bitwise-identical outputs.
The seed reaches the program as the CLI `--seed` flag.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _stdio
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

MASS_DRIFT_TOL = 1e-8  # tests/test_acceptance.py, criterion 3


@dataclass
class Outcome:
    ok: bool
    reason: str
    digest: str | None
    steps: int


def _mass_drift(masses) -> float:
    m0 = masses[0]
    return max(abs(m - m0) for m in masses) / abs(m0)


def _reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Crit3:
    """Criterion-3 run: 1D n=256, every regularization on, CFL policy.  It
    stops at t=0.1 (867 steps, about 1.3 s) rather than t=1 (5,748 steps),
    so that a run holds a score of calls to take segment minima over."""

    name = "crit3_1d"
    t_end = 0.1

    def __init__(self, work: Path, seed: int):
        self.out = work / self.name

    def setup(self) -> None:
        from isofluid import experiments, io, solver, tauode

        self.solver, self.io = solver, io
        self.state, self.params = experiments.full_reg_setup(n=256)
        # the horizon and tolerances solver.run uses when given no tau
        self.tau = tauode.tau_solve(self.t_end * 1.001, 1e-12, 1e-14)

    def prepare(self) -> None:
        _reset(self.out)

    def call(self):
        traj = self.solver.run(
            self.state, self.params, self.t_end, tau_sol=self.tau, diag_every=20
        )
        path = self.io.write_diagnostics_csv(self.out, traj.records, 1)
        return traj, path

    def gate(self, result) -> Outcome:
        traj, path = result
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if traj.status != "ok":
            return Outcome(False, f"status {traj.status}", digest, traj.n_steps)
        drift = _mass_drift([r.mass for r in traj.records])
        if not drift <= MASS_DRIFT_TOL:
            return Outcome(False, f"mass drift {drift:.2e} > {MASS_DRIFT_TOL}", digest, traj.n_steps)
        return Outcome(True, "ok", digest, traj.n_steps)


class Fixed2D:
    """`isofluid simulate`: 2D n=128, fixed dt, core diagnostics every step;
    10 steps (about 1.2 s) with snapshots at the first and the last."""

    name = "fixed_2d"
    snapshot_every = 10
    config = {
        "kind": "simulate",
        "grid": {"d": 2, "ell": 8.0, "n": 128},
        "params": {
            "nu": 0.1, "eps": 0.1, "r0": 0.02, "r1": 0.02,
            "delta1": 1e-4, "delta2": 1e-7, "eta1": 1e-14, "eta2": 1e-22,
            "alpha": 8.0, "s": 3, "dt_policy": "fixed", "dt": 1e-3,
        },
        "initial": {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4},
        "t_end": 0.01,
        "diag_every": 1,
        "snapshot_every": snapshot_every,
    }

    def __init__(self, work: Path, seed: int):
        self.dir = work / self.name
        self.out = self.dir / "out"
        self.cfg = self.dir / "simulate.json"
        self.seed = seed

    def setup(self) -> None:
        from isofluid import cli, io, spectral

        self.cli, self.io, self.spectral = cli, io, spectral
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg.write_text(json.dumps(self.config))

    def prepare(self) -> None:
        _reset(self.out)

    def call(self):
        argv = ["simulate", "--config", str(self.cfg), "--out", str(self.out),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return self.cli.main(argv)

    def gate(self, rc) -> Outcome:
        csv_path = self.out / "diagnostics.csv"
        raw = csv_path.read_bytes() if csv_path.is_file() else b""
        digest = hashlib.sha256(raw).hexdigest()
        meta_path = self.out / "metadata.json"
        meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
        steps = int(meta.get("n_steps", 0))
        if rc != 0:
            return Outcome(False, f"exit {rc}", digest, steps)
        if meta.get("status") != "ok":
            return Outcome(False, f"status {meta.get('status')}", digest, steps)
        rows = list(csv.DictReader(_stdio.StringIO(raw.decode())))
        if len(rows) != steps + 1:
            return Outcome(False, f"{len(rows)} CSV rows for {steps} steps", digest, steps)
        drift = _mass_drift([float(r["mass"]) for r in rows])
        if not drift <= MASS_DRIFT_TOL:
            return Outcome(False, f"mass drift {drift:.2e} > {MASS_DRIFT_TOL}", digest, steps)
        # snapshots at step 0, every snapshot_every steps and the last step
        times = [float(r["t"]) for k, r in enumerate(rows)
                 if k % self.snapshot_every == 0 or k == steps]
        g = self.config["grid"]
        grid = self.spectral.Grid(g["d"], g["ell"], g["n"])
        fields = ["R"] + [f"Lambda{i}" for i in range(grid.d)]
        for t in times:
            for name in fields:
                field, t_read = self.io.read_snapshot(self.io.snapshot_path(self.out, name, t))
                if field.grid != grid or t_read != t:
                    return Outcome(False, f"snapshot {name}@{t} reads back {field.grid} t={t_read}",
                                   digest, steps)
        written = len(list(self.out.glob("*.isof")))
        if written != len(times) * len(fields):
            return Outcome(False, f"{written} snapshot files, expected {len(times) * len(fields)}",
                           digest, steps)
        return Outcome(True, "ok", digest, steps)


class GateXcheck:
    """`isofluid check` (all families), then `isofluid korteweg` at the
    criterion-10 settings."""

    name = "gate_xcheck"
    korteweg = {
        "kind": "korteweg_crosscheck",
        "grid": {"d": 1, "ell": 8.0, "n": 256},
        "params": {"eps": 1.0},
        "initial": {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0},
        "t_end": 0.25,
        "ladder": [[1e-3, 5e-4], [1e-4, 2.5e-4]],
    }

    def __init__(self, work: Path, seed: int):
        self.dir = work / self.name
        self.out_check = self.dir / "check"
        self.out_kw = self.dir / "korteweg"
        self.cfg = self.dir / "korteweg.json"
        self.tmp = self.dir / "tmp"
        self.seed = seed

    def setup(self) -> None:
        from isofluid import cli

        self.cli = cli
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg.write_text(json.dumps(self.korteweg))

    def prepare(self) -> None:
        for d in (self.out_check, self.out_kw, self.tmp):
            _reset(d)
        # the snapshot family of `check` writes through tempfile
        tempfile.tempdir = str(self.tmp)

    def call(self):
        seed = ["--seed", str(self.seed)]
        with contextlib.redirect_stdout(_stdio.StringIO()) as log:
            rc_check = self.cli.main(["check", "--out", str(self.out_check), *seed])
            rc_kw = self.cli.main(
                ["korteweg", "--config", str(self.cfg), "--out", str(self.out_kw), *seed]
            )
        return rc_check, rc_kw, log.getvalue()

    def gate(self, result) -> Outcome:
        rc_check, rc_kw, log = result
        meta_path = self.out_kw / "metadata.json"
        rows = json.loads(meta_path.read_text()).get("rows", []) if meta_path.is_file() else []
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        # log-NLS split steps plus hydrodynamic steps, both at the row's fixed dt
        steps = sum(2 * round(r["t_end"] / r["dt"]) for r in rows)
        if rc_check != 0:
            failed = [ln for ln in log.splitlines() if ln.startswith("[FAIL]")]
            return Outcome(False, f"check exit {rc_check}: {failed}", digest, steps)
        if rc_kw != 0:
            return Outcome(False, f"korteweg exit {rc_kw}", digest, steps)
        if len(rows) != len(self.korteweg["ladder"]) or any(r["status"] != "ok" for r in rows):
            return Outcome(False, f"ladder rows {[r.get('status') for r in rows]}", digest, steps)
        diffs = [r["diff_rel"] for r in rows]
        if not all(isinstance(d, float) and math.isfinite(d) for d in diffs) or not all(
            a > b for a, b in zip(diffs, diffs[1:])
        ):
            return Outcome(False, f"diff_rel not decreasing: {diffs}", digest, steps)
        return Outcome(True, "ok", digest, steps)


WORKLOADS = {w.name: w for w in (Crit3, Fixed2D, GateXcheck)}


def probe_advance(d: int) -> None:
    """One `_Stepper.advance` from a prepared Gaussian with every
    regularization on, on the ROADMAP baseline grid of dimension d
    (1D n=256, 2D n=128, 3D n=32)."""
    from isofluid import experiments, solver, spectral
    from isofluid.params import ParamSet

    if d == 1:
        state, params = experiments.full_reg_setup(n=256)
    else:
        n = {2: 128, 3: 32}[d]
        grid = spectral.Grid(d, 8.0, n)
        state = experiments.make_initial(
            grid, {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4}
        )
        p = dict(Fixed2D.config["params"], s=d + 1)
        params = ParamSet(**p)
    R, M = solver.arrays_from_state(state)
    st = solver._Stepper(state.grid, params, float(R.mean()), float(R.min() / R.max()))
    st.advance(R, M, 1e-4, (1.0, 0.0))
