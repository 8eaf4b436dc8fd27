"""Batch execution: named initial data, parameter-limit sweeps, long-time
studies, the NLS/hydro cross-check, and the self-test gate.

Configs are plain nested dicts (read from JSON by the CLI); every run emits a
diagnostics CSV, a metadata JSON carrying the config hash, and optional
snapshots.  Identical config + seed reproduces the CSV bitwise (fixed
reduction order; a sweep runs its ladder points one after another, each
on its own tau table).
"""

from __future__ import annotations

import csv
import functools
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from . import diagnostics as diag
from . import io as io_
from . import lognls, solver
from .params import ParamSet
from .rescaling import (
    FluidState, WaveFunction, from_self_similar, madelung, smooth_density, to_self_similar,
)
from .spectral import Grid
from .tauode import T_MAX, tau_asymptotic_ratio, tau_solve

__all__ = [
    "ExperimentConfig", "BadConfig", "run_experiment", "check", "check_families", "make_initial",
]

EXPERIMENT_KINDS = (
    "simulate",
    "sweep_delta",
    "sweep_eta",
    "sweep_drag_ell",
    "longtime",
    "korteweg_crosscheck",
    "tau",
    "check",
)

SCHEMA_VERSION = 1


class BadConfig(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    out_dir: str = "out"
    seed: int = 0
    grid: dict = field(default_factory=lambda: {"d": 1, "ell": 8.0, "n": 256})
    params: dict = field(default_factory=dict)
    initial: dict = field(default_factory=lambda: {"generator": "gaussian"})
    t_end: float = 1.0
    snapshot_every: int = 0
    diag_every: int = 1
    ladder: list = field(default_factory=list)
    filter: str | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, raw, default_kind: str | None = None, **overrides) -> "ExperimentConfig":
        """Check raw JSON: a mapping of known keys, each value of its field's
        type, with a finite t_end of at most T_MAX and nonnegative step
        intervals; overrides replace keys of raw."""
        if not isinstance(raw, dict):
            raise BadConfig(f"config must be a JSON object, got {type(raw).__name__}")
        raw = {"kind": default_kind, **raw, **overrides}
        if raw["kind"] not in EXPERIMENT_KINDS:
            raise BadConfig(f"kind must be one of {EXPERIMENT_KINDS}, got {raw['kind']!r}")
        _check_keys(raw, _KEY_TYPES)
        cfg = cls(**raw)
        if cfg.schema_version != SCHEMA_VERSION:
            raise BadConfig(f"unsupported schema_version {cfg.schema_version}")
        if not abs(cfg.t_end) <= T_MAX:
            raise BadConfig(f"t_end must be finite, at most tauode.T_MAX, got {cfg.t_end!r}")
        for key in ("snapshot_every", "diag_every"):
            if getattr(cfg, key) < 0:
                raise BadConfig(f"{key} must be at least 0, got {getattr(cfg, key)}")
        if cfg.kind == "check" and cfg.filter:
            families = list(_families(None))
            if not any(cfg.filter in name for name in families):
                raise BadConfig(f"filter {cfg.filter!r} matches no check family: "
                                f"{', '.join(families)}")
        return cfg

    def build(self) -> "RunInputs":
        """Construct everything this kind runs on, then create out_dir; any
        failure raises BadConfig before an output exists."""
        kind = self.kind

        def params(d: int, **overrides) -> ParamSet:
            return ParamSet(**{**self.params, **overrides}).bind(d)

        def construct(make, grid: Grid, *args):
            # a generator's arithmetic may overflow or divide by zero on
            # extreme keys; it runs quiet, and data it leaves not finite
            # are refused
            with np.errstate(all="ignore"):
                x = make(grid, *args)
            arrays = (x.psi,) if isinstance(x, WaveFunction) else (x.R, x.M)
            if not all(np.isfinite(a).all() for a in arrays):
                raise BadConfig("the initial data are not finite")
            return x

        try:
            _check_keys(self.grid, _GRID_TYPES, "grid.")
            _check_keys(self.params, _PARAM_TYPES, "params.")
            inputs = RunInputs(out=Path(self.out_dir))
            ladder = list(self.ladder) or DEFAULT_LADDER.get(kind, [])
            steps = list(zip(ladder, ladder[1:]))
            if any(not a < b for a, b in steps) and any(not a > b for a, b in steps):
                raise BadConfig("ladder axis must be strictly monotone")
            if kind == "tau" and not self.t_end > 0:
                raise BadConfig(f"tau needs t_end > 0, got {self.t_end!r}")
            if kind not in ("tau", "check"):
                g = self.grid
                grid = Grid(g.get("d", 1), float(g.get("ell", 8.0)), g.get("n", 256))
            if kind == "korteweg_crosscheck":
                eps = float(self.params.get("eps", 1.0))
                spec = self.initial
                if spec.get("generator") in (None, "gaussian"):  # reads no other key
                    _check_keys(spec, {"generator": "str | None"}, "initial.")
                    spec = {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}
                inputs.psi0 = construct(make_wavefunction, grid, spec, eps)
                inputs.pairs = [(float(ds), float(dt)) for ds, dt in ladder]
                for ds, dt in inputs.pairs:
                    lognls.crosscheck_hydro_params(eps, ds, dt)
                    solver.check_fixed_steps(dt, self.t_end - inputs.psi0.t)
            elif kind == "sweep_drag_ell":
                # the torus grows after the eta regularizations are gone (the
                # paper's order of limits), and the ladder floors the data at
                # ell^-6, where a cold pressure eta1 R^-alpha explodes
                for key in ("eta1", "eta2"):
                    if self.params.get(key, 0.0) > 0:
                        raise BadConfig(f"params.{key} must be 0 on the drag_ell ladder, whose "
                                        f"torus grows after the eta terms vanish; got "
                                        f"{self.params[key]!r}")
                for v in ladder:
                    g = Grid(grid.d, float(v), grid.n)
                    init = construct(
                        make_initial, g,
                        {"generator": "prepared_gaussian", "theta": 1.0 / v**3, "iota": 1.0 / v},
                        self.seed,
                    )
                    r0, r1, eps_l = solver.drag_schedule(g, init.R, self.params.get("eps", 0.0))
                    inputs.points.append((v, init, params(g.d, r0=r0, r1=r1, eps=eps_l)))
            elif kind not in ("tau", "check"):
                keys = SWEEP_KEYS.get(kind, ())
                for v in ladder if keys else [None]:
                    init = construct(make_initial, grid, self.initial, self.seed)
                    inputs.points.append((v, init, params(grid.d, **dict.fromkeys(keys, v))))
                p = inputs.points[0][2]
                if kind == "simulate" and p.dt_policy == "fixed" and self.t_end > init.t \
                        and 0 < self.snapshot_every < 1e-6 / p.dt:
                    # the first snapshot after the start comes at most t1, past
                    # the rounding of a sum of steps
                    t1 = min(init.t + self.snapshot_every * p.dt, self.t_end)
                    if _snapshot_clash([init.t, t1 * (1.0 + 1e-9)]):
                        raise BadConfig(f"snapshot_every * dt = {self.snapshot_every * p.dt:g}: "
                                        f"the snapshots at t = {init.t:g} and t <= {t1:g} "
                                        "share a file name (6 decimals of t)")
            for _, init, p in inputs.points:
                if p.dt_policy == "fixed":
                    solver.check_fixed_steps(p.dt, self.t_end - init.t)
            inputs.out.mkdir(parents=True, exist_ok=True)
        except (TypeError, ValueError, AttributeError, ArithmeticError, OSError) as exc:
            raise BadConfig(str(exc)) from exc
        return inputs


# the JSON types of each annotation's parts; true and false are no numbers
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "dict": dict,
               "list": list, "None": type(None)}
# the annotation of each key of the config, of `params` and of `grid`
_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_PARAM_TYPES = {f.name: f.type for f in fields(ParamSet)}
_GRID_TYPES = {"d": "int", "ell": "float", "n": "int"}


def _check_keys(raw: dict, types: dict, where: str = "") -> None:
    """Every key of the config object raw is one of types, and its value of
    the JSON type of its annotation there, and finite if a float; where
    prefixes nested keys."""
    for key, val in raw.items():
        if key not in types:
            raise BadConfig(f"unknown config key {where + key!r}")
        name = types[key]
        allowed = tuple(_JSON_TYPES[part] for part in name.split(" | "))
        if isinstance(val, bool) != (name == "bool") or not isinstance(val, allowed):
            raise BadConfig(f"{where}{key} must be {name}, got {val!r}")
        if isinstance(val, float) and not math.isfinite(val):
            raise BadConfig(f"{where}{key} must be finite, got {val!r}")


# the ladder of each kind whose config gives none
DEFAULT_LADDER = {
    "sweep_delta": [1e-2, 1e-3, 1e-4],
    "sweep_eta": [1e-10, 1e-11, 1e-12],
    "sweep_drag_ell": [4.0, 8.0, 16.0],
    "korteweg_crosscheck": [[1e-3, 2e-3], [1e-4, 1e-3]],
}
# the ParamSet fields a sweep_delta / sweep_eta ladder value sets
SWEEP_KEYS = {"sweep_delta": ("delta1", "delta2"), "sweep_eta": ("eta2",)}


@dataclass
class RunInputs:
    """What one experiment runs on, as ExperimentConfig.build constructed it."""

    out: Path
    points: list = field(default_factory=list)  # (axis value, initial state, bound ParamSet)
    psi0: WaveFunction | None = None  # the cross-check's initial wavefunction
    pairs: list = field(default_factory=list)  # the cross-check's (delta_stab, dt)


# ---------------------------------------------------------------------------
# initial-data generators (all parameters logged via the config)


def _gaussian_sqrtR(grid: Grid) -> np.ndarray:
    return np.exp(-grid.r2 / 2.0)


# the keys of `initial` each generator reads (prepared_gaussian starts at rest)
_MOVING = {"generator": "str", "seed": "int", "velocity_amplitude": "float"}
_INITIAL_TYPES = {
    "gaussian": _MOVING,
    "perturbed_gaussian": {**_MOVING, "amplitude": "float", "mode": "int"},
    "two_bump": {**_MOVING, "separation": "float", "width": "float"},
    "prepared_gaussian": {"generator": "str", "seed": "int", "theta": "float", "iota": "float"},
    "random_positive": {**_MOVING, "roughness": "float"},
}


def make_initial(grid: Grid, spec: dict, seed: int = 0) -> FluidState:
    """Named generators: gaussian, perturbed_gaussian (x (1 + a cos(pi m y/ell))),
    two_bump, prepared_gaussian (plateau + theta, mollified), random_positive;
    a key the generator does not read, or of the wrong type, is a BadConfig."""
    name = spec.get("generator", "gaussian")
    if name in _INITIAL_TYPES:
        _check_keys(spec, _INITIAL_TYPES[name], "initial.")
    rng = np.random.default_rng(spec.get("seed", seed))
    y0 = np.broadcast_to(grid.y[0], grid.shape)
    if name == "gaussian":
        s = _gaussian_sqrtR(grid)
    elif name == "perturbed_gaussian":
        a = float(spec.get("amplitude", 0.2))
        m = int(spec.get("mode", 1))
        fac = 1.0 + a * np.cos(math.pi * m * y0 / grid.ell)
        if np.any(fac <= 0):
            raise BadConfig("perturbation amplitude makes the density negative")
        s = _gaussian_sqrtR(grid) * np.sqrt(fac)
    elif name == "two_bump":
        c = float(spec.get("separation", 2.0))
        width = _scale(spec, "width", 1.0)
        r2rest = grid.r2 - y0**2
        s = np.exp(-((y0 - c) ** 2 + r2rest) / (2 * width**2)) + np.exp(
            -((y0 + c) ** 2 + r2rest) / (2 * width**2)
        )
    elif name == "prepared_gaussian":
        theta = float(spec.get("theta", 1.0 / grid.ell**3))
        iota = float(spec.get("iota", 1.0 / grid.ell))
        return solver.prepare_initial_data(
            grid,
            lambda *y: np.exp(-sum(np.asarray(c) ** 2 for c in y) / 2.0),
            lambda *y: tuple(np.zeros(grid.shape) for _ in range(grid.d)),
            theta,
            iota,
        )
    elif name == "random_positive":
        s = random_positive_field(grid, rng, _scale(spec, "roughness", 4.0))
        s = np.sqrt(s)
    else:
        raise BadConfig(f"unknown generator {name!r}")
    lam = np.zeros((grid.d,) + grid.shape)
    amp = float(spec.get("velocity_amplitude", 0.0))
    if amp:
        lam[0] = amp * s * np.sin(math.pi * y0 / grid.ell)
    return solver.state_from_root(grid, s, lam)


def _scale(spec: dict, key: str, default: float) -> float:
    """The length scale spec[key] of a generator, which must be positive."""
    v = float(spec.get(key, default))
    if not v > 0:
        raise BadConfig(f"initial.{key} must be positive, got {v!r}")
    return v


def random_positive_field(grid: Grid, rng, roughness: float = 4.0) -> np.ndarray:
    """Strictly positive random field: exp of low-pass-filtered white noise,
    shaped by a Gaussian envelope so moments stay finite."""
    return _positive_field(grid, rng.standard_normal((1,) + grid.shape), roughness)[0]


def _positive_field(grid: Grid, noise, roughness: float = 4.0) -> np.ndarray:
    """random_positive_field of a stack of drawn white noise, each row
    scaled by its own std: bitwise the field of that draw alone."""
    sp = grid.rows(len(noise))
    smooth = sp.inv(sp.fwd(noise) * np.exp(-sp.k2 / roughness**2))
    smooth *= np.reshape([1.0 / max(row.std(), 1e-300) for row in smooth],
                         (len(noise),) + (1,) * grid.d)
    return np.exp(0.5 * smooth) * np.exp(-grid.r2 / 2.0)


# the keys of `initial` a wavefunction generator reads (and "mode" for a plane wave)
_WAVE_TYPES = {"generator": "str", "offset": "float", "offset_width": "float", "mass_match": "bool"}


def make_wavefunction(grid: Grid, spec: dict, eps: float) -> WaveFunction:
    """Wavefunction generators: gaussian, offset_gaussian (strictly positive
    modulus), plane_wave_phase (gaussian plus offset times exp(i k.y))."""
    name = spec.get("generator", "gaussian")
    types = {**_WAVE_TYPES, "mode": "int"} if name == "plane_wave_phase" else _WAVE_TYPES
    _check_keys(spec, types, "initial.")
    amp = float(spec.get("offset", 0.1))
    w = _scale(spec, "offset_width", 2.0)
    # the "offset" floor is a wide Gaussian, not a constant: the modulus must
    # be negligible near the box faces, where the periodized confinement force
    # is discontinuous and would drain an O(1) boundary density unphysically
    floor = amp * np.exp(-grid.r2 / (2.0 * w**2))
    if name == "gaussian":
        z = np.exp(-grid.r2 / 2.0).astype(complex)
    elif name == "offset_gaussian":
        z = (floor + np.exp(-grid.r2 / 2.0)).astype(complex)
    elif name == "plane_wave_phase":
        m = int(spec.get("mode", 1))
        kvec = math.pi * m / grid.ell
        phase = sum(kvec * np.broadcast_to(grid.y[i], grid.shape) for i in range(grid.d))
        z = (floor + np.exp(-grid.r2 / 2.0)) * np.exp(1j * phase)
    else:
        raise BadConfig(f"unknown wavefunction generator {name!r}")
    if spec.get("mass_match", True):
        z *= math.sqrt(grid.gaussian_mass / grid.quad(np.abs(z) ** 2))
    return WaveFunction(0.0, grid, z, eps)


# ---------------------------------------------------------------------------
# experiment driver


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status (0 ok,
    1 invariant violation, 2 run failure, arithmetic errors included).  A
    bad config raises BadConfig from config.build(), before any output is
    written."""
    inputs = config.build()
    kind = config.kind
    meta = {
        "config": asdict(config),
        "config_hash": io_.config_hash(asdict(config)),
        "version": _pkg_version,
    }
    try:
        if kind == "simulate":
            return _run_single(config, inputs, meta)
        if kind in ("sweep_delta", "sweep_eta", "sweep_drag_ell"):
            return _run_sweep(config, inputs, meta)
        if kind == "longtime":
            return _run_longtime(config, inputs, meta)
        if kind == "korteweg_crosscheck":
            return _run_crosscheck(config, inputs, meta)
        if kind == "tau":
            return _run_tau(config, inputs, meta)
        ran = check_families(config.filter)
        failures = _failures(ran)
        families = {name: {"ok": not errs, "seconds": took} for name, (errs, took) in ran.items()}
        io_.write_metadata(inputs.out, {**meta, "failures": failures, "families": families})
        return 1 if failures else 0
    except (solver.SolverError, ArithmeticError) as exc:
        # a run whose arithmetic overflows (a Python float power of an
        # extreme parameter, say) has failed, like one that stops on its own
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _simulate(config: ExperimentConfig, inputs: RunInputs, **run_kw):
    """Run the built initial state to t_end and write diagnostics.csv; the
    write's seconds go to the run's timing as io_s."""
    [(_, initial, params)] = inputs.points
    traj = solver.run(initial, params, config.t_end, **run_kw)
    t0 = time.perf_counter()
    io_.write_diagnostics_csv(inputs.out, traj.records, initial.grid.d)
    traj.timing["io_s"] = time.perf_counter() - t0
    return initial.grid, params, traj


def _run_single(config: ExperimentConfig, inputs: RunInputs, meta: dict) -> int:
    out = inputs.out
    _, params, traj = _simulate(
        config, inputs, snapshot_every=config.snapshot_every, diag_every=config.diag_every
    )
    t0 = time.perf_counter()
    clash = _snapshot_clash([snap.t for snap in traj.snapshots])
    if clash:
        print(f"run failed: snapshot name collision: {clash}", file=sys.stderr)
    for snap in [] if clash else traj.snapshots:
        # R, and Lambda = sqrt R U from the solver's recovery U = M / rho_sm
        lam = snap.M / np.sqrt(smooth_density(snap.R, traj.r_min))
        fields = {"R": np.maximum(snap.R, 0.0), **{f"Lambda{i}": c for i, c in enumerate(lam)}}
        for name, values in fields.items():
            io_.write_snapshot(io_.snapshot_path(out, name, snap.t), snap.grid, values, snap.t)
    traj.timing["io_s"] += time.perf_counter() - t0
    io_.write_metadata(
        out,
        {**meta, "status": traj.status, "n_steps": traj.n_steps,
         "cfl_binding": traj.cfl_binding, "params": asdict(params), "timing": traj.timing,
         **_stop(traj)},
    )
    return 0 if traj.status == "ok" and not clash else 2


def _snapshot_clash(times) -> str | None:
    """Which two of the snapshot times would share a file (io.snapshot_path
    keeps 6 decimals of t), or None when each has a file of its own."""
    first = {}
    for t in times:
        name = io_.snapshot_path("", "*", t)
        if first.setdefault(name, t) != t:
            return f"t = {first[name]!r} and t = {t!r} both name {name}"
    return None


def _stop(traj: solver.Trajectory) -> dict:
    """The metadata key of where a non-ok run stopped; none for an ok run."""
    return {} if traj.stop is None else {"stop": traj.stop}


def _run_sweep(config: ExperimentConfig, inputs: RunInputs, meta: dict) -> int:
    rows = []
    results = [(v, solver.run(init, p, config.t_end, diag_every=config.diag_every))
               for v, init, p in inputs.points]
    any_fail = False
    for v, traj in results:
        rec = traj.records[-1]
        rows.append(
            {
                "axis": v,
                "status": traj.status,
                "mass": rec.mass,
                "energy": rec.energy,
                "energy_reg": rec.energy_reg,
                "second_moment": rec.second_moment,
                "min_density": rec.min_density,
                "n_steps": traj.n_steps,
            }
        )
        any_fail |= traj.status != "ok"

    # trailing pairwise-difference block (terminal density L2, same grid only)
    diffs = []
    for (va, ta), (vb, tb) in zip(results, results[1:]):
        sa, sb = ta.state_final, tb.state_final
        if sa.grid == sb.grid:
            num = math.sqrt(sa.grid.quad((sa.R - sb.R) ** 2))
            den = math.sqrt(sa.grid.quad(sb.R**2))
            diffs.append({"pair": f"{va}->{vb}", "l2_density_diff": num / max(den, 1e-300)})
        else:
            diffs.append(
                {"pair": f"{va}->{vb}",
                 "l2_density_diff": float("nan"),
                 "mass_diff": abs(ta.records[-1].mass - tb.records[-1].mass)}
            )
    _write_sweep_csv(inputs.out / "sweep.csv", rows, diffs)
    io_.write_metadata(inputs.out, {**meta, "rows": rows, "pairwise": diffs})
    return 2 if any_fail else 0


def _write_sweep_csv(path: Path, rows, diffs):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        cols = list(rows[0].keys())  # a sweep ladder is never empty
        w.writerow(cols)
        for r in rows:
            w.writerow([r[c] for c in cols])
        w.writerow([])
        w.writerow(["pair", "l2_density_diff"])
        for d in diffs:
            w.writerow([d["pair"], d.get("l2_density_diff")])


def _run_longtime(config: ExperimentConfig, inputs: RunInputs, meta: dict) -> int:
    grid, _, traj = _simulate(config, inputs, diag_every=config.diag_every)
    mass = traj.records[-1].mass
    gam = diag.matched_gaussian(grid, mass)
    targets = {
        "mass": mass,
        "second_moment_target": grid.quad(gam * grid.r2),
        "second_moment_final": traj.records[-1].second_moment,
    }
    io_.write_metadata(
        inputs.out,
        {**meta, "status": traj.status, "cfl_binding": traj.cfl_binding, "targets": targets,
         "timing": traj.timing, **_stop(traj)},
    )
    return 0 if traj.status == "ok" else 2


def _run_crosscheck(config: ExperimentConfig, inputs: RunInputs, meta: dict) -> int:
    reps = lognls.crosscheck_ladder(inputs.psi0, config.t_end, inputs.pairs)
    # the timing goes beside the rows: the rows are the run's reproducible output
    rows = [asdict(rep) for rep in reps]
    timing = [row.pop("timing") for row in rows]
    io_.write_metadata(inputs.out, {**meta, "rows": rows, "timing": timing})
    return 0 if all(rep.status == "ok" for rep in reps) else 2


def _run_tau(config: ExperimentConfig, inputs: RunInputs, meta: dict) -> int:
    sol = tau_solve(config.t_end, 1e-10, 1e-12)
    with open(inputs.out / "tau.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "tau", "taudot", "first_integral_residual"])
        res = sol.first_integral_residual()
        for i in range(len(sol.t)):
            w.writerow(
                ["%.17g" % sol.t[i], "%.17g" % sol.tau[i],
                 "%.17g" % sol.taudot[i], "%.17g" % res[i]]
            )
    io_.write_metadata(inputs.out, {**meta, "nodes": len(sol.t)})
    return 0


# ---------------------------------------------------------------------------
# invariant gate


def check(filter: str | None = None, verbose: bool = True) -> tuple[bool, list[str]]:
    """Run the invariant/identity suite on generated fields at desk scale.

    Returns (ok, failures).  Families: tau, spectral, rescaling, korteweg,
    csiszar, llogl, compat, mass, energy, bd, nls, prepare, snapshots.
    """
    failures = _failures(check_families(filter, verbose))
    return (not failures), failures


def _families(ladder) -> dict:
    """The families of `check`, in suite order: {name: fn()}; the energy and
    bd families read the drag runs ladder() gives."""
    return {
        "tau": _check_tau,
        "spectral": _check_spectral,
        "rescaling": _check_rescaling,
        "korteweg": _check_korteweg,
        "csiszar": _check_csiszar,
        "llogl": _check_llogl,
        "compat": _check_compat,
        "mass": _check_mass,
        "energy": lambda: _check_energy_balance(ladder),
        "bd": lambda: _check_bd_identity(ladder),
        "nls": _check_nls,
        "prepare": _check_prepare,
        "snapshots": _check_snapshots,
    }


def check_families(filter: str | None = None, verbose: bool = True) -> dict:
    """Run the families of `check` whose name contains filter (all without
    one): {family: (errors, perf_counter seconds)}, in suite order.

    The energy and bd families read the same three drag runs; the first of
    them to run makes the runs, and they last as long as this call."""
    ran = {}
    for name, fn in _families(functools.cache(_drag_ladder)).items():
        if filter and filter not in name:
            continue
        t0 = time.perf_counter()
        errs = fn()
        took = time.perf_counter() - t0
        ran[name] = (errs, took)
        if verbose and errs:
            print(f"[FAIL] {name} ({took * 1e3:.1f} ms): " + "; ".join(errs))
        elif verbose:
            print(f"[ok]   {name} ({took * 1e3:.1f} ms)")
    return ran


def _failures(ran: dict) -> list[str]:
    return [f"{name}: {e}" for name, (errs, _) in ran.items() for e in errs]


def _check_tau() -> list[str]:
    errs = []
    sol = tau_solve(100.0, 1e-10, 1e-12)
    res = np.abs(sol.first_integral_residual()).max()
    if res > 1e-8:
        errs.append(f"first-integral residual {res:.2e} > 1e-8")
    tau01, _ = sol.eval(0.1)
    if abs(tau01 - 1.0099834106109) > 1e-8:
        errs.append(f"tau(0.1) = {tau01!r} off the oracle value")
    if np.any(sol.taudot[1:] <= 0):
        errs.append("taudot must be positive for t > 0")
    sol_long = tau_solve(1.1e6, 1e-10, 1e-12)
    gaps = [abs(tau_asymptotic_ratio(sol_long, t) - 1.0) for t in (1e4, 1e5, 1e6)]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        errs.append(f"|ratio-1| not decreasing over the verified tail: {gaps}")
    return errs


def _check_spectral() -> list[str]:
    errs = []
    rng = np.random.default_rng(7)
    for d, n in ((1, 64), (2, 32)):
        g = Grid(d, 5.0, n)
        sp = g.spectral
        f = sp.dealias(rng.standard_normal(g.shape))
        coeffs = sp.cfwd(f)
        back = sp.cinv(coeffs).real
        err = np.abs(back - f).max() / max(np.abs(f).max(), 1e-300)
        if err > 1e-13:
            errs.append(f"d={d} roundtrip error {err:.2e}")
        quad = g.quad(f**2)
        pars = g.volume * float(np.sum(np.abs(coeffs / sp.size) ** 2))
        if abs(quad - pars) / abs(quad) > 1e-12:
            errs.append(f"d={d} Parseval mismatch {abs(quad-pars)/abs(quad):.2e}")
        dfdx = sp.grad(f)[0]
        if abs(g.quad(dfdx)) > 1e-12 * np.abs(dfdx).max() * g.volume:
            errs.append(f"d={d} integral of derivative not zero")
        da = sp.dealias(f)
        db = sp.dealias(da)
        if np.abs(da - db).max() > 1e-14:
            errs.append("dealias not idempotent")
    g = Grid(1, 10.0, 256)
    if abs(g.quad(np.exp(-g.r2)) - math.sqrt(math.pi)) > 1e-10:
        errs.append("Gaussian quadrature off")
    return errs


def _check_rescaling() -> list[str]:
    errs = []
    g = Grid(1, 8.0, 128)
    rho = np.exp(-g.r2) + 0.05
    u = 0.3 * np.sin(math.pi * np.stack(g.y) / g.ell)
    state = to_self_similar(g, rho, u, (1.0, 0.0))
    rho2, u2 = from_self_similar(state, (1.0, 0.0))
    if np.abs(rho2 - rho).max() > 1e-12:
        errs.append("density roundtrip failed")
    if np.abs(u2 - u).max() > 1e-10:
        errs.append("velocity roundtrip failed")
    kvec = math.pi * 2 / g.ell
    st = madelung(WaveFunction(0.0, g, np.exp(1j * kvec * g.y[0]), 1.3))
    if np.abs(st.R - 1.0).max() > 1e-12:
        errs.append("plane-wave modulus wrong")
    if np.abs(st.M - 1.3 * kvec).max() > 1e-9:
        errs.append("plane-wave velocity wrong")
    return errs


def _check_korteweg() -> list[str]:
    errs = []
    for d, n, tol in ((1, 128, 1e-8), (2, 64, 1e-6)):
        g = Grid(d, 5.0, n)
        ops = diag.StateOps(g, (np.exp(-g.r2) + 0.2) ** 2)
        res = diag.korteweg_identity_residual(ops)
        if res > tol:
            errs.append(f"korteweg_residual d={d} n={n}: {res:.2e} > {tol:.0e}")
        res2 = diag.loghess_identity_residual(ops)
        if res2 > tol:
            errs.append(f"loghess_residual d={d} n={n}: {res2:.2e} > {tol:.0e}")
    return errs


def _random_stacks(seed: int):
    """The 100 random fields of the csiszar and llogl families, drawn in
    order and alternating between a 1D and a 2D grid, as stacks of states
    of at most diagnostics.stack_rows rows: (the fields' indices, their
    stack), each stack made from its draws as soon as its last is drawn."""
    rng = np.random.default_rng(seed)
    grids = (Grid(1, 6.0, 64), Grid(2, 6.0, 32))
    pending = ([], [])
    for i in range(100):
        g, part = grids[i % 2], pending[i % 2]
        part.append((i, rng.standard_normal(g.shape)))
        if len(part) == diag.stack_rows(g) or i >= 98:  # full, or the grid's last draw
            index, noise = zip(*part)
            part.clear()
            ops = diag.StateOps(g, _positive_field(g, np.stack(noise)))
            del noise
            yield index, ops


def _check_csiszar() -> list[str]:
    errs = []
    worst = min(float(diag.csiszar_kullback_gap(ops).min()) for _, ops in _random_stacks(11))
    if worst < -1e-10:
        errs.append(f"min gap {worst:.2e} < -1e-10")
    return errs


def _check_llogl() -> list[str]:
    errs = []
    pairs = {}  # field index: (value, bound)
    for index, ops in _random_stacks(13):
        values, bounds = diag.llogl_bound(ops, 2.0 / (ops.grid.d + 2))
        pairs.update(zip(index, zip(values, bounds)))
    for i in sorted(pairs):
        value, bound = pairs[i]
        if not value <= bound:
            errs.append(f"seed {i}: value {value:.3e} > bound {bound:.3e}")
            break
    return errs


def _check_compat() -> list[str]:
    errs = []
    g = Grid(1, 6.0, 128)
    R = (np.exp(-g.r2) + 0.3) ** 2
    tn, sk = diag.compatibility_residuals(diag.StateOps(g, R, 0.7 * R[None]))  # U = 0.7
    if tn > 1e-10:
        errs.append(f"T_N residual for constant U: {tn:.2e}")
    stress = diag.StateOps(g, np.full(g.shape, 0.64)).stress  # the root is 0.8
    if np.abs(stress).max() > 1e-12:
        errs.append("S_K of constant density not zero")
    g2 = Grid(2, 6.0, 64)
    z = (0.2 + np.exp(-g2.r2)) * np.exp(1j * (math.pi / g2.ell) * g2.y[0])
    st = madelung(WaveFunction(0.0, g2, z, 1.0))
    irr = diag.irrotationality_residual(st)
    if irr > 1e-8:
        errs.append(f"irrotationality residual {irr:.2e} > 1e-8")
    return errs


def drag_run_state() -> FluidState:
    """Gaussian-tail perturbed state used by the identity-grade drag runs."""
    g = Grid(1, 8.0, 128)
    y = np.broadcast_to(g.y[0], g.shape)
    s = np.exp(-(y**2) / 2.0) * np.sqrt(1.0 + 0.4 * np.cos(math.pi * y / g.ell))
    lam = 0.6 * np.exp(-(y**2) / 2.0) * np.sin(2 * math.pi * y / g.ell)
    return solver.state_from_root(g, s, lam[None])


def full_reg_setup(n=256):
    """Plateau-floored data on [-8, 8] and the all-terms-active parameter set
    of the mass-conservation run (every regularization strictly positive)."""
    ell = 8.0
    g = Grid(1, ell, n)
    state = solver.prepare_initial_data(
        g,
        lambda y: np.exp(-np.asarray(y) ** 2 / 2.0),
        lambda y: (0.3 * np.exp(-np.asarray(y) ** 2 / 2.0) * np.sin(math.pi * np.asarray(y) / ell),),
        0.2,
        0.4,
    )
    params = ParamSet(
        nu=0.1, eps=0.1, r0=0.02, r1=0.02, delta1=1e-4, delta2=1e-7,
        eta1=1e-14, eta2=1e-13, alpha=8.0, s=2,
        dt_policy="cfl", dt=5e-3, cfl=0.4,
    )
    return state, params


def identity_ladder(kind: str, dts=(2e-2, 1e-2, 5e-3), t_end=0.4):
    """Balance/BD residuals on the drag run across a fixed-dt ladder."""
    return _ladder_residuals(kind, _drag_ladder(dts, t_end))


def _drag_ladder(dts=(2e-2, 1e-2, 5e-3), t_end=0.4):
    """(trajectories, None) of the drag run (cubic drag r1 only) at each
    fixed dt of the ladder, one solver.run of the ladder, or (None, error)
    naming the first run that aborts."""
    rows = [ParamSet(nu=0.1, eps=0.2, r1=0.05, dt_policy="fixed", dt=dt, viscous_form="bounded")
            for dt in dts]
    trajs = solver.run(drag_run_state(), rows, t_end, diag_every=1)
    for dt, traj in zip(dts, trajs):
        if traj.status != "ok":
            return None, f"run aborted: {traj.status} at dt={dt}"
    return trajs, None


def _ladder_residuals(kind: str, ladder):
    """(residuals, error) of kind "energy" or "bd" from a _drag_ladder result."""
    trajs, err = ladder
    if err:
        return None, err
    if kind == "energy":
        return [traj.energy_balance_residual() for traj in trajs], None
    return [traj.bd_identity_residual() for traj in trajs], None


def _check_mass() -> list[str]:
    errs = []
    state, params = full_reg_setup(n=128)
    traj = solver.run(state, params, 0.25, diag_every=5)
    if traj.status != "ok":
        errs.append(f"run aborted: {traj.status}")
        return errs
    m = traj.series("mass")
    drift = np.abs(m - m[0]).max() / abs(m[0])
    if drift > 1e-8:
        errs.append(f"mass drift {drift:.2e} > 1e-8")
    if traj.series("min_density").min() <= 0:
        errs.append("density lost positivity")
    return errs


def _ladder_errors(kind: str, label: str, ladder) -> list[str]:
    """The identity ladder's residuals must halve twice per halved dt."""
    res, err = _ladder_residuals(kind, ladder())
    if err:
        return [err]
    ratios = [a / b for a, b in zip(res, res[1:])]
    if not all(4 / 1.3 < r < 4 * 1.3 for r in ratios):
        return [f"{label} residuals {res} not order-2 convergent (ratios {ratios})"]
    return []


def _check_energy_balance(ladder) -> list[str]:
    return _ladder_errors("energy", "balance", ladder)


def _check_bd_identity(ladder) -> list[str]:
    errs = _ladder_errors("bd", "bd", ladder)
    state = drag_run_state()
    p = ParamSet(nu=0.0, eps=0.2, r1=0.05, dt_policy="fixed", dt=1e-2)
    traj = solver.run(state, p, 0.05, diag_every=1)
    if abs(traj.bd_identity_residual()) > 1e-14:
        errs.append("bd identity not identically zero at nu = 0")
    return errs


def _check_nls() -> list[str]:
    errs = []
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    res = []
    for dt in (4e-3, 2e-3):
        p = lognls.NlsParams(eps=1.0, dt=dt)
        traj = lognls.run_nls(psi0, p, 0.5)
        if traj.max_step_mass_drift > 1e-12:
            errs.append(f"mass drift per step {traj.max_step_mass_drift:.2e} > 1e-12")
            break
        res.append(traj.dissipation_identity_residual())
    if len(res) == 2 and not 2.0 < res[0] / res[1] < 8.0:
        errs.append(f"dissipation identity residuals {res} not order-convergent")
    return errs


def _check_prepare() -> list[str]:
    errs = []
    stats = truncation_study([4.0, 8.0, 16.0], n=2048)
    last = stats[-1]
    for key in ("mass_excess", "dirichlet_excess", "moment_excess"):
        if abs(last[key]) > 0.05:
            errs.append(f"{key} at ell=16 is {last[key]:.3f} (>5%)")
    for key in ("mass_excess", "dirichlet_excess", "moment_excess"):
        seq = [abs(s[key]) for s in stats]
        if not all(a >= b - 1e-12 for a, b in zip(seq, seq[1:])):
            errs.append(f"{key} grows along the ladder: {seq}")
    return errs


def truncation_study(ells, n=2048):
    """Prepared-data functionals vs the analytic full-space Gaussian values
    (sqrtR0 = exp(-|y|^2/2): mass sqrt(pi), Dirichlet and moment sqrt(pi)/2)."""
    out = []
    mass_target = math.sqrt(math.pi)
    grad_target = 0.5 * math.sqrt(math.pi)
    mom_target = 0.5 * math.sqrt(math.pi)
    for ell in ells:
        g = Grid(1, float(ell), n)
        st = solver.prepare_initial_data(
            g,
            lambda y: np.exp(-np.asarray(y) ** 2 / 2.0),
            lambda y: (np.zeros(g.shape),),
            float(ell) ** (-3.0),
            1.0 / float(ell),
        )
        s = np.sqrt(st.R)
        mass = g.quad(st.R)
        dirichlet = g.quad(g.spectral.grad(s)[0] ** 2)
        mom = g.quad(st.R * g.r2)
        out.append(
            {
                "ell": ell,
                "mass": mass,
                "dirichlet": dirichlet,
                "moment": mom,
                "mass_excess": (mass - mass_target) / mass_target,
                "dirichlet_excess": (dirichlet - grad_target) / grad_target,
                "moment_excess": (mom - mom_target) / mom_target,
                "min_sqrtR": float(s.min()),
            }
        )
    return out


def _check_snapshots() -> list[str]:
    import tempfile

    errs = []
    g = Grid(2, 3.0, 16)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    with tempfile.TemporaryDirectory() as tmp:
        p = io_.write_snapshot(io_.snapshot_path(tmp, "R", 0.25), g, f, 0.25)
        back, t = io_.read_snapshot(p)
        if t != 0.25 or back.grid != g or not np.array_equal(back.values, f):
            errs.append("snapshot roundtrip not bitwise")
    return errs
