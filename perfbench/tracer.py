"""Span tracer for the traced benchmark run.

The tracer wraps functions of `isofluid` and the FFT entry points of
`numpy.fft` and `scipy.fft` from outside the package: it rebinds every
module-level name (and class attribute) that refers to a wrapped function, in
every `isofluid` module namespace that binds it, so calls made through a name
bound at import time (`lognls.hydro_run` is `solver.run`) are traced too.
Nothing under `src/` is edited.

Each wrapped call records one span: name, start, end, parent span, and for
transforms and file writes the element and byte counts.  Spans stay in memory
(flat `array` buffers) until the run ends, then `layer_metrics` reduces them.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from array import array
from statistics import median

FFT_NAMESPACES = ("numpy.fft", "scipy.fft")
# 1-d and n-d transforms, complex-to-complex and real-to-complex
FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# the ten isofluid modules are the layers; params gets no spans of its own
# (ParamSet construction takes microseconds) and its time stays with callers
TRACED_MODULES = (
    "tauode", "spectral", "rescaling", "solver", "diagnostics",
    "lognls", "experiments", "io", "cli",
)

# standalone identity/entropy functions (diagnostics.identity_s)
IDENTITY_FUNCTIONS = (
    "relative_entropy", "csiszar_kullback_gap", "korteweg_identity_residual",
    "loghess_identity_residual", "jungel_quantities", "compatibility_residuals",
    "irrotationality_residual", "llogl_bound", "energy_balance_residual",
    "bd_identity_residual",
)

# `isofluid check` families and the function each one runs
CHECK_FAMILIES = {
    "tau": "_check_tau",
    "spectral": "_check_spectral",
    "rescaling": "_check_rescaling",
    "korteweg": "_check_korteweg",
    "csiszar": "_check_csiszar",
    "llogl": "_check_llogl",
    "compat": "_check_compat",
    "mass": "_check_mass",
    "energy": "_check_energy_balance",
    "bd": "_check_bd_identity",
    "nls": "_check_nls",
    "prepare": "_check_prepare",
    "snapshots": "_check_snapshots",
}

STEPPER_SUBSTEPS = {
    "drag_s": "drag_flow",
    "linear_s": "linear_flow",
    "density_forces_s": "density_forces",
    "n_rhs_s": "n_rhs",
    "cfl_s": "cfl_dt",
    "sponge_s": "vacuum_sponge",
}

# names the per-layer metrics are computed from, besides every public
# module-level function; a name missing here is reported absent and the
# metrics built on it are null
REQUIRED = {
    "tauode": ("tau_solve", "TauSolution.eval"),
    "spectral": ("Grid.__init__",),
    "rescaling": ("madelung",),
    "solver": (
        "run", "state_from_arrays", "_Stepper.__init__", "_Stepper.advance",
        *(f"_Stepper.{m}" for m in STEPPER_SUBSTEPS.values()),
    ),
    "diagnostics": ("record", *IDENTITY_FUNCTIONS),
    "lognls": ("nls_step", "run_nls"),
    "experiments": ("make_initial", *CHECK_FAMILIES.values()),
    "io": ("write_diagnostics_csv", "write_snapshot", "write_metadata"),
    "cli": ("main",),
}

FFT_LAYER = "spectral"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.elems = array("q")
        self.nbytes = array("q")
        self.stack = [-1]
        self.fft_ids: set[int] = set()
        # (owner, attr, original, wrapper, scan) per patch target
        self._targets: list[tuple] = []
        self._undo: list[tuple] = []
        self.locations: dict[str, list[str]] = {}
        self.absent: list[str] = []

    # -- span recording -----------------------------------------------------

    def span_id(self, name: str, layer: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return sid

    def mark(self) -> int:
        """Index of the next span; brackets one traced call."""
        return len(self.t0)

    def wrap(self, fn, name: str, layer: str, measure=None, namer=None):
        sid = self.span_id(name, layer)
        name_id, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        elems, nbytes, stack = self.elems, self.nbytes, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(t0)
            name_id.append(sid if namer is None else namer(args, kwargs))
            parent.append(stack[-1])
            t1.append(0.0)
            elems.append(0)
            nbytes.append(0)
            stack.append(i)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if measure is not None:
                elems[i], nbytes[i] = measure(args, kwargs, out)
            return out

        try:
            functools.update_wrapper(traced, fn)
        except AttributeError:
            pass
        return traced

    # -- patching ------------------------------------------------------------

    def add_fft_targets(self) -> None:
        """Wrap the transform entry points; call before importing isofluid."""
        import importlib

        for ns in FFT_NAMESPACES:
            mod = importlib.import_module(ns)
            for fname in FFT_ENTRY_POINTS:
                orig = vars(mod).get(fname)
                if orig is None:
                    self.absent.append(f"{ns}.{fname}")
                    continue
                name = f"fft.{ns}.{fname}"
                w = self.wrap(orig, name, FFT_LAYER, measure=_fft_measure)
                self.fft_ids.add(self._ids[name])
                self._targets.append((mod, fname, orig, w, True))

    def add_isofluid_targets(self) -> None:
        """Wrap every public function of each traced module, plus the names
        in REQUIRED; call after importing isofluid."""
        import importlib

        for layer in TRACED_MODULES:
            modname = f"isofluid.{layer}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.extend(f"{modname}.{q}" for q in REQUIRED.get(layer, ()))
                continue
            qualnames = [
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == modname and not n.startswith("_")
            ]
            for q in REQUIRED.get(layer, ()):
                if q not in qualnames:
                    qualnames.append(q)
            for q in qualnames:
                owner, attr = _resolve(mod, q)
                orig = None if owner is None else vars(owner).get(attr)
                if not callable(orig):
                    self.absent.append(f"{modname}.{q}")
                    continue
                measure = _file_measure if layer == "io" and attr.startswith("write_") else None
                namer = None
                if (layer, q) == ("diagnostics", "record"):
                    namer = self._record_namer(orig)
                w = self.wrap(orig, f"{layer}.{q}", layer, measure=measure, namer=namer)
                self._targets.append((owner, attr, orig, w, owner is mod))

    def _record_namer(self, fn):
        """Split diagnostics.record spans into the core and full tiers."""
        sig = inspect.signature(fn)
        core = self.span_id("diagnostics.record[core]", "diagnostics")
        full = self.span_id("diagnostics.record[full]", "diagnostics")

        def namer(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return full if bound.arguments.get("full") else core

        return namer

    def install(self) -> None:
        """Bind every wrapper at its home and wherever an isofluid module
        namespace binds the original (or a wrapper bound at import time)."""
        self.uninstall()
        self.locations = {}
        spaces = _isofluid_namespaces()
        for owner, attr, orig, w, scan in self._targets:
            home = f"{_owner_name(owner)}.{attr}"
            setattr(owner, attr, w)
            self._undo.append((owner, attr, orig))
            found = [home]
            if scan:
                for modname, mod in spaces:
                    if mod is owner:
                        continue
                    for name, val in list(vars(mod).items()):
                        if val is orig or val is w:
                            setattr(mod, name, w)
                            self._undo.append((mod, name, orig))
                            found.append(f"{modname}.{name}")
            self.locations[home] = found

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []


class CheckpointClock(Tracer):
    """Timestamps at every transform call, for the end-to-end estimate of
    run.py: each call is cut into segments at its transform calls, which
    come in the same order on every call of one version of the code.  At
    every `every`-th transform call it first runs `probe` (hostspeed.py)
    twice and times the second, warm run; the time of both is left out of
    the segments.  It records no spans and wraps nothing of isofluid
    itself.  Calls from threads other than the main one are not stamped,
    so that segments stay aligned if the program ever transforms in worker
    threads."""

    def __init__(self, probe, every: int):
        super().__init__()
        self.stamps = array("d")
        self.probe_s = array("d")
        self.skipped_s = array("d")
        self.probe, self.every = probe, every

    def wrap(self, fn, name: str, layer: str, measure=None, namer=None):
        self.span_id(name, layer)
        stamps, clock = self.stamps, time.perf_counter
        probe_s, skipped_s = self.probe_s, self.skipped_s
        probe, every = self.probe, self.every
        main, ident = threading.main_thread().ident, threading.get_ident

        def stamped(*args, **kwargs):
            if ident() == main:
                if len(stamps) % every == 0:
                    t0 = clock()
                    probe()  # warms the probe's code and data
                    t1 = clock()
                    probe()
                    t2 = clock()
                    probe_s.append(t2 - t1)
                    skipped_s.append(t2 - t0)
                stamps.append(clock())
            return fn(*args, **kwargs)

        try:
            functools.update_wrapper(stamped, fn)
        except AttributeError:
            pass
        return stamped

    def start(self) -> None:
        del self.stamps[:]
        del self.probe_s[:]
        del self.skipped_s[:]

    def segments(self, t0: float, t1: float):
        """(segments, probe times) of the call that ran from t0 to t1: the
        durations between t0, each stamp and t1, less the probes' time."""
        import numpy as np

        cuts = np.concatenate(([t0], np.frombuffer(self.stamps, dtype=np.float64), [t1]))
        probes = np.frombuffer(self.probe_s, dtype=np.float64).copy()
        skipped = np.frombuffer(self.skipped_s, dtype=np.float64)
        seg = np.diff(cuts)
        # the probes ran just before stamp k*every, inside segment k*every
        seg[: skipped.size * self.every : self.every] -= skipped
        return seg, probes


def _resolve(mod, qualname: str):
    """(owner, attribute) for "f" or "Class.method" in mod, or (None, None)."""
    parts = qualname.split(".")
    owner = mod
    for p in parts[:-1]:
        owner = vars(owner).get(p) if hasattr(owner, "__dict__") else None
        if owner is None:
            return None, None
    return owner, parts[-1]


def _owner_name(owner) -> str:
    if inspect.isclass(owner):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _isofluid_namespaces():
    return [
        (name, mod) for name, mod in list(sys.modules.items())
        if mod is not None and (name == "isofluid" or name.startswith("isofluid."))
    ]


def _fft_measure(args, kwargs, out):
    a = args[0] if args else kwargs.get("x", kwargs.get("a"))
    size = getattr(a, "size", 0)
    return size, getattr(a, "nbytes", 0) + getattr(out, "nbytes", 0)


def _file_measure(args, kwargs, out):
    try:
        return 1, os.path.getsize(out)
    except (TypeError, OSError):
        return 0, 0


# ---------------------------------------------------------------------------
# reduction


def _analyse(tracer: Tracer, lo: int, hi: int):
    """Per-span arrays of the index range [lo, hi) plus derived flags."""
    import numpy as np

    name = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi].astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].astype(np.int64)
    t0 = np.frombuffer(tracer.t0, dtype=np.float64)[lo:hi]
    t1 = np.frombuffer(tracer.t1, dtype=np.float64)[lo:hi]
    elems = np.frombuffer(tracer.elems, dtype=np.int64)[lo:hi]
    nbytes = np.frombuffer(tracer.nbytes, dtype=np.int64)[lo:hi]
    dur = t1 - t0
    local_parent = np.where(parent >= lo, parent - lo, -1)
    nested = local_parent >= 0
    n = hi - lo
    child = np.bincount(local_parent[nested], weights=dur[nested], minlength=n)
    self_t = dur - child[:n]

    # ancestry flags; a parent always precedes its children
    advance = tracer._ids.get("solver._Stepper.advance", -1)
    diag_layer = {i for i, layer in enumerate(tracer.layers) if layer == "diagnostics"}
    nl, pl = name.tolist(), local_parent.tolist()
    in_adv, in_diag = [False] * n, [False] * n
    for i in range(n):
        p = pl[i]
        if p >= 0:
            in_adv[i] = in_adv[p] or nl[p] == advance
            in_diag[i] = in_diag[p] or nl[p] in diag_layer
    return {
        "name": name, "parent": local_parent, "dur": dur, "self": self_t,
        "elems": elems, "nbytes": nbytes,
        "in_adv": np.array(in_adv, dtype=bool), "in_diag": np.array(in_diag, dtype=bool),
    }


def probe_fft_counts(tracer: Tracer, lo: int, hi: int) -> int | None:
    """FFT calls inside the single advance span of [lo, hi)."""
    import numpy as np

    if "solver._Stepper.advance" not in tracer._ids or hi <= lo:
        return None
    a = _analyse(tracer, lo, hi)
    fft = np.isin(a["name"], sorted(tracer.fft_ids))
    return int(np.count_nonzero(fft & a["in_adv"]))


def layer_metrics(tracer: Tracer, calls, untraced_walls, probes) -> dict:
    """Per-layer metrics per traced call.

    calls: list of (lo, hi, wall) index ranges and wall times of the traced
    calls; untraced_walls: wall times of the untraced call paired with each;
    probes: FFT counts of one advance per probe grid.
    """
    import numpy as np

    n_calls = len(calls)
    parts = [_analyse(tracer, lo, hi) for lo, hi, _ in calls]
    K = len(tracer.names)
    cnt = sum(np.bincount(p["name"], minlength=K) for p in parts)
    incl = sum(np.bincount(p["name"], weights=p["dur"], minlength=K) for p in parts)
    selft = sum(np.bincount(p["name"], weights=p["self"], minlength=K) for p in parts)
    nbytes = sum(np.bincount(p["name"], weights=p["nbytes"], minlength=K) for p in parts)
    ids = tracer._ids

    def have(q):
        return q in ids

    def per_call(x):
        return float(x) / n_calls

    def count(q):
        return per_call(cnt[ids[q]]) if have(q) else None

    def total_s(q, kind=incl):
        return per_call(kind[ids[q]]) if have(q) else None

    def mean(q, scale):
        if not have(q):
            return None
        c = cnt[ids[q]]
        return float(incl[ids[q]] / c * scale) if c else 0.0

    fft_ids = sorted(tracer.fft_ids)
    fft_calls = sum(float(cnt[i]) for i in fft_ids)
    fft_s = sum(float(incl[i]) for i in fft_ids)
    fft_in_adv = fft_elems_in_adv = fft_bytes_in_adv = 0.0
    for p in parts:
        m = np.isin(p["name"], fft_ids) & p["in_adv"]
        fft_in_adv += float(np.count_nonzero(m))
        fft_elems_in_adv += float(p["elems"][m].sum())
        fft_bytes_in_adv += float(p["nbytes"][m].sum())
    adv = "solver._Stepper.advance"
    steps = float(cnt[ids[adv]]) if have(adv) else None

    def per_step(x):
        if steps is None:
            return None
        return x / steps if steps else 0.0

    layer_self = {}
    for i, layer in enumerate(tracer.layers):
        layer_self[layer] = layer_self.get(layer, 0.0) + float(selft[i])

    m: dict = {}
    m["tauode.solve_s"] = total_s("tauode.tau_solve")
    m["tauode.eval_calls"] = count("tauode.TauSolution.eval")
    m["tauode.eval_us"] = mean("tauode.TauSolution.eval", 1e6)
    m["tauode.self_s"] = per_call(layer_self.get("tauode", 0.0))

    m["spectral.fft_calls_per_step"] = per_step(fft_in_adv)
    m["spectral.fft_calls"] = per_call(fft_calls)
    m["spectral.fft_s"] = per_call(fft_s)
    m["spectral.fft_us_per_call"] = fft_s / fft_calls * 1e6 if fft_calls else 0.0
    m["spectral.fft_elems_per_step"] = per_step(fft_elems_in_adv)
    m["spectral.fft_bytes_per_step"] = per_step(fft_bytes_in_adv)
    m["spectral.self_s"] = per_call(layer_self.get("spectral", 0.0))
    for d in (1, 2, 3):
        m[f"spectral.probe_fft_calls_{d}d"] = probes.get(d)

    m["solver.steps"] = per_call(steps) if steps is not None else None
    m["solver.advance_ms"] = mean(adv, 1e3)
    for metric, meth in STEPPER_SUBSTEPS.items():
        m[f"solver.{metric}"] = total_s(f"solver._Stepper.{meth}", selft)
    m["solver.state_from_arrays_s"] = total_s("solver.state_from_arrays", selft)
    m["solver.stepper_init_s"] = total_s("solver._Stepper.__init__", selft)
    m["solver.self_s"] = per_call(layer_self.get("solver", 0.0))

    if have("diagnostics.record"):
        core, full = ids["diagnostics.record[core]"], ids["diagnostics.record[full]"]
        m["diagnostics.core_calls"] = per_call(cnt[core])
        m["diagnostics.core_ms"] = float(incl[core] / cnt[core] * 1e3) if cnt[core] else 0.0
        m["diagnostics.full_calls"] = per_call(cnt[full])
        m["diagnostics.full_ms"] = float(incl[full] / cnt[full] * 1e3) if cnt[full] else 0.0
    else:
        for k in ("core_calls", "core_ms", "full_calls", "full_ms"):
            m[f"diagnostics.{k}"] = None
    ident = [ids[f"diagnostics.{f}"] for f in IDENTITY_FUNCTIONS if have(f"diagnostics.{f}")]
    m["diagnostics.identity_s"] = per_call(sum(
        float(p["dur"][np.isin(p["name"], ident) & ~p["in_diag"]].sum()) for p in parts
    ))
    m["diagnostics.self_s"] = per_call(layer_self.get("diagnostics", 0.0))

    m["rescaling.madelung_calls"] = count("rescaling.madelung")
    m["rescaling.madelung_s"] = total_s("rescaling.madelung")
    m["rescaling.self_s"] = per_call(layer_self.get("rescaling", 0.0))

    m["lognls.nls_steps"] = count("lognls.nls_step")
    m["lognls.nls_step_us"] = mean("lognls.nls_step", 1e6)
    m["lognls.run_nls_s"] = total_s("lognls.run_nls")
    m["lognls.self_s"] = per_call(layer_self.get("lognls", 0.0))

    m["experiments.make_initial_s"] = total_s("experiments.make_initial")
    for family, fn in CHECK_FAMILIES.items():
        m[f"experiments.check.{family}_s"] = total_s(f"experiments.{fn}")
    m["experiments.self_s"] = per_call(layer_self.get("experiments", 0.0))

    m["io.csv_s"] = total_s("io.write_diagnostics_csv")
    m["io.csv_bytes"] = total_s("io.write_diagnostics_csv", nbytes)
    m["io.snapshot_s"] = total_s("io.write_snapshot")
    m["io.snapshot_bytes"] = total_s("io.write_snapshot", nbytes)
    m["io.metadata_s"] = total_s("io.write_metadata")
    m["io.self_s"] = per_call(layer_self.get("io", 0.0))

    traced = [w for _, _, w in calls]
    top = sum(float(p["dur"][p["parent"] < 0].sum()) for p in parts)
    m["trace.overhead_frac"] = median([t / u for t, u in zip(traced, untraced_walls)]) - 1.0
    m["trace.unattributed_frac"] = 1.0 - top / sum(traced)
    return m
