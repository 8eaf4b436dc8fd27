"""isofluid benchmark: end-to-end timings of three workloads, or a traced
run that splits a workload's time across the isofluid modules.

Run from the repository root:

    python3 perfbench/run.py --workload crit3_1d --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The end-to-end time of a call is the sum, over the segments
between its transform calls, of the shortest time each segment took in any
call of the run, scaled to the speed of a quiet host (see `end_to_end`).
Every timed call is checked by the workload's correctness gate and by the
reproducibility gate (the sha256 of its diagnostics output
must match every earlier run of the same sources).  One line per metric
(name, value, unit) goes to stdout, then the result as one JSON object on
the last line; the full record, environment included, is written to
perfbench/_results/.  One process, one thread, one call at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import envinfo
import hostspeed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "_results"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4  # extra set-ups, each in a fresh interpreter


def time_setup(wl) -> tuple[float, float]:
    """(scaled, raw) set-up time.  The raw time is scaled to the host speed
    REFERENCE_S stands for by the probe floor taken right after the set-up
    (the probe needs numpy, whose import is part of the set-up)."""
    t0 = time.perf_counter()
    wl.setup()
    raw = time.perf_counter() - t0
    return raw * hostspeed.REFERENCE_S / hostspeed.floor_now(hostspeed.make_probe()), raw


def timed_call(wl, tracer=None, clock=None) -> dict:
    """One timed call followed by its correctness gate (untimed).  With a
    checkpoint clock the record also holds the call's segment durations."""
    wl.prepare()
    gc.collect()
    lo = tracer.mark() if tracer else 0
    if clock:
        clock.start()
    t0 = time.perf_counter()
    try:
        out, error = wl.call(), None
    except Exception as exc:  # a crashed call is a failed call, never dropped
        out, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    wall = t1 - t0
    segments = clock.segments(t0, t1) if clock else None
    hi = tracer.mark() if tracer else 0
    ok, reason, digest, steps = False, error, None, 0
    if error is None:
        try:
            o = wl.gate(out)
            ok, reason, digest, steps = o.ok, o.reason, o.digest, o.steps
        except Exception as exc:
            reason = f"gate {type(exc).__name__}: {exc}"
    return {"wall_s": wall, "ok": ok, "reason": reason, "digest": digest, "steps": steps,
            "traced": tracer is not None, "span_range": [lo, hi], "segments": segments}


def closed_loop(budget_s: float, step) -> None:
    """Run step() while the next one is predicted to end within budget_s;
    always at least once.  step returns the time it took."""
    start = time.perf_counter()
    took = []
    while True:
        took.append(step())
        if time.perf_counter() - start + median(took) > budget_s:
            return


def reproducibility_gate(workload: str, fingerprint: str, calls: list) -> None:
    """Fail every call whose output digest differs from the first digest seen
    for this workload and these sources, in this run or an earlier one."""
    store = WORK / "digests.json"
    try:
        seen = json.loads(store.read_text())
    except (OSError, ValueError):
        seen = {}
    ref = seen.setdefault(fingerprint, {}).get(workload)
    for c in calls:
        if c["digest"] is None:
            continue
        if ref is None:
            ref = c["digest"]
        if c["digest"] != ref:
            c["ok"] = False
            c["reason"] = f"output digest {c['digest'][:12]} != {ref[:12]} of earlier runs"
    if ref is not None:
        seen[fingerprint][workload] = ref
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1))
        os.replace(tmp, store)


def setup_probe_times(workload: str, seed: int) -> list[list[float]]:
    """(scaled, raw) set-up times of SETUP_PROBES fresh interpreters
    (import + inputs)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(wl, args, calls: list) -> tuple[dict, dict]:
    """Closed loop of timed calls.  The host's speed drifts by tens of per
    cent over seconds to minutes, so the median call time of one run depends
    on when it ran.  Instead each call is cut into segments at its transform
    calls (thousands per call, each well under 10 ms), and wall_s is the
    sum over segments of the shortest time that segment took in any call of
    the run: the call's time with the slow moments of every segment left
    out.  Only calls with the most common segment count are combined, so
    segments always line up with the same work.

    That floor still rises when the host is slow for the whole run, so it
    is scaled by REFERENCE_S / the mean floor of the host-speed probes the
    clock runs inside every call (hostspeed.py): wall_s is the call's time
    at the speed the probe sees on a quiet host.  The record keeps the raw
    floor (`wall_floor_s`) and the probes' mean floor (`probe_floor_s`)."""
    import numpy as np

    # segment count -> [segment minima, probe minima, calls]
    floors: dict[int, list] = {}

    def step():
        c = timed_call(wl, clock=clock)
        seg, probes = c.pop("segments")
        c["segments"] = int(seg.size)
        f = floors.get(seg.size)
        if f is None:
            floors[seg.size] = [seg, probes, [c]]
        else:
            np.minimum(f[0], seg, out=f[0])
            np.minimum(f[1], probes, out=f[1])
            f[2].append(c)
        calls.append(c)
        return c["wall_s"]

    setup = [time_setup(wl)]
    # the probe binds numpy.fft before the clock wraps it
    clock = tracing.CheckpointClock(hostspeed.make_probe(), hostspeed.PROBE_EVERY)
    clock.add_fft_targets()
    clock.install()
    closed_loop(args.seconds, step)
    clock.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_probe_times(args.workload, args.seed)
    floor, probe_floor, used = max(floors.values(), key=lambda f: len(f[2]))
    raw = float(floor.sum())
    probe_s = float(probe_floor.mean()) if probe_floor.size else hostspeed.REFERENCE_S
    wall = raw * hostspeed.REFERENCE_S / probe_s
    return {
        "wall_s": wall,
        "steps_per_s": median([c["steps"] for c in used]) / wall,
        "setup_s": median(scaled for scaled, _ in setup),
        "peak_rss_mb": peak_rss_mb,
    }, {
        "setup_scaled_raw_s": setup,
        "segments": int(floor.size),
        "segment_calls": len(used),
        "wall_floor_s": raw,
        "probe_floor_s": probe_s,
        "probes_per_call": int(probe_floor.size),
        "call_wall_median_s": median([c["wall_s"] for c in calls]),
    }


def traced(wl, args, calls: list) -> tuple[dict, dict]:
    """Pairs of calls, one with no wrapper bound and one traced, so the
    tracing overhead is measured call against call."""
    start = time.perf_counter()
    tr = tracing.Tracer()
    tr.add_fft_targets()
    tr.install()  # before isofluid is imported
    wl.setup()
    tr.add_isofluid_targets()
    tr.install()

    probes = {}
    for d in (1, 2, 3):
        lo = tr.mark()
        try:
            workloads.probe_advance(d)
        except Exception as exc:
            print(f"FFT probe {d}D failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        probes[d] = tracing.probe_fft_counts(tr, lo, tr.mark())

    def pair():
        tr.uninstall()
        calls.append(timed_call(wl))
        tr.install()
        calls.append(timed_call(wl, tr))
        return calls[-2]["wall_s"] + calls[-1]["wall_s"]

    closed_loop(args.seconds - (time.perf_counter() - start), pair)
    tr.uninstall()

    untraced = [c["wall_s"] for c in calls if not c["traced"]]
    ranges = [(*c["span_range"], c["wall_s"]) for c in calls if c["traced"]]
    metrics = tracing.layer_metrics(tr, ranges, untraced, probes)
    extra = {
        "wrapped": tr.locations,
        "absent": tr.absent,
        "spans": len(tr.t0),
        "fft_probe_calls_per_step": probes,
    }
    return metrics, extra


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names or None)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"] if spec else 30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if spec is None or not (ROOT / "src" / "isofluid" / "__init__.py").is_file():
        print(f"no isofluid sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    # single-threaded numerics, set before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](WORK, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": time_setup(wl)}))
        return 0

    load_start = envinfo.loadavg()
    calls: list = []
    if args.trace:
        metrics, extra = traced(wl, args, calls)
        declared = spec["per_layer"]
    else:
        metrics, extra = end_to_end(wl, args, calls)
        declared = spec["end_to_end"]
    env = envinfo.record(ROOT, WORK / "env_cache.json")
    env["loadavg_start"], env["loadavg_end"] = load_start, envinfo.loadavg()
    reproducibility_gate(args.workload, env["source_fingerprint"], calls)
    if args.trace == 0:
        metrics["pass_frac"] = sum(c["ok"] for c in calls) / len(calls)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not declared or not computed")
    failed = sum(not c["ok"] for c in calls)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "calls": calls, **extra, "result": result}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    for c in calls:
        if not c["ok"]:
            print(f"FAILED call ({c['wall_s']:.3f} s): {c['reason']}")
    for k, v in result["metrics"].items():
        shown = "null" if v["value"] is None else f"{v['value']:.6g}"
        print(f"{k:40s} {shown:>14s} {v['unit']}")
    print(f"calls {len(calls)}, failed {failed}; record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
