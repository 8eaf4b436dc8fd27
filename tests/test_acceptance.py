"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria are implemented faithfully but expected to fail, with the
blocking analysis recorded in the project notes (decisions ledger):

* criterion 2: |tau/(2t sqrt(log t)) - 1| is NOT strictly decreasing over
  {1e3, 1e4, 1e5, 1e6} for the true ODE solution (it rises from 3.9358e-2 at
  t = 1e3 to 3.9707e-2 at 1e4, then falls); verified against two independent
  oracles (step-halved RK and exact quadrature of the first integral);
* criterion 11 (threshold part): at nu = 0.5 the system's own
  nu*taudot/tau grad R term compresses the state transiently (peak
  nu*taudot/tau ~ 0.4) while every dissipation weight decays with tau, so
  the second-moment error at t = 50 converges (grid- and dt-independently)
  to 0.191 > 0.1.  The attraction property itself is demonstrated at
  nu = 0.2 where the criterion's threshold is met.
"""

import math
import time

import numpy as np
import pytest

from isofluid import diagnostics as diag
from isofluid import lognls
from isofluid.experiments import (
    check,
    drag_run_state,
    full_reg_setup,
    identity_ladder,
    make_initial,
    make_wavefunction,
    truncation_study,
)
from isofluid.params import ParamSet
from isofluid.solver import run
from isofluid.spectral import Grid
from isofluid.tauode import tau_asymptotic_ratio, tau_solve

TAU_AT_0P1 = 1.0099834106109633  # RK-oracle value of tau(0.1); equals the
# Taylor expansion of the ODE to 4th order (degree-6 polynomial) to 5e-10


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_tau_first_integral():
    t0 = time.time()
    sol = tau_solve(100.0, 1e-10, 1e-12)
    res = float(np.abs(sol.first_integral_residual()).max())
    err = abs(sol.eval(0.1)[0] - TAU_AT_0P1)
    took = time.time() - t0
    ok = res <= 1e-8 and err <= 1e-8 and took < 1.0
    assert report(
        1, ok,
        f"first-integral {res:.2e} (<=1e-8), tau(0.1) err {err:.2e} (<=1e-8), {took:.2f}s (<1s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the true ratio error rises from t=1e3 to 1e4 "
    "(3.9358e-2 -> 3.9707e-2) before decreasing; see decisions ledger",
)
def test_criterion_2_tau_asymptotics_as_stated():
    t0 = time.time()
    sol = tau_solve(1.1e6, 1e-10, 1e-12)
    gaps = [abs(tau_asymptotic_ratio(sol, t) - 1.0) for t in (1e3, 1e4, 1e5, 1e6)]
    took = time.time() - t0
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and took < 10.0
    report(2, ok, f"|ratio-1| = {['%.5f' % v for v in gaps]}, {took:.1f}s (<10s)")
    assert ok


def test_criterion_2_tau_asymptotics_verified_tail():
    # the attainable part: the error trend is decreasing from 1e4 on
    t0 = time.time()
    sol = tau_solve(1.1e6, 1e-10, 1e-12)
    gaps = [abs(tau_asymptotic_ratio(sol, t) - 1.0) for t in (1e4, 1e5, 1e6)]
    took = time.time() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and took < 10.0
    assert report(
        2, ok, f"(verified tail) |ratio-1| = {['%.5f' % v for v in gaps]}, {took:.1f}s"
    )


def test_criterion_3_mass_conservation():
    t0 = time.time()
    state, params = full_reg_setup(n=256)
    traj = run(state, params, 1.0, diag_every=20)
    m = traj.series("mass")
    drift = float(np.abs(m - m[0]).max() / abs(m[0]))
    took = time.time() - t0
    ok = traj.status == "ok" and drift <= 1e-8 and took < 30.0
    assert report(
        3, ok,
        f"status {traj.status}, drift {drift:.2e} (<=1e-8), min R "
        f"{traj.series('min_density').min():.2e}, {took:.1f}s (<30s)",
    )


def test_criterion_4_energy_balance_order():
    t0 = time.time()
    res, err = identity_ladder("energy", dts=(2e-2, 1e-2, 5e-3), t_end=0.4)
    took = time.time() - t0
    assert err is None, err
    ratios = [a / b for a, b in zip(res, res[1:])]
    ok = all(4 / 1.3 <= r <= 4 * 1.3 for r in ratios) and took < 120.0
    assert report(
        4, ok,
        f"residuals {['%.2e' % r for r in res]}, ratios {['%.2f' % r for r in ratios]}"
        f" (x4 +-30%), {took:.1f}s (<2min)",
    )


def test_criterion_5_korteweg_and_loghess_identities():
    t0 = time.time()
    g1 = Grid(1, 5.0, 128)
    s1 = np.exp(-g1.r2) + 0.2
    k1 = diag.korteweg_identity_residual(diag.StateOps(g1, s1**2))
    h1 = diag.loghess_identity_residual(diag.StateOps(g1, s1**2))
    g2 = Grid(2, 5.0, 64)
    s2 = np.exp(-g2.r2) + 0.2
    k2 = diag.korteweg_identity_residual(diag.StateOps(g2, s2**2))
    h2 = diag.loghess_identity_residual(diag.StateOps(g2, s2**2))
    took = time.time() - t0
    ok = k1 <= 1e-8 and h1 <= 1e-8 and k2 <= 1e-6 and h2 <= 1e-6 and took < 5.0
    assert report(
        5, ok,
        f"d=1: kort {k1:.1e}, loghess {h1:.1e} (<=1e-8); "
        f"d=2: kort {k2:.1e}, loghess {h2:.1e} (<=1e-6); {took:.1f}s",
    )


def test_criterion_6_csiszar_kullback():
    from isofluid.experiments import random_positive_field

    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = math.inf
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        g = Grid(d, 6.0, 64 if d == 1 else 32)
        R = diag.StateOps(g, random_positive_field(g, rng))
        worst = min(worst, diag.csiszar_kullback_gap(R))
    took = time.time() - t0
    ok = worst >= -1e-10 and took < 10.0
    assert report(6, ok, f"min gap over 100 fields {worst:.2e} (>=-1e-10), {took:.1f}s")


def test_criterion_7_llogl_bound():
    from isofluid.experiments import random_positive_field

    t0 = time.time()
    rng = np.random.default_rng(777)
    ok = True
    margin = math.inf
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        g = Grid(d, 6.0, 64 if d == 1 else 32)
        f = np.sqrt(random_positive_field(g, rng))
        value, bound = diag.llogl_bound(diag.StateOps(g, f**2), 2.0 / (d + 2))
        ok &= value <= bound
        margin = min(margin, bound / max(value, 1e-300))
    took = time.time() - t0
    ok = ok and took < 10.0
    assert report(7, ok, f"value<=bound on 100 fields, min bound/value {margin:.2f}, {took:.1f}s")


def test_criterion_8_bd_identity():
    t0 = time.time()
    res, err = identity_ladder("bd", dts=(2e-2, 1e-2, 5e-3), t_end=0.4)
    assert err is None, err
    ratios = [a / b for a, b in zip(res, res[1:])]
    state = drag_run_state()
    p0 = ParamSet(nu=0.0, eps=0.2, r1=0.05, dt_policy="fixed", dt=1e-2)
    traj0 = run(state, p0, 0.05, diag_every=1)
    zero_at_nu0 = abs(traj0.bd_identity_residual())
    took = time.time() - t0
    ok = (
        all(4 / 1.3 <= r <= 4 * 1.3 for r in ratios)
        and zero_at_nu0 == 0.0
        and took < 120.0
    )
    assert report(
        8, ok,
        f"residuals {['%.2e' % r for r in res]}, ratios {['%.2f' % r for r in ratios]},"
        f" nu=0 residual {zero_at_nu0}, {took:.1f}s (<2min)",
    )


def test_criterion_9_lognls():
    t0 = time.time()
    g = Grid(1, 8.0, 256)
    psi0 = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    res = []
    drift = 0.0
    for dt in (4e-3, 2e-3, 1e-3):
        p = lognls.NlsParams(eps=1.0, dt=dt)
        traj = lognls.run_nls(psi0, p, 1.0)
        drift = max(drift, traj.max_step_mass_drift)
        res.append(traj.dissipation_identity_residual())
    ratios = [a / b for a, b in zip(res, res[1:])]
    took = time.time() - t0
    ok = drift <= 1e-12 and all(4 / 1.4 <= r <= 4 * 1.4 for r in ratios) and took < 60.0
    assert report(
        9, ok,
        f"per-step mass drift {drift:.1e} (<=1e-12), residual ratios "
        f"{['%.2f' % r for r in ratios]}, {took:.1f}s (<1min)",
    )


def test_criterion_10_madelung_crosscheck():
    t0 = time.time()
    g = Grid(1, 8.0, 256)
    psi0 = make_wavefunction(
        g, {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}, eps=1.0
    )
    ladder = [(1e-3, 5e-4), (1e-4, 2.5e-4)]
    diffs = []
    for delta, dt in ladder:
        rep = lognls.crosscheck_ladder(psi0, 0.25, [(delta, dt)])[0]
        assert rep.status == "ok", rep.status
        diffs.append(rep.diff_rel)
    took = time.time() - t0
    ok = all(a > b for a, b in zip(diffs, diffs[1:])) and took < 300.0
    assert report(
        10, ok,
        f"|R_nls - R_hydro| along (delta, dt) ladder: {['%.2e' % d for d in diffs]}"
        f" decreasing, {took:.1f}s (<5min)",
    )


def _longtime_rel_error(nu):
    g = Grid(1, 8.0, 128)
    init = make_initial(
        g, {"generator": "perturbed_gaussian", "amplitude": 0.1, "mode": 1,
            "velocity_amplitude": 0.05},
    )
    p = ParamSet(nu=nu, eps=0.5, eta2=1e-14, s=2, dt_policy="cfl", dt=0.05, cfl=0.4)
    traj = run(init, p, 50.0, diag_every=10)
    mass = traj.series("mass")[-1]
    gam = diag.matched_gaussian(g, mass)
    target = float(g.weight * (gam * g.r2).sum())
    t = np.asarray(traj.times)
    rel = np.abs(traj.series("second_moment") - target) / target
    decade = rel[t > 5.0]
    return traj.status, float(rel[-1]), bool(decade[0] > rel[-1])


@pytest.mark.xfail(
    strict=True,
    reason="model-true blocker at nu=0.5: the nu*taudot/tau grad R transient "
    "freezes a 0.191 moment offset (dt- and grid-independent); see ledger",
)
def test_criterion_11_longtime_attraction_as_stated():
    t0 = time.time()
    status, rel_final, decreasing = _longtime_rel_error(0.5)
    took = time.time() - t0
    ok = status == "ok" and rel_final <= 0.1 and decreasing and took < 600.0
    report(
        11, ok,
        f"(nu=0.5) status {status}, final moment error {rel_final:.3f} (<=0.1), "
        f"decreasing {decreasing}, {took:.0f}s",
    )
    assert ok


def test_criterion_11_longtime_attraction_demonstrated():
    t0 = time.time()
    status, rel_final, decreasing = _longtime_rel_error(0.2)
    took = time.time() - t0
    ok = status == "ok" and rel_final <= 0.1 and decreasing and took < 600.0
    assert report(
        11, ok,
        f"(nu=0.2 companion) status {status}, final moment error {rel_final:.3f} "
        f"(<=0.1), decreasing over final decade {decreasing}, {took:.0f}s (<10min)",
    )


def test_criterion_12_truncated_data():
    t0 = time.time()
    stats = truncation_study([4.0, 8.0, 16.0], n=2048)
    keys = ("mass_excess", "dirichlet_excess", "moment_excess")
    within = all(abs(stats[-1][k]) <= 0.05 for k in keys)
    monotone = all(
        all(abs(a[k]) >= abs(b[k]) - 1e-12 for a, b in zip(stats, stats[1:]))
        for k in keys
    )
    took = time.time() - t0
    ok = within and monotone and took < 10.0
    assert report(
        12, ok,
        "excesses at ell=16: "
        + ", ".join(f"{k}={stats[-1][k]:+.4f}" for k in keys)
        + f" (all <=5%), monotone {monotone}, {took:.1f}s",
    )


def test_criterion_13_check_gate():
    t0 = time.time()
    ok, failures = check(verbose=False)
    took = time.time() - t0
    ok = ok and took < 300.0
    assert report(
        13, ok,
        f"check gate exit {'0' if ok else '1'} in {took:.1f}s (<5min)"
        + (f"; failures: {failures}" if failures else ""),
    )
