"""Tests for the scaling-ODE table.

tau_solve samples the closed form of the first integral,
t(tau) = int_0^sqrt(log tau) exp(v^2) dv, i.e. tau = exp(u^2), taudot = 2u,
t = (sqrt(pi)/2) erfi(u).  Its checks are frozen 40-digit mpmath inversions
of that closed form (EXACT) and, independent of it, a fixed-step classical
Runge-Kutta integrator of the ODE with step halving.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erfi

from isofluid.tauode import T_MAX, TauSolution, tau_asymptotic_ratio, tau_cover, tau_solve

# oracle value of tau(0.1), equal to the Taylor expansion of the ODE to
# fourth order, tau = 1 + t^2 - t^4/6 + 7 t^6/90 + O(t^8), to 5e-10
TAU_AT_0P1 = 1.0099834106109633

# (tau, taudot) at t: u solved from t = (sqrt(pi)/2) erfi(u) by mpmath at 60
# digits, tau = exp(u^2) and taudot = 2u printed to 40
EXACT = {
    0.0127: (1.000161285664582294902510989972092622606,
             0.02539863456549090967544231211724604274706),
    0.015: (1.000224991563385808360661241629164808869,
            0.02999775035430612864711004725909621220833),
    0.1: (1.009983410610963328013895374437346512577,
          0.199337960063947287244435156237947509427),
    1.0: (1.88193171492491073845123683655640978258,
          1.590344311469292459672160682627817988661),
    50.0: (201.1143678056809902102186218557613533021,
           4.606028111204467930952259562682930553371),
    1e3: (5463.409038123630720714193417552005875678,
          5.867138396138386818979378933627448176127),
    1e6: (7693538.008486598061909904975600753450424,
          7.963891338988716234991714561826390949843),
    1e300: (5.267783742771559271568108676444403445625e+301,
            52.71583150148121413604119247085450658301),
}


def rk4_oracle(t_end, n_steps):
    """Classical fixed-step RK4 on (tau, taudot)."""
    h = t_end / n_steps
    y = np.array([1.0, 0.0])

    def f(y):
        return np.array([y[1], 2.0 / y[0]])

    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_oracle_reproduces_frozen_value():
    coarse = rk4_oracle(0.1, 200)[0]
    fine = rk4_oracle(0.1, 400)[0]
    assert abs(fine - coarse) < 1e-12
    assert abs(fine - TAU_AT_0P1) < 1e-12


def test_oracle_convergence_order():
    errs = []
    for n in (50, 100, 200):
        errs.append(abs(rk4_oracle(1.0, n)[0] - rk4_oracle(1.0, 3200)[0]))
    for a, b in zip(errs, errs[1:]):
        assert 16 * 0.8 < a / b < 16 * 1.2  # 4th order, +-20%


def test_initial_conditions_exact():
    sol = tau_solve(1.0, 1e-10, 1e-12)
    tau, taudot = sol.eval(0.0)
    assert tau == 1.0 and taudot == 0.0


def test_value_at_0p1():
    sol = tau_solve(1.0, 1e-10, 1e-12)
    assert abs(sol.eval(0.1)[0] - TAU_AT_0P1) < 1e-15


def test_endpoint_matches_oracle():
    sol = tau_solve(2.0, 1e-11, 1e-13)
    ref = rk4_oracle(2.0, 20000)
    tau, taudot = sol.eval(2.0)
    assert abs(tau - ref[0]) < 1e-12
    assert abs(taudot - ref[1]) < 1e-12


def test_first_integral_at_nodes():
    sol = tau_solve(100.0, 1e-10, 1e-12)
    assert np.abs(sol.first_integral_residual()).max() <= 1e-14


def test_first_integral_between_nodes():
    sol = tau_solve(10.0, 1e-10, 1e-12)
    mids = 0.5 * (sol.t[:-1] + sol.t[1:])
    tau, taudot = np.array([sol.eval(t) for t in mids.tolist()]).T
    res = np.abs(taudot**2 - 4.0 * np.log(tau)).max()
    assert res < 1e-10  # interpolation consistent with node tolerances


def test_monotonicity():
    sol = tau_solve(50.0, 1e-10, 1e-12)
    assert np.all(np.diff(sol.tau) > 0)
    assert np.all(sol.taudot[1:] > 0)


def test_eval_at_nodes_is_exact():
    sol = tau_solve(5.0, 1e-10, 1e-12)
    for idx in (0, len(sol.t) // 2, len(sol.t) - 1):
        tau, taudot = sol.eval(float(sol.t[idx]))
        assert type(tau) is float and type(taudot) is float
        assert tau == sol.tau[idx]
        assert taudot == sol.taudot[idx]


def test_eval_out_of_range_raises():
    sol = tau_solve(1.0, 1e-10, 1e-12)
    with pytest.raises(ValueError):
        sol.eval(-0.5)
    with pytest.raises(ValueError):
        sol.eval(2.0)


def test_eval_refuses_nan():
    # NaN fails the range check's one chained comparison, as it fails 0 <= t
    with pytest.raises(ValueError, match="out of stored range"):
        tau_solve(1.0, 1e-10, 1e-12).eval(math.nan)


def test_bad_arguments():
    with pytest.raises(ValueError):
        tau_solve(-1.0)
    with pytest.raises(ValueError):
        tau_solve(1.0, rel_tol=2.0)
    with pytest.raises(ValueError):
        tau_solve(1.0, abs_tol=0.0)


def test_asymptotic_ratio_basics():
    sol = tau_solve(1e4, 1e-10, 1e-12)
    r = tau_asymptotic_ratio(sol, 1e3)
    assert r > 0 and math.isfinite(r)
    r_near_e = tau_asymptotic_ratio(sol, math.e * 1.01)
    assert math.isfinite(r_near_e)
    with pytest.raises(ValueError):
        tau_asymptotic_ratio(sol, 2.0)


def test_asymptotic_ratio_tail_trend():
    # |ratio - 1| decreases over the verified tail 1e4 -> 1e6 (the pair
    # 1e3 -> 1e4 increases for the true solution; see the decisions ledger)
    sol = tau_solve(1.1e6, 1e-10, 1e-12)
    gaps = [abs(tau_asymptotic_ratio(sol, t) - 1.0) for t in (1e4, 1e5, 1e6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_validation_catches_corruption():
    sol = tau_solve(1.0, 1e-10, 1e-12)
    bad = TauSolution(
        t_max=sol.t_max, t=sol.t, tau=sol.tau * 1.5, taudot=sol.taudot
    )
    with pytest.raises(ValueError):
        bad.validate(1e-9)


def test_tau_at_0p1_is_the_exact_value():
    assert EXACT[0.1][0] == TAU_AT_0P1


def test_matches_exact_values_at_cover_tolerances():
    sol = tau_cover(1e6, 0.0)
    for t, (tau_x, taudot_x) in EXACT.items():
        if t > 1e6:
            continue
        tau, taudot = sol.eval(t)
        assert abs(tau / tau_x - 1.0) <= 1e-12, t
        assert abs(taudot - taudot_x) <= 1e-9, t


def test_nodes_lie_on_the_closed_form():
    sol = tau_cover(1e6, 0.0)
    u = sol.taudot / 2.0
    assert np.all(np.abs(sol.tau / np.exp(u * u) - 1.0) <= 1e-15)
    t_x = 0.5 * math.sqrt(math.pi) * erfi(u)
    assert np.all(np.abs(sol.t[1:-1] / t_x[1:-1] - 1.0) <= 1e-15)
    # the last node's u is a root: its rounding moves t by 2 u^2 as much
    assert abs(sol.t[-1] / t_x[-1] - 1.0) <= 4.0 * u[-1] ** 2 * 2.2e-16
    far = sol.tau >= math.e  # where sqrt(log tau) is well conditioned
    assert np.all(np.abs(sol.taudot[far] / (2.0 * np.sqrt(np.log(sol.tau[far]))) - 1.0) <= 1e-15)


def test_horizon_1e300():
    sol = tau_solve(1e300, 1e-10, 1e-12)
    assert sol.t[-1] == 1e300
    tau, taudot = sol.eval(1e300)
    # exp(u^2) magnifies the rounding of u^2 = log tau ~ 695 to ~1.5e-13
    assert abs(tau / EXACT[1e300][0] - 1.0) <= 1e-12
    assert abs(taudot / EXACT[1e300][1] - 1.0) <= 1e-15


def test_t_max_limit():
    sol = tau_solve(T_MAX, 1e-10, 1e-12)
    assert sol.t[-1] == T_MAX and math.isfinite(sol.tau[-1])
    assert tau_cover(T_MAX, 0.0).t_max == T_MAX
    for t_max in (T_MAX * (1 + 1e-15), 1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="T_MAX"):
            tau_solve(t_max)
    with pytest.raises(ValueError, match="T_MAX"):
        tau_cover(1e307, 0.0)


# the scipy subpackages whose import the closed form spares every command
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def test_no_heavy_scipy_import(tmp_path):
    code = f"""
import json, sys
import isofluid.cli as cli
from isofluid import tauode
tauode.tau_cover(1.0, 0.0)
rc = cli.main(["check", "--filter", "tau", "--out", {str(tmp_path)!r}])
heavy = [m for m in sys.modules if m.startswith({HEAVY!r})]
print(json.dumps({{"rc": rc, "heavy": heavy}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"rc": 0, "heavy": []}
