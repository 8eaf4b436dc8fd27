"""Scaling factor tau(t): the solution of tau'' = 2/tau, tau(0)=1, tau'(0)=0.

Its first integral tau'^2 = 4 log tau integrates in closed form: with
u = sqrt(log tau), tau = exp(u^2), tau' = 2u and t = exp(u^2) F(u) =
(sqrt(pi)/2) erfi(u), F Dawson's integral (DLMF 7.2.5), so dt/du = tau.
A table holds exact nodes uniform in u, the last at t_max by Newton's
method on log t(u) = u^2 + log F(u) (u-derivative 1/F(u)), and eval
interpolates cubic Hermite.  As h ~ tau du and tau^3 |tau''''| <= m4 =
16 u_max^2 + 4, the Hermite bounds h^4 max|tau''''| / 384 and
(sqrt(3)/216) h^3 max|tau''''| keep tau within rel_tol relative and taudot
within rel_tol of 2 u_max for du = min((384 rel_tol / m4)^(1/4),
(432/sqrt(3) u_max rel_tol / m4)^(1/3)); at rel_tol = 1e-12 on [0, 1.1e6]
(25,503 nodes) tau was measured within 1.1e-15 relative, taudot within
1.3e-11.  exp(u^2) overflows near t = 3.4e306, so tables end at T_MAX.
The large-time behavior is tau ~ 2 t sqrt(log t).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import dawsn

__all__ = ["T_MAX", "TauSolution", "tau_solve", "tau_cover", "tau_asymptotic_ratio"]

T_MAX = 3e306  # the last horizon: tau(T_MAX) = 1.6e308, 11% below the largest float
# the least rel_tol: it bounds a table at 3.2e5 nodes, and the nodes' first
# integral (8 eps log tau, 6e-13 at T_MAX) stays inside its check 10 rel_tol
_REL_FLOOR = 1e-12


def _hermite(tq, t0, t1, p0, p1, d0, d1):
    """Cubic Hermite interpolation of tau (node values p, slopes d) on the
    interval [t0, t1] at tq, and its derivative."""
    h = t1 - t0
    s = (tq - t0) / h
    u = 1 - s
    m0, m1 = d0 * h, d1 * h
    h00, h10 = (1 + 2 * s) * (u * u), s * (u * u)
    h01, h11 = (s * s) * (3 - 2 * s), (s * s) * (s - 1)
    val = h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1
    # slope basis applied to the unscaled derivatives so that node hits
    # return the stored taudot exactly (no h-roundtrip)
    der = 6 * s * (s - 1) * (p0 - p1) / h + u * (1 - 3 * s) * d0 + s * (3 * s - 2) * d1
    return val, der


@dataclass(frozen=True)
class TauSolution:
    """Tabulated solution of the scaling ODE.

    Stores nodes (t, tau, taudot) of the exact solution; evaluation between
    nodes uses cubic Hermite interpolation of tau (taudot from its derivative),
    which reproduces node values exactly.
    """

    t_max: float
    t: np.ndarray
    tau: np.ndarray
    taudot: np.ndarray

    @cached_property
    def _nodes(self):
        """Plain-float node lists for eval's bisect, built on its first call."""
        return self.t.tolist(), self.tau.tolist(), self.taudot.tolist()

    def eval(self, t: float) -> tuple[float, float]:
        """Return (tau, taudot) at the time t in [0, t_max], as floats."""
        tq = float(t)
        if not 0.0 <= tq <= self.t_max * (1 + 1e-12):  # NaN fails it too
            raise ValueError(f"t out of stored range [0, {self.t_max}]")
        t, tau, taudot = self._nodes
        tq = min(max(tq, 0.0), self.t_max)
        i = min(max(bisect.bisect_right(t, tq) - 1, 0), len(t) - 2)
        return _hermite(tq, t[i], t[i + 1], tau[i], tau[i + 1], taudot[i], taudot[i + 1])

    def first_integral_residual(self) -> np.ndarray:
        """taudot^2 - 4 log tau at every stored node."""
        return self.taudot**2 - 4.0 * np.log(self.tau)

    def validate(self, tol: float) -> None:
        if np.any(self.tau <= 0):
            raise ValueError("tau must stay positive")
        if np.any(np.diff(self.tau) < 0) or np.any(self.taudot < -tol):
            raise ValueError("tau must be nondecreasing with taudot >= 0")
        res = np.abs(self.first_integral_residual()).max()
        if res > tol:
            raise ValueError(f"first-integral residual {res:.3e} exceeds {tol:.3e}")


def tau_solve(t_max: float, rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> TauSolution:
    """Tabulate the exact solution on [0, t_max], 0 < t_max <= T_MAX, with
    tau and taudot within rel_tol (module notes; floored at 1e-12).  tau >= 1,
    so abs_tol only enters the nodes' first-integral check 10 max(rel_tol, abs_tol)."""
    if not 0.0 < t_max <= T_MAX:
        raise ValueError(f"t_max must lie in (0, T_MAX = {T_MAX:g}], got {t_max}")
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")
    tol = max(rel_tol, _REL_FLOOR)
    # Newton on log t(u) from at or right of the root (t(u) >= u, t ~ tau / 2u);
    # on t itself the iterates overflow exp(u^2) near T_MAX
    log_t = math.log(t_max)
    u_end = t_max if t_max < 1.0 else 1.0 + math.sqrt(log_t)
    for _ in range(50):
        f = float(dawsn(u_end))
        step = (u_end * u_end + math.log(f) - log_t) * f
        u_end -= step
        if abs(step) <= 1e-16 * u_end:
            break
    m4 = 16.0 * u_end * u_end + 4.0
    du = min((384.0 * tol / m4) ** 0.25, (432.0 / math.sqrt(3.0) * u_end * tol / m4) ** (1 / 3))
    u = np.linspace(0.0, u_end, max(math.ceil(u_end / du), 1) + 1)
    tau = np.exp(u * u)
    t = tau * dawsn(u)
    t[-1] = t_max
    out = TauSolution(t_max=float(t_max), t=t, tau=tau, taudot=2.0 * u)
    out.validate(10.0 * max(tol, abs_tol))
    return out


def tau_cover(t_end: float, t0: float) -> TauSolution:
    """The tau every run from t0 to t_end solves when given none: a horizon
    0.1% past both times (and past 1e-3), held at T_MAX, at (1e-12, 1e-14)."""
    horizon = max(t_end, t0, 1e-3)
    return tau_solve(max(min(horizon * 1.001, T_MAX), horizon), 1e-12, 1e-14)


def tau_asymptotic_ratio(sol: TauSolution, t: float) -> float:
    """tau(t) / (2 t sqrt(log t)); requires t > e so the denominator is real."""
    if t <= math.e:
        raise ValueError(f"t must exceed e, got {t}")
    tau, _ = sol.eval(t)
    return tau / (2.0 * t * math.sqrt(math.log(t)))
