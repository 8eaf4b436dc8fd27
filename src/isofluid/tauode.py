"""Scaling factor tau(t): solve tau'' = 2/tau, tau(0)=1, tau'(0)=0.

The first integral  tau'^2 = 4 log tau  (d/dt of both sides agree and both
vanish at t=0) provides a free accuracy monitor; the large-time behavior is
tau ~ 2 t sqrt(log t).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

__all__ = ["TauSolution", "IntegratorError", "tau_solve", "tau_cover", "tau_asymptotic_ratio"]


class IntegratorError(RuntimeError):
    """Adaptive integration failed (step-size underflow or solver error)."""


def _rhs(t, y):
    return (y[1], 2.0 / y[0])


def _hermite(tq, t0, t1, p0, p1, d0, d1):
    """Cubic Hermite interpolation of tau (node values p, slopes d) on the
    interval [t0, t1] at tq, and its derivative; floats and arrays alike."""
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
    """Dense-output solution of the scaling ODE.

    Stores the accepted integrator nodes (t, tau, taudot); evaluation between
    nodes uses cubic Hermite interpolation of tau (taudot from its derivative),
    which reproduces node values exactly.
    """

    t_max: float
    t: np.ndarray
    tau: np.ndarray
    taudot: np.ndarray

    def __post_init__(self):
        # plain-float node lists for the scalar path of eval
        object.__setattr__(
            self, "_nodes", (self.t.tolist(), self.tau.tolist(), self.taudot.tolist())
        )

    def eval(self, t):
        """Return (tau, taudot) at time(s) t in [0, t_max].  A float t takes
        a scalar path (bisect on plain floats) with bitwise the same result."""
        if isinstance(t, (float, int)):
            return self._eval_scalar(float(t))
        tq = np.asarray(t, dtype=float)
        if np.any(tq < 0.0) or np.any(tq > self.t_max * (1 + 1e-12)):
            raise ValueError(f"t out of stored range [0, {self.t_max}]")
        tq = np.clip(tq, 0.0, self.t_max)
        i = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(self.t) - 2)
        val, der = _hermite(tq, self.t[i], self.t[i + 1], self.tau[i], self.tau[i + 1],
                            self.taudot[i], self.taudot[i + 1])
        if np.ndim(t) == 0:
            return float(val), float(der)
        return val, der

    def _eval_scalar(self, tq: float):
        if tq < 0.0 or tq > self.t_max * (1 + 1e-12):
            raise ValueError(f"t out of stored range [0, {self.t_max}]")
        t, tau, taudot = self._nodes
        tq = min(max(tq, 0.0), self.t_max)
        i = min(max(bisect.bisect_right(t, tq) - 1, 0), len(t) - 2)
        return _hermite(tq, t[i], t[i + 1], tau[i], tau[i + 1], taudot[i], taudot[i + 1])

    def tauddot(self, t):
        """tau'' recomputed from the ODE as 2/tau."""
        tau, _ = self.eval(t)
        return 2.0 / tau

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
    """Integrate the scaling ODE on [0, t_max] with an adaptive RK pair.

    The stored nodes are the accepted solver steps; the first-integral
    residual is checked against 10*max(rel_tol, abs_tol) at every node.
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")
    # the contract bounds the accumulated first-integral drift, while solver
    # tolerances control per-step error; integrate two decades tighter so the
    # global residual sits safely inside the budget
    sol = solve_ivp(
        _rhs,
        (0.0, float(t_max)),
        [1.0, 0.0],
        method="DOP853",
        rtol=max(1e-2 * rel_tol, 2.5e-14),
        atol=max(1e-2 * abs_tol, 1e-300),
        dense_output=True,
    )
    if not sol.success:
        raise IntegratorError(f"tau integration failed: {sol.message}")
    # refine the accepted steps through the integrator's dense output so the
    # cubic Hermite interpolation between stored nodes stays accurate
    refine = 6
    t = np.concatenate(
        [
            np.linspace(a, b, refine, endpoint=False)
            for a, b in zip(sol.t[:-1], sol.t[1:])
        ]
        + [sol.t[-1:]]
    )
    y = sol.sol(t)
    tau, taudot = y[0], y[1]
    tau[0], taudot[0] = 1.0, 0.0  # exact initial data
    out = TauSolution(t_max=float(t_max), t=t, tau=tau, taudot=taudot)
    out.validate(10.0 * max(rel_tol, abs_tol))
    return out


def tau_cover(t_end: float, t0: float) -> TauSolution:
    """The tau every run from t0 to t_end solves when given none: a horizon
    0.1% past both times (and past 1e-3), at tolerances (1e-12, 1e-14)."""
    return tau_solve(max(t_end, t0, 1e-3) * 1.001, 1e-12, 1e-14)


def tau_asymptotic_ratio(sol: TauSolution, t: float) -> float:
    """tau(t) / (2 t sqrt(log t)); requires t > e so the denominator is real."""
    if t <= math.e:
        raise ValueError(f"t must exceed e, got {t}")
    tau, _ = sol.eval(t)
    return tau / (2.0 * t * math.sqrt(math.log(t)))
