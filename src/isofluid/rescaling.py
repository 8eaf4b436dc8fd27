"""Change of unknowns between original variables (rho, u) and self-similar
variables (R, U), the Madelung transform, and the original-variable energy.

The self-similar map reads

    rho(t, x) = tau^-d R(t, x/tau) * mass_ratio,
    u(t, x)   = U(t, x/tau)/tau + (taudot/tau) x,

with mass_ratio = |rho_0|_L1 / |Gamma|_L1 and Gamma(y) = exp(-|y|^2).  All
maps act samplewise: the self-similar field lives on [-ell, ell]^d and the
physical field on the derived box [-ell*tau, ell*tau]^d, node for node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid

__all__ = [
    "FluidState",
    "WaveFunction",
    "VACUUM_FLOOR_REL",
    "vacuum_floor",
    "smooth_density",
    "to_self_similar",
    "from_self_similar",
    "madelung",
    "wave_gradients",
    "original_energy",
]

# the relative density floor of standalone diagnostics, which have no
# solver r_min: vacuum_floor(R) = VACUUM_FLOOR_REL max R
VACUUM_FLOOR_REL = 1e-12
# the least floor smooth_density applies: r*r stays a normal double
_FLOOR_MIN = 1e-150


def vacuum_floor(R: np.ndarray, axis=None):
    """The density floor of a standalone diagnostic, and the log-NLS default
    log floor of |psi|^2: VACUUM_FLOOR_REL * max R, the max over axis (of a
    stack, its grid axes: one floor per row)."""
    return VACUUM_FLOOR_REL * np.maximum(R.max(axis=axis), 1e-300)


def smooth_density(R, r_floor: float):
    """Kink-free positive surrogate rho = sqrt(R^2 + r^2), r = max(r_floor,
    1e-150), the one density floor of every velocity recovery U = M / rho.
    Its floor is the solver's r_min (ParamSet.r_min, default 1e-10 mean R0)
    inside a run and vacuum_floor(R) = 1e-12 max R for standalone
    diagnostics.  Invariants, each up to rounding, for |R| <= 1e150:

    * max(|R|, r) <= rho <= |R| + r, and rho is even in R, so a raw R that
      undershoots zero is floored like its mirror;
    * |M / rho| <= |M| / r: no recovered velocity is unbounded;
    * for R >= 10 r, M = R U0 recovers U0 within |U0| (r/R)^2.

    A max(R, r) clamp leaves a kink at the clamp boundary whose spectral
    tail pollutes paired functionals, and an additive floor R + r biases bulk
    velocities at first order in the floor.  No hard cut is needed on
    vacuum: M = R U vanishes there by construction.  The 1e-150 clamp keeps
    r*r from underflowing to 0, which would leave rho = 0 at R = 0.  An
    array r_floor (a stack's per-row floors) broadcasts against R."""
    if isinstance(r_floor, np.ndarray):
        r = np.maximum(r_floor, _FLOOR_MIN)
    else:
        r = max(r_floor, _FLOOR_MIN)
    return np.sqrt(R * R + r * r)


@dataclass
class FluidState:
    """(R, M = R U) at one time instant, M stacked (d,) + grid.shape: the
    arrays the stepper advances, R as it carries it (a step may leave
    round-off undershoots below zero in vacuum cells)."""

    t: float
    grid: Grid
    R: np.ndarray
    M: np.ndarray
    mass_ratio: float = 1.0


@dataclass
class WaveFunction:
    """Complex wavefunction samples psi with its Planck-like parameter."""

    t: float
    grid: Grid
    psi: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


def _coordinates(grid: Grid) -> np.ndarray:
    """y stacked (d,) + grid.shape."""
    return np.stack([np.broadcast_to(yi, grid.shape) for yi in grid.y])


def _tau_pair(tau) -> tuple[float, float]:
    tau_v, taudot_v = tau
    if tau_v <= 0:
        raise ValueError(f"tau must be positive, got {tau_v}")
    return float(tau_v), float(taudot_v)


def to_self_similar(grid: Grid, rho: np.ndarray, u: np.ndarray, tau, t: float = 0.0) -> FluidState:
    """Map (rho, u), u stacked (d,) + grid.shape, sampled at time t on the
    physical box [-ell*tau, ell*tau]^d to (R, M = R U).

    R(t, y) = tau^d rho(t, tau y) / mass_ratio,  U(t, y) = tau u(t, tau y) - taudot tau y,
    where mass_ratio = quad(rho) / grid.gaussian_mass, the ratio that makes
    R as heavy as the periodized Gaussian exp(-|y|^2) on the grid (about
    pi^(d/2); no closed-form constant is hard-coded).  M = R U is zero
    exactly wherever rho is.
    """
    tau_v, taudot_v = _tau_pair(tau)
    if np.any(rho < 0):
        raise ValueError("density must be nonnegative")
    # rho lives on the physical box [-ell tau, ell tau]^d: its quadrature
    # weight carries a tau^d relative to the self-similar grid
    mass_ratio = tau_v**grid.d * grid.quad(rho) / grid.gaussian_mass
    R = tau_v**grid.d * rho / mass_ratio
    U = tau_v * u - taudot_v * tau_v * _coordinates(grid)
    return FluidState(t=t, grid=grid, R=R, M=R * U, mass_ratio=float(mass_ratio))


def from_self_similar(state: FluidState, tau) -> tuple[np.ndarray, np.ndarray]:
    """Invert to_self_similar: returns (rho, u) on the physical box, samplewise.

    rho(t, x) = tau^-d R(t, x/tau) * mass_ratio;  u(t, x) = U(t, x/tau)/tau + (taudot/tau) x
    with x = tau y at matching nodes and U = M / smooth_density(R, vacuum_floor(R)).
    """
    grid, R = state.grid, state.R
    tau_v, taudot_v = _tau_pair(tau)
    rho = R * state.mass_ratio / tau_v**grid.d
    U = state.M / smooth_density(R, vacuum_floor(R))
    return rho, U / tau_v + (taudot_v / tau_v) * (tau_v * _coordinates(grid))


def madelung(psi: WaveFunction, grads=None) -> FluidState:
    """Polar decomposition at psi.t: R = |psi|^2 and the momentum
    M = eps Im(conj(psi) grad psi) = eps (a grad b - b grad a) for psi = a + i b,
    with no floor and no division.  grads passes a precomputed
    (grad Re psi, grad Im psi).
    """
    a, b = psi.psi.real, psi.psi.imag
    ga, gb = wave_gradients(psi) if grads is None else grads
    return FluidState(
        t=psi.t,
        grid=psi.grid,
        R=a * a + b * b,
        M=psi.epsilon * (a * gb - b * ga),
    )


def wave_gradients(psi: WaveFunction) -> tuple[np.ndarray, np.ndarray]:
    """(grad Re psi, grad Im psi), each stacked (d,) + grid.shape."""
    sp = psi.grid.spectral
    return sp.grad(psi.psi.real), sp.grad(psi.psi.imag)


def original_energy(grid: Grid, rho: np.ndarray, u: np.ndarray, eps: float) -> float:
    """E = 1/2 quad(rho |u|^2 + eps^2 |grad sqrt(rho)|^2) + quad(rho log rho),
    u stacked (d,) + grid.shape, with the convention 0 log 0 = 0."""
    gs = grid.spectral.grad(np.sqrt(np.maximum(rho, 0.0)))
    kin = rho * (u * u).sum(axis=0)
    quant = eps**2 * (gs * gs).sum(axis=0)
    logr = np.where(rho > 0, np.log(np.maximum(rho, 1e-300)), 0.0)
    return grid.quad(0.5 * (kin + quant) + rho * logr)
