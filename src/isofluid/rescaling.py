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

from dataclasses import dataclass, field, replace

import numpy as np

from .spectral import Grid, ScalarField, VectorField, integrate

__all__ = [
    "FluidState",
    "WaveFunction",
    "VACUUM_FLOOR_REL",
    "smooth_density",
    "to_self_similar",
    "from_self_similar",
    "madelung",
    "original_energy",
]

# polar-factor support: |psi| > VACUUM_FLOOR_REL * max|psi| defines the
# non-vacuum set; below it the velocity part is set to zero, matching the
# compatibility condition sqrt(R) U = 0 on {sqrt(R) = 0}.
VACUUM_FLOOR_REL = 1e-12


def smooth_density(R, r_floor: float):
    """Kink-free positive surrogate sqrt(R^2 + r_floor^2): equals R up to a
    quadratically small bias (r_floor/R)^2 in the bulk and never drops below
    r_floor.  Used for every velocity recovery: a max(R, r_floor) clamp leaves
    a kink at the clamp boundary whose spectral tail pollutes paired
    functionals, and an additive floor R + r_floor biases bulk velocities at
    first order in the floor."""
    r = max(r_floor, 1e-300)
    return np.sqrt(R * R + r * r)


@dataclass
class FluidState:
    """(sqrt(R), Lambda = sqrt(R) U) at one time instant."""

    t: float
    grid: Grid
    sqrtR: ScalarField
    Lambda: VectorField
    formulation: str = "self_similar"  # or "original"
    mass_ratio: float = 1.0

    def __post_init__(self):
        if self.formulation not in ("self_similar", "original"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.sqrtR.grid != self.grid or self.Lambda.grid != self.grid:
            raise ValueError("field grids do not match state grid")

    @property
    def R(self) -> ScalarField:
        return ScalarField(self.grid, self.sqrtR.values**2)

    def velocity(self, floor: float | None = None) -> VectorField:
        """U = Lambda / sqrt(R), zero where sqrt(R) is below the vacuum floor."""
        s = self.sqrtR.values
        if floor is None:
            floor = VACUUM_FLOOR_REL * max(s.max(), 1e-300)
        safe = np.maximum(s, floor)
        live = s > floor
        return VectorField.from_arrays(
            self.grid, [np.where(live, c.values / safe, 0.0) for c in self.Lambda.components]
        )

    def mass(self) -> float:
        return integrate(self.R)

    def validate(self) -> None:
        if np.any(self.sqrtR.values < 0):
            raise ValueError("sqrtR must be nonnegative")
        m = self.mass()
        if not np.isfinite(m) or m <= 0:
            raise ValueError(f"mass must be finite and positive, got {m}")
        s = self.sqrtR.values
        floor = VACUUM_FLOOR_REL * max(s.max(), 1e-300)
        for c in self.Lambda.components:
            bad = np.abs(c.values)[s <= floor]
            if bad.size and bad.max() > 1e-6 * (np.abs(c.values).max() + 1e-300):
                raise ValueError("Lambda must vanish on the vacuum set")

    def enforce_vacuum(self) -> "FluidState":
        """Zero Lambda wherever sqrtR is at or below the vacuum floor."""
        s = self.sqrtR.values
        floor = VACUUM_FLOOR_REL * max(s.max(), 1e-300)
        live = s > floor
        lam = VectorField.from_arrays(
            self.grid, [np.where(live, c.values, 0.0) for c in self.Lambda.components]
        )
        return replace(self, Lambda=lam)


@dataclass
class WaveFunction:
    """Complex wavefunction samples (re, im) with its Planck-like parameter."""

    t: float
    grid: Grid
    re: ScalarField
    im: ScalarField
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def from_complex(cls, t: float, grid: Grid, psi: np.ndarray, epsilon: float):
        psi = np.asarray(psi, dtype=complex)
        return cls(t, grid, ScalarField(grid, psi.real), ScalarField(grid, psi.imag), epsilon)

    @property
    def psi(self) -> np.ndarray:
        return self.re.values + 1j * self.im.values

    def abs2(self) -> ScalarField:
        return ScalarField(self.grid, self.re.values**2 + self.im.values**2)

    def mass(self) -> float:
        return integrate(self.abs2())


def _tau_pair(tau) -> tuple[float, float]:
    tau_v, taudot_v = tau
    if tau_v <= 0:
        raise ValueError(f"tau must be positive, got {tau_v}")
    return float(tau_v), float(taudot_v)


def to_self_similar(
    rho: ScalarField,
    u: VectorField,
    tau,
    t: float = 0.0,
    mass_ratio: float | None = None,
    gamma_mass: float | None = None,
) -> FluidState:
    """Map (rho, u) sampled on the physical box [-ell*tau, ell*tau]^d to (R, U).

    R(t, y) = tau^d rho(t, tau y) / mass_ratio,  U(t, y) = tau u(t, tau y) - taudot tau y,
    where mass_ratio = quad(rho)/gamma_mass unless given.  gamma_mass defaults
    to the quadrature of the periodized Gaussian exp(-|y|^2) on the grid
    (about pi^(d/2); no closed-form constant is hard-coded).
    """
    grid = rho.grid
    tau_v, taudot_v = _tau_pair(tau)
    if np.any(rho.values < 0):
        raise ValueError("density must be nonnegative")
    if u.grid != grid:
        raise ValueError("velocity grid mismatch")
    if gamma_mass is None:
        gamma_mass = integrate(ScalarField(grid, np.exp(-grid.r2)))
    if mass_ratio is None:
        # rho lives on the physical box [-ell tau, ell tau]^d: its quadrature
        # weight carries a tau^d relative to the self-similar grid
        mass_ratio = tau_v**grid.d * integrate(rho) / gamma_mass
    R = tau_v**grid.d * rho.values / mass_ratio
    sqrtR = np.sqrt(R)
    U = [
        tau_v * u[i].values - taudot_v * tau_v * np.broadcast_to(grid.y[i], grid.shape)
        for i in range(grid.d)
    ]
    lam = VectorField.from_arrays(grid, [sqrtR * Ui for Ui in U])
    return FluidState(
        t=t,
        grid=grid,
        sqrtR=ScalarField(grid, sqrtR),
        Lambda=lam,
        formulation="self_similar",
        mass_ratio=float(mass_ratio),
    ).enforce_vacuum()


def from_self_similar(state: FluidState, tau) -> tuple[ScalarField, VectorField]:
    """Invert to_self_similar: returns (rho, u) on the physical box, samplewise.

    rho(t, x) = tau^-d R(t, x/tau) * mass_ratio;  u(t, x) = U(t, x/tau)/tau + (taudot/tau) x
    with x = tau y at matching nodes.
    """
    grid = state.grid
    if state.formulation != "self_similar":
        raise ValueError("state is not in self-similar formulation")
    tau_v, taudot_v = _tau_pair(tau)
    rho = state.sqrtR.values**2 * state.mass_ratio / tau_v**grid.d
    U = state.velocity()
    u = [
        U[i].values / tau_v
        + (taudot_v / tau_v) * (tau_v * np.broadcast_to(grid.y[i], grid.shape))
        for i in range(grid.d)
    ]
    return ScalarField(grid, rho), VectorField.from_arrays(grid, u)


def madelung(psi: WaveFunction, t: float | None = None) -> FluidState:
    """Polar decomposition: sqrtR = |psi|, Lambda_i = eps Im(conj(phi) d_i psi)
    with phi = psi/|psi| on the support and 0 on the vacuum set.

    The momentum j = sqrtR * Lambda equals eps Im(conj(psi) grad psi) wherever
    |psi| exceeds the vacuum floor.
    """
    grid = psi.grid
    a = psi.re.values
    b = psi.im.values
    mod = np.sqrt(a * a + b * b)
    floor = VACUUM_FLOOR_REL * max(mod.max(), 1e-300)
    live = mod > floor
    safe = np.maximum(mod, floor)
    ga = grid.spectral.grad(a)
    gb = grid.spectral.grad(b)
    lam = [
        np.where(live, psi.epsilon * (a * gb[i] - b * ga[i]) / safe, 0.0)
        for i in range(grid.d)
    ]
    return FluidState(
        t=psi.t if t is None else t,
        grid=grid,
        sqrtR=ScalarField(grid, mod),
        Lambda=VectorField.from_arrays(grid, lam),
        formulation="self_similar",
    )


def original_energy(rho: ScalarField, u: VectorField, eps: float) -> float:
    """E = 1/2 quad(rho |u|^2 + eps^2 |grad sqrt(rho)|^2) + quad(rho log rho),
    with the convention 0 log 0 = 0."""
    grid = rho.grid
    r = rho.values
    sq = np.sqrt(np.maximum(r, 0.0))
    gs = grid.spectral.grad(sq)
    kin = r * sum(c.values**2 for c in u.components)
    quant = eps**2 * sum(g**2 for g in gs)
    logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), 0.0)
    return float(grid.weight * (0.5 * (kin + quant) + r * logr).sum())
