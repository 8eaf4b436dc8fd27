"""Model, regularization and time-stepping parameters."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

__all__ = ["ParamSet"]


@dataclass(frozen=True)
class ParamSet:
    """Parameters of the regularized system and the numerical controls.

    nu, eps        viscosity and Planck/Korteweg constants ((eps, nu) != (0, 0));
    r0, r1         linear and cubic drag coefficients;
    delta1, delta2 parabolic regularizations (density diffusion, velocity bilaplacian);
    eta1, eta2     cold pressure and high-order density regularization;
    alpha, s       exponents of the eta-terms (alpha > 4, s > d when active);
    dt, dt_policy  fixed step, or CFL-adaptive with dt as the upper cap;
    cfl            Courant factor for the adaptive policy;
    r_min          density floor of the velocity recovery U = M / sqrt(R^2 + r_min^2)
                   (rescaling.smooth_density); when None the solver uses
                   1e-10 * mean(R0) (inert if eta1 > 0).
    """

    nu: float = 0.0
    eps: float = 0.0
    r0: float = 0.0
    r1: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    eta1: float = 0.0
    eta2: float = 0.0
    alpha: float = 8.0
    s: int | None = None  # defaults to d + 1 once a grid is bound
    dt: float = 1e-3
    dt_policy: str = "cfl"  # "fixed" or "cfl"
    cfl: float = 0.4
    r_min: float | None = None
    # assembly of the viscous stress R D(U): "bounded" differentiates the
    # velocity quotient (exact pairing with the energy functionals; stable
    # when the density stays well above the floor), "vacuum" differentiates
    # the momentum instead (immune to the near-floor quotient amplifier on
    # long vacuum runs); "auto" picks by the initial density contrast
    viscous_form: str = "auto"

    def __post_init__(self):
        # a NaN passes every comparison below, so non-finite values go first
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.nu < 0 or self.eps < 0:
            raise ValueError("nu and eps must be nonnegative")
        if self.nu == 0.0 and self.eps == 0.0:
            raise ValueError("(eps, nu) must not both vanish")
        for name in ("r0", "r1", "delta1", "delta2", "eta1", "eta2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("delta1", "delta2", "eta1", "eta2"):
            if getattr(self, name) >= 1:
                raise ValueError(f"{name} must be < 1")
        if self.dt_policy not in ("fixed", "cfl"):
            raise ValueError(f"unknown dt policy {self.dt_policy!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.cfl <= 0:
            raise ValueError("cfl must be positive")
        if self.r_min is not None and self.r_min < 0:
            raise ValueError("r_min must be nonnegative")
        if self.viscous_form not in ("auto", "bounded", "vacuum"):
            raise ValueError(f"unknown viscous_form {self.viscous_form!r}")

    def bind(self, d: int) -> "ParamSet":
        """Resolve defaults that depend on the dimension and check constraints."""
        s = self.s if self.s is not None else d + 1
        if self.eta1 > 0 and self.alpha <= 4:
            raise ValueError("eta1 > 0 requires alpha > 4")
        if self.eta2 > 0 and s <= d:
            raise ValueError("eta2 > 0 requires s > d")
        if isinstance(self.s, int):  # already bound
            return self
        return ParamSet(**{**asdict(self), "s": int(s)})
