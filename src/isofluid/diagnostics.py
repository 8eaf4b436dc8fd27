"""Energy, entropy and identity diagnostics for fluid states.

Every functional of the self-similar formulation is evaluated by quadrature
on the torus.  Conventions used throughout:

* 0 log 0 = 0; logarithms of the density are taken as log(max(R, 1e-30)),
  so floored cells contribute <= 1e-28 per cell to R log R;
* R |grad log R|^2 is evaluated as 4 |grad sqrt(R)|^2 (exact for R > 0 and
  the correct extension by 0 on vacuum);
* in the balance functionals R |hess log R|^2 is evaluated on R > r_floor
  through the split hess R / R - grad R x grad R / R^2 (StateOps.hess_logR);
* kinetic quantities use Lambda = sqrt(R) U, so R|U|^2 = |Lambda|^2 needs no
  division; U itself is recovered as Lambda / sqrt(smooth_density(R, r_floor)),
  the solver's recovery (r_floor: see StateOps).

Every functional accepts a FluidState or the StateOps of one, so `record`
evaluates the whole family on one set of cached derived arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .params import ParamSet
from .rescaling import FluidState, smooth_density, vacuum_floor
from .spectral import Grid, ScalarField

__all__ = [
    "DiagnosticsRecord",
    "StateOps",
    "energy",
    "dissipation",
    "bd_entropy",
    "bd_dissipation",
    "energy_reg",
    "dissipation_reg",
    "bd_entropy_reg",
    "bd_dissipation_reg",
    "balance_rhs",
    "energy_balance_residual",
    "bd_identity_terms",
    "bd_identity_residual",
    "relative_entropy",
    "csiszar_kullback_gap",
    "korteweg_stress",
    "korteweg_stress_entries",
    "korteweg_identity_residual",
    "loghess_identity_residual",
    "compatibility_residuals",
    "irrotationality_residual",
    "llogl_bound",
    "jungel_quantities",
    "matched_gaussian",
    "record",
]

LOG_FLOOR = 1e-30


def _quad(grid: Grid, arr) -> float:
    return float(grid.weight * np.sum(arr))


def matched_gaussian(grid: Grid, mass: float) -> np.ndarray:
    """Discrete periodized Gaussian exp(-|y|^2) rescaled to the given mass."""
    g = np.exp(-grid.r2)
    return g * (mass / _quad(grid, g))


class StateOps:
    """Derived arrays of one state, computed lazily and shared between
    functionals (density, velocity, spectral derivatives).

    r_floor is the density floor of the velocity recovery, of the eta1 clamp
    rho_tilde = max(R, r_floor) and of the live set of R |hess log R|^2;
    record passes the solver's r_min, and it defaults to
    rescaling.vacuum_floor(R)."""

    def __init__(self, state: FluidState, r_floor: float | None = None):
        self.state = state
        self.grid = state.grid
        self.sp = state.grid.spectral
        self.s = state.sqrtR.values
        self.R = self.s**2
        self.lam = [c.values for c in state.Lambda.components]
        if r_floor is None:
            r_floor = vacuum_floor(self.R)
        self.r_floor = r_floor
        self._cache: dict = {}

    @classmethod
    def of(cls, x, r_floor: float | None = None) -> "StateOps":
        """x itself when it is already a StateOps, else the ops of state x."""
        return x if isinstance(x, StateOps) else cls(x, r_floor)

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def U(self):
        # the solver's recovery U = Lambda / sqrt(rho_sm)
        return self._get(
            "U", lambda: [l / np.sqrt(smooth_density(self.R, self.r_floor)) for l in self.lam]
        )

    @property
    def U2(self):
        return self._get("U2", lambda: sum(u**2 for u in self.U))

    @property
    def rho_tilde(self):
        return self._get("rt", lambda: np.maximum(self.R, self.r_floor))

    @property
    def R_hat(self):
        return self._get("Rh", lambda: self.sp.fwd(self.R))

    @property
    def U_hat(self):
        return self._get("Uh", lambda: [self.sp.fwd(u) for u in self.U])

    @property
    def grad_sqrtR(self):
        return self._get("gs", lambda: self.sp.grad(self.s))

    @property
    def grad_sqrtR2(self):
        return self._get("gs2", lambda: sum(g**2 for g in self.grad_sqrtR))

    @property
    def lam_grad_sqrtR(self):
        """Lambda . grad sqrt R = (1/2) U . grad R."""
        return self._get("lgs", lambda: sum(l * gs for l, gs in zip(self.lam, self.grad_sqrtR)))

    @property
    def momentum(self):
        """sqrt R Lambda = R U."""
        return self._get("mom", lambda: [self.s * l for l in self.lam])

    @property
    def grad_momentum(self):
        """grad_momentum[j][i] = d_i (sqrt R Lambda_j)."""
        return self._get("gmom", lambda: [self.sp.grad(m) for m in self.momentum])

    @property
    def grad_R(self):
        return self._get("gR", lambda: self.sp.grad(self.R, self.R_hat))

    @property
    def grad_U(self):
        """grad_U[i][j] = d_i U_j."""

        def build():
            d = self.grid.d
            cols = [self.sp.grad(u, uh) for u, uh in zip(self.U, self.U_hat)]
            return [[cols[j][i] for j in range(d)] for i in range(d)]

        return self._get("gU", build)

    @property
    def lap_U(self):
        return self._get("lU", lambda: [self.sp.lap(u, 1, uh) for u, uh in zip(self.U, self.U_hat)])

    @property
    def div_U(self):
        return self._get("divU", lambda: sum(self.grad_U[i][i] for i in range(self.grid.d)))

    @property
    def logR(self):
        return self._get("logR", lambda: np.log(np.maximum(self.R, LOG_FLOOR)))

    @property
    def hess_R(self):
        return self._get("hR", lambda: self.sp.hessian(self.R, self.R_hat))

    def lap_R(self, p: int):
        """lap^p R."""
        return self._get(("lR", p), lambda: self.sp.lap(self.R, p, self.R_hat))

    def grad_lap_R2(self, p: int):
        """|grad lap^p R|^2."""

        def build():
            sp = self.sp
            return sum(sp.inv(sym * self.R_hat) ** 2 for sym in sp.grad_lap_symbol(p))

        return self._get(("glR2", p), build)

    def grad_rho_neg2(self, alpha: float):
        """|grad rho_tilde^(-alpha/2)|^2."""
        return self._get(
            ("gneg2", alpha),
            lambda: sum(a**2 for a in self.sp.grad(self.rho_tilde ** (-alpha / 2.0))),
        )

    @property
    def lam2(self):
        return self._get("lam2", lambda: sum(l**2 for l in self.lam))

    def hess_logR(self):
        """Hessian of log R through the algebraic split
        d_i d_j log R = (d_i d_j R)/R - (d_i R)(d_j R)/R^2 with floored
        divisions.  Differentiating log(max(R, floor)) spectrally is unusable
        on states with vacuum tails: round-off ringing there flips cells onto
        the floor, and the resulting log jumps pollute the global transform."""

        def build():
            rho = self.rho_tilde
            return {
                key: (h - self.grad_R[key[0]] * self.grad_R[key[1]] / rho) / rho
                for key, h in self.hess_R.items()
            }

        return self._get("hlog_alg", build)

    def R_hess_logR2(self):
        live = (self.R > self.r_floor).astype(float)
        return self.R * live * _tensor2(self.grid.d, self.hess_logR())

    def DU2(self):
        """R-weighted integrand |D U|^2 with D the symmetric gradient part."""
        return self._part2(1.0)

    def AU2(self):
        """|A U|^2 with A the antisymmetric gradient part."""
        return self._part2(-1.0)

    def _part2(self, sign: float):
        g = self.grad_U
        d = self.grid.d
        out = np.zeros(self.grid.shape)
        for i in range(d):
            for j in range(d):
                out += 0.25 * (g[i][j] + sign * g[j][i]) ** 2
        return out


def _tensor2(d: int, hess: dict):
    """Frobenius norm squared of a symmetric tensor given upper entries."""
    out = np.zeros_like(hess[(0, 0)])
    for (i, j), h in hess.items():
        out += (1.0 if i == j else 2.0) * h**2
    return out


# ---------------------------------------------------------------------------
# energy / dissipation of the plain system


def _potential(ops: StateOps) -> float:
    """quad(R |y|^2 + R log R)."""
    g = ops.grid
    return _quad(g, ops.R * g.r2 + ops.R * np.where(ops.R > 0, ops.logR, 0.0))


def _kinetic_rate(ops: StateOps, tau, eps: float, eta2: float = 0.0, s: int | None = None) -> float:
    """(taudot/tau^3) quad(R|U|^2 + eps^2 |grad sqrt R|^2 + eta2 |grad lap^s R|^2)."""
    tau_v, taudot_v = tau
    kin = ops.lam2 + eps**2 * ops.grad_sqrtR2
    if eta2 > 0:
        kin = kin + eta2 * ops.grad_lap_R2(s)
    return taudot_v / tau_v**3 * _quad(ops.grid, kin)


def energy(state: FluidState | StateOps, tau, eps: float) -> float:
    """Self-similar pseudo-energy
    (1/2 tau^2) quad(R|U|^2 + eps^2 |grad sqrt R|^2) + quad(R|y|^2 + R log R)."""
    ops = StateOps.of(state)
    tau_v, _ = tau
    kin = ops.lam2 + eps**2 * ops.grad_sqrtR2
    return _quad(ops.grid, kin) / (2 * tau_v**2) + _potential(ops)


def dissipation(state: FluidState | StateOps, tau, eps: float, nu: float) -> float:
    """(taudot/tau^3) quad(R|U|^2 + eps^2|grad sqrt R|^2) + (nu/tau^4) quad(R |DU|^2)."""
    ops = StateOps.of(state)
    out = _kinetic_rate(ops, tau, eps)
    if nu > 0:
        out += nu / tau[0] ** 4 * _quad(ops.grid, ops.R * ops.DU2())
    return out


# ---------------------------------------------------------------------------
# BD entropy family


def bd_entropy(
    state: FluidState | StateOps, tau, eps: float, nu: float, r0: float = 0.0
) -> float:
    """BD entropy; with r0 > 0 includes the drag term -2 r0 (log R) 1_{R<=1}.
    R |U + nu grad log R|^2 is expanded without division:
    |Lambda|^2 + 4 nu Lambda . grad sqrt R + 4 nu^2 |grad sqrt R|^2."""
    ops = StateOps.of(state)
    tau_v, _ = tau
    kin = (
        ops.lam2 + 4.0 * nu * ops.lam_grad_sqrtR + 4.0 * nu**2 * ops.grad_sqrtR2
        + eps**2 * ops.grad_sqrtR2
    )
    if r0 > 0:
        kin = kin - 2.0 * r0 * np.where(ops.R <= 1.0, ops.logR, 0.0)
    return _quad(ops.grid, kin) / (2 * tau_v**2) + _potential(ops)


def bd_dissipation(state: FluidState | StateOps, tau, eps: float, nu: float) -> float:
    ops = StateOps.of(state)
    tau_v, _ = tau
    g = ops.grid
    out = _kinetic_rate(ops, tau, eps)
    out += 4.0 * nu / tau_v**2 * _quad(g, ops.grad_sqrtR2)
    if nu > 0:
        out += nu / tau_v**4 * _quad(g, ops.R * ops.AU2())
        if eps > 0:
            out += nu * eps**2 / tau_v**4 * _quad(g, ops.R_hess_logR2())
    return out


# ---------------------------------------------------------------------------
# regularized energy / dissipation (the discrete balance checked by the solver)


def _eta_potential(ops: StateOps, p: ParamSet, tau) -> float:
    """eta1/(alpha+1) quad(rho_tilde^(-alpha)) + eta2/(2 tau^2) quad(|grad lap^s R|^2),
    the regularization potential shared by energy_reg and bd_entropy_reg."""
    tau_v, _ = tau
    out = 0.0
    if p.eta1 > 0:
        out += p.eta1 / (p.alpha + 1.0) * _quad(ops.grid, ops.rho_tilde ** (-p.alpha))
    if p.eta2 > 0:
        out += p.eta2 / (2 * tau_v**2) * _quad(ops.grid, ops.grad_lap_R2(p.s))
    return out


def _diffusion_dissipation(ops: StateOps, p: ParamSet, tau, c: float) -> float:
    """Dissipation of the entropy and eta potentials by a density diffusion
    c lap R / tau^2: (c/tau^2) quad(4 |grad sqrt R|^2
    + (4 eta1/alpha) |grad rho_tilde^(-alpha/2)|^2) + (c eta2/tau^4) quad((lap^(s+1) R)^2).
    c is delta1 in the energy balance, nu in the BD identity, and nu + delta1
    in the regularized BD dissipation."""
    if c == 0.0:
        return 0.0
    tau_v, _ = tau
    g = ops.grid
    out = 4.0 * c / tau_v**2 * _quad(g, ops.grad_sqrtR2)
    if p.eta1 > 0:
        out += 4.0 * p.eta1 * c / (p.alpha * tau_v**2) * _quad(g, ops.grad_rho_neg2(p.alpha))
    if p.eta2 > 0:
        out += p.eta2 * c / tau_v**4 * _quad(g, ops.lap_R(p.s + 1) ** 2)
    return out


def _velocity_damping(ops: StateOps, p: ParamSet, tau) -> float:
    """(1/tau^4) quad(delta2 |lap U|^2 + r0 |U|^2 + r1 R |U|^4), the delta2 and
    drag dissipation shared by dissipation_reg and bd_dissipation_reg."""
    tau4 = tau[0] ** 4
    g = ops.grid
    out = 0.0
    if p.delta2 > 0:
        out += p.delta2 / tau4 * _quad(g, sum(a**2 for a in ops.lap_U))
    if p.r0 > 0:
        out += p.r0 / tau4 * _quad(g, ops.U2)
    if p.r1 > 0:
        out += p.r1 / tau4 * _quad(g, ops.lam2 * ops.U2)
    return out


def energy_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    ops = StateOps.of(state)
    return energy(ops, tau, params.eps) + _eta_potential(ops, params, tau)


def dissipation_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    ops = StateOps.of(state)
    p = params
    tau_v, _ = tau
    g = ops.grid
    out = _kinetic_rate(ops, tau, p.eps, p.eta2, p.s)
    if p.nu > 0:
        out += p.nu / tau_v**4 * _quad(g, ops.R * ops.DU2())
    out += _diffusion_dissipation(ops, p, tau, p.delta1)
    if p.delta1 > 0 and p.eps > 0:
        out += p.delta1 * p.eps**2 / (2 * tau_v**4) * _quad(g, ops.R_hess_logR2())
    return out + _velocity_damping(ops, p, tau)


def bd_entropy_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    """Positive part of the regularized BD entropy (drag log-term truncated
    to {R <= 1}, plus the eta contributions)."""
    ops = StateOps.of(state)
    p = params
    return bd_entropy(ops, tau, p.eps, p.nu, p.r0) + _eta_potential(ops, p, tau)


def bd_dissipation_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    # sum of the energy-identity and BD-identity dissipations; adding the
    # two derivations gives the density-diffusion coefficient nu + delta1.
    ops = StateOps.of(state)
    p = params
    tau_v, taudot_v = tau
    g = ops.grid
    out = _kinetic_rate(ops, tau, p.eps, p.eta2, p.s)
    if p.r0 > 0 and p.nu > 0:
        out += (
            2.0 * p.r0 * p.nu * taudot_v / tau_v**3
            * _quad(g, np.where(ops.R < 1.0, np.abs(ops.logR), 0.0))
        )
    chess = p.delta1 * p.nu**2 + p.nu * p.eps**2 + p.delta1 * p.eps**2 / 2.0
    if chess > 0:
        out += chess / tau_v**4 * _quad(g, ops.R_hess_logR2())
    out += _diffusion_dissipation(ops, p, tau, p.nu + p.delta1)
    if p.nu > 0:
        out += p.nu / tau_v**4 * _quad(g, ops.R * ops.AU2())
    return out + _velocity_damping(ops, p, tau)


def balance_rhs(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    """Right side of the regularized energy balance:
    2 d delta1 / tau^2 quad(R) - nu taudot / tau^3 quad(R div U)."""
    ops = StateOps.of(state)
    p = params
    tau_v, taudot_v = tau
    g = ops.grid
    out = 0.0
    if p.delta1 > 0:
        out += 2.0 * g.d * p.delta1 / tau_v**2 * _quad(g, ops.R)
    if p.nu > 0:
        out -= p.nu * taudot_v / tau_v**3 * _quad(g, ops.R * ops.div_U)
    return out


def energy_balance_residual(times, e_reg, d_reg, rhs, normalize: bool = True) -> float:
    """|E(T) - E(0) + int (D - RHS) dt| from dense per-step samples (trapezoid)."""
    times = np.asarray(times, float)
    e_reg = np.asarray(e_reg, float)
    flux = np.asarray(d_reg, float) - np.asarray(rhs, float)
    res = abs(e_reg[-1] - e_reg[0] + np.trapezoid(flux, times))
    if normalize:
        res /= max(abs(e_reg[0]), 1e-300)
    return float(res)


# ---------------------------------------------------------------------------
# BD identity (time-integrated, all terms carry a factor nu)


def bd_identity_terms(
    state: FluidState | StateOps, params: ParamSet, tau
) -> tuple[float, float, float]:
    """(F, DISS, RHS) of the BD identity at one instant, where the identity is

        dF/dt + DISS = RHS,
        F = (1/tau^2) quad(nu R U . grad log R + nu^2/2 R |grad log R|^2
                           - 2 r0 nu log R).
    """
    p = params
    if p.nu == 0.0:
        return 0.0, 0.0, 0.0
    ops = StateOps.of(state)
    tau_v, taudot_v = tau
    g = ops.grid
    nu = p.nu
    # R U . grad log R = U . grad R = 2 Lambda . grad sqrt R (no division)
    ru_glog = 2.0 * ops.lam_grad_sqrtR
    # The transported functional carries -r0 nu log R and the dissipation
    # carries (delta1 nu^2 + eps^2 nu / 4) R |hess log R|^2: both follow from
    # re-deriving the drag-term rewrite and the Korteweg pairing
    # (int R grad(lap sqrt R / sqrt R) . grad log R = -1/2 int R |hess log R|^2,
    # so the eps^2/2-weighted force contributes eps^2/4), and both are
    # confirmed by the residual vanishing at the scheme's order.
    f = (
        _quad(
            g,
            nu * ru_glog + 2.0 * nu**2 * ops.grad_sqrtR2 - p.r0 * nu * ops.logR,
        )
        / tau_v**2
    )
    diss = 2.0 * nu * taudot_v / tau_v**3 * _quad(g, ru_glog - p.r0 * ops.logR)
    diss += _diffusion_dissipation(ops, p, tau, nu)
    diss += (
        (p.delta1 * nu**2 + p.eps**2 * nu / 4.0)
        / tau_v**4
        * _quad(g, ops.R_hess_logR2())
    )

    rhs = 2.0 * g.d * nu / tau_v**2 * _quad(g, ops.R)
    gU = ops.grad_U
    d = g.d
    gradUT = np.zeros(g.shape)
    for i in range(d):
        for j in range(d):
            gradUT += gU[i][j] * gU[j][i]
    rhs += nu / tau_v**4 * _quad(g, ops.R * gradUT)
    if p.r1 > 0:
        u_gR = sum(u * gr for u, gr in zip(ops.U, ops.grad_R))
        rhs -= p.r1 * nu / tau_v**4 * _quad(g, ops.U2 * u_gR)
    if p.delta1 > 0 or p.delta2 > 0:
        rho = ops.rho_tilde
        if p.delta1 > 0:
            lapR = ops.lap_R(1)
            if p.r0 > 0:
                rhs -= p.r0 * nu * p.delta1 / tau_v**4 * _quad(g, lapR / rho)
            glog = ops.sp.grad(ops.logR)
            mix = np.zeros(g.shape)
            for i in range(d):
                for j in range(d):
                    mix += gU[i][j] * ops.grad_R[i] * glog[j]
            rhs -= p.delta1 * nu / tau_v**4 * _quad(g, mix)
            div_mom = ops.sp.div(ops.momentum)
            rhs -= p.delta1 * nu / tau_v**4 * _quad(g, (lapR / rho) * div_mom)
        if p.delta2 > 0:
            hlog = ops.hess_logR()
            glaplog = ops.sp.grad(sum(hlog[(i, i)] for i in range(d)))
            rhs -= (
                p.delta2 * nu / tau_v**4
                * _quad(g, sum(a * b for a, b in zip(ops.lap_U, glaplog)))
            )
    return f, diss, rhs


def bd_identity_residual(times, f_series, diss_series, rhs_series) -> float:
    """|F(T) - F(0) + int (DISS - RHS) dt| / scale, trapezoid in time."""
    times = np.asarray(times, float)
    f = np.asarray(f_series, float)
    diss = np.asarray(diss_series, float)
    rhs = np.asarray(rhs_series, float)
    num = abs(f[-1] - f[0] + np.trapezoid(diss - rhs, times))
    scale = max(
        abs(f[0]),
        abs(f[-1]),
        float(np.trapezoid(np.abs(diss) + np.abs(rhs), times)),
        1e-300,
    )
    return float(num / scale)


# ---------------------------------------------------------------------------
# entropy comparisons with the Gaussian attractor


def relative_entropy(R: ScalarField) -> float:
    """quad(R log(R / Gamma_m)) with Gamma_m the mass-matched periodized Gaussian."""
    g = R.grid
    r = R.values
    m = _quad(g, r)
    gam = matched_gaussian(g, m)
    integrand = np.where(
        r > 0, r * (np.log(np.maximum(r, LOG_FLOOR)) - np.log(gam)), 0.0
    )
    return _quad(g, integrand)


def csiszar_kullback_gap(R: ScalarField) -> float:
    """quad(R log(R/Gamma_m)) - |R - Gamma_m|_L1^2 / (2 m), m = quad(R).

    Nonnegative (up to roundoff) by the Csiszar-Kullback/Pinsker inequality,
    which holds exactly for the discrete lattice measure."""
    g = R.grid
    m = _quad(g, R.values)
    l1 = _quad(g, np.abs(R.values - matched_gaussian(g, m)))
    return relative_entropy(R) - l1**2 / (2.0 * m)


# ---------------------------------------------------------------------------
# algebraic identities (Korteweg, log-Hessian, Jungel)


def korteweg_stress(sp, s) -> np.ndarray:
    """The Korteweg stress s hess s - grad s x grad s as a (d, d) stack (row
    j holds the entries i = 0..d-1), whose row divergence is
    R grad(lap s / s) for s = sqrt R: its upper entries mirrored through
    sp.hess_full (see korteweg_stress_entries)."""
    return korteweg_stress_entries(sp, s)[sp.hess_full]


def korteweg_stress_entries(sp, s, derivs=None) -> np.ndarray:
    """The upper entries (i <= j, in sp.hess_keys order) of the symmetric
    Korteweg stress s d_i d_j s - d_i s d_j s.  The solver's force takes the
    dealiased divergence of the mirrored rows and passes `derivs`, the stack
    sp.inv(sp.deriv_sym * sp.fwd(s)) (grad s, then the Hessian entries in
    sp.hess_keys order), from a transform batch of its own."""
    if derivs is None:
        derivs = sp.inv(sp.deriv_sym * sp.fwd(s))
    gs, (i, j) = derivs[: sp.d], sp.hess_upper
    return s * derivs[sp.d :] - gs[i] * gs[j]


def korteweg_identity_residual(sqrtR: ScalarField) -> float:
    """Normalized L2 mismatch of
    R grad(lap sqrt R / sqrt R) = div(sqrt R hess sqrt R - grad sqrt R x grad sqrt R)."""
    g = sqrtR.grid
    s = sqrtR.values
    if s.min() <= 0:
        raise ValueError("sqrtR must be strictly positive for the identity check")
    R = s**2
    sp = g.spectral
    lhs = [R * a for a in sp.grad(sp.lap(s) / s)]
    rhs = [sp.div(row) for row in korteweg_stress(sp, s)]
    num = math.sqrt(_quad(g, sum((a - b) ** 2 for a, b in zip(lhs, rhs))))
    den = math.sqrt(_quad(g, sum(b**2 for b in rhs)))
    return num / max(den, 1e-300)


def loghess_identity_residual(R: ScalarField) -> float:
    """Normalized mismatch of  1/2 quad(R |hess log R|^2) = quad((lap sqrt R / sqrt R) lap R)."""
    g = R.grid
    r = R.values
    if r.min() <= 0:
        raise ValueError("R must be strictly positive for the identity check")
    s = np.sqrt(r)
    sp = g.spectral
    left = 0.5 * _quad(g, r * _tensor2(g.d, sp.hessian(np.log(r))))
    right = _quad(g, (sp.lap(s) / s) * sp.lap(r))
    return abs(left - right) / max(abs(left), 1e-300)


def jungel_quantities(R: ScalarField) -> tuple[float, float]:
    """(quad|hess sqrt R|^2 + quad|grad R^(1/4)|^4,  quad R |hess log R|^2);
    equivalent up to implicit constants, reported without assertion."""
    g = R.grid
    r = np.maximum(R.values, 0.0)
    s = np.sqrt(r)
    sp = g.spectral
    left = _quad(g, _tensor2(g.d, sp.hessian(s)))
    left += _quad(g, sum(a**2 for a in sp.grad(np.sqrt(s))) ** 2)
    logr = np.log(np.maximum(r, LOG_FLOOR))
    right = _quad(g, r * _tensor2(g.d, sp.hessian(logr)))
    return float(left), float(right)


# ---------------------------------------------------------------------------
# weak-solution compatibility tensors and irrotationality


def compatibility_residuals(state: FluidState | StateOps) -> tuple[float, float]:
    """Residuals of the compatibility relations on positive-density cells:

    sqrtR T_N = grad(sqrtR Lambda) - 2 Lambda x grad sqrtR, with T_N = sqrtR grad U;
    S_K two-way evaluation: sqrtR hess sqrtR - grad sqrtR x grad sqrtR
                            = hess(R)/2 - 2 grad sqrtR x grad sqrtR.
    """
    ops = StateOps.of(state)
    d = ops.grid.d
    mask = ops.R > ops.r_floor
    gs = ops.grad_sqrtR
    gU = ops.grad_U
    gj = ops.grad_momentum
    num = 0.0
    den = 0.0
    for i in range(d):
        for j in range(d):
            lhs = ops.R * gU[i][j]
            grad_piece = gj[j][i]
            cross_piece = 2.0 * ops.lam[j] * gs[i]
            rhs = grad_piece - cross_piece
            num += float(np.sum(((lhs - rhs) ** 2)[mask]))
            # scale by the ingredients so exact cancellations score zero
            den += float(np.sum((grad_piece**2 + cross_piece**2)[mask]))
    tn_res = math.sqrt(num) / max(math.sqrt(den), 1e-300)

    stress = korteweg_stress(ops.sp, ops.s)
    num = den = 0.0
    for (i, j), hR in ops.hess_R.items():
        a = stress[j][i]
        b = 0.5 * hR - 2.0 * gs[i] * gs[j]
        w = 1.0 if i == j else 2.0
        num += w * float(np.sum((a - b) ** 2))
        # a + grad_i sqrtR grad_j sqrtR = sqrtR d_i d_j sqrtR
        den += w * float(np.sum((a + gs[i] * gs[j]) ** 2 + 0.25 * hR**2))
    sk_res = math.sqrt(num) / max(math.sqrt(den), 1e-300)
    return tn_res, sk_res


def irrotationality_residual(state: FluidState | StateOps) -> float:
    """Normalized residual of  curl j = 2 grad sqrtR wedge Lambda  (j = sqrtR Lambda);
    identically zero in one dimension."""
    ops = StateOps.of(state)
    g = ops.grid
    if g.d == 1:
        return 0.0
    gs = ops.grad_sqrtR
    gj = ops.grad_momentum  # gj[c][i] = d_i j_c
    pairs = [(0, 1)] if g.d == 2 else [(1, 2), (2, 0), (0, 1)]
    num = den = 0.0
    for a, b in pairs:
        curl = gj[b][a] - gj[a][b]
        target = 2.0 * (gs[a] * ops.lam[b] - gs[b] * ops.lam[a])
        num += _quad(g, (curl - target) ** 2)
        den += _quad(g, curl**2 + target**2)
    return math.sqrt(num) / max(math.sqrt(den), 1e-300)


# ---------------------------------------------------------------------------
# L log L constructive bound


def llogl_bound(f: ScalarField, beta: float) -> tuple[float, float]:
    """(value, bound) for the L log L control of |f|^2 in terms of the L2 norm,
    the momentum |y| f and the discrete H1 norm.

    value = quad(|f|^2 |log |f|^2|).  The bound reproduces the proof's split at
    |f| = 1 with t |log t| <= (2/(e beta)) t^(1 -/+ beta/2) on each branch:

    * |f| < 1:  quad |f|^(2-beta) <= |f|_2^(2-beta) V_kappa^(beta/2)
                + ||y| f|_2^(2-beta) W_kappa^(beta/2),
      where V_kappa is the lattice measure of {|y| <= kappa} and
      W_kappa = quad_{|y| > kappa} |y|^(-2(2-beta)/beta); the classical
      kappa-optimization of  P k^a + Q k^(-b)  (a = d beta/2, b = 2 - beta - a)
      gives  kappa* = (b Q / (a P))^(1/(a+b))  and the constant
      C_beta = (b/a)^(a/(a+b)) + (a/b)^(b/(a+b))  of the continuum proof; here
      the lattice sums are evaluated exactly at a grid of kappa candidates
      including kappa*, so every candidate yields a valid discrete bound;
    * |f| > 1:  quad |f|^(2+beta) <= |f|_inf^beta |f|_2^2 with the maximum
      bounded through the lattice Sobolev constant
      |f|_inf^2 <= S_grid / (2 ell)^d * (|f|_2^2 + |grad f|_2^2),
      S_grid = sum over lattice modes of (1 + |k|^2)^(-1) (finite sum).

    All steps are exact finite-sum inequalities, so value <= bound holds for
    every grid function with the stated finiteness.
    """
    g = f.grid
    if not 0.0 < beta < 4.0 / (g.d + 2):
        raise ValueError(f"beta must lie in (0, 4/(d+2)) = (0, {4.0/(g.d+2):.4f})")
    v = np.abs(f.values)
    v2 = v**2
    value = _quad(g, np.where(v2 > 0, v2 * np.abs(np.log(np.maximum(v2, LOG_FLOOR))), 0.0))

    cpt = 2.0 / (math.e * beta)  # max of t^(beta/2) |log t| on (0,1] and [1,inf)
    l2 = math.sqrt(_quad(g, v2))
    yf = math.sqrt(_quad(g, g.r2 * v2))
    a_exp = g.d * beta / 2.0
    b_exp = (2.0 - beta) - a_exp  # positive iff beta < 4/(d+2)
    p_neg = 2.0 * (2.0 - beta) / beta

    # continuum kappa* (documented optimization), plus a lattice sweep
    cand = set()
    if yf > 0 and l2 > 0:
        c_d = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[g.d]
        s_d = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[g.d]
        P = l2 ** (2.0 - beta) * c_d ** (beta / 2.0)
        Q = yf ** (2.0 - beta) * (s_d * beta / (2.0 * (2.0 - beta) - g.d * beta)) ** (
            beta / 2.0
        )
        if P > 0 and Q > 0:
            cand.add((b_exp * Q / (a_exp * P)) ** (1.0 / (a_exp + b_exp)))
    cand.update(np.geomspace(g.dy, g.ell * math.sqrt(g.d), 24))
    # every candidate in one pass over the sorted radii: the count of radii
    # <= kappa gives V_kappa, and the sum of |y|^(-p) over the rest (from
    # the smallest term up) gives W_kappa
    rad = np.sort(np.sqrt(g.r2), axis=None)
    far = np.maximum(rad, g.dy * 1e-6) ** (-p_neg)
    tail = np.append(np.cumsum(far[::-1])[::-1], 0.0)
    n_near = np.searchsorted(rad, np.fromiter(cand, float), side="right")
    v_kappa = g.weight * n_near
    w_kappa = g.weight * tail[n_near]
    b_small = l2 ** (2.0 - beta) * v_kappa ** (beta / 2.0) + yf ** (
        2.0 - beta
    ) * w_kappa ** (beta / 2.0)
    small_best = float(b_small.min())

    gradf = g.spectral.grad(f.values)
    h1 = _quad(g, v2) + _quad(g, sum(a**2 for a in gradf))
    s_grid = float(np.sum(1.0 / (1.0 + g.k2)))
    f_inf_bound = math.sqrt(s_grid / g.volume * h1)
    b_large = f_inf_bound**beta * l2**2

    bound = cpt * (small_best + b_large)
    return float(value), float(bound)


# ---------------------------------------------------------------------------
# per-state record


def _col(doc: str, **kw):
    """A record field with its column semantics."""
    return field(metadata={"doc": doc}, **kw)


@dataclass(kw_only=True)
class DiagnosticsRecord:
    """One diagnostics sample; the fields are the CSV columns, in order.  The
    core tier fills the fields without a default, the full tier the rest."""

    t: float = _col("time")
    mass: float = _col("quad(R)")
    momentum: tuple = _col("quad(R U_i), one column per component")
    second_moment: float = _col("quad(R |y|^2)")
    energy: float = _col("pseudo-energy of the plain system")
    dissipation: float = _col("pseudo-dissipation of the plain system")
    energy_reg: float = _col("regularized energy")
    dissipation_reg: float = _col("regularized dissipation")
    balance_rhs: float = _col("right side of the regularized energy balance")
    bd_entropy: float = _col("BD entropy (with drag log-term when r0 > 0)")
    bd_dissipation: float = _col("BD dissipation")
    bd_entropy_reg: float | None = _col("positive part of regularized BD entropy", default=None)
    bd_dissipation_reg: float | None = _col("regularized BD dissipation", default=None)
    bdid_f: float = _col("BD identity transported functional F")
    bdid_diss: float = _col("BD identity dissipation")
    bdid_rhs: float = _col("BD identity right side")
    relative_entropy: float | None = _col("quad(R log(R/Gamma_m))", default=None)
    ck_gap: float | None = _col("Csiszar-Kullback slack", default=None)
    min_density: float = _col("min R")
    korteweg_residual: float | None = _col(
        "divergence-form Korteweg identity residual", default=None
    )
    loghess_residual: float | None = _col("log-Hessian exact-formula residual", default=None)
    tn_residual: float | None = _col("T_N compatibility residual", default=None)
    sk_residual: float | None = _col("S_K compatibility residual", default=None)
    irrot_residual: float | None = _col("generalized irrotationality residual", default=None)
    llogl_value: float | None = _col("L log L norm of R", default=None)
    llogl_bound: float | None = _col("constructive L log L bound", default=None)
    jungel_left: float | None = _col("quad|hess sqrt R|^2 + quad|grad R^1/4|^4", default=None)
    jungel_right: float | None = _col("quad R |hess log R|^2", default=None)

    @classmethod
    def csv_columns(cls, d: int) -> list[str]:
        cols = []
        for f in fields(cls):
            if f.name == "momentum":
                cols.extend(f"momentum_{i}" for i in range(d))
            else:
                cols.append(f.name)
        return cols

    @classmethod
    def column_semantics(cls) -> dict:
        return {f.name: f.metadata["doc"] for f in fields(cls)}

    def csv_row(self) -> list[float]:
        out = []
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "momentum":
                out.extend(val)
            else:
                out.append(math.nan if val is None else val)
        return out


def record(
    state: FluidState,
    params: ParamSet,
    tau,
    full: bool = False,
    r_floor: float | None = None,
) -> DiagnosticsRecord:
    """Evaluate the diagnostics family on one state.

    The core tier (always computed) carries everything needed for the
    time-integrated balance residuals; full=True adds the identity residuals
    and entropy comparisons (meaningful on smooth positive states).
    """
    ops = StateOps(state, r_floor=r_floor)
    g = ops.grid
    f_id, diss_id, rhs_id = bd_identity_terms(ops, params, tau)
    rec = DiagnosticsRecord(
        t=state.t,
        mass=_quad(g, ops.R),
        momentum=tuple(_quad(g, m) for m in ops.momentum),
        second_moment=_quad(g, ops.R * g.r2),
        energy=energy(ops, tau, params.eps),
        dissipation=dissipation(ops, tau, params.eps, params.nu),
        energy_reg=energy_reg(ops, params, tau),
        dissipation_reg=dissipation_reg(ops, params, tau),
        balance_rhs=balance_rhs(ops, params, tau),
        bd_entropy=bd_entropy(ops, tau, params.eps, params.nu, params.r0),
        bd_dissipation=bd_dissipation(ops, tau, params.eps, params.nu),
        bdid_f=f_id,
        bdid_diss=diss_id,
        bdid_rhs=rhs_id,
        min_density=float(ops.R.min()),
    )
    if full:
        rec.bd_entropy_reg = bd_entropy_reg(ops, params, tau)
        rec.bd_dissipation_reg = bd_dissipation_reg(ops, params, tau)
        R_field = ScalarField(g, ops.R)
        rec.relative_entropy = relative_entropy(R_field)
        rec.ck_gap = csiszar_kullback_gap(R_field)
        rec.tn_residual, rec.sk_residual = compatibility_residuals(ops)
        rec.irrot_residual = irrotationality_residual(ops)
        beta = 2.0 / (g.d + 2)
        rec.llogl_value, rec.llogl_bound = llogl_bound(state.sqrtR, beta)
        if ops.R.min() > 0:
            rec.korteweg_residual = korteweg_identity_residual(state.sqrtR)
            rec.loghess_residual = loghess_identity_residual(R_field)
            rec.jungel_left, rec.jungel_right = jungel_quantities(R_field)
    return rec
