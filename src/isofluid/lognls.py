"""Split-step spectral solver for the logarithmic Schrodinger equation

    i eps d_t psi + (eps^2/2) lap psi = psi log |psi|^2          (original)
    i eps d_t Psi + (eps^2/(2 tau^2)) lap Psi = Psi log|Psi|^2 + |y|^2 Psi
                                                                 (rescaled)

by Strang splitting: an exact kinetic half-step in Fourier space, an exact
potential full-step in physical space (|psi| is invariant along the potential
flow, so the phase rotation with the frozen modulus is the exact propagator),
then another kinetic half-step.  Both substeps are diagonal unitaries, so the
discrete mass quad(|psi|^2) is conserved to round-off at every step.

The vacuum is regularized by the log floor mu: the potential uses
log(|psi|^2 + mu).  For the rescaled variant tau is frozen at the step
midpoint, keeping the composition second order.

run_nls marches on the coefficients psihat = cfwd(psi): each step is
kin . cfwd(P(cinv(kin . psihat))), so consecutive kinetic half steps
multiply in Fourier space and a step makes two complex transforms.  The
per-step mass is Parseval's on psihat.  Samples are the only other inverses:
psi and grad psi come back in one stacked inverse of [psihat, i k psihat]
(i k zero at each axis's Nyquist index, the real-field rule).  nls_step is
the same kernel between one forward and one inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from .params import ParamSet
from .rescaling import WaveFunction, madelung, wave_gradients
from .spectral import Grid
from .solver import run as hydro_run
from .tauode import TauSolution, tau_solve

__all__ = [
    "NlsParams",
    "NlsTrajectory",
    "nls_step",
    "nls_energy",
    "pseudo_dissipation",
    "run_nls",
    "psi_dissipation_identity",
    "nls_to_hydro_crosscheck",
    "CrosscheckReport",
    "theta_phase",
    "reconstruct_original",
]


@dataclass(frozen=True)
class NlsParams:
    eps: float
    dt: float = 1e-3
    mu: float | None = None  # log floor; None -> 1e-12 * max|psi0|^2 at run start
    variant: str = "rescaled"  # or "original"

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.mu is not None and self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.variant not in ("original", "rescaled"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _resolve_mu(params: NlsParams, psi: WaveFunction) -> float:
    if params.mu is not None:
        return params.mu
    peak = float(np.max(psi.psi.real**2 + psi.psi.imag**2))
    return 1e-12 * max(peak, 1e-300)


def _strang_hat(g: Grid, zh, h, eps, tau_v, mu, rescaled: bool):
    """One Strang step of size h on the full-spectrum coefficients
    zh = cfwd(psi), returned as coefficients: kin . cfwd(P(cinv(kin . zh)))
    with the kinetic half-step symbol kin and the potential flow P, two
    complex transforms."""
    sp = g.spectral
    kin = np.exp(-1j * eps * g.k2 * h / (4.0 * tau_v**2))
    z = sp.cinv(kin * zh)
    pot = np.log(np.abs(z) ** 2 + mu)
    if rescaled:
        pot = pot + g.r2
    z = z * np.exp(-1j * h * pot / eps)
    return kin * sp.cfwd(z)


def nls_step(psi: WaveFunction, params: NlsParams, tau=(1.0, 0.0), mu: float | None = None) -> WaveFunction:
    """One Strang step of size params.dt with tau frozen at the given pair."""
    g = psi.grid
    if mu is None:
        mu = _resolve_mu(params, psi)
    rescaled = params.variant == "rescaled"
    tau_v = float(tau[0]) if rescaled else 1.0
    zh = _strang_hat(g, g.spectral.cfwd(psi.psi), params.dt, params.eps, tau_v, mu, rescaled)
    return WaveFunction(psi.t + params.dt, g, g.spectral.cinv(zh), params.eps)


def nls_energy(psi: WaveFunction, params: NlsParams, tau=(1.0, 0.0), grads=None) -> float:
    """Energy of the chosen variant: (eps^2/2 tau^2) quad|grad psi|^2
    + quad(|psi|^2 log|psi|^2) [+ quad(|y|^2 |psi|^2) if rescaled].  grads
    passes a precomputed wave_gradients(psi)."""
    g = psi.grid
    eps = params.eps
    tau_v = float(tau[0]) if params.variant == "rescaled" else 1.0
    ga, gb = wave_gradients(psi) if grads is None else grads
    grad2 = sum(a**2 + b**2 for a, b in zip(ga, gb))
    rho = psi.psi.real**2 + psi.psi.imag**2
    ent = np.where(rho > 0, rho * np.log(np.maximum(rho, diag.LOG_FLOOR)), 0.0)
    out = eps**2 / (2 * tau_v**2) * g.quad(grad2)
    out += g.quad(ent)
    if params.variant == "rescaled":
        out += g.quad(g.r2 * rho)
    return out


def pseudo_dissipation(psi: WaveFunction, tau) -> float:
    """(taudot/tau^3) quad(|Lambda|^2 + eps^2 |grad sqrt R|^2)."""
    state = madelung(psi)
    return diag.dissipation(state, tau, psi.epsilon, nu=0.0)


@dataclass
class NlsTrajectory:
    params: NlsParams
    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)  # Madelung-functional pseudo-energy
    dissipation: list = field(default_factory=list)
    e_variant: list = field(default_factory=list)  # energy of the evolved variant
    max_step_mass_drift: float = 0.0
    psi_final: WaveFunction | None = None

    def dissipation_identity_residual(self) -> float:
        return psi_dissipation_identity(self)


def run_nls(
    psi0: WaveFunction,
    params: NlsParams,
    t_end: float,
    tau_sol: TauSolution | None = None,
    sample_every: int = 1,
) -> NlsTrajectory:
    """March psi to t_end with steps of params.dt, the last one cut to land
    on t_end as solver.run does (no step when t_end <= psi0.t), recording
    the mass, the Madelung pseudo-energy/dissipation and the variant energy
    at the start, at every sample_every-th step and at the end.  The march
    carries the coefficients of psi: the per-step mass is Parseval's, and
    psi and its gradient come back only at a sample."""
    if tau_sol is None and params.variant == "rescaled":
        tau_sol = tau_solve(max(t_end, 1e-3) * 1.001, 1e-12, 1e-14)

    def tau_at(t):
        return tau_sol.eval(t) if tau_sol is not None else (1.0, 0.0)

    g, eps = psi0.grid, params.eps
    sp = g.spectral
    rescaled = params.variant == "rescaled"
    mu = _resolve_mu(params, psi0)
    traj = NlsTrajectory(params=params)
    t = psi0.t

    def mass(zh) -> float:
        return g.weight * float(np.vdot(zh, zh).real) / sp.size

    def emit(zh, m):
        # psi and grad psi = grad Re psi + i grad Im psi in one inverse
        X = sp.cinv(np.concatenate((zh[None], sp.cik * zh)))
        psi = traj.psi_final = WaveFunction(t, g, X[0], eps)
        grads = (X[1:].real, X[1:].imag)
        tp = tau_at(t)
        traj.times.append(t)
        traj.mass.append(m)
        ops = diag.StateOps.of(madelung(psi, grads=grads))
        traj.energy.append(diag.energy(ops, tp, eps))
        traj.dissipation.append(diag.dissipation(ops, tp, eps, nu=0.0))
        traj.e_variant.append(nls_energy(psi, params, tp, grads=grads))

    zh = sp.cfwd(psi0.psi)
    m_after = mass(zh)
    emit(zh, m_after)
    k = 0
    while t < t_end * (1.0 - 1e-12):
        h = min(params.dt, t_end - t)
        tau_v = float(tau_at(t + 0.5 * h)[0]) if rescaled else 1.0
        zh = _strang_hat(g, zh, h, eps, tau_v, mu, rescaled)
        t += h
        k += 1
        m_before, m_after = m_after, mass(zh)
        drift = abs(m_after - m_before) / max(abs(m_before), 1e-300)
        traj.max_step_mass_drift = max(traj.max_step_mass_drift, drift)
        if k % sample_every == 0 or t >= t_end * (1.0 - 1e-12):
            emit(zh, m_after)
    return traj


def psi_dissipation_identity(traj: NlsTrajectory) -> float:
    """|E(T) + int_0^T D dt - E(0)| / |E(0)| with the Madelung-functional
    pseudo-energy and dissipation sampled along the run (trapezoid)."""
    t = np.asarray(traj.times, dtype=float)
    e = np.asarray(traj.energy, dtype=float)
    d = np.asarray(traj.dissipation, dtype=float)
    return float(abs(e[-1] + np.trapezoid(d, t) - e[0]) / max(abs(e[0]), 1e-300))


# ---------------------------------------------------------------------------
# cross-check against the hydrodynamic solver (Korteweg branch, nu = 0)


@dataclass
class CrosscheckReport:
    t_end: float
    dt: float
    delta_stab: float
    status: str
    diff_rel: float | None
    mass_nls: float
    mass_hydro: float | None
    irrot_residual_nls: float | None = None


def nls_to_hydro_crosscheck(
    psi0: WaveFunction,
    t_end: float,
    delta_stab: float = 1e-4,
    dt: float | None = None,
    tau_sol: TauSolution | None = None,
    r_min: float = 1e-4,
) -> CrosscheckReport:
    """Evolve the rescaled log-NLS and the hydrodynamic system (nu = 0,
    density diffusion delta1 = delta_stab) from the Madelung image of psi0 and
    report the relative L2 difference of the densities at t_end.

    r_min is the hydro vacuum floor: below it the Korteweg root is flattened.
    The Madelung form cannot represent near-nodes (the root develops cusps
    that pump grid-scale oscillations), so the floor must sit above the
    smallest density scale the comparison is expected to resolve.

    A hydro abort is reported in the status, not raised.
    """
    eps = psi0.epsilon
    params_nls = NlsParams(eps=eps, dt=dt if dt is not None else 1e-3)
    if tau_sol is None:
        tau_sol = tau_solve(max(t_end, 1e-3) * 1.001, 1e-12, 1e-14)
    if t_end <= psi0.t:
        m = psi0.grid.quad(psi0.psi.real**2 + psi0.psi.imag**2)
        return CrosscheckReport(
            t_end=t_end, dt=params_nls.dt, delta_stab=delta_stab, status="ok",
            diff_rel=0.0, mass_nls=m, mass_hydro=m,
        )

    nls_traj = run_nls(psi0, params_nls, t_end, tau_sol=tau_sol, sample_every=10**9)
    psiT = nls_traj.psi_final
    r_nls = psiT.psi.real**2 + psiT.psi.imag**2

    # stabilization: density diffusion only.  The velocity bilaplacian
    # (delta2) is an unweighted k^4 force whose linearly-implicit treatment
    # needs 1/R of bounded variation; on wavefunction data with near-vacuum
    # tails it amplifies tail noise, so the paper's construction applies it
    # only to densities bounded below.  delta1 alone stabilizes this run.
    initial = madelung(psi0)
    hp = ParamSet(
        nu=0.0,
        eps=eps,
        delta1=delta_stab,
        delta2=0.0,
        dt=params_nls.dt,
        dt_policy="fixed",
        r_min=r_min,
    )
    hydro = hydro_run(initial, hp, t_end, tau_sol=tau_sol, diag_every=10**9)
    if hydro.status != "ok":
        return CrosscheckReport(
            t_end=t_end, dt=params_nls.dt, delta_stab=delta_stab,
            status=f"hydro_{hydro.status}", diff_rel=None,
            mass_nls=psi0.grid.quad(r_nls), mass_hydro=None,
        )
    r_hyd = np.maximum(hydro.state_final.R, 0.0)
    g = psi0.grid
    num = math.sqrt(g.quad((r_nls - r_hyd) ** 2))
    den = math.sqrt(g.quad(r_nls**2))
    state_nls = madelung(psiT)
    return CrosscheckReport(
        t_end=t_end,
        dt=params_nls.dt,
        delta_stab=delta_stab,
        status="ok",
        diff_rel=num / max(den, 1e-300),
        mass_nls=g.quad(r_nls),
        mass_hydro=g.quad(r_hyd),
        irrot_residual_nls=diag.irrotationality_residual(state_nls),
    )


# ---------------------------------------------------------------------------
# original <-> rescaled bookkeeping


def theta_phase(
    tau_sol: TauSolution, t: float, d: int, mass_ratio: float, n_quad: int = 2001
) -> float:
    """theta(t) = d int_0^t log tau ds - t log(mass_ratio); the integral is
    evaluated by composite trapezoid over dense tau samples."""
    if t == 0.0:
        return 0.0
    ts = np.linspace(0.0, t, n_quad)
    tau_vals, _ = tau_sol.eval(ts)
    return d * float(np.trapezoid(np.log(tau_vals), ts)) - t * math.log(mass_ratio)


def reconstruct_original(
    Psi: WaveFunction, tau_sol: TauSolution, mass_ratio: float
) -> tuple[Grid, np.ndarray]:
    """Original-variable psi from the rescaled Psi at Psi.t:

    psi(t, x) = tau^(-d/2) Psi(t, x/tau) sqrt(mass_ratio)
                * exp(i taudot |x|^2 / (2 eps tau) - i theta(t)/eps),
    theta(t) = d int_0^t log tau - t log(mass_ratio).

    Returned samplewise on the derived physical grid [-ell tau, ell tau]^d.
    """
    g = Psi.grid
    tau_v, taudot_v = tau_sol.eval(Psi.t)
    d = g.d
    theta = theta_phase(tau_sol, Psi.t, d, mass_ratio)
    phys = Grid(d, g.ell * tau_v, g.n)
    x2 = phys.r2
    eps = Psi.epsilon
    phase = taudot_v * x2 / (2.0 * eps * tau_v) - theta / eps
    z = Psi.psi * math.sqrt(mass_ratio) / tau_v ** (d / 2.0)
    return phys, z * np.exp(1j * phase)
