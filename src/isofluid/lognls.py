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
run_nls keeps the coefficients of the states it samples and evaluates them
in blocks of diagnostics.stack_rows states, each block as one stack of
states (diagnostics.StateOps, module notes): psi and grad psi of the whole
block come back in one inverse of [psihat, i k psihat] (i k zero at each
axis's Nyquist index, the real-field rule), and every sample's values are
bitwise those of its state evaluated alone.  nls_step is the same kernel
between one forward and one inverse.

NlsTrajectory.timing holds the run's perf_counter seconds in
solver.Trajectory.timing's keys: advance_s (the march), diagnostics_s (the
samples), wall_s, steps_per_s and transforms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import diagnostics as diag
from .params import ParamSet
from .rescaling import WaveFunction, madelung, vacuum_floor
from .spectral import Grid, vdot
from .solver import run as hydro_run
from .tauode import TauSolution, tau_cover

__all__ = [
    "NlsParams",
    "NlsTrajectory",
    "nls_step",
    "nls_energy",
    "run_nls",
    "crosscheck_ladder",
    "crosscheck_hydro_params",
    "CrosscheckReport",
    "theta_phase",
    "reconstruct_original",
]


@dataclass(frozen=True)
class NlsParams:
    eps: float
    dt: float = 1e-3
    mu: float | None = None  # log floor; None -> rescaling.vacuum_floor(|psi0|^2) at run start
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
    return float(vacuum_floor(psi.psi.real**2 + psi.psi.imag**2))


def _kinetic(g: Grid, h, eps, tau_v) -> np.ndarray:
    """The kinetic half-step symbol exp(-i eps |k|^2 h / (4 tau^2)) on the
    full spectrum: evaluated on the half spectrum (Spectral.k2) and mirrored
    along the last axis, where |k|^2 is exactly even, so each value is
    bitwise its full-spectrum evaluation at half the exps."""
    half = np.exp(-1j * eps * g.spectral.k2 * h / (4.0 * tau_v**2))
    return np.concatenate((half, half[..., -2:0:-1]), axis=-1)


def _strang_hat(g: Grid, zh, h, eps, tau_v, mu, rescaled: bool):
    """One Strang step of size h on the full-spectrum coefficients
    zh = cfwd(psi), returned as coefficients: kin . cfwd(P(cinv(kin . zh)))
    with the kinetic half-step symbol kin (_kinetic) and the potential flow
    P, two complex transforms."""
    sp = g.spectral
    kin = _kinetic(g, h, eps, tau_v)
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


@diag.lone_state
def nls_energy(psi: WaveFunction, params: NlsParams, tau, grads=None):
    """Energy of the chosen variant: (eps^2/2 tau^2) quad|grad psi|^2
    + quad(|psi|^2 log|psi|^2) [+ quad(|y|^2 |psi|^2) if rescaled], of a
    stack of wavefunctions with one (tau, taudot) pair per row: the array of
    the rows' energies, each reduced on its own row (diagnostics.each_row;
    a lone psi crosses diagnostics.lone_state).  grads passes (grad Re psi,
    grad Im psi), each (d, B) + grid.shape."""
    g = psi.grid
    eps = params.eps
    rescaled = params.variant == "rescaled"
    if grads is None:
        sp = g.rows(len(psi.psi))
        grads = sp.grad(psi.psi.real), sp.grad(psi.psi.imag)
    grad2 = sum(a**2 + b**2 for a, b in zip(*grads))
    rho = psi.psi.real**2 + psi.psi.imag**2
    ent = np.where(rho > 0, rho * np.log(np.maximum(rho, diag.LOG_FLOOR)), 0.0)
    parts = (grad2, ent, g.r2 * rho) if rescaled else (grad2, ent)

    def total(pair, kin, *rest):
        tau_v = float(pair[0]) if rescaled else 1.0
        out = eps**2 / (2 * tau_v**2) * kin
        for q in rest:
            out += q
        return out

    quads = [diag.each_row(g, g.quad, a) for a in parts]
    return np.array([total(pair, *q) for pair, *q in zip(tau, *quads)])


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
    n_steps: int = 0
    # perf_counter seconds of the run in solver.Trajectory.timing's keys:
    # "advance_s" the march, "diagnostics_s" the samples, "wall_s" the whole
    # of run_nls, "steps_per_s" n_steps / wall_s and "transforms" the
    # scipy.fft calls of the grid's backends
    timing: dict = field(default_factory=dict)

    def dissipation_identity_residual(self) -> float:
        """|E(T) + int_0^T D dt - E(0)| / |E(0)| of the Madelung-functional
        pseudo-energy and dissipation sampled along the run (trapezoid): the
        energy balance with a zero right side."""
        return diag.energy_balance_residual(self.times, self.energy, self.dissipation, 0.0)


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
    at the start, at every sample_every-th step (never for 0) and at the
    end.  The march carries the coefficients of psi: the per-step mass is
    Parseval's, and the sampled coefficients are evaluated in blocks of
    diagnostics.stack_rows states, each as one stack.  The rescaled variant
    without tau_sol solves tau_cover(t_end, psi0.t)."""
    if not isinstance(sample_every, (int, np.integer)) or sample_every < 0:
        raise ValueError(f"sample_every must be a nonnegative integer, got {sample_every!r}")
    start = time.perf_counter()
    if tau_sol is None and params.variant == "rescaled":
        tau_sol = tau_cover(t_end, psi0.t)

    def tau_at(t):
        return tau_sol.eval(t) if tau_sol is not None else (1.0, 0.0)

    g, eps = psi0.grid, params.eps
    sp = g.spectral
    calls0 = sp.calls
    rescaled = params.variant == "rescaled"
    mu = _resolve_mu(params, psi0)
    traj = NlsTrajectory(params=params)
    timing = traj.timing = {"advance_s": 0.0, "diagnostics_s": 0.0, "transforms": 0}
    block = diag.stack_rows(g)
    pending = []  # (t, mass, coefficients) of the samples not evaluated yet
    t = psi0.t

    def mass(zh) -> float:
        return g.weight * float(vdot(zh, zh).real) / sp.size

    def evaluate():
        # psi and grad psi = grad Re psi + i grad Im psi of the block in one
        # inverse of [psihat, i k psihat], then the block's values as one
        # stack of states
        t0 = time.perf_counter()
        ts, ms, zs = zip(*pending)
        pending.clear()
        stack = np.empty((1 + g.d, len(zs)) + g.shape, complex)
        np.stack(zs, out=stack[0])
        np.multiply(sp.cik[:, None], stack[0], out=stack[1:])
        del zs
        X = sp.cinv(stack)
        del stack
        psi = WaveFunction(ts, g, X[0], eps)
        grads = (X[1:].real, X[1:].imag)
        taus = [tau_at(ti) for ti in ts]
        traj.e_variant += nls_energy(psi, params, taus, grads=grads).tolist()
        traj.psi_final = WaveFunction(ts[-1], g, X[0, -1].copy(), eps)
        state = madelung(psi, grads=grads)
        # the block's transforms go before the stack's derived arrays come:
        # it keeps the peak memory of a block down
        del X, psi, grads
        ops = diag.StateOps.of(state)
        del state
        rows_calls0 = ops.sp.calls
        traj.energy += diag.energy(ops, taus, eps).tolist()
        traj.dissipation += diag.dissipation(ops, taus, eps, nu=0.0).tolist()
        traj.times += ts
        traj.mass += ms
        timing["transforms"] += ops.sp.calls - rows_calls0
        timing["diagnostics_s"] += time.perf_counter() - t0

    def sample(zh, m):
        pending.append((t, m, zh))
        if len(pending) == block:
            evaluate()

    zh = sp.cfwd(psi0.psi)
    m_after = mass(zh)
    sample(zh, m_after)
    k = 0
    while t < t_end * (1.0 - 1e-12):
        t0 = time.perf_counter()
        h = min(params.dt, t_end - t)
        tau_v = float(tau_at(t + 0.5 * h)[0]) if rescaled else 1.0
        zh = _strang_hat(g, zh, h, eps, tau_v, mu, rescaled)
        t += h
        k += 1
        m_before, m_after = m_after, mass(zh)
        drift = abs(m_after - m_before) / max(abs(m_before), 1e-300)
        traj.max_step_mass_drift = max(traj.max_step_mass_drift, drift)
        timing["advance_s"] += time.perf_counter() - t0
        if t >= t_end * (1.0 - 1e-12) or (sample_every and k % sample_every == 0):
            sample(zh, m_after)
    if pending:
        evaluate()
    traj.n_steps = k
    wall = timing["wall_s"] = time.perf_counter() - start
    timing["steps_per_s"] = k / wall if wall > 0 else 0.0
    timing["transforms"] += sp.calls - calls0
    return traj


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
    # the row's runs' timing: {"nls": NlsTrajectory.timing, "hydro":
    # Trajectory.timing}, empty when t_end <= psi0.t
    timing: dict = field(default_factory=dict)


# the hydro vacuum floor (ParamSet.r_min) of the cross-check: below it the
# Korteweg root is flattened.  The Madelung form cannot represent near-nodes
# (the root develops cusps that pump grid-scale oscillations), so the floor
# must sit above the smallest density scale the comparison is expected to
# resolve.
CROSSCHECK_R_MIN = 1e-4


def crosscheck_hydro_params(eps: float, delta_stab: float, dt: float) -> ParamSet:
    """The hydrodynamic parameters of the cross-check, stabilized by density
    diffusion delta1 = delta_stab alone: the velocity bilaplacian (delta2) is
    an unweighted k^4 force whose linearly-implicit treatment needs 1/R of
    bounded variation; on wavefunction data with near-vacuum tails it
    amplifies tail noise, so the paper's construction applies it only to
    densities bounded below."""
    return ParamSet(nu=0.0, eps=eps, delta1=delta_stab, delta2=0.0, dt=dt,
                    dt_policy="fixed", r_min=CROSSCHECK_R_MIN)


def crosscheck_ladder(psi0: WaveFunction, t_end: float, ladder) -> list[CrosscheckReport]:
    """For each row (delta_stab, dt) of the ladder, evolve the rescaled
    log-NLS at step dt and the hydrodynamic system of
    crosscheck_hydro_params from the Madelung image of psi0, and report the
    relative L2 difference of the densities at t_end.

    The hydro runs are one solver.run of the ladder, whose fixed-dt rows
    advance together on one tau; the log-NLS runs go one per row, each
    solving its own tau_cover(t_end, psi0.t), because a march of its rows in
    lockstep measured slower (see ROADMAP).  A hydro abort is reported in
    its row's status, not raised.  Each report's timing holds its row's
    log-NLS and hydro timing.
    """
    eps, g = psi0.epsilon, psi0.grid
    rows = [crosscheck_hydro_params(eps, ds, dt) for ds, dt in ladder]
    reports = [partial(CrosscheckReport, t_end=t_end, dt=dt, delta_stab=ds) for ds, dt in ladder]
    if t_end <= psi0.t:
        m = g.quad(psi0.psi.real**2 + psi0.psi.imag**2)
        return [report(status="ok", diff_rel=0.0, mass_nls=m, mass_hydro=m) for report in reports]

    hydro = hydro_run(madelung(psi0), rows, t_end, diag_every=0)
    out = []
    for report, (_, dt), traj in zip(reports, ladder, hydro):
        nls = run_nls(psi0, NlsParams(eps=eps, dt=dt), t_end, sample_every=0)
        psiT = nls.psi_final
        r_nls = psiT.psi.real**2 + psiT.psi.imag**2
        report = partial(report, timing={"nls": nls.timing, "hydro": traj.timing})
        if traj.status != "ok":
            out.append(report(status=f"hydro_{traj.status}", diff_rel=None,
                              mass_nls=g.quad(r_nls), mass_hydro=None))
            continue
        r_hyd = np.maximum(traj.state_final.R, 0.0)
        num = math.sqrt(g.quad((r_nls - r_hyd) ** 2))
        den = math.sqrt(g.quad(r_nls**2))
        out.append(report(
            status="ok",
            diff_rel=num / max(den, 1e-300),
            mass_nls=g.quad(r_nls),
            mass_hydro=g.quad(r_hyd),
            irrot_residual_nls=diag.irrotationality_residual(madelung(psiT)),
        ))
    return out


# ---------------------------------------------------------------------------
# original <-> rescaled bookkeeping


def theta_phase(tau_sol: TauSolution, t: float, d: int, mass_ratio: float) -> float:
    """theta(t) = d int_0^t log tau ds - t log(mass_ratio), where
    int_0^t log tau ds = tau taudot / 4 - t / 2, as (tau taudot)' =
    taudot^2 + tau tauddot = 4 log tau + 2."""
    tau, taudot = tau_sol.eval(t)
    return d * (tau * taudot / 4 - t / 2) - t * math.log(mass_ratio)


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
