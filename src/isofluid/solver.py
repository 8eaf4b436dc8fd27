"""Time stepper for the regularized self-similar system on the torus.

Prognostic variables are (R, M = R U); U is recovered as M / rho_sm with the
smooth floor rho_sm = sqrt(R^2 + r_min^2) (see smooth_density).
One step of size h is the symmetric composition

    Drag(h/2)  L(h/2)  N(h)  L(h/2)  Drag(h/2)

evaluated with (tau, taudot) frozen at the step midpoint:

* Drag: the pointwise relaxation dM/dt = -(r0/tau^2) U - (r1/tau^2) R |U|^2 U,
  integrated exactly (Bernoulli ODE) with R frozen, not dealiased;
* L: the constant-coefficient linear block, advanced exactly per Fourier mode.
  It is triangular: the full (linear) continuity equation d_t R = (-div M
  + delta1 lap R)/tau^2 and the bilaplacian damping -delta2 c_u lap^2 M / tau^2
  with c_u = 2/min(rho_sm) (which dominates the variable-coefficient
  remainder, so that pair is unconditionally stable).  M does not feel R
  inside L, so its exponential is closed form (see linear_flow);
* N: every remaining term (advection, confinement plus pressure evaluated
  together so they cancel pointwise on the Gaussian equilibrium, cold
  pressure, viscosity, the delta1 cross term, the Korteweg and eta2 terms,
  and the variable-coefficient remainder of the delta2 term), advanced with
  three-stage SSP Runge-Kutta, whose stability region covers the imaginary
  axis up to sqrt(3) (dispersive terms) and the real axis to -2.51, under
  the CFL bound of cfl_dt.
  N never touches R, so the zero mode of R is exactly constant and mass is
  conserved to round-off.

The symmetric composition of second-order (or exact) flows with
midpoint-frozen coefficients is globally second-order accurate.  `rhs` is its
generator, summed from the same substep methods, so (step(h) x - x)/h
tends to rhs(x) term by term.

Stacked components.  M = (d,) + grid.shape, and U and every stress and
gradient are stacked the same way ((d, d) + grid.shape for tensors), so each
substep hands its independent transforms to the backend as one stack.

Spectral carry.  A state goes back to physical space only where a pointwise
product, a drag or a check reads it.  advance transforms [R, M] forward once;
the linear half steps act on those coefficients, and each is followed by the
step's only inverses of [R, M] (N and the drag read R and M pointwise).
density_forces takes Rhat from the first half step, transforms only
sqrt_reg(R) forward, their derivatives back and the force products (the
confinement 2 y R among them) forward, and keeps the forces as coefficients.
n_rhs takes Mhat and returns its rate as coefficients: U forward, grad U
back, the upper triangle of the symmetric stress (flux plus viscous) and the
delta1 cross product forward; the delta2 field is Uhat - c_u Mhat.  RK stages
1 and 2 invert their rate once each (the next stage's U = M / rho_sm reads
M) and keep Mhat alongside; stage 3 stays in Fourier space and feeds the
second half step.  The quantities that depend on R alone (rho_sm, the
density forces, grad R) are built once per N substep.  In 1D a stack is one
transform call, 17 per advance; for d > 1 a forward stack is one call and an
inverse one call per component, 46 per 2D and 71 per 3D advance (see the
spectral module notes).  The carry moves results only at round-off, and R's
zero mode is carried exactly.

Floors.  The solver's one density floor is r_min (ParamSet.r_min, default
1e-10 mean(R0)).  rho_sm = smooth_density(R, r_min) = sqrt(R^2 + r_min^2)
recovers U = M / rho_sm and sets the drag coefficients, the advective CFL
rate and c_u; rho_tilde = max(R, r_min) clamps the cold pressure and its
sound speed; sqrt_reg(R) = sqrt((R + rho_sm)/2) is the Korteweg root; the
vacuum sponge acts below about 10 r_min.  diagnostics.record evaluates on the
same r_min.  A FluidState holds (R, M) as the stepper does, so a run starts
and ends with no conversion.

Step budget.  Under the CFL policy a run whose projected step count
k + (t_end - t)/dt exceeds MAX_STEPS stops with status "budget" before the
step, as one whose step underflows dt_min does.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import diagnostics as diag
from .params import ParamSet
from .rescaling import FluidState, smooth_density
from .spectral import Grid
from .tauode import TauSolution, tau_solve

__all__ = [
    "Trajectory",
    "SolverError",
    "rhs",
    "step",
    "run",
    "prepare_initial_data",
    "drag_schedule",
    "plateau",
    "mollifier_kernel",
    "state_from_arrays",
    "arrays_from_state",
    "state_from_root",
    "MAX_STEPS",
]

_RK3_IMAG = math.sqrt(3.0)  # imaginary-axis stability reach of SSP-RK3
_RK3_REAL = 2.51  # real-axis stability reach of SSP-RK3
_DEALIASED = 2.0 / 3.0  # band of a force that enters M through the 2/3 mask
# the most steps a CFL-policy run may take: above 10x the longest CFL run of
# the test suite and the acceptance runs (criterion 3 to t = 1, 1,251 steps),
# and far below the 249,168 steps a 2D n = 16 eta2 = 0.999, s = 5 run would
# ask for to reach t = 0.01, whose dt of 4e-8 never trips dt_min
MAX_STEPS = 100_000
# numpy's floating-point warnings, off where a status names the failure
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class SolverError(RuntimeError):
    pass


@dataclass
class Trajectory:
    """Recorded output of one run: per-sample diagnostics plus snapshots."""

    params: ParamSet
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    status: str = "ok"
    n_steps: int = 0
    state_final: FluidState | None = None
    r_min: float | None = None  # the stepper's density floor
    # steps per binding CFL family (cfl_dt), or "dt_cap" where params.dt
    # bound; empty under the fixed policy
    cfl_binding: dict = field(default_factory=dict)
    # on a non-ok status, where the run stopped: {"reason": status, "step":
    # the step that failed (n_steps + 1), "t": its start time, "cell": the
    # grid index of the first non-finite value ("nan") or of min R}
    stop: dict | None = None
    # perf_counter seconds of the run: "advance_s", "diagnostics_s" and
    # "snapshots_s" (the state copies kept in snapshots) are parts of
    # "wall_s", the whole of solver.run; "steps_per_s" is n_steps / wall_s;
    # "transforms" the scipy.fft calls of the grid's backend during the run
    # (runs sharing a grid at the same time count each other's) and
    # "peak_rss_mb" the process's peak resident set (ru_maxrss) at its end
    timing: dict = field(default_factory=dict)

    def series(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.records], dtype=float)

    def validate(self):
        t = np.asarray(self.times)
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    def energy_balance_residual(self) -> float:
        """Residual of the regularized energy balance over the stored samples."""
        return diag.energy_balance_residual(
            self.times,
            self.series("energy_reg"),
            self.series("dissipation_reg"),
            self.series("balance_rhs"),
        )

    def bd_identity_residual(self) -> float:
        return diag.bd_identity_residual(
            self.times,
            self.series("bdid_f"),
            self.series("bdid_diss"),
            self.series("bdid_rhs"),
        )


def _contrast(R) -> float:
    rmax = max(float(np.max(R)), 1e-300)
    return max(float(np.min(R)), 0.0) / rmax


def arrays_from_state(state: FluidState):
    """(R, M) with M stacked, shape (d,) + grid.shape."""
    return state.R, state.M


def state_from_arrays(grid: Grid, t: float, R, M, mass_ratio: float = 1.0) -> FluidState:
    return FluidState(t=t, grid=grid, R=R, M=M, mass_ratio=mass_ratio)


class _Frozen(NamedTuple):
    """What the N substep reads of R, which it never changes: R, rho_sm(R),
    the coefficients Fh of the density forces on M ((d,) + half spectrum)
    and grad R ((d,) + grid.shape)."""

    R: np.ndarray
    rho: np.ndarray
    Fh: np.ndarray
    grad_R: np.ndarray


class _Stepper:
    """Work tables bound to one (grid, params) pair.  M, U and every stress
    and gradient are stacked component arrays, (d,) + grid.shape or
    (d, d) + grid.shape, so that each substep hands its independent
    transforms to the backend as one stack."""

    def __init__(self, grid: Grid, params: ParamSet, r0_mean: float, r0_contrast: float = 1.0):
        self.grid = grid
        self.p = params.bind(grid.d)
        self.r_min = (
            self.p.r_min if self.p.r_min is not None else 1e-10 * max(r0_mean, 1e-300)
        )
        if self.p.viscous_form == "auto":
            self.viscous_form = "bounded" if r0_contrast > 1e-6 else "vacuum"
        else:
            self.viscous_form = self.p.viscous_form
        g = grid
        self.sp = g.spectral
        self.kmx = math.pi * (g.n / 2) / g.ell * math.sqrt(g.d)
        # 2 y of the confinement force, and the constant symbol products of
        # the density and N forces
        self.y2 = 2.0 * np.stack([np.broadcast_to(yi, g.shape) for yi in g.y])
        p, sp = self.p, self.sp
        self.eta1_ik = p.eta1 * sp.ik
        self.delta1_mask = p.delta1 * sp.mask
        self.delta2_lap2 = p.delta2 * sp.lap_symbol(2)
        self._propagator = (None, None)
        self._rho = (None, None)

    # -- helpers -----------------------------------------------------------

    def rho_tilde(self, R):
        return np.maximum(R, self.r_min)

    def rho_smooth(self, R):
        """smooth_density(R, r_min): equals R up to a relative bias
        (r_min/R)^2 in the bulk and stays >= r_min without the kink of
        max(R, r_min), so velocity recoveries and exponentiated drag factors
        stay spectrally clean through the vacuum transition.

        Kept, read-only, for the last R array it was asked for: the CFL, c_u
        and the first drag of a step read one R, the last drag, the sponge
        and the next step's CFL another, so a step builds it once per
        distinct R.  Neither the stepper nor run writes into an R array."""
        key, rho = self._rho
        if key is not R:
            rho = smooth_density(R, self.r_min)
            rho.flags.writeable = False
            self._rho = (R, rho)
        return rho

    def sqrt_reg(self, R, rho):
        """Smooth regularized root from rho = rho_sm(R): sqrt(R) + O(r_min/sqrt(R))
        in the bulk, C-infinity through ring-induced zero crossings (plain
        sqrt(max(R, 0)) has square-root kinks there whose Korteweg stress
        pollutes the tails)."""
        return np.sqrt(0.5 * (R + rho))

    def bilaplacian_coefficient(self, R):
        """c_u of the implicit damping -delta2 c_u lap^2 M: twice the largest
        1/rho_sm, so the explicit counter-term stays strictly inside the decay
        budget (delta-regularized runs assume data bounded below)."""
        return 2.0 / max(float(np.min(self.rho_smooth(R))), 1e-300)

    # -- drag substep (exact pointwise Bernoulli flow, R frozen) -----------

    def drag_coefficients(self, R, M, tau_v):
        """(a, b, |M|^2) of the drag ODE dM/dt = -(a + b |M|^2) M, with
        a = r0 / (tau^2 rho_sm) and b = r1 R^+ / (tau^2 rho_sm^3); b and |M|^2
        are None when r1 = 0."""
        p = self.p
        rho = self.rho_smooth(R)
        a = p.r0 / (tau_v**2 * rho)
        if p.r1 == 0.0:
            return a, None, None
        return a, p.r1 * np.maximum(R, 0.0) / (tau_v**2 * rho**3), self.sp.sum_axes(M * M)

    def drag_flow(self, R, M, h, tau_v):
        p = self.p
        if p.r0 == 0.0 and p.r1 == 0.0:
            return M
        a, b, m2 = self.drag_coefficients(R, M, tau_v)
        if b is None:
            fac = np.exp(-a * h)
        elif p.r0 > 0.0:
            fac = np.sqrt(a * np.exp(-2.0 * a * h) / (a - b * m2 * np.expm1(-2.0 * a * h)))
        else:
            fac = np.sqrt(1.0 / (1.0 + 2.0 * b * m2 * h))
        return M * fac

    def drag_rate(self, R, M, tau_v):
        """Generator of drag_flow: -(a + b |M|^2) M."""
        a, b, m2 = self.drag_coefficients(R, M, tau_v)
        rate = a if b is None else a + b * m2
        return -rate * M

    # -- exact linear substep ------------------------------------------------

    def linear_symbols(self, tau_v, c_u):
        """Rates a = -delta1 |k|^2/tau^2 (on Rhat) and e = -delta2 c_u |k|^4/tau^2
        (on each Mhat_j) of the linear block."""
        p, t2 = self.p, tau_v**2
        return -(p.delta1 / t2) * self.sp.k2, -(p.delta2 * c_u / t2) * self.sp.k2**2

    def linear_flow(self, Xh, h, tau_v, c_u):
        """Exact flow of the triangular constant-coefficient block

            d/dt Rhat   = a Rhat - (i/tau^2) k . Mhat
            d/dt Mhat_j = e Mhat_j

        with the rates a, e of linear_symbols:

            Mhat(h) = e^(e h) Mhat,
            Rhat(h) = e^(a h) Rhat - (i/tau^2) k.Mhat * (e^(a h)-e^(e h))/(a-e),

        on Xh, the coefficients of the stack [R, M], advanced in place and
        returned: the flow makes no transform (advance carries Xh).  The
        dispersive terms are handled explicitly in N under their CFL; an
        implicit mean-density linearization was tried and rejected because
        its explicit counter-term interacts with the exact drag crush in
        vacuum cells, turning neutral dispersion into growth."""
        sp = self.sp
        Ea, S_t2, Ee = self.propagator(h, tau_v, c_u)
        Xh[0] = Ea * Xh[0] - S_t2 * sp.sum_axes(sp.ik * Xh[1:])
        Xh[1:] *= Ee
        return Xh

    def propagator(self, h, tau_v, c_u):
        """(e^(a h), (e^(a h) - e^(e h)) / ((a - e) tau^2), e^(e h)) of
        linear_flow, kept for the next call with the same (h, tau, c_u): the
        two half steps of one advance share it."""
        key, prop = self._propagator
        if key != (h, tau_v, c_u):
            a, e = self.linear_symbols(tau_v, c_u)
            Ea = np.exp(a * h)
            Ee = np.exp(e * h)
            diff = a - e
            small = np.abs(diff) * h < 1e-8
            S = np.where(small, h * Ea, (Ea - Ee) / np.where(small, 1.0, diff))
            prop = (Ea, S / tau_v**2, Ee)
            self._propagator = ((h, tau_v, c_u), prop)
        return prop

    # -- explicit remainder ---------------------------------------------------

    # CFL bands, the largest |k| / kmx each force reaches: the pressure
    # i k Rh and the cold pressure are not masked, so the acoustic wave sees
    # the whole grid; the Korteweg stress and the eta2 product enter M
    # through div_dealiased_hat and sp.mask
    ACOUSTIC_BAND = 1.0
    KORTEWEG_BAND = ETA2_BAND = _DEALIASED

    def density_forces(self, R, Rh, tau_v, taudot_v) -> _Frozen:
        """Forces on M that depend on R only (constant during the N substep),
        as coefficients: confinement + pressure (+ nu taudot/tau grad R), the
        divergence-form Korteweg stress of the root s = sqrt_reg(R), cold
        pressure, and the eta2 term; returned with the other R-only inputs
        of n_rhs.  Rh = fwd(R) comes from the linear half step.  Three
        transform batches: s forward; grad R, the eta2 grad lap^(2s+1) R,
        grad s and hess s back; the confinement 2 y R, the upper stress
        entries, the cold pressure and the eta2 products forward.  The
        spectral parts of each component are then summed; nothing goes
        back."""
        p, sp = self.p, self.sp
        t2 = tau_v**2
        rho = self.rho_smooth(R)
        derivs = {"grad_R": sp.ik * Rh}
        if p.eta2 > 0:
            derivs["eta2"] = sp.grad_lap_symbol(2 * p.s + 1) * Rh
        if p.eps > 0:
            s = self.sqrt_reg(R, rho)
            derivs["s"] = sp.deriv_sym * sp.fwd(s)
        back = sp.batch(sp.inv, derivs)
        prods = {"confinement": self.y2 * R}
        if p.eps > 0:
            # the stress is symmetric: transform its upper entries and
            # mirror them through sp.hess_full
            gs, hs = back["s"][: sp.d], back["s"][sp.d :]
            prods["stress"] = diag.korteweg_stress_entries(sp, s, gs, hs)
        if p.eta1 > 0:
            prods["cold"] = self.rho_tilde(R)[None] ** (-p.alpha)
        if p.eta2 > 0:
            prods["eta2"] = R * back["eta2"]
        ph = sp.batch(sp.fwd, prods)
        Fh = (p.nu * taudot_v / tau_v - 1.0) * sp.ik * Rh - ph["confinement"]
        if p.eps > 0:
            stress_h = ph["stress"][sp.hess_full]
            Fh += (p.eps**2 / (2.0 * t2)) * sp.div_dealiased_hat(stress_h)
        if p.eta1 > 0:
            Fh += self.eta1_ik * ph["cold"]
        if p.eta2 > 0:
            Fh += (p.eta2 / t2) * sp.mask * ph["eta2"]
        return _Frozen(R, rho, Fh, back["grad_R"])

    # the flux and the viscous stress enter M through div_dealiased_hat, but
    # the flux's waves run at U +- c, not at the advective rate's U, so that
    # family keeps the full band as a margin: at 2/3 kmx its dt came out
    # above envelope/1.5 in test_cfl_dt_within_stability_envelope
    ADVECTIVE_BAND = 1.0
    VISCOUS_BAND = _DEALIASED

    def stress(self, fz: _Frozen, M, U, gradU, gradM):
        """The upper entries (sp.hess_keys order) of the symmetric momentum
        flux -M x U = -M x M / rho_sm plus the viscous stress nu R D(U),
        stacked (d(d+1)/2,) + grid.shape: the entry (i, j), i <= j, of the
        flux is -M_j U_i (gradU[j, i] = d_i U_j, gradM likewise; each is
        needed only by its viscous form).

        Two exact assemblies of R D(U): the bounded form R * D(M/rho) pairs
        cleanly with the energy functionals; the vacuum form
        (d_i M_j + d_j M_i)/2 - (M_j d_i R + M_i d_j R)/(2 rho) never
        differentiates the near-floor quotient, whose spatial ringing seeds a
        momentum amplifier on long vacuum runs."""
        nu, gR = self.p.nu, fz.grad_R
        i, j = self.sp.hess_upper
        out = -M[j] * U[i]
        if nu > 0 and self.viscous_form == "bounded":
            out += nu * (fz.R * 0.5 * (gradU[j, i] + gradU[i, j]))
        elif nu > 0:
            out += nu * (
                0.5 * (gradM[j, i] + gradM[i, j]) - 0.5 * (U[j] * gR[i] + U[i] * gR[j])
            )
        return out

    def n_rhs(self, M, Mh, fz: _Frozen, tau_v, c_u):
        """Coefficients of the explicit remainder's rate: the M-dependent
        part plus the frozen Fh, from M and its coefficients Mh.  Per
        component one dealiased divergence of the mirrored stress row plus
        the delta1 and delta2 terms, summed in spectral space.  Three
        transform batches: U forward (for delta1, delta2 or the bounded
        viscous form); grad U (grad M, from Mh, in the vacuum viscous form)
        back; the upper stress entries and the delta1 cross product
        forward.  The delta2 field U - c_u M goes as Uh - c_u Mh."""
        p, sp, d = self.p, self.sp, self.grid.d
        U = M / fz.rho
        vacuum = p.nu > 0 and self.viscous_form == "vacuum"
        grad_u = p.delta1 > 0 or (p.nu > 0 and not vacuum)
        Uh = sp.fwd(U) if grad_u or p.delta2 > 0 else None
        flat = (d * d,) + sp.half_shape
        to_grad = {}
        if grad_u:
            to_grad["U"] = sp.apply(sp.ik, Uh).reshape(flat)
        if vacuum:
            to_grad["M"] = sp.apply(sp.ik, Mh).reshape(flat)
        grads = sp.batch(sp.inv, to_grad) if to_grad else {}
        # gradU[j, i] = d_i U_j, likewise gradM
        gradU, gradM = (
            grads[f].reshape((d, d) + sp.shape) if f in grads else None for f in ("U", "M")
        )
        prods = {"stress": self.stress(fz, M, U, gradU, gradM)}
        if p.delta1 > 0:
            prods["cross"] = sp.sum_axes(fz.grad_R * gradU)
        ph = sp.batch(sp.fwd, prods)
        fh = sp.div_dealiased_hat(ph["stress"][sp.hess_full])
        if p.delta1 > 0:
            fh -= self.delta1_mask * ph["cross"]
        if p.delta2 > 0:
            fh -= self.delta2_lap2 * (Uh - c_u * Mh)
        return fh / tau_v**2 + fz.Fh

    # -- CFL -------------------------------------------------------------------

    def cfl_dt(self, R, M, tau_v, taudot_v):
        """(dt, family): dt = cfl * sqrt(3) / the largest rate of the explicit
        families in _rates, and the family that sets it.  Each family's rate
        is taken at its band, rate(kmx) * band**power, the band being the
        largest |k| its force reaches: acoustic (with the cold pressure's
        sound-speed boost) at the grid's kmx, because the pressure is not
        masked; viscous (rescaled by sqrt(3)/2.51 so its effective reach is
        the real axis), Korteweg dispersive and the eta2 wave at (2/3) kmx,
        because their forces pass the 2/3 mask; advective at kmx, although
        the flux passes the mask, because its waves also carry the sound
        speed.  The advective scale counts live cells only: deep-vacuum
        U = M/rho is noise over the floor."""
        rows = self._rates(R, M, tau_v, taudot_v)
        rate, family = max((rate * band**power, name) for name, rate, power, band in rows)
        return self.p.cfl * _RK3_IMAG / rate, family

    # -- vacuum momentum sponge ----------------------------------------------

    def vacuum_sponge(self, R, M, h, tau_v, taudot_v):
        """Damp M smoothly in cells with R below ~1e-7 max R.

        Velocity recovery divides by rho_sm ~ r_min there, so any residual
        vacuum momentum seeds an exponential amplifier through the advective
        and viscous couplings (rate ~ coefficient * M_vac / r_min * k^2).
        Physically the region below the floor carries no resolvable momentum;
        the sponge pins it at the forcing floor.  The rate outruns every
        explicit family, each taken at the full-grid kmx, by 3x and the
        profile is smooth in R, so no Gibbs cliff is imprinted.  The
        threshold sits just above r_min: higher up the flow is physical and
        must not be touched.

        Active only together with the vacuum viscous form (long vacuum
        horizons): the momentum it removes is not accounted for by the energy
        identities, which costs the balance residuals their convergence
        floors on identity-grade runs."""
        if self.viscous_form != "vacuum":
            return M
        w = 1.0 / (1.0 + (np.maximum(R, 0.0) / (10.0 * self.r_min)) ** 4)
        sigma = 3.0 * max(rate for _, rate, _, _ in self._rates(R, M, tau_v, taudot_v))
        fac = np.exp(-np.minimum(h * sigma * w, 50.0))
        return M * fac

    def _rates(self, R, M, tau_v, taudot_v):
        """(family, rate at kmx, power of |k|, band) of each active explicit
        family: its rate grows as |k|^power, and band is the largest |k| / kmx
        its force reaches (the *_BAND constants beside the forces)."""
        p, kmx = self.p, self.kmx
        t2 = tau_v**2
        rmax = max(float(np.max(R)), 1e-300)
        live = R > 1e-6 * rmax
        u2 = self.sp.sum_axes((M / self.rho_smooth(R)) ** 2)
        u2max = max(float(np.max(np.where(live, u2, 0.0))), 1e-300)
        cs2 = 1.0 + p.nu * abs(taudot_v) / tau_v
        if p.eta1 > 0:
            cs2 += p.eta1 * p.alpha * float(np.max(self.rho_tilde(R) ** (-p.alpha - 1.0)))
        rows = [
            ("advective", math.sqrt(u2max) * kmx / t2, 1, self.ADVECTIVE_BAND),
            ("acoustic", math.sqrt(cs2) * kmx / tau_v, 1, self.ACOUSTIC_BAND),
        ]
        if p.nu > 0:
            rate = p.nu * kmx**2 / t2 * (_RK3_IMAG / _RK3_REAL)
            rows.append(("viscous", rate, 2, self.VISCOUS_BAND))
        if p.eps > 0:
            rows.append(("korteweg", 0.5 * p.eps * kmx**2 / t2, 2, self.KORTEWEG_BAND))
        if p.eta2 > 0:
            q = 2 * p.s + 2
            rows.append(("eta2", math.sqrt(p.eta2 * rmax) * kmx**q / t2, q, self.ETA2_BAND))
        return rows

    # -- one composed step -------------------------------------------------------

    def advance(self, R, M, h, tau_pair):
        """One step of the composition, carrying the coefficients of [R, M]
        between the linear half steps: [R, M] go forward once, come back
        once after the first half step (N reads them pointwise) and once
        after the second.  The SSP-RK3 stages keep M and Mh side by side:
        stages 1 and 2 invert their rate, because the next stage's
        U = M / rho_sm reads M, and stage 3 stays in Fourier space."""
        tau_v, taudot_v = tau_pair
        sp = self.sp
        c_u = self.bilaplacian_coefficient(R)

        M = self.drag_flow(R, M, 0.5 * h, tau_v)
        Xh = self.linear_flow(sp.fwd(np.concatenate((R[None], M))), 0.5 * h, tau_v, c_u)
        X = sp.inv(Xh)
        R, M, Mh = X[0], X[1:], Xh[1:]

        fz = self.density_forces(R, Xh[0], tau_v, taudot_v)
        rh = h * self.n_rhs(M, Mh, fz, tau_v, c_u)
        M1, M1h = M + sp.inv(rh), Mh + rh
        rh = h * self.n_rhs(M1, M1h, fz, tau_v, c_u)
        M2, M2h = 0.75 * M + 0.25 * (M1 + sp.inv(rh)), 0.75 * Mh + 0.25 * (M1h + rh)
        rh = h * self.n_rhs(M2, M2h, fz, tau_v, c_u)
        Xh[1:] = (1.0 / 3.0) * Mh + (2.0 / 3.0) * (M2h + rh)

        X = sp.inv(self.linear_flow(Xh, 0.5 * h, tau_v, c_u))
        R, M = X[0], X[1:]
        M = self.drag_flow(R, M, 0.5 * h, tau_v)
        M = self.vacuum_sponge(R, M, h, tau_v, taudot_v)
        return R, M


# ---------------------------------------------------------------------------
# public operations


def rhs(state: FluidState, params: ParamSet, tau) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (dR/dt, dM/dt): the generator of `step`
    with (tau, taudot) frozen, summed from the stepper's own pieces (the
    linear-block rates, density_forces, n_rhs and drag_rate), so the
    -delta2 c_u lap^2 M split cancels as it does inside a step.  The vacuum
    sponge is a numerical device and is not part of it."""
    grid = state.grid
    tau_v, taudot_v = float(tau[0]), float(tau[1])
    R, M = arrays_from_state(state)
    st = _Stepper(grid, params, float(np.mean(R)), _contrast(R))
    if st.p.eta1 == 0.0 and float(np.min(R)) < -1e-5 * max(float(np.max(R)), 1e-300):
        raise SolverError("density below floor (blow-up) with eta1 = 0")
    sp = st.sp
    c_u = st.bilaplacian_coefficient(R)
    a, e = st.linear_symbols(tau_v, c_u)
    Rh, Mh = sp.fwd(R), sp.fwd(M)
    dR = sp.inv(a * Rh - sp.sum_axes(sp.ik * Mh) / tau_v**2)
    fz = st.density_forces(R, Rh, tau_v, taudot_v)
    dM = sp.inv(e * Mh + st.n_rhs(M, Mh, fz, tau_v, c_u)) + st.drag_rate(R, M, tau_v)
    return dR, dM


def step(state: FluidState, params: ParamSet, dt: float, tau) -> FluidState:
    """One composed step with (tau, taudot) frozen at the given pair."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    R, M = arrays_from_state(state)
    st = _Stepper(grid, params, float(np.mean(R)), _contrast(R))
    R, M = st.advance(R, M, float(dt), (float(tau[0]), float(tau[1])))
    if not (np.all(np.isfinite(R)) and np.all(np.isfinite(M))):
        raise SolverError("non-finite state after step")
    return state_from_arrays(grid, state.t + dt, R, M, mass_ratio=state.mass_ratio)


def run(
    initial: FluidState,
    params: ParamSet,
    t_end: float,
    tau_sol: TauSolution | None = None,
    snapshot_every: int = 0,
    diag_every: int = 1,
    full_diag_every: int = 0,
    dt_min: float = 1e-12,
    neg_tol_rel: float = 1e-5,
) -> Trajectory:
    """March the state to t_end recording diagnostics; stops early (keeping
    the last valid state) with status "floor" when the density loses
    positivity (min R < -neg_tol_rel * max R0), "nan" on blow-up,
    "underflow" when the CFL step collapses, or "budget" when the CFL steps
    left would take the run past MAX_STEPS."""
    start = time.perf_counter()
    grid = initial.grid
    p = params.bind(grid.d)
    R, M = arrays_from_state(initial)
    st = _Stepper(grid, p, float(np.mean(R)), _contrast(R))
    if tau_sol is None:
        horizon = max(t_end, initial.t, 1e-3) * 1.001
        tau_sol = tau_solve(horizon, 1e-12, 1e-14)

    traj = Trajectory(params=p, r_min=st.r_min)
    timing = traj.timing = {"advance_s": 0.0, "diagnostics_s": 0.0, "snapshots_s": 0.0}
    calls0 = st.sp.calls
    t = initial.t
    # blow-up detector: spectral ringing in vacuum tails undershoots zero by
    # tiny transients, which is harmless; only a sizeable negative excursion
    # signals loss of positivity
    neg_tol = neg_tol_rel * max(float(np.max(R)), 1e-300)

    def current_state():
        return state_from_arrays(grid, t, R, M, initial.mass_ratio)

    def emit(full: bool):
        t0 = time.perf_counter()
        traj.times.append(t)
        ops = diag.StateOps(grid, R, M, st.r_min, t)
        # a diverging state records the inf or nan its terms come to
        with np.errstate(**_QUIET):
            traj.records.append(diag.record(ops, p, tau_sol.eval(t), full=full))
        timing["diagnostics_s"] += time.perf_counter() - t0

    def snapshot():
        t0 = time.perf_counter()
        traj.snapshots.append(current_state())
        timing["snapshots_s"] += time.perf_counter() - t0

    def finish():
        traj.state_final = current_state()
        wall = timing["wall_s"] = time.perf_counter() - start
        timing["steps_per_s"] = traj.n_steps / wall if wall > 0 else 0.0
        timing["transforms"] = st.sp.calls - calls0
        timing["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return traj

    emit(full=True)
    if snapshot_every:
        snapshot()
    if t_end <= initial.t:
        return finish()

    def stop(reason, cell):
        traj.status = reason
        traj.stop = {"reason": reason, "step": k + 1, "t": t, "cell": [int(i) for i in cell]}

    k = 0
    while t < t_end * (1.0 - 1e-12):
        if p.dt_policy == "fixed":
            dt, family = p.dt, None
        else:
            dt, family = st.cfl_dt(R, M, *tau_sol.eval(t))
            if dt > p.dt:
                dt, family = p.dt, "dt_cap"
        dt = min(dt, t_end - t)
        over_budget = family is not None and k + (t_end - t) / dt > MAX_STEPS
        if dt < dt_min or over_budget:
            reason = "underflow" if dt < dt_min else "budget"
            stop(reason, np.unravel_index(np.argmin(R), R.shape))
            break
        # a diverging step overflows on its way to inf or nan; the checks
        # below name it in the status, so numpy's warnings are not raised
        with np.errstate(**_QUIET):
            t0 = time.perf_counter()
            R_new, M_new = st.advance(R, M, dt, tau_sol.eval(t + 0.5 * dt))
            timing["advance_s"] += time.perf_counter() - t0
            if not (np.all(np.isfinite(R_new)) and np.all(np.isfinite(M_new))):
                finite = np.isfinite(R_new) & np.all(np.isfinite(M_new), axis=0)
                stop("nan", np.unravel_index(np.argmin(finite), R.shape))
                break
            if float(np.min(R_new)) < -neg_tol:
                stop("floor", np.unravel_index(np.argmin(R_new), R.shape))
                break
        R, M = R_new, M_new
        t += dt
        k += 1
        traj.n_steps = k
        if family is not None:
            traj.cfl_binding[family] = traj.cfl_binding.get(family, 0) + 1
        at_end = t >= t_end * (1.0 - 1e-12)
        if diag_every and (k % diag_every == 0 or at_end):
            emit(full=at_end or bool(full_diag_every and k % full_diag_every == 0))
        if snapshot_every and (k % snapshot_every == 0 or at_end):
            snapshot()
    traj.validate()
    return finish()


# ---------------------------------------------------------------------------
# initial data


def _smoothstep(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        h0 = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        h1 = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return h0 / (h0 + h1)


def plateau(grid: Grid) -> np.ndarray:
    """Smooth cutoff chi(y/ell): 1 on |y| <= ell/2, 0 near |y| >= ell."""
    r = np.sqrt(grid.r2) / grid.ell
    return _smoothstep(2.0 - 2.0 * r)


def mollifier_kernel(grid: Grid, iota: float) -> np.ndarray:
    """Compactly supported bump of width iota, sampled zero-phase (offset
    coordinates, periodic wrap) and normalized to unit discrete mass."""
    if iota <= 0:
        raise ValueError("iota must be positive")
    offs = [
        (grid.dy * grid.modes).reshape((1,) * i + (grid.n,) + (1,) * (grid.d - 1 - i))
        for i in range(grid.d)
    ]
    r2 = sum(o**2 for o in offs) / iota**2
    with np.errstate(divide="ignore", over="ignore"):
        z = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    z = np.broadcast_to(z, grid.shape).copy()
    total = grid.quad(z)
    if total <= 0:
        raise ValueError("mollifier width too small for the grid")
    return z / total


def prepare_initial_data(
    grid: Grid,
    sqrtR0_sampler,
    Lambda0_sampler,
    theta: float,
    iota: float,
) -> FluidState:
    """Plateau-truncated, floored and mollified initial data

        sqrtR = (sqrtR0 * chi_ell + theta) conv zeta_iota,   Lambda = Lambda0,

    returned as the state R = sqrtR^2, M = sqrtR Lambda (state_from_root).
    sqrtR is bounded below by theta exactly (the kernel is nonnegative with
    unit discrete mass, and the constant theta convolves to itself), so the
    density never falls below theta^2.
    """
    if theta <= 0 or iota <= 0:
        raise ValueError("theta and iota must be positive")
    s0 = np.asarray(sqrtR0_sampler(*grid.y), dtype=float) + np.zeros(grid.shape)
    if np.any(s0 < 0):
        raise ValueError("sqrtR0 sampler must be nonnegative")
    a = s0 * plateau(grid) + theta
    z = mollifier_kernel(grid, iota)
    sp = grid.spectral
    s = sp.inv(sp.fwd(a) * sp.fwd(z)) * grid.weight
    lam = Lambda0_sampler(*grid.y)
    if not isinstance(lam, (tuple, list)):
        lam = (lam,)
    lam = np.stack([np.asarray(c, dtype=float) + np.zeros(grid.shape) for c in lam])
    return state_from_root(grid, s, lam)


def state_from_root(grid: Grid, s, lam) -> FluidState:
    """The state of the root s = sqrt R and Lambda = sqrt R U (stacked):
    R = s^2, M = s Lambda, with the mass ratio quad(R) / quad(exp(-|y|^2))."""
    R = s**2
    return FluidState(
        t=0.0, grid=grid, R=R, M=s * lam,
        mass_ratio=grid.quad(R) / grid.quad(np.exp(-grid.r2)),
    )


def drag_schedule(grid: Grid, R0, eps: float = 0.0):
    """Box-size-dependent drag parameters of R0 sampled on grid, ell = grid.ell:
    r0 = 1/(ell + quad(log R0 1_{R0<1})^2),  r1 = 1/ell,  eps_ell = eps + 1/ell."""
    ell = grid.ell
    logneg = np.where(R0 < 1.0, np.log(np.maximum(R0, diag.LOG_FLOOR)), 0.0)
    intlog = grid.quad(logneg)
    return 1.0 / (ell + intlog**2), 1.0 / ell, eps + 1.0 / ell
