"""Time stepper for the regularized self-similar system on the torus.

Prognostic variables are (R, M = R U); U is recovered as M / rho_sm with the
smooth floor rho_sm = sqrt(R^2 + r_min^2) (see smooth_density).
One step of size h is the symmetric composition

    Drag(h/2)  L(h/2)  N(h)  L(h/2)  Drag(h/2)

evaluated with (tau, taudot) frozen at the step midpoint:

* Drag: the pointwise relaxation dM/dt = -(r0/tau^2) U - (r1/tau^2) R |U|^2 U,
  integrated exactly (Bernoulli ODE) with R frozen, not dealiased.  With r0
  and r1 both on, its factor takes one exp, y = exp(-2 (h/tau^2) r0/rho_sm),
  and its R-only factors r0/rho_sm and q = r1 R^+/(r0 rho_sm^2) form one
  table per R array (drag_table), which the last drag of a step and the
  first of the next share.  The one-expm1 form sqrt((1 + E)/(1 - q |M|^2 E))
  is not used: 1 + E cancels where the drag crushes M (e^x below ~1e-3);
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
  the CFL bound of cfl_dt.  TERMS, the one table of that bound, gives per
  coefficient the explicit families its force feeds, or why it feeds none.
  The pressure (isothermal and cold), the Korteweg stress and the eta2
  force depend on R only, so N freezes them (density_forces) while L alone
  moves R: their waves run as drift-kick-drift, the Stormer-Verlet
  splitting of an exact continuity flow around a frozen force, which is
  stable while omega h < 2, not sqrt(3).
  N never touches R, so the zero mode of R is exactly constant and mass is
  conserved to round-off.

The symmetric composition of second-order (or exact) flows with
midpoint-frozen coefficients is globally second-order accurate.  `rhs` is its
generator, summed from the same substep methods, so (advance(h) x - x)/h
tends to rhs(x) term by term.

Stacked components.  M = (d,) + grid.shape, and U and every stress and
gradient are stacked the same way ((d, d) + grid.shape for tensors), so each
substep hands its independent transforms to the backend as one stack.

Spectral carry.  A state goes back to physical space only where a pointwise
product, a drag or a check reads it.  advance transforms [R, M] forward once;
the linear half steps act on those coefficients, and each is followed by the
step's only inverses of [R, M] (N and the drag read R and M pointwise).
n_rhs takes Mhat and returns its rate as coefficients: U forward, grad U
back, the upper triangle of the symmetric stress (flux plus viscous) and the
delta1 cross product forward; the delta2 field is Uhat - c_u Mhat.  The
density forces take Rhat from the first half step, transform only
sqrt_reg(R) forward, their derivatives back and the force products (the
confinement 2 y R among them) forward, and stay coefficients.  The RK
stages step in increment form on coefficients: each stage's rate comes
back as its increment k_i = h rate, stages 2 and 3 start from
Mhat + k1 and Mhat + (k1 + k2)/4, and each of those two inverts its own
coefficients once (its U = M / rho_sm reads M); the end of the substep,
Mhat + (k1 + k2)/6 + 2 k3/3, stays in Fourier space and feeds the
second half step.  The quantities that depend on R alone (rho_sm, R/2, the
density forces, grad R) are built once per N substep.

One first stage.  density_forces gathers the R-only inputs, and the
substep's first n_rhs writes the density forces' parts into its own three
batches, after its own rows (first_layouts): s with U forward, the
derivatives of R and s with grad U back, and the force products with the
stress and cross products forward.  Every batch is written in place into
one stack, and so is advance's [R, M].  In 1D a stack is one transform
call, 14 per advance (17 unfused); for d > 1 a forward stack is one call
and an inverse one call per component, 38 per 2D and 63 per 3D advance
(46 and 71 with a call per forward part; see the spectral module notes).
For d > 1 the merged stage holds more arrays at once than the density
forces made alone, and an advance sets a run's traced peak: a full or a
core record of the same state peaks at or below it (the diagnostics module
notes, "Phases").  The carry moves results only at round-off, and R's zero
mode is carried exactly.

Terms that are off.  A step skips work whose result nothing reads or that
is an identity: without delta2 it builds no c_u, and L neither builds nor
applies e^(e h) = 1 (linear_symbols gives the scalar rate 0); without
delta1 L builds no e^(a h); the drag and the sponge return M untouched when
they are off.  The Hessian tables gather stacked entries as views where
their index set is contiguous, as in 1D (see the spectral module notes).
The states are bitwise those of the full work.

Rows.  run marches every run through one loop, _march: a single run is the
march of one row, and a fixed-dt ladder (runs from one state that differ
only in dt and delta1) marches its rows together: R is (B,) + grid.shape and
M (d, B) + grid.shape on the backend Grid.rows(B), and the step scalars h,
h/2, tau, taudot, tau^2, delta1 and c_u are (B, 1, ...) arrays.  advance
builds each row's scalars in Python floats, as a single run builds them,
and only then stacks them: Python's tau**2 calls libm's pow, which is not
always the correctly rounded square numpy's ** 2 gives (on the dt = 5e-4
row of tau_cover(0.25, 0) the two differ in the last bit at steps 126 and
314), and each row must be its single run bitwise.  Every reduction (c_u's
min, the step size, the stop checks, the records) is taken on one row.  A
row that ends or stops leaves the stack before the next advance; a lone
row runs on the single stepper, which builds no row axis.

Records.  The march keeps each trajectory's state, step size, records,
snapshots, stop and end in one _Row.  A core record only keeps its step's
(t, R, M), arrays no later step writes; the pending states are evaluated as
one stack of states (diagnostics.StateOps, with each row's own (tau,
taudot)) once diagnostics.stack_rows(grid) of them are pending, before any
full record and when the trajectory ends or stops, so every record is kept
and the records stay in time order.  A full record is a stack of one, as is
every record where stack_rows is 1 (2D n = 128).  Each row of a stack is
bitwise the record of its stack of one (the diagnostics module notes), so
the records are those of one state at a time; timing counts a block's
seconds and transforms, made on the backend Grid.rows(B), as the
trajectory's.

Floors.  The solver's one density floor is r_min (ParamSet.r_min, default
1e-10 mean(R0)).  rho_sm = smooth_density(R, r_min) = sqrt(R^2 + r_min^2)
recovers U = M / rho_sm and sets the drag coefficients, the advective CFL
rate and c_u; rho_tilde = max(R, r_min) clamps the cold pressure and its
sound speed; sqrt_reg(R) = sqrt((R + rho_sm)/2) is the Korteweg root; the
vacuum sponge acts below about 10 r_min.  diagnostics.record evaluates on the
same r_min.  A FluidState holds (R, M) as the stepper does, so a run starts
and ends with no conversion.

Stops.  A run from a state that is not finite stops "nan" before its first
step.  A run stops before a step whose dt is below DT_MIN ("underflow") or
whose projected step count k + (t_end - t)/dt exceeds MAX_STEPS ("budget"),
under either policy, and after one that leaves R < -NEG_TOL_REL max R0.
check_fixed_steps refuses a fixed dt that would stop so before its first
step.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import diagnostics as diag
from .params import ParamSet
from .rescaling import FluidState, smooth_density
from .spectral import Grid
from .tauode import TauSolution, tau_cover

__all__ = [
    "Trajectory",
    "SolverError",
    "rhs",
    "run",
    "prepare_initial_data",
    "drag_schedule",
    "plateau",
    "mollifier_kernel",
    "state_from_arrays",
    "arrays_from_state",
    "state_from_root",
    "MAX_STEPS",
    "check_fixed_steps",
    "TERMS",
]

_RK3_IMAG = math.sqrt(3.0)  # imaginary-axis stability reach of SSP-RK3
_RK3_REAL = 2.51  # real-axis stability reach of SSP-RK3
# the stability reach of a wave between L's exact flow of R and N's frozen
# density forces: the Stormer-Verlet bound omega h < 2 (see the module notes)
_KICK = 2.0
# Each term by the ParamSet coefficient that switches it on ("base": the
# advective and acoustic families of every run), with what the CFL bound
# (cfl_dt) makes of its force: {family: (band, reach, power, rate)} for the
# families it switches on, a string saying why it needs none, or None for a
# part of N with no family yet.  band is the largest |k| / kmx the force
# reaches (2/3 through the dealiasing mask; the pressure is not masked, and
# the flux runs waves at U +- c, so those bands are full: at 2/3 the
# advective dt exceeded envelope/1.5 in test_cfl_dt_within_stability_envelope);
# reach the stability reach of the integrator its waves run in (SSP-RK3's
# axes, or _KICK for the density forces N holds frozen); power the power of
# |k| its rate grows as, from s; rate its rate at kmx (see _rates).
TERMS = {
    "base": {
        "advective": (1.0, _RK3_IMAG, lambda s: 1,
                      lambda c, kp, tau, t2, rmax, u2, cs2: math.sqrt(u2) * kp / t2),
        "acoustic": (1.0, _KICK, lambda s: 1,
                     lambda c, kp, tau, t2, rmax, u2, cs2: math.sqrt(cs2) * kp / tau),
    },
    "nu": {"viscous": (2.0 / 3.0, _RK3_REAL, lambda s: 2,
                       lambda c, kp, tau, t2, rmax, u2, cs2: c * kp / t2)},
    "eps": {"korteweg": (2.0 / 3.0, _KICK, lambda s: 2,
                         lambda c, kp, tau, t2, rmax, u2, cs2: 0.5 * c * kp / t2)},
    "r0": "the drag is an exact pointwise flow",
    "r1": "the drag is an exact pointwise flow",
    "delta1": None,  # L holds its linear part exactly; the cross term in N has no family
    "delta2": None,  # the variable-coefficient remainder in N has no family
    "eta1": "the cold pressure raises the acoustic sound speed",
    "eta2": {"eta2": (2.0 / 3.0, _KICK, lambda s: 2 * s + 2,
                      lambda c, kp, tau, t2, rmax, u2, cs2: math.sqrt(c * rmax) * kp / t2)},
}
# the most steps a run may take, under either policy: above 10x the longest
# CFL run of the test suite and the acceptance runs (criterion 3 to t = 1,
# 1,080 steps), and far below the 215,786 steps a 2D n = 16 eta2 = 0.999,
# s = 5 run would ask for to reach t = 0.01, whose dt of 4.6e-8 never trips
# DT_MIN
MAX_STEPS = 100_000
# the least step a run takes: a CFL step below it has collapsed
DT_MIN = 1e-12
# the density undershoot, relative to max R0, that means lost positivity:
# spectral ringing in vacuum tails undershoots zero by tiny transients, which
# is harmless; only a sizeable negative excursion signals a blow-up
NEG_TOL_REL = 1e-5
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
    # "transforms" the scipy.fft calls made for the run (a ladder row's: the
    # advances that stepped it, shared with the rows stacked with it), its
    # record blocks' on Grid.rows(B) too, and "peak_rss_mb" the process's
    # peak resident set (ru_maxrss) at its end
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


def _viscous_form(p: ParamSet, r0_contrast: float) -> str:
    """p.viscous_form, "auto" resolved by the initial density contrast."""
    if p.viscous_form == "auto":
        return "bounded" if r0_contrast > 1e-6 else "vacuum"
    return p.viscous_form


def arrays_from_state(state: FluidState):
    """(R, M) with M stacked, shape (d,) + grid.shape."""
    return state.R, state.M


def state_from_arrays(grid: Grid, t: float, R, M, mass_ratio: float = 1.0) -> FluidState:
    return FluidState(t=t, grid=grid, R=R, M=M, mass_ratio=mass_ratio)


@dataclass(eq=False)
class _Frozen:
    """What the N substep reads of R, which it never changes: R, rho_sm(R),
    R/2 (the bounded viscous stress's factor, else None), Rh = fwd(R), the
    step's factor nu taudot/tau - 1 of grad R in the density forces, grad R
    ((d,) + grid.shape) and the coefficients Fh of the density forces on M
    ((d,) + half spectrum).  The substep's first n_rhs sets grad R and Fh."""

    R: np.ndarray
    rho: np.ndarray
    R_half: np.ndarray | None
    Rh: np.ndarray
    grad_R_factor: float | np.ndarray
    grad_R: np.ndarray | None = None
    Fh: np.ndarray | None = None


class _Stepper:
    """Work tables bound to a grid and one ParamSet (or a list of one), or
    the ParamSets of a ladder's rows (see run), which differ only in dt and
    delta1 and agree on whether delta1 is on.  M, U and every stress and
    gradient are stacked component arrays, (d,) + grid.shape or
    (d, d) + grid.shape, so that each substep hands its independent
    transforms to the backend as one stack.  Two or more rows advance
    together on the backend Grid.rows: R is (B,) + grid.shape, M
    (d, B) + grid.shape, and each row's step scalars are (B, 1, ...) arrays
    (see advance)."""

    def __init__(self, grid: Grid, params, r0_mean: float, r0_contrast: float = 1.0):
        self.grid = g = grid
        params = [params] if isinstance(params, ParamSet) else params
        if len(params) == 1:
            self.p, self.rows, self.sp = params[0].bind(g.d), None, g.spectral
            self.delta1 = self.p.delta1
        else:
            self.rows = [p.bind(g.d) for p in params]
            self.p, self.sp = self.rows[0], g.rows(len(self.rows))
            self.row_shape = (len(self.rows),) + (1,) * g.d
            self.delta1 = self._stacked([p.delta1 for p in self.rows])
        self.r_min = (
            self.p.r_min if self.p.r_min is not None else 1e-10 * max(r0_mean, 1e-300)
        )
        self.viscous_form = _viscous_form(self.p, r0_contrast)
        self.kmx = math.pi * (g.n / 2) / g.ell * math.sqrt(g.d)
        # 2 y of the confinement force, and the constant symbol products of
        # the density and N forces
        self.y2 = 2.0 * np.stack([np.broadcast_to(yi, g.shape) for yi in g.y])
        if self.rows is not None:
            self.y2 = self.y2[:, None]
        p, sp = self.p, self.sp
        self.eta1_ik = p.eta1 * sp.ik
        self.with_delta1 = p.delta1 > 0
        self.delta1_mask = self.delta1 * sp.mask
        self.lap2 = sp.lap_symbol(2)  # |k|^4
        self.delta2_lap2 = p.delta2 * self.lap2
        self.eta2_sym = sp.grad_lap_symbol(2 * p.s + 1) if p.eta2 > 0 else None
        # the active families of TERMS: (family, rate, c, kmx**power, scale),
        # the scale band**power * sqrt(3) / reach putting cfl = 1 at the reach
        self.families = []
        for term, entry in TERMS.items():
            c = 1.0 if term == "base" else getattr(p, term)
            if isinstance(entry, dict) and c > 0:
                self.families += [(family, rate, c, self.kmx ** power(p.s),
                                   band ** power(p.s) * (_RK3_IMAG / reach))
                                  for family, (band, reach, power, rate) in entry.items()]
        # the gates of the terms, and the Layouts of n_rhs's three batches:
        # its own parts, and on an N substep's first call the density
        # forces' parts after them in the same stacks (see the module notes)
        self.vacuum = p.nu > 0 and self.viscous_form == "vacuum"
        self.grad_u = self.with_delta1 or (p.nu > 0 and not self.vacuum)
        self.hat_u = self.grad_u or p.delta2 > 0
        # the density forces' gates, which only a substep's first n_rhs opens
        self.first_gates = (p.eps > 0, p.eta1 > 0, p.eta2 > 0)
        self.jacobian = (g.d, g.d) + sp.half_shape
        d, fwd, inv, upper = g.d, sp.fwd, sp.inv, (len(sp.hess_keys),)
        rhs = (
            (fwd, {"U": (d,)} if self.hat_u else {}),
            (inv, {**({"U": (d * d,)} if self.grad_u else {}),
                   **({"M": (d * d,)} if self.vacuum else {})}),
            (fwd, {"stress": upper, **({"cross": (d,)} if self.with_delta1 else {})}),
        )
        density = (
            {"s": (1,)} if p.eps > 0 else {},
            {"grad_R": (d,), **({"eta2": (d,)} if p.eta2 > 0 else {}),
             **({"s": (d + len(sp.hess_keys),)} if p.eps > 0 else {})},
            {"confinement": (d,), **({"korteweg": upper} if p.eps > 0 else {}),
             **({"cold": (1,)} if p.eta1 > 0 else {}),
             **({"eta2": (d,)} if p.eta2 > 0 else {})},
        )
        self.rhs_layouts = tuple(sp.layout(tf, leads) for tf, leads in rhs)
        self.first_layouts = tuple(
            sp.layout(tf, {**leads, **more}) for (tf, leads), more in zip(rhs, density)
        )
        self._rho = (None, None)
        self._drag_R = (None, None)

    # -- helpers -----------------------------------------------------------

    def _stacked(self, values) -> np.ndarray:
        """Each row's Python float, stacked to broadcast over its row."""
        return np.array(values).reshape(self.row_shape)

    def rho_tilde(self, R, out=None):
        return np.maximum(R, self.r_min, out=out)

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

    def sqrt_reg(self, R, rho, out=None):
        """Smooth regularized root from rho = rho_sm(R): sqrt(R) + O(r_min/sqrt(R))
        in the bulk, C-infinity through ring-induced zero crossings (plain
        sqrt(max(R, 0)) has square-root kinks there whose Korteweg stress
        pollutes the tails).  Written into out where it is given."""
        return np.sqrt(0.5 * (R + rho), out=out)

    def bilaplacian_coefficient(self, R):
        """c_u of the implicit damping -delta2 c_u lap^2 M: twice the largest
        1/rho_sm, so the explicit counter-term stays strictly inside the decay
        budget (delta-regularized runs assume data bounded below).  0 without
        delta2, where only delta2 terms would read it.  Rows take each
        row's own min."""
        if self.p.delta2 == 0.0:
            return 0.0
        rho = self.rho_smooth(R)
        if self.rows is None:
            return 2.0 / max(float(rho.min()), 1e-300)
        return self._stacked([2.0 / max(float(r.min()), 1e-300) for r in rho])

    # -- drag substep (exact pointwise Bernoulli flow, R frozen) -----------

    def drag_table(self, R):
        """The R-only factors of drag_flow (r1 > 0), kept, like rho_sm, for
        the last R: the last drag of a step and the first of the next read
        one R.  With r0 on too, r0 / rho_sm and q = r1 R^+ / (r0 rho_sm^2),
        so a = (r0 / rho_sm) / tau^2 and b = q a; with r1 alone, r1 R^+ and
        rho_sm^3, so b = r1 R^+ / (tau^2 rho_sm^3)."""
        key, table = self._drag_R
        if key is not R:
            p, rho = self.p, self.rho_smooth(R)
            if p.r0 > 0.0:
                table = (p.r0 / rho, (p.r1 / p.r0) * np.maximum(R, 0.0) / rho**2)
            else:
                table = (p.r1 * np.maximum(R, 0.0), rho**3)
            self._drag_R = (R, table)
        return table

    def drag_flow(self, R, M, h, t2, out=None):
        """M after the drag's time h, written into out where it is given: M
        times the exact Bernoulli flow's factor.  With r0 and r1 both on it
        is sqrt(y / (1 + q |M|^2 (1 - y))), y = exp(-2 (h / tau^2) r0 / rho_sm),
        from drag_table's r0 / rho_sm and q: the flow
        sqrt(a e^x / (a - b |M|^2 expm1(x))), x = -2 a h, with one
        transcendental and a denominator >= 1.  With r0 alone it is
        exp(-a h), with r1 alone sqrt(1 / (1 + 2 b |M|^2 h))."""
        p = self.p
        if p.r0 == 0.0 and p.r1 == 0.0:
            if out is None or out is M:
                return M
            out[...] = M
            return out
        if p.r1 == 0.0:
            fac = np.exp(-(p.r0 / (t2 * self.rho_smooth(R))) * h)
        elif p.r0 > 0.0:
            c, q = self.drag_table(R)
            y = np.exp((-2.0 * h / t2) * c)
            fac = np.sqrt(y / (1.0 + q * self.sp.sum_axes(M * M) * (1.0 - y)))
        else:
            num, rho3 = self.drag_table(R)
            fac = np.sqrt(1.0 / (1.0 + 2.0 * (num / (t2 * rho3)) * self.sp.sum_axes(M * M) * h))
        return np.multiply(M, fac, out=out)

    def drag_rate(self, R, M, t2):
        """The generator of drag_flow: -(a + b |M|^2) M, the drag ODE's
        rate, with a = r0 / (tau^2 rho_sm) and b = r1 R^+ / (tau^2 rho_sm^3),
        t2 = tau^2."""
        p, rho = self.p, self.rho_smooth(R)
        rate = p.r0 / (t2 * rho)
        if p.r1 > 0.0:
            rate = rate + p.r1 * np.maximum(R, 0.0) / (t2 * rho**3) * self.sp.sum_axes(M * M)
        return -rate * M

    # -- exact linear substep ------------------------------------------------

    def linear_symbols(self, t2, c_u):
        """Rates a = -delta1 |k|^2/tau^2 (on Rhat) and e = -delta2 c_u |k|^4/tau^2
        (on each Mhat_j) of the linear block, t2 = tau^2; a rate whose
        coefficient is 0 is the scalar 0.0, so its exponential is the
        scalar 1.0."""
        a = -(self.delta1 / t2) * self.sp.k2 if self.with_delta1 else 0.0
        e = -(self.p.delta2 * c_u / t2) * self.lap2 if self.p.delta2 > 0 else 0.0
        return a, e

    def linear_flow(self, Xh, prop):
        """Exact flow of the triangular constant-coefficient block

            d/dt Rhat   = a Rhat - (i/tau^2) k . Mhat
            d/dt Mhat_j = e Mhat_j

        with the rates a, e of linear_symbols:

            Mhat(h) = e^(e h) Mhat,
            Rhat(h) = e^(a h) Rhat - (i/tau^2) k.Mhat * (e^(a h)-e^(e h))/(a-e),

        on Xh, the coefficients of the stack [R, M], advanced in place by the
        propagator prop of the step and returned: the flow makes no
        transform (advance carries Xh).  The
        dispersive terms are handled explicitly in N under their CFL; an
        implicit mean-density linearization was tried and rejected because
        its explicit counter-term interacts with the exact drag crush in
        vacuum cells, turning neutral dispersion into growth."""
        sp = self.sp
        Ea, S_t2, Ee = prop
        np.subtract(Ea * Xh[0], S_t2 * sp.sum_axes(sp.ik * Xh[1:]), out=Xh[0])
        if self.p.delta2 > 0:  # else e^(e h) = 1
            Xh[1:] *= Ee
        return Xh

    def propagator(self, h, t2, c_u):
        """(e^(a h), (e^(a h) - e^(e h)) / ((a - e) tau^2), e^(e h)) of
        linear_flow, t2 = tau^2: the two half steps of one advance share it.
        A rate that is the scalar 0 (see linear_symbols) gives the values of
        its array form bitwise: its exponential is 1, and a - e differs only
        in the sign of the zero mode's 0, where `small` picks h e^(a h)
        either way."""
        a, e = self.linear_symbols(t2, c_u)
        Ea = np.exp(a * h)
        Ee = np.exp(e * h)
        diff = a - e
        small = np.abs(diff) * h < 1e-8
        S = np.where(small, h * Ea, (Ea - Ee) / np.where(small, 1.0, diff))
        return Ea, S / t2, Ee

    # -- explicit remainder ---------------------------------------------------

    def density_forces(self, R, Rh, tau_v, taudot_v) -> _Frozen:
        """The R-only inputs of n_rhs, whose first call of the substep makes
        from them the forces on M that depend on R only (constant during the
        N substep): confinement + pressure (+ nu taudot/tau grad R), the
        divergence-form Korteweg stress of the root s = sqrt_reg(R), cold
        pressure, and the eta2 term.  Rh = fwd(R) comes from the linear half
        step."""
        p = self.p
        R_half = R * 0.5 if p.nu > 0 and not self.vacuum else None
        return _Frozen(R, self.rho_smooth(R), R_half, Rh, p.nu * taudot_v / tau_v - 1.0)

    def stress(self, fz: _Frozen, M, U, gradU, gradM, out):
        """The upper entries (sp.hess_keys order) of the symmetric momentum
        flux -M x U = -M x M / rho_sm plus the viscous stress nu R D(U),
        stacked (d(d+1)/2,) + grid.shape and written into out: the entry
        (i, j), i <= j, of the flux is -M_j U_i (the flattened Jacobian
        gradU[j d + i] = d_i U_j, gradM likewise; each is needed only by its
        viscous form).

        Two exact assemblies of R D(U): the bounded form R * D(M/rho) pairs
        cleanly with the energy functionals; the vacuum form
        (d_i M_j + d_j M_i)/2 - (M_j d_i R + M_i d_j R)/(2 rho) never
        differentiates the near-floor quotient, whose spatial ringing seeds a
        momentum amplifier on long vacuum runs.

        Each entry is built in its own row of out from the rows it reads,
        so no gathered copy of M, U or a Jacobian is made."""
        nu, gR, d = self.p.nu, fz.grad_R, self.sp.d
        for e, (i, j) in enumerate(self.sp.hess_keys):
            entry = np.negative(M[j], out=out[e])
            entry *= U[i]
            ji, ij = j * d + i, i * d + j
            if nu > 0 and self.viscous_form == "bounded":
                entry += nu * (fz.R_half * (gradU[ji] + gradU[ij]))
            elif nu > 0:
                entry += nu * (0.5 * (gradM[ji] + gradM[ij]) - 0.5 * (U[j] * gR[i] + U[i] * gR[j]))
        return out

    def n_rhs(self, M, Mh, fz: _Frozen, t2, c_u, h):
        """Coefficients of h times the explicit remainder's rate (an RK
        increment; rhs passes h = 1), the M-dependent part times h / tau^2
        plus the frozen h Fh, from M and its coefficients Mh, in three
        batches (rhs_layouts): U forward (for delta1, delta2 or the bounded
        viscous form); grad U (grad M, from Mh, in the vacuum viscous form)
        back; the upper stress entries and the delta1 cross product forward.
        Per component one dealiased divergence of the mirrored stress row
        plus the delta1 and delta2 terms, summed in spectral space; the
        delta2 field U - c_u M goes as Uh - c_u Mh.

        The substep's first call (fz.Fh is None) writes the density forces'
        parts into the same batches (first_layouts) and sets fz.grad_R and
        fz.Fh: s forward; grad R, the eta2 grad lap^(2s+1) R, grad s and
        hess s back; the confinement 2 y R, the upper Korteweg stress
        entries, the cold pressure and the eta2 products forward.  The
        spectral parts of each force component are then summed and scaled
        by h in place, once per substep; nothing goes back.  t2 = tau^2."""
        p, sp, d, R = self.p, self.sp, self.sp.d, fz.R
        first = fz.Fh is None
        eps, eta1, eta2 = self.first_gates if first else (False, False, False)
        at1, at2, at3 = self.first_layouts if first else self.rhs_layouts
        st = np.empty(at1.end_shape, at1.dtype)
        U = np.divide(M, fz.rho, out=st[at1.U] if self.hat_u else None)
        s = self.sqrt_reg(R, fz.rho, st[at1.s]) if eps else None
        res = sp.transform(at1, st)
        Uh = res[at1.U] if self.hat_u else None

        st = np.empty(at2.end_shape, at2.dtype)
        if self.grad_u:
            sp.apply(sp.ik, Uh, st[at2.U].reshape(self.jacobian))
        if self.vacuum:
            sp.apply(sp.ik, Mh, st[at2.M].reshape(self.jacobian))
        if first:
            np.multiply(sp.ik, fz.Rh, out=st[at2.grad_R])
        if eta2:
            np.multiply(self.eta2_sym, fz.Rh, out=st[at2.eta2])
        if eps:  # grad s, then the upper Hessian entries of s
            np.multiply(sp.ik, res[at1.s], out=st[at2.s][:d])
            np.multiply(sp.hess_sym, res[at1.s], out=st[at2.s][d:])
        back = sp.transform(at2, st)
        # flattened Jacobians: gradU[j d + i] = d_i U_j, likewise gradM
        gradU = back[at2.U] if self.grad_u else None
        gradM = back[at2.M] if self.vacuum else None
        if first:
            fz.grad_R = back[at2.grad_R]

        st = np.empty(at3.end_shape, at3.dtype)
        self.stress(fz, M, U, gradU, gradM, st[at3.stress])
        if self.with_delta1:
            self._cross(fz.grad_R, gradU, st[at3.cross])
        if first:
            np.multiply(self.y2, R, out=st[at3.confinement])
        if eps:
            # the stress is symmetric: transform its upper entries, from
            # which div_upper_dealiased_hat reads each row
            ds = back[at2.s]
            diag.korteweg_stress_entries(sp, s, ds[:d], ds[d:], st[at3.korteweg])
        if eta1:
            cold = st[at3.cold]
            self.rho_tilde(R, cold[0])
            cold **= -p.alpha
        if eta2:
            np.multiply(R, back[at2.eta2], out=st[at3.eta2])
        del back
        ph = sp.transform(at3, st)
        # free the stage's arrays before the sums, where a d > 1 advance peaks
        del st, U, s, gradU, gradM
        if first:
            Fh = fz.grad_R_factor * sp.ik * fz.Rh - ph[at3.confinement]
            if eps:
                Fh += (p.eps**2 / (2.0 * t2)) * sp.div_upper_dealiased_hat(ph[at3.korteweg])
            if eta1:
                Fh += self.eta1_ik * ph[at3.cold]
            if eta2:
                Fh += (p.eta2 / t2) * sp.mask * ph[at3.eta2]
            Fh *= h
            fz.Fh = Fh
        fh = sp.div_upper_dealiased_hat(ph[at3.stress])
        if self.with_delta1:
            fh -= self.delta1_mask * ph[at3.cross]
        if p.delta2 > 0:
            fh -= self.delta2_lap2 * (Uh - c_u * Mh)
        fh *= h / t2
        fh += fz.Fh
        return fh

    def _cross(self, grad_R, gradU, out):
        """The delta1 cross product sum_i d_i R d_i U_j, stacked over j, from
        the flattened Jacobian gradU[j d + i] = d_i U_j, written into out;
        summed in order i = 0..d-1."""
        d = self.sp.d
        out = np.multiply(gradU[0::d], grad_R[0], out=out)
        for i in range(1, d):
            out += gradU[i::d] * grad_R[i]
        return out

    # -- CFL -------------------------------------------------------------------

    def cfl_dt(self, R, M, tau_v, taudot_v):
        """(dt, family): dt = cfl * sqrt(3) / the largest rate * scale of the
        active families of TERMS (_rates), and the family that sets it.  A
        family's scale band**power * sqrt(3) / reach takes its rate at kmx to
        its band and puts cfl = 1 at its integrator's reach."""
        rows = self._rates(R, M, tau_v, taudot_v)
        rate, family = max((rate * scale, name) for name, rate, scale in rows)
        return self.p.cfl * _RK3_IMAG / rate, family

    # -- vacuum momentum sponge ----------------------------------------------

    def vacuum_sponge(self, R, M, h, tau_v, taudot_v):
        """Damp M smoothly in cells with R below ~1e-7 max R.

        Velocity recovery divides by rho_sm ~ r_min there, so any residual
        vacuum momentum seeds an exponential amplifier through the advective
        and viscous couplings (rate ~ coefficient * M_vac / r_min * k^2).
        Physically the region below the floor carries no resolvable momentum;
        the sponge pins it at the forcing floor.  The rate is 3x the largest
        rate of the active families, each taken at the full-grid kmx with no
        reach folded in, so it outruns every family by 3x; the profile is
        smooth in R, so no Gibbs cliff is imprinted.  The
        threshold sits just above r_min: higher up the flow is physical and
        must not be touched.

        Active only together with the vacuum viscous form (long vacuum
        horizons): the momentum it removes is not accounted for by the energy
        identities, which costs the balance residuals their convergence
        floors on identity-grade runs."""
        if self.viscous_form != "vacuum":
            return M
        w = 1.0 / (1.0 + (np.maximum(R, 0.0) / (10.0 * self.r_min)) ** 4)
        sigma = 3.0 * max(rate for _, rate, _ in self._rates(R, M, tau_v, taudot_v))
        fac = np.exp(-np.minimum(h * sigma * w, 50.0))
        return M * fac

    def _rates(self, R, M, tau_v, taudot_v):
        """(family, rate at kmx, scale) of each active family of TERMS
        (self.families), each rate evaluated on the step's reductions, taken
        once: tau^2, max R, the largest |U|^2 over live cells (deep-vacuum
        U = M/rho is noise over the floor) and the squared sound speed.  The
        cold pressure's part of that speed, rho_tilde^(-alpha-1), decreases
        in R (alpha > 4 where eta1 > 0), so its max is taken at
        max(min R, r_min) with one pow of a float."""
        p = self.p
        t2 = tau_v**2
        rmax = max(float(R.max()), 1e-300)
        live = R > 1e-6 * rmax
        u2 = self.sp.sum_axes((M / self.rho_smooth(R)) ** 2)
        u2max = max(float(np.where(live, u2, 0.0).max()), 1e-300)
        cs2 = 1.0 + p.nu * abs(taudot_v) / tau_v
        if p.eta1 > 0:
            cs2 += p.eta1 * p.alpha * max(float(R.min()), self.r_min) ** (-p.alpha - 1.0)
        return [(family, rate(c, kp, tau_v, t2, rmax, u2max, cs2), scale)
                for family, rate, c, kp, scale in self.families]

    # -- one composed step -------------------------------------------------------

    def advance(self, R, M, h, tau_pair):
        """One step of the composition, carrying the coefficients of [R, M]
        between the linear half steps: [R, M] go forward once, come back
        once after the first half step (N reads them pointwise) and once
        after the second.  N steps SSP-RK3 in increment (Butcher) form on
        Mh: with k_i = h rate(stage i) from n_rhs, stage 2 starts from
        Mh + k1, stage 3 from Mh + (k1 + k2)/4, and N ends at
        Mh + (k1 + k2)/6 + 2 k3/3 (the Shu-Osher stages, summed out), each
        sum taken in place.  Stages 2 and 3 invert their own coefficients,
        because their U = M / rho_sm reads M; the end stays in Fourier
        space.

        Rows take each row's h and (tau, taudot) in a list.  Its scalars h,
        h/2, tau, taudot and tau^2 are built per row as a single run builds
        them, in Python floats, and only then stacked: Python's tau**2 calls
        libm's pow, which is not always the correctly rounded square that
        numpy's ** 2 gives, and the rows must be their single runs bitwise."""
        if self.rows is None:
            (tau_v, taudot_v), half = tau_pair, 0.5 * h
            t2 = tau_v**2
        else:
            h, half, tau_v, taudot_v, t2 = (self._stacked(v) for v in zip(*(
                (hb, 0.5 * hb, tau, taudot, tau**2) for hb, (tau, taudot) in zip(h, tau_pair))))
        sp = self.sp
        c_u = self.bilaplacian_coefficient(R)
        prop = self.propagator(half, t2, c_u)

        X = np.empty((sp.d + 1,) + sp.shape)
        X[0] = R
        self.drag_flow(R, M, half, t2, X[1:])
        Xh = self.linear_flow(sp.fwd(X), prop)
        X = sp.inv(Xh)
        R, M, Mh = X[0], X[1:], Xh[1:]

        fz = self.density_forces(R, Xh[0], tau_v, taudot_v)
        k = self.n_rhs(M, Mh, fz, t2, c_u, h)  # k1
        Sh = Mh + k
        k += self.n_rhs(sp.inv(Sh), Sh, fz, t2, c_u, h)  # k1 + k2
        np.multiply(k, 0.25, out=Sh)
        Sh += Mh
        k *= 1.0 / 6.0
        Mh += k  # Mh is Xh[1:]
        del k
        k3 = self.n_rhs(sp.inv(Sh), Sh, fz, t2, c_u, h)
        k3 *= 2.0 / 3.0
        Mh += k3

        X = sp.inv(self.linear_flow(Xh, prop))
        R, M = X[0], X[1:]
        M = self.drag_flow(R, M, half, t2, M)
        M = self.vacuum_sponge(R, M, h, tau_v, taudot_v)
        return R, M


# ---------------------------------------------------------------------------
# public operations


def rhs(state: FluidState, params: ParamSet, tau) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (dR/dt, dM/dt): the generator of
    _Stepper.advance with (tau, taudot) frozen, summed from the stepper's own pieces (the
    linear-block rates, density_forces, n_rhs and drag_rate), so the
    -delta2 c_u lap^2 M split cancels as it does inside a step.  The vacuum
    sponge is a numerical device and is not part of it."""
    grid = state.grid
    tau_v, taudot_v = float(tau[0]), float(tau[1])
    t2 = tau_v**2
    R, M = arrays_from_state(state)
    st = _Stepper(grid, params, float(np.mean(R)), _contrast(R))
    if st.p.eta1 == 0.0 and float(np.min(R)) < -NEG_TOL_REL * max(float(np.max(R)), 1e-300):
        raise SolverError("density below floor (blow-up) with eta1 = 0")
    sp = st.sp
    c_u = st.bilaplacian_coefficient(R)
    a, e = st.linear_symbols(t2, c_u)
    Rh, Mh = sp.fwd(R), sp.fwd(M)
    dR = sp.inv(a * Rh - sp.sum_axes(sp.ik * Mh) / t2)
    fz = st.density_forces(R, Rh, tau_v, taudot_v)
    dM = sp.inv(e * Mh + st.n_rhs(M, Mh, fz, t2, c_u, 1.0)) + st.drag_rate(R, M, t2)
    return dR, dM


def run(
    initial: FluidState,
    params: ParamSet | list,
    t_end: float,
    tau_sol: TauSolution | None = None,
    snapshot_every: int = 0,
    diag_every: int = 1,
) -> Trajectory | list:
    """March the state to t_end (on tau_cover(t_end, initial.t) without
    tau_sol), recording a full record at the start and the end and a core
    one every diag_every-th step (none with diag_every = 0), the core ones
    evaluated in blocks (see the notes).  Stops early (keeping the last
    valid state) with status "floor" when min R < -NEG_TOL_REL max R0,
    "nan" on blow-up, "underflow" below DT_MIN, or "budget" past MAX_STEPS
    (see the notes).

    params may instead be a ladder: a list of ParamSets that differ only in
    dt and delta1 (else ValueError, naming the field), each row starting
    from `initial` on one tau.  run returns the rows' Trajectories, each
    exactly the one run(initial, row, ...) gives.  Every run is one march
    (_march): a single run marches one row; a fixed-dt ladder whose rows
    agree on whether delta1 is on, and which needs no vacuum sponge, marches
    its rows as one stack; any other ladder (CFL, sponge, or rows split on
    delta1) marches its rows one after another."""
    start = time.perf_counter()
    rows = [params] if isinstance(params, ParamSet) else list(params)
    if not rows:
        raise ValueError("a ladder needs at least one row")
    for f in fields(ParamSet):
        if f.name not in ("dt", "delta1") and any(
            getattr(p, f.name) != getattr(rows[0], f.name) for p in rows
        ):
            raise ValueError(f"ladder rows differ in {f.name}; they may differ in dt and delta1")
    if tau_sol is None:
        tau_sol = tau_cover(t_end, initial.t)
    args, p = (t_end, tau_sol, snapshot_every, diag_every), rows[0]
    if len(rows) == 1 or (p.dt_policy == "fixed" and len({q.delta1 > 0 for q in rows}) == 1
                          and _viscous_form(p, _contrast(initial.R)) != "vacuum"):
        trajs = _march(initial, rows, *args, start)
    else:
        trajs = [_march(initial, [q], *args, time.perf_counter())[0] for q in rows]
    return trajs[0] if isinstance(params, ParamSet) else trajs


def check_fixed_steps(dt: float, span: float) -> None:
    """Raise ValueError where steps of a fixed dt over a time span > 0 would
    stop a run before its first step: a dt below DT_MIN, or more than
    MAX_STEPS steps."""
    if span <= 0:
        return
    if dt < DT_MIN:
        raise ValueError(f"dt = {dt!r} is below solver.DT_MIN = {DT_MIN:g}")
    if span / dt > MAX_STEPS:
        raise ValueError(f"dt = {dt:g} takes {span / dt:.4g} steps over t = {span:g}, "
                         f"more than solver.MAX_STEPS = {MAX_STEPS}")


def _march(initial, rows, t_end, tau_sol, snapshot_every, diag_every, start) -> list:
    """run's one loop: the rows' Trajectories from `initial` to t_end, a
    lone row on the single stepper and two or more (a fixed-dt ladder) as
    one stack on the rows stepper.  Each step, the rows that take a step
    (_Row.step_size) advance; the others have finished before it.  The
    stepper and the stack are built again where the rows that step differ
    from the stepper's, so each row is its run alone; a row's timing counts
    the advances it took part in, and its wall_s runs to its own end."""
    grid, R0 = initial.grid, initial.R
    r0 = (float(np.mean(R0)), _contrast(R0))
    neg_tol = NEG_TOL_REL * max(float(np.max(R0)), 1e-300)
    st = _Stepper(grid, rows, *r0)
    out = stepping = [_Row(p, st.r_min, initial, tau_sol, start) for p in st.rows or [st.p]]
    R, M = _stack(stepping)
    end = t_end * (1.0 - 1e-12) if t_end > initial.t else -math.inf

    # a diverging step overflows on its way to inf or nan, an overflowing
    # CFL rate gives dt = 0 and a diverging state records the inf or nan its
    # terms come to; the rows' checks name each failure in the status, so
    # numpy's warnings are not raised
    with np.errstate(**_QUIET):
        for row in out:
            row.record(full=True)
            if snapshot_every:
                row.snapshot()
            row.finite(row.R, row.M)
        live = out
        while live := [row for row in live if row.step_size(st, t_end, end)]:
            if live != stepping:
                st, stepping = _Stepper(grid, [row.p for row in live], *r0), live
                R, M = _stack(live)
            t0, calls0 = time.perf_counter(), st.sp.calls
            if st.rows is None:
                (row,) = live
                R, M = st.advance(R, M, row.h, tau_sol.eval(row.t + 0.5 * row.h))
                steps = ((row, R, M),)
            else:
                R, M = st.advance(R, M, [row.h for row in live],
                                  [tau_sol.eval(row.t + 0.5 * row.h) for row in live])
                steps = zip(live, R, M.swapaxes(0, 1))
            took, calls = time.perf_counter() - t0, st.sp.calls - calls0
            for row, R_new, M_new in steps:
                row.traj.timing["advance_s"] += took
                row.calls += calls
                if row.take(R_new, M_new, neg_tol):
                    row.sample(row.t >= end, diag_every, snapshot_every)
    return [row.traj for row in out]


def _stack(rows) -> tuple:
    """The (R, M) the stepper of the rows takes: a lone row's own, more rows'
    stacked on the row axis."""
    if len(rows) == 1:
        return rows[0].R, rows[0].M
    return np.stack([row.R for row in rows]), np.stack([row.M for row in rows], axis=1)


class _Row:
    """One trajectory of the march: its bound parameters, Trajectory, last
    accepted state (R, M), time, step count, next step (h, family), the
    transforms it took part in, and the (t, R, M) of its core records not
    evaluated yet (see the module notes, Records).  The march sizes,
    accepts, records, snapshots, stops and finishes each step of a
    trajectory through it."""

    def __init__(self, p: ParamSet, r_min: float, initial: FluidState, tau_sol, start: float):
        self.p, self.R, self.M = p, initial.R, initial.M
        self.grid, self.mass_ratio, self.tau_sol, self.start = (
            initial.grid, initial.mass_ratio, tau_sol, start)
        self.traj = Trajectory(params=p, r_min=r_min, timing={
            "advance_s": 0.0, "diagnostics_s": 0.0, "snapshots_s": 0.0})
        self.t, self.k, self.calls, self.h, self.family = initial.t, 0, 0, None, None
        self.pending, self.block = [], diag.stack_rows(self.grid)

    def state(self) -> FluidState:
        return state_from_arrays(self.grid, self.t, self.R, np.ascontiguousarray(self.M),
                                 self.mass_ratio)

    def step_size(self, st: _Stepper, t_end: float, end: float) -> bool:
        """Whether the row takes a next step, whose size h and binding
        family it sets: p.dt under the fixed policy (family None), else
        st.cfl_dt (st is the row's own stepper: a CFL row marches alone)
        capped at p.dt ("dt_cap"), cut to t_end.  A row that has stopped or
        reached end takes none, nor does one whose h is below DT_MIN
        ("underflow") or whose projected step count k + (t_end - t)/h
        passes MAX_STEPS ("budget"), which stop it; a row that takes none
        is finished."""
        p, t = self.p, self.t
        if self.traj.stop is None and t < end:
            if p.dt_policy == "fixed":
                h, family = p.dt, None
            else:
                h, family = st.cfl_dt(self.R, self.M, *self.tau_sol.eval(t))
                if h > p.dt:
                    h, family = p.dt, "dt_cap"
            h = min(h, t_end - t)
            self.h, self.family = h, family
            if not (h < DT_MIN or self.k + (t_end - t) / h > MAX_STEPS):
                return True
            self.stop("underflow" if h < DT_MIN else "budget",
                      np.unravel_index(np.argmin(self.R), self.R.shape))
        self.finish()
        return False

    def finite(self, R, M) -> bool:
        """Whether R and M are finite; else stop the trajectory "nan" at
        the first cell that is not."""
        if np.isfinite(R).all() and np.isfinite(M).all():
            return True
        finite = np.isfinite(R) & np.all(np.isfinite(M), axis=0)
        self.stop("nan", np.unravel_index(np.argmin(finite), R.shape))
        return False

    def take(self, R, M, neg_tol: float) -> bool:
        """Accept the step of size h to (R, M), counting its binding CFL
        family, or stop the trajectory on a non-finite value ("nan") or a
        density below -neg_tol ("floor"); whether the step was accepted."""
        if not self.finite(R, M):
            return False
        if float(R.min()) < -neg_tol:
            self.stop("floor", np.unravel_index(np.argmin(R), R.shape))
            return False
        self.R, self.M, self.t, self.k = R, M, self.t + self.h, self.k + 1
        self.traj.n_steps, family = self.k, self.family
        if family is not None:
            self.traj.cfl_binding[family] = self.traj.cfl_binding.get(family, 0) + 1
        return True

    def sample(self, at_end: bool, diag_every: int, snapshot_every: int) -> None:
        """The record and the snapshot that the accepted step k asks for."""
        if at_end or (diag_every and self.k % diag_every == 0):
            self.record(full=at_end)
        if snapshot_every and (self.k % snapshot_every == 0 or at_end):
            self.snapshot()

    def record(self, full: bool = False) -> None:
        """Record the current state: a core record waits until `block` of
        them are pending, a full one is evaluated at once, after them."""
        if full:
            self.flush()
        self.pending.append((self.t, self.R, self.M))
        if full or len(self.pending) == self.block:
            self.flush(full)

    def flush(self, full: bool = False) -> None:
        """The records of the pending (t, R, M) states, evaluated as one
        stack of states (diagnostics.StateOps)."""
        if not self.pending:
            return
        t0 = time.perf_counter()
        ts, Rs, Ms = zip(*self.pending)
        self.pending = []
        ops = diag.StateOps(self.grid, np.stack(Rs), np.stack(Ms, axis=1), self.traj.r_min, ts)
        calls0 = ops.sp.calls
        self.traj.records += diag.record(ops, self.p, [self.tau_sol.eval(t) for t in ts], full=full)
        self.calls += ops.sp.calls - calls0
        self.traj.times += ts
        self.traj.timing["diagnostics_s"] += time.perf_counter() - t0

    def snapshot(self) -> None:
        t0 = time.perf_counter()
        self.traj.snapshots.append(self.state())
        self.traj.timing["snapshots_s"] += time.perf_counter() - t0

    def stop(self, reason: str, cell) -> None:
        self.traj.status = reason
        self.traj.stop = {"reason": reason, "step": self.k + 1, "t": self.t,
                          "cell": [int(i) for i in cell]}

    def finish(self) -> Trajectory:
        """Evaluate the pending records and close the trajectory: its final
        state and timing (wall_s from the march's start to now)."""
        self.flush()
        traj, timing = self.traj, self.traj.timing
        traj.validate()
        traj.state_final = self.state()
        wall = timing["wall_s"] = time.perf_counter() - self.start
        timing["steps_per_s"] = traj.n_steps / wall if wall > 0 else 0.0
        timing["transforms"] = self.calls
        timing["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return traj


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

    returned as the state R = sqrtR^2, M = sqrtR Lambda (state_from_root);
    Lambda0_sampler(*y) gives the d components of Lambda0.  sqrtR is
    bounded below by theta exactly (the kernel is nonnegative with unit
    discrete mass, and the constant theta convolves to itself), so the
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
    lam = np.stack([np.asarray(c, dtype=float) + np.zeros(grid.shape)
                    for c in Lambda0_sampler(*grid.y)])
    return state_from_root(grid, s, lam)


def state_from_root(grid: Grid, s, lam) -> FluidState:
    """The state of the root s = sqrt R and Lambda = sqrt R U (stacked):
    R = s^2, M = s Lambda, with the mass ratio quad(R) / grid.gaussian_mass."""
    R = s**2
    mass_ratio = grid.quad(R) / grid.gaussian_mass
    return FluidState(t=0.0, grid=grid, R=R, M=s * lam, mass_ratio=mass_ratio)


def drag_schedule(grid: Grid, R0, eps: float = 0.0):
    """Box-size-dependent drag parameters of R0 sampled on grid, ell = grid.ell:
    r0 = 1/(ell + quad(log R0 1_{R0<1})^2),  r1 = 1/ell,  eps_ell = eps + 1/ell."""
    ell = grid.ell
    logneg = np.where(R0 < 1.0, np.log(np.maximum(R0, diag.LOG_FLOOR)), 0.0)
    intlog = grid.quad(logneg)
    return 1.0 / (ell + intlog**2), 1.0 / ell, eps + 1.0 / ell
