"""Energy, entropy and identity diagnostics for fluid states.

Every functional of the self-similar system is evaluated by quadrature
on the torus.  Conventions used throughout:

* 0 log 0 = 0; logarithms of the density are taken as log(max(R, 1e-30)),
  so floored cells contribute <= 1e-28 per cell to R log R;
* R |grad log R|^2 is evaluated as 4 |grad sqrt(R)|^2 (exact for R > 0 and
  the correct extension by 0 on vacuum);
* in the balance functionals R |hess log R|^2 is evaluated on R > r_floor
  through the split hess R / R - grad R x grad R / R^2
  (StateOps.hess_logR_split);
* kinetic quantities use Lambda = M / sqrt(rho_sm), so R|U|^2 = |Lambda|^2
  up to the floor's bias; U itself is M / rho_sm, rho_sm =
  smooth_density(R, r_floor), the solver's recovery (r_floor: see StateOps).

Stacks.  A StateOps is the table of one state's derived arrays, built from
(R, M, r_floor), the stepper's or a FluidState's.  A vector (Lambda, U, the
momentum sqrt R Lambda, a gradient) is a (d,) + grid.shape stack, grad U a
(d, d) one with grad_U[j, i] = d_i U_j, and a Hessian the stack of its upper
entries in sp.hess_keys order.

Terms.  Each functional is a sum of named term integrals (_TERMS) with
coefficients from the parameters and tau; StateOps.q computes each term once
per state, and a term whose coefficient vanishes is not evaluated.  `record`
first notes what its columns transform, then makes those transforms in one
StateOps.fetch: each group as one Spectral.batch, the fields built from
derivatives (lap log R, lap sqrt R / sqrt R, the Korteweg stress) in a
second stage.

Parseval.  Quadratures of products of linear derivatives of one field
(|grad lap^s R|^2, (lap^(s+1) R)^2, |grad rho_tilde^(-alpha/2)|^2, |lap U|^2,
lap U . grad lap log R) are taken on the half spectrum by Spectral.inner,
with no inverse transform; under the Nyquist rule of the spectral module
they equal the grid sums of the inverses up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .params import ParamSet
from .rescaling import FluidState, smooth_density, vacuum_floor
from .spectral import Grid

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


def _dot(grid: Grid, a, b) -> float:
    """quad(a b), summed over the stack components as well."""
    return float(grid.weight * np.vdot(a, b))


def _gaussian(grid: Grid):
    """(exp(-|y|^2), its quadrature), built once per grid."""

    def build():
        g = np.exp(-grid.r2)
        return g, grid.quad(g)

    return grid.spectral.cached("gaussian", build)


def matched_gaussian(grid: Grid, mass: float) -> np.ndarray:
    """Discrete periodized Gaussian exp(-|y|^2) rescaled to the given mass."""
    g, z = _gaussian(grid)
    return g * (mass / z)


def korteweg_stress(sp, s) -> np.ndarray:
    """The Korteweg stress s hess s - grad s x grad s as a (d, d) stack (row
    j holds the entries i = 0..d-1), whose row divergence is
    R grad(lap s / s) for s = sqrt R: its upper entries mirrored through
    sp.hess_full (see korteweg_stress_entries).  s is the root, or the
    StateOps of a state, whose root and derivatives it then takes."""
    if isinstance(s, StateOps):
        return korteweg_stress_entries(sp, s.s, s["grad_s"], s["hess_s"])[sp.hess_full]
    derivs = sp.inv(sp.deriv_sym * sp.fwd(s))
    return korteweg_stress_entries(sp, s, derivs[: sp.d], derivs[sp.d :])[sp.hess_full]


def korteweg_stress_entries(sp, s, gs, hs) -> np.ndarray:
    """The upper entries (i <= j, in sp.hess_keys order) of the symmetric
    Korteweg stress s d_i d_j s - d_i s d_j s, from grad s and the upper
    Hessian entries of s.  The solver's force takes the dealiased
    divergence of the mirrored rows."""
    i, j = sp.hess_upper
    return s * hs - gs[i] * gs[j]


# ---------------------------------------------------------------------------
# the derived-array table of one state


# fields that go forward, each as a stack along one leading axis ("neg" takes
# alpha); the late ones are built from the derivatives _LATE lists, so a fetch
# transforms them in a second stage
_FIELDS = {
    "R": lambda o: o.R[None],
    "s": lambda o: o.s[None],
    "U": lambda o: o.U,
    "mom": lambda o: o.mom,
    "logR": lambda o: o.logR[None],
    "root_s": lambda o: np.sqrt(o.s)[None],
    "neg": lambda o, alpha: o.neg(alpha)[None],
    "laplog": lambda o: o.sp.trace(o.hess_logR_split)[None],
    "ks": lambda o: o.ks[None],
    "stress": lambda o: o.stress,
}
_LATE = {"laplog": ("grad_R", "hess_R"), "ks": ("hess_s",), "stress": ("grad_s", "hess_s")}

# derivatives that come back from the coefficients of one field
_DERIVS = {
    "grad_s": ("s", lambda sp, h: sp.ik * h),
    "hess_s": ("s", lambda sp, h: sp.hess_sym * h),
    "grad_R": ("R", lambda sp, h: sp.ik * h),
    "hess_R": ("R", lambda sp, h: sp.hess_sym * h),
    "grad_U": ("U", lambda sp, h: sp.apply(sp.ik, h)),  # [j, i] = d_i U_j
    "grad_mom": ("mom", lambda sp, h: sp.apply(sp.ik, h)),
    "div_mom": ("mom", lambda sp, h: sp.sum_axes(sp.ik * h)),
    "grad_logR": ("logR", lambda sp, h: sp.ik * h),
    # the spectral Hessian of log R, for the identity checks on R > 0
    "hess_logR": ("logR", lambda sp, h: sp.hess_sym * h),
    "grad_root_s": ("root_s", lambda sp, h: sp.ik * h),
    "grad_ks": ("ks", lambda sp, h: sp.ik * h),
    # row divergences of the Korteweg stress
    "div_stress": ("stress", lambda sp, h: sp.sum_axes(sp.ik * h[sp.hess_full])),
}


def _key(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


class StateOps:
    """Derived arrays of one state, each computed once and shared between
    functionals: the density and its root, Lambda, U, the coefficients of
    the fields (hat), their derivatives (ops[name], see _DERIVS) and the
    term integrals (q, see _TERMS).

    Built from R (raw, so min_density is the raw minimum; StateOps.R is
    max(R, 0)) and M = R U, with Lambda = M / sqrt(rho_sm).  r_floor is the
    density floor of rho_sm = smooth_density(R, r_floor), of the eta1
    clamp rho_tilde = max(R, r_floor) and of the live set of
    R |hess log R|^2; record passes the solver's r_min, and it defaults to
    rescaling.vacuum_floor(R).  Without M the momentum is zero."""

    def __init__(self, grid: Grid, R, M=None, r_floor: float | None = None, t: float = 0.0):
        self.grid, self.sp, self.t = grid, grid.spectral, t
        self._R_raw = R = np.asarray(R, dtype=float)
        self.R = np.maximum(R, 0.0)
        self.s = np.sqrt(self.R)
        self._cache, self._hat, self._arr, self._terms, self._plan = {}, {}, {}, {}, None
        if r_floor is not None:
            self._cache["r_floor"] = r_floor
        if M is None:
            self.lam = np.zeros((grid.d,) + grid.shape)
        else:
            # rho_sm of the raw R, as the solver recovers U
            root = self._cache["root"] = np.sqrt(smooth_density(R, self.r_floor))
            self.lam = M / root

    @classmethod
    def of(cls, x, r_floor: float | None = None) -> "StateOps":
        """x itself when it is already a StateOps, else the ops of the
        FluidState x."""
        if isinstance(x, StateOps):
            return x
        return cls(x.grid, x.R, x.M, r_floor, x.t)

    # -- transforms and term integrals --------------------------------------

    def fetch(self, *names) -> None:
        """Transform what the named fields (_FIELDS keys, forward only) and
        derivatives (_DERIVS) need and the table does not hold yet: the
        fields forward as one Spectral.batch and the derivatives back as one
        more; the late fields, and what they are built from, in two such
        stages.  Only the named fields keep their coefficients."""
        todo = {}  # name: the key of the field it needs
        for n in names:
            key = todo[n] = (_DERIVS[n][0],) if n in _DERIVS else _key(n)
            if key[0] in _LATE:
                todo.update({dep: (_DERIVS[dep][0],) for dep in _LATE[key[0]]})
        named = {todo[n] for n in names if n not in _DERIVS}
        early = {n: key for n, key in todo.items() if key[0] not in _LATE}
        self._transform(early, named)
        if len(early) < len(todo):
            self._transform({n: key for n, key in todo.items() if n not in early}, named)

    def _transform(self, todo: dict, named: set) -> None:
        """One stage of fetch: the fields forward in one batch, the
        derivatives back in one more."""
        sp, lead = self.sp, {}
        todo = {n: key for n, key in todo.items() if n not in self._arr}
        fields = dict.fromkeys(key for key in todo.values() if key not in self._hat)
        if fields:
            stacks = {key: _FIELDS[key[0]](self, *key[1:]) for key in fields}
            self._hat.update(sp.batch(sp.fwd, stacks))

        def coefficients(n, key):
            c = _DERIVS[n][1](sp, self._hat[key])
            lead[n] = c.shape[: c.ndim - sp.d]
            return c.reshape((-1,) + sp.half_shape)

        parts = {n: partial(coefficients, n, key) for n, key in todo.items() if n in _DERIVS}
        if parts:
            for n, x in sp.batch(sp.inv, parts).items():
                self._arr[n] = x.reshape(lead[n] + sp.shape)
        for key in fields.keys() - named:
            del self._hat[key]

    def hat(self, key) -> np.ndarray:
        """The coefficients of a field (a _FIELDS key), with its stack axis."""
        if _key(key) not in self._hat:
            self.fetch(key)
        return self._hat[_key(key)]

    def keep(self, *names) -> None:
        """Drop the coefficients and every derivative but the named ones,
        once the terms that read them are integrated."""
        self._hat.clear()
        self._arr = {n: self._arr[n] for n in names if n in self._arr}

    def __getitem__(self, name) -> np.ndarray:
        """The derivative `name` of _DERIVS."""
        if name not in self._arr:
            self.fetch(name)
        return self._arr[name]

    def q(self, key) -> float:
        """The term integral `key` of _TERMS (a name, or a tuple of a name
        and its arguments), computed once."""
        out = self._terms.get(key)
        if out is None:
            name, args = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
            out = self._terms[key] = float(_TERMS[name][1](self, *args))
        return out

    def total(self, *terms) -> float:
        """The sum of c * q(key) over the (c, key) pairs whose c != 0; while
        `planned` runs, it notes what they transform instead and returns 0."""
        if self._plan is not None:
            for c, key in terms:
                if c != 0.0:
                    self._plan.update(dict.fromkeys(_needs(_key(key))))
            return 0.0
        out = 0.0
        for c, key in terms:
            if c != 0.0:
                out += c * self.q(key)
        return out

    def planned(self, evaluate) -> list:
        """What the totals of evaluate() transform, noted without
        transforming or integrating anything."""
        self._plan = {}
        try:
            evaluate()
            return list(self._plan)
        finally:
            self._plan = None

    # -- pointwise arrays, each built on first use ----------------------------

    def _get(self, key, build):
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    @property
    def r_floor(self) -> float:
        return self._get("r_floor", lambda: vacuum_floor(self.R))

    @property
    def min_density(self) -> float:
        """The raw minimum of R."""
        return self._get("min", lambda: float(self._R_raw.min()))

    @property
    def U(self):
        """The solver's recovery U = M / rho_sm = Lambda / sqrt(rho_sm)."""
        root = self._get("root", lambda: np.sqrt(smooth_density(self.R, self.r_floor)))
        return self._get("U", lambda: self.lam / root)

    @property
    def mom(self):
        """sqrt R Lambda = R U."""
        return self._get("mom", lambda: self.s * self.lam)

    @property
    def lam2(self):
        return self._get("lam2", lambda: (self.lam * self.lam).sum(axis=0))

    @property
    def U2(self):
        return self._get("U2", lambda: (self.U * self.U).sum(axis=0))

    @property
    def rho_tilde(self):
        return self._get("rt", lambda: np.maximum(self.R, self.r_floor))

    @property
    def logR(self):
        return self._get("logR", lambda: np.log(np.maximum(self.R, LOG_FLOOR)))

    def neg(self, alpha):
        """rho_tilde^(-alpha/2)."""
        return self._get(("neg", alpha), lambda: self.rho_tilde ** (-alpha / 2.0))

    @property
    def lapR_rt(self):
        """lap R / rho_tilde, lap R the trace of hess R."""
        return self._get("lapR_rt", lambda: self.sp.trace(self["hess_R"]) / self.rho_tilde)

    @property
    def ks(self):
        """lap sqrt R / sqrt R, lap sqrt R the trace of hess sqrt R."""
        return self._get("ks", lambda: self.sp.trace(self["hess_s"]) / self.s)

    @property
    def stress(self):
        """The upper entries of korteweg_stress (sp.hess_keys order)."""
        return self._get(
            "stress", lambda: np.asarray(korteweg_stress(self.sp, self))[self.sp.hess_upper]
        )

    @property
    def hess_logR_split(self):
        """Hessian of log R through the algebraic split
        d_i d_j log R = (d_i d_j R)/R - (d_i R)(d_j R)/R^2 with floored
        divisions.  Differentiating log(max(R, floor)) spectrally is unusable
        on states with vacuum tails: round-off ringing there flips cells onto
        the floor, and the resulting log jumps pollute the global transform."""

        def build():
            rho, gR, (i, j) = self.rho_tilde, self["grad_R"], self.sp.hess_upper
            return (self["hess_R"] - gR[i] * gR[j] / rho) / rho

        return self._get("hlog", build)


def _inner(o: StateOps, a, b) -> float:
    """quad of the product of two fields from their coefficients (Parseval)."""
    return o.grid.weight * o.sp.inner(a, b)


# The term integrals, by name: (what they transform, (ops, *args) -> value);
# the transforms are _FIELDS or _DERIVS keys, or a function of the term's
# arguments that returns them.
_TERMS = {
    "R": ((), lambda o: o.grid.quad(o.R)),
    "Rr2": ((), lambda o: _dot(o.grid, o.R, o.grid.r2)),
    "RlogR": ((), lambda o: _dot(o.grid, o.R, o.logR)),
    "logR": ((), lambda o: o.grid.quad(o.logR)),
    "logR_le1": ((), lambda o: o.grid.quad(np.where(o.R <= 1.0, o.logR, 0.0))),
    "lam2": ((), lambda o: o.grid.quad(o.lam2)),
    "U2": ((), lambda o: o.grid.quad(o.U2)),
    "lam2U2": ((), lambda o: _dot(o.grid, o.lam2, o.U2)),
    # quad(rho_tilde^(-alpha)), as the square of the transformed field
    "rtneg": ((), lambda o, alpha: _dot(o.grid, o.neg(alpha), o.neg(alpha))),
    "gs2": (("grad_s",), lambda o: _dot(o.grid, o["grad_s"], o["grad_s"])),
    "lgs": (("grad_s",), lambda o: _dot(o.grid, o.lam, o["grad_s"])),
    # R |grad U|^2 and R grad U : grad U^T; R |DU|^2 and R |AU|^2 are their
    # half sum and half difference
    "RgU2": (("grad_U",), lambda o: _dot(o.grid, o["grad_U"], o.R * o["grad_U"])),
    "RgUgUT": (("grad_U",), lambda o: _dot(o.grid, o["grad_U"].swapaxes(0, 1), o.R * o["grad_U"])),
    "RDU2": (("grad_U",), lambda o: 0.5 * (o.q("RgU2") + o.q("RgUgUT"))),
    "RAU2": (("grad_U",), lambda o: 0.5 * (o.q("RgU2") - o.q("RgUgUT"))),
    "RdivU": (("grad_U",), lambda o: _dot(o.grid, o.R, np.trace(o["grad_U"]))),
    "RhlogR2": (
        ("grad_R", "hess_R"),
        lambda o: _dot(o.grid, np.where(o.R > o.r_floor, o.R, 0.0), o.sp.frob2(o.hess_logR_split)),
    ),
    "U2UgR": (("grad_R",), lambda o: _dot(o.grid, o.U2 * o.U, o["grad_R"])),
    "lapR_rt": (("hess_R",), lambda o: o.grid.quad(o.lapR_rt)),
    "lapR_divmom": (("hess_R", "div_mom"), lambda o: _dot(o.grid, o.lapR_rt, o["div_mom"])),
    # sum_ij d_i U_j d_i R d_j log R
    "mix": (
        ("grad_U", "grad_R", "grad_logR"),
        lambda o: _dot(o.grid, o["grad_logR"], o.sp.sum_axes(o["grad_U"] * o["grad_R"])),
    ),
    # Parseval: |grad lap^p R|^2, (lap^p R)^2, |grad rho_tilde^(-alpha/2)|^2,
    # |lap U|^2 and lap U . grad lap log R (lap log R the trace of
    # hess_logR_split)
    "glR2": (("R",), lambda o, p: _inner(o, o.hat("R"), o.sp.grad_lap_norm(p) * o.hat("R"))),
    "lapR2": (("R",), lambda o, p: _inner(o, o.hat("R"), o.sp.lap_symbol(2 * p) * o.hat("R"))),
    "gneg2": (
        lambda alpha: (("neg", alpha),),
        lambda o, a: _inner(o, o.hat(("neg", a)), o.sp.grad_lap_norm(0) * o.hat(("neg", a))),
    ),
    "lapU2": (("U",), lambda o: _inner(o, o.hat("U"), o.sp.lap_symbol(2) * o.hat("U"))),
    "lapU_glaplog": (
        ("U", "laplog"),
        lambda o: _inner(o, o.hat("U"), o.sp.grad_lap_symbol(1) * o.hat("laplog")),
    ),
    # R |hess log R|^2 with the spectral Hessian of log R (identity checks)
    "RhlogR2_sp": (("hess_logR",), lambda o: _dot(o.grid, o.R, o.sp.frob2(o["hess_logR"]))),
}


def _needs(key: tuple) -> tuple:
    needs = _TERMS[key[0]][0]
    return needs(*key[1:]) if callable(needs) else needs


def _times(c: float, terms) -> list:
    return [(c * a, key) for a, key in terms]


# ---------------------------------------------------------------------------
# energy / dissipation of the plain system


_POTENTIAL = [(1.0, "Rr2"), (1.0, "RlogR")]  # quad(R |y|^2 + R log R)


def _kinetic(eps: float, eta2: float = 0.0, s: int | None = None) -> list:
    """The terms of quad(R|U|^2 + eps^2 |grad sqrt R|^2 + eta2 |grad lap^s R|^2)."""
    return [(1.0, "lam2"), (eps**2, "gs2"), (eta2, ("glR2", s))]


def energy(state: FluidState | StateOps, tau, eps: float) -> float:
    """Self-similar pseudo-energy
    (1/2 tau^2) quad(R|U|^2 + eps^2 |grad sqrt R|^2) + quad(R|y|^2 + R log R)."""
    kin = _times(1.0 / (2 * tau[0] ** 2), _kinetic(eps))
    return StateOps.of(state).total(*kin, *_POTENTIAL)


def dissipation(state: FluidState | StateOps, tau, eps: float, nu: float) -> float:
    """(taudot/tau^3) quad(R|U|^2 + eps^2|grad sqrt R|^2) + (nu/tau^4) quad(R |DU|^2)."""
    tau_v, taudot_v = tau
    rate = _times(taudot_v / tau_v**3, _kinetic(eps))
    return StateOps.of(state).total(*rate, (nu / tau_v**4, "RDU2"))


# ---------------------------------------------------------------------------
# BD entropy family


def bd_entropy(
    state: FluidState | StateOps, tau, eps: float, nu: float, r0: float = 0.0
) -> float:
    """BD entropy; with r0 > 0 includes the drag term -2 r0 (log R) 1_{R<=1}.
    R |U + nu grad log R|^2 is expanded without division:
    |Lambda|^2 + 4 nu Lambda . grad sqrt R + 4 nu^2 |grad sqrt R|^2."""
    kin = [(1.0, "lam2"), (4.0 * nu, "lgs"), (4.0 * nu**2 + eps**2, "gs2"),
           (-2.0 * r0, "logR_le1")]
    return StateOps.of(state).total(*_times(1.0 / (2 * tau[0] ** 2), kin), *_POTENTIAL)


def bd_dissipation(state: FluidState | StateOps, tau, eps: float, nu: float) -> float:
    tau_v, taudot_v = tau
    t4 = tau_v**4
    return StateOps.of(state).total(
        *_times(taudot_v / tau_v**3, _kinetic(eps)),
        (4.0 * nu / tau_v**2, "gs2"), (nu / t4, "RAU2"), (nu * eps**2 / t4, "RhlogR2"),
    )


# ---------------------------------------------------------------------------
# regularized energy / dissipation (the discrete balance checked by the solver)


def _eta_potential(p: ParamSet, tau) -> list:
    """The terms of eta1/(alpha+1) quad(rho_tilde^(-alpha))
    + eta2/(2 tau^2) quad(|grad lap^s R|^2), the regularization potential
    shared by energy_reg and bd_entropy_reg."""
    c1 = p.eta1 / (p.alpha + 1.0) if p.eta1 > 0 else 0.0
    return [(c1, ("rtneg", p.alpha)), (p.eta2 / (2 * tau[0] ** 2), ("glR2", p.s))]


def _diffusion_dissipation(p: ParamSet, tau, c: float) -> list:
    """The terms of the dissipation of the entropy and eta potentials by a
    density diffusion c lap R / tau^2: (c/tau^2) quad(4 |grad sqrt R|^2
    + (4 eta1/alpha) |grad rho_tilde^(-alpha/2)|^2) + (c eta2/tau^4) quad((lap^(s+1) R)^2).
    c is delta1 in the energy balance, nu in the BD identity, and nu + delta1
    in the regularized BD dissipation: the term integrals are shared."""
    t2 = tau[0] ** 2
    c1 = 4.0 * p.eta1 / (p.alpha * t2) if p.eta1 > 0 else 0.0
    return _times(c, [(4.0 / t2, "gs2"), (c1, ("gneg2", p.alpha)),
                      (p.eta2 / t2**2, ("lapR2", p.s + 1))])


def _velocity_damping(p: ParamSet, tau) -> list:
    """The terms of (1/tau^4) quad(delta2 |lap U|^2 + r0 |U|^2 + r1 R |U|^4),
    the delta2 and drag dissipation of dissipation_reg and bd_dissipation_reg."""
    t4 = tau[0] ** 4
    return [(p.delta2 / t4, "lapU2"), (p.r0 / t4, "U2"), (p.r1 / t4, "lam2U2")]


def energy_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    ops = StateOps.of(state)
    return energy(ops, tau, params.eps) + ops.total(*_eta_potential(params, tau))


def dissipation_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    p = params
    tau_v, taudot_v = tau
    t4 = tau_v**4
    return StateOps.of(state).total(
        *_times(taudot_v / tau_v**3, _kinetic(p.eps, p.eta2, p.s)),
        (p.nu / t4, "RDU2"),
        *_diffusion_dissipation(p, tau, p.delta1),
        (p.delta1 * p.eps**2 / (2 * t4), "RhlogR2"),
        *_velocity_damping(p, tau),
    )


def bd_entropy_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    """Positive part of the regularized BD entropy (drag log-term truncated
    to {R <= 1}, plus the eta contributions)."""
    p, ops = params, StateOps.of(state)
    return bd_entropy(ops, tau, p.eps, p.nu, p.r0) + ops.total(*_eta_potential(p, tau))


def bd_dissipation_reg(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    # sum of the energy-identity and BD-identity dissipations; adding the
    # two derivations gives the density-diffusion coefficient nu + delta1.
    # The drag term 2 r0 nu (taudot/tau^3) quad(|log R| 1_{R<1}) is read off
    # quad(log R 1_{R<=1}) <= 0.
    p = params
    tau_v, taudot_v = tau
    t4 = tau_v**4
    chess = p.delta1 * p.nu**2 + p.nu * p.eps**2 + p.delta1 * p.eps**2 / 2.0
    return StateOps.of(state).total(
        *_times(taudot_v / tau_v**3, _kinetic(p.eps, p.eta2, p.s)),
        (-2.0 * p.r0 * p.nu * taudot_v / tau_v**3, "logR_le1"),
        (chess / t4, "RhlogR2"),
        *_diffusion_dissipation(p, tau, p.nu + p.delta1),
        (p.nu / t4, "RAU2"),
        *_velocity_damping(p, tau),
    )


def balance_rhs(state: FluidState | StateOps, params: ParamSet, tau) -> float:
    """Right side of the regularized energy balance:
    2 d delta1 / tau^2 quad(R) - nu taudot / tau^3 quad(R div U)."""
    ops, p = StateOps.of(state), params
    tau_v, taudot_v = tau
    return ops.total(
        (2.0 * ops.grid.d * p.delta1 / tau_v**2, "R"), (-p.nu * taudot_v / tau_v**3, "RdivU")
    )


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
    nu, t4 = p.nu, tau_v**4
    # R U . grad log R = U . grad R = 2 Lambda . grad sqrt R (no division).
    # The transported functional carries -r0 nu log R and the dissipation
    # carries (delta1 nu^2 + eps^2 nu / 4) R |hess log R|^2: both follow from
    # re-deriving the drag-term rewrite and the Korteweg pairing
    # (int R grad(lap sqrt R / sqrt R) . grad log R = -1/2 int R |hess log R|^2,
    # so the eps^2/2-weighted force contributes eps^2/4), and both are
    # confirmed by the residual vanishing at the scheme's order.
    f = ops.total(*_times(1.0 / tau_v**2, [(2.0 * nu, "lgs"), (2.0 * nu**2, "gs2"),
                                           (-p.r0 * nu, "logR")]))
    diss = ops.total(
        *_times(2.0 * nu * taudot_v / tau_v**3, [(2.0, "lgs"), (-p.r0, "logR")]),
        *_diffusion_dissipation(p, tau, nu),
        ((p.delta1 * nu**2 + p.eps**2 * nu / 4.0) / t4, "RhlogR2"),
    )
    rhs = ops.total(
        (2.0 * ops.grid.d * nu / tau_v**2, "R"),
        (nu / t4, "RgUgUT"),
        (-p.r1 * nu / t4, "U2UgR"),
        (-p.r0 * nu * p.delta1 / t4, "lapR_rt"),
        (-p.delta1 * nu / t4, "mix"),
        (-p.delta1 * nu / t4, "lapR_divmom"),
        (-p.delta2 * nu / t4, "lapU_glaplog"),
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


def relative_entropy(R: FluidState | StateOps) -> float:
    """quad(R log(R / Gamma_m)) with Gamma_m the mass-matched periodized
    Gaussian: log Gamma_m = -|y|^2 + log(m / quad(exp(-|y|^2))), so this is
    quad(R log R) + quad(R |y|^2) - m log(m / quad(exp(-|y|^2)))."""
    ops = StateOps.of(R)
    m = ops.q("R")
    shift = m * math.log(m / _gaussian(ops.grid)[1]) if m > 0 else 0.0
    return ops.q("RlogR") + ops.q("Rr2") - shift


def csiszar_kullback_gap(R: FluidState | StateOps) -> float:
    """quad(R log(R/Gamma_m)) - |R - Gamma_m|_L1^2 / (2 m), m = quad(R).

    Nonnegative (up to roundoff) by the Csiszar-Kullback/Pinsker inequality,
    which holds exactly for the discrete lattice measure."""
    ops = StateOps.of(R)
    m = ops.q("R")
    l1 = ops.grid.quad(np.abs(ops.R - matched_gaussian(ops.grid, m)))
    return relative_entropy(ops) - l1**2 / (2.0 * m)


# ---------------------------------------------------------------------------
# algebraic identities (Korteweg, log-Hessian, Jungel)


def korteweg_identity_residual(R: FluidState | StateOps) -> float:
    """Normalized L2 mismatch of
    R grad(lap sqrt R / sqrt R) = div(sqrt R hess sqrt R - grad sqrt R x grad sqrt R)."""
    ops = StateOps.of(R)
    if ops.s.min() <= 0:
        raise ValueError("sqrtR must be strictly positive for the identity check")
    ops.fetch("grad_ks", "div_stress")
    diff = ops.R * ops["grad_ks"] - ops["div_stress"]
    num = math.sqrt(_dot(ops.grid, diff, diff))
    den = math.sqrt(_dot(ops.grid, ops["div_stress"], ops["div_stress"]))
    return num / max(den, 1e-300)


def loghess_identity_residual(R: FluidState | StateOps) -> float:
    """Normalized mismatch of  1/2 quad(R |hess log R|^2) = quad((lap sqrt R / sqrt R) lap R)."""
    ops = StateOps.of(R)
    if ops.min_density <= 0:
        raise ValueError("R must be strictly positive for the identity check")
    ops.fetch("hess_logR", "hess_R", "hess_s")
    left = 0.5 * ops.q("RhlogR2_sp")
    right = _dot(ops.grid, ops.ks, ops.sp.trace(ops["hess_R"]))
    return abs(left - right) / max(abs(left), 1e-300)


def jungel_quantities(R: FluidState | StateOps) -> tuple[float, float]:
    """(quad|hess sqrt R|^2 + quad|grad R^(1/4)|^4,  quad R |hess log R|^2);
    equivalent up to implicit constants, reported without assertion."""
    ops = StateOps.of(R)
    ops.fetch("hess_s", "grad_root_s", "hess_logR")
    g = ops.grid
    left = g.quad(ops.sp.frob2(ops["hess_s"]))
    g4 = np.sum(ops["grad_root_s"] ** 2, axis=0)
    left += _dot(g, g4, g4)
    return float(left), ops.q("RhlogR2_sp")


# ---------------------------------------------------------------------------
# weak-solution compatibility tensors and irrotationality


def compatibility_residuals(state: FluidState | StateOps) -> tuple[float, float]:
    """Residuals of the compatibility relations on positive-density cells:

    sqrtR T_N = grad(sqrtR Lambda) - 2 Lambda x grad sqrtR, with T_N = sqrtR grad U;
    S_K two-way evaluation: sqrtR hess sqrtR - grad sqrtR x grad sqrtR
                            = hess(R)/2 - 2 grad sqrtR x grad sqrtR.
    """
    ops = StateOps.of(state)
    ops.fetch("grad_s", "hess_s", "hess_R", "grad_U", "grad_mom")
    sp = ops.sp
    live = (ops.R > ops.r_floor).astype(float)
    gs = ops["grad_s"]
    # entries [j, i]: d_i of the component j, of R grad U and of its two
    # pieces grad(sqrtR Lambda) and 2 Lambda x grad sqrtR
    grad_piece = ops["grad_mom"]
    cross_piece = ops.lam[:, None] * gs[None, :]
    cross_piece *= 2.0
    diff = ops.R * ops["grad_U"]
    diff -= grad_piece
    diff += cross_piece
    num = _dot(ops.grid, live, np.square(diff, out=diff).sum(axis=(0, 1)))
    # scale by the ingredients so exact cancellations score zero
    cross_piece *= cross_piece
    cross_piece += np.square(grad_piece, out=diff)
    den = _dot(ops.grid, live, cross_piece.sum(axis=(0, 1)))
    tn_res = math.sqrt(num) / max(math.sqrt(den), 1e-300)

    i, j = sp.hess_upper
    gg = gs[i] * gs[j]
    hR, a = ops["hess_R"], ops.stress
    num = sp.frob2(a - 0.5 * hR + 2.0 * gg).sum()
    # a + grad_i sqrtR grad_j sqrtR = sqrtR d_i d_j sqrtR
    den = sp.frob2(a + gg).sum() + 0.25 * sp.frob2(hR).sum()
    sk_res = math.sqrt(num) / max(math.sqrt(den), 1e-300)
    return tn_res, sk_res


def irrotationality_residual(state: FluidState | StateOps) -> float:
    """Normalized residual of  curl j = 2 grad sqrtR wedge Lambda  (j = sqrtR Lambda);
    identically zero in one dimension."""
    ops = StateOps.of(state)
    g = ops.grid
    if g.d == 1:
        return 0.0
    ops.fetch("grad_s", "grad_mom")
    gs, lam = ops["grad_s"], ops.lam
    gj = ops["grad_mom"]  # gj[c, i] = d_i j_c
    a, b = ([0], [1]) if g.d == 2 else ([1, 2, 0], [2, 0, 1])
    curl = gj[b, a] - gj[a, b]
    target = 2.0 * (gs[a] * lam[b] - gs[b] * lam[a])
    num = _dot(g, curl - target, curl - target)
    den = _dot(g, curl, curl) + _dot(g, target, target)
    return math.sqrt(num) / max(math.sqrt(den), 1e-300)


# ---------------------------------------------------------------------------
# L log L constructive bound


def _llogl_tables(grid: Grid, p_neg: float):
    """The grid's sorted radii |y| and the reversed cumulative sums of
    max(|y|, dy 1e-6)^(-p_neg) over them (a trailing 0 past the largest),
    built once per grid and p_neg."""

    def build():
        rad = np.sort(np.sqrt(grid.r2), axis=None)
        far = np.maximum(rad, grid.dy * 1e-6) ** (-p_neg)
        return rad, np.append(np.cumsum(far[::-1])[::-1], 0.0)

    return grid.spectral.cached(("llogl", p_neg), build)


def llogl_bound(state: FluidState | StateOps, beta: float) -> tuple[float, float]:
    """(value, bound) for the L log L control of |f|^2 in terms of the L2 norm,
    the momentum |y| f and the discrete H1 norm, where f = sqrt R is the
    root of the state.

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
    ops = StateOps.of(state)
    g = ops.grid
    if not 0.0 < beta < 4.0 / (g.d + 2):
        raise ValueError(f"beta must lie in (0, 4/(d+2)) = (0, {4.0/(g.d+2):.4f})")
    # |f|^2 = R, and log(max(R, LOG_FLOOR)) vanishes with R on {R = 0}
    value = _dot(g, ops.R, np.abs(ops.logR))

    cpt = 2.0 / (math.e * beta)  # max of t^(beta/2) |log t| on (0,1] and [1,inf)
    l2 = math.sqrt(ops.q("R"))
    yf = math.sqrt(ops.q("Rr2"))
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
    rad, tail = _llogl_tables(g, p_neg)
    n_near = np.searchsorted(rad, np.fromiter(cand, float), side="right")
    v_kappa = g.weight * n_near
    w_kappa = g.weight * tail[n_near]
    b_small = l2 ** (2.0 - beta) * v_kappa ** (beta / 2.0) + yf ** (
        2.0 - beta
    ) * w_kappa ** (beta / 2.0)
    small_best = float(b_small.min())

    h1 = ops.q("R") + ops.q("gs2")
    s_grid = g.spectral.cached("sobolev", lambda: float(np.sum(1.0 / (1.0 + g.k2))))
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


# what the full tier transforms besides its columns' terms: for the
# compatibility, irrotationality and L log L functions, then for the
# identities on R > 0
_FULL_NEEDS = ("grad_s", "hess_s", "hess_R", "grad_U", "grad_mom")
_IDENTITY_NEEDS = ("hess_logR", "grad_root_s", "grad_ks", "div_stress")


def _columns(ops: StateOps, p: ParamSet, tau, full: bool) -> dict:
    """The value columns of a record but its moments."""
    cols = {
        "energy": energy(ops, tau, p.eps),
        "dissipation": dissipation(ops, tau, p.eps, p.nu),
        "energy_reg": energy_reg(ops, p, tau),
        "dissipation_reg": dissipation_reg(ops, p, tau),
        "balance_rhs": balance_rhs(ops, p, tau),
        "bd_entropy": bd_entropy(ops, tau, p.eps, p.nu, p.r0),
        "bd_dissipation": bd_dissipation(ops, tau, p.eps, p.nu),
    }
    cols["bdid_f"], cols["bdid_diss"], cols["bdid_rhs"] = bd_identity_terms(ops, p, tau)
    if full:
        cols["bd_entropy_reg"] = bd_entropy_reg(ops, p, tau)
        cols["bd_dissipation_reg"] = bd_dissipation_reg(ops, p, tau)
    return cols


def record(
    state: FluidState | StateOps,
    params: ParamSet,
    tau,
    full: bool = False,
    r_floor: float | None = None,
) -> DiagnosticsRecord:
    """Evaluate the diagnostics family on one state (a StateOps, such as the
    one run builds from the stepper's (R, M, r_min), or a FluidState).

    The core tier (always computed) carries everything needed for the
    time-integrated balance residuals; full=True adds the identity residuals
    and entropy comparisons (meaningful on smooth positive states).  Every
    transform that the columns and the identity functions need is made up
    front, in one fetch.
    """
    ops, p, g = StateOps.of(state, r_floor), params, state.grid
    positive = ops.min_density > 0
    ops.fetch(
        *ops.planned(lambda: _columns(ops, p, tau, full)),
        *(_FULL_NEEDS if full else ()),
        *(_IDENTITY_NEEDS if full and positive else ()),
    )
    rec = DiagnosticsRecord(
        t=ops.t,
        mass=ops.q("R"),
        momentum=tuple(g.quad(m) for m in ops.mom),
        second_moment=ops.q("Rr2"),
        min_density=ops.min_density,
        **_columns(ops, p, tau, full),
    )
    if full:
        ops.keep(*_FULL_NEEDS, *_IDENTITY_NEEDS)
        rec.relative_entropy = relative_entropy(ops)
        rec.ck_gap = csiszar_kullback_gap(ops)
        rec.tn_residual, rec.sk_residual = compatibility_residuals(ops)
        rec.irrot_residual = irrotationality_residual(ops)
        rec.llogl_value, rec.llogl_bound = llogl_bound(ops, 2.0 / (g.d + 2))
        if positive:
            rec.korteweg_residual = korteweg_identity_residual(ops)
            rec.loghess_residual = loghess_identity_residual(ops)
            rec.jungel_left, rec.jungel_right = jungel_quantities(ops)
    return rec
