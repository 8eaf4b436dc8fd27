"""Stepper, right-hand side, initial-data preparation and drag schedules."""

import copy
import dataclasses
import gc
import math
import re
import tracemalloc
import weakref
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft

from isofluid import diagnostics as diag
from isofluid import experiments, solver
from isofluid.lognls import crosscheck_hydro_params
from isofluid.params import ParamSet
from isofluid.rescaling import FluidState, madelung
from isofluid.solver import (
    TERMS,
    _contrast,
    _Stepper,
    arrays_from_state,
    drag_schedule,
    mollifier_kernel,
    prepare_initial_data,
    rhs,
    run,
    state_from_root,
)
from isofluid.spectral import Grid
from isofluid.tauode import tau_cover, tau_solve


def gaussian_state(g):
    return state_from_root(g, np.exp(-g.r2 / 2.0), np.zeros((g.d,) + g.shape))


def term_state(g):
    """Floored, modulated Gaussian root with a sine momentum along each axis:
    the data of the per-term tests."""
    gauss = np.exp(-g.r2 / 2.0)
    y = [np.broadcast_to(yi, g.shape) for yi in g.y]
    s = gauss * np.sqrt(1.0 + 0.4 * np.cos(math.pi * y[0] / g.ell)) + 0.5
    lam = np.stack([0.6 * gauss * np.sin(2 * math.pi * yi / g.ell) for yi in y])
    return state_from_root(g, s, lam)


# The case values of each TERMS coefficient, the one place the per-term tests
# read them: "rhs" for test_rhs_is_the_generator_of_step and
# test_energy_balance_along_rhs, "run" for test_state_convergence_per_term
# (delta2, eta1 and eta2 milder, so that the coarsest step resolves them) and,
# where the term feeds a CFL family, "envelope" for that family's case of
# test_cfl_dt_within_stability_envelope
TERM_CASES = {
    "nu": {"rhs": {"nu": 0.1}, "run": {"nu": 0.1}, "envelope": {"nu": 0.1}},
    "eps": {"rhs": {"eps": 0.5}, "run": {"eps": 0.5}, "envelope": {"eps": 0.1}},
    "r0": {"rhs": {"r0": 0.1}, "run": {"r0": 0.1}},
    "r1": {"rhs": {"r1": 1.0}, "run": {"r1": 1.0}},
    "delta1": {"rhs": {"delta1": 1e-2}, "run": {"delta1": 1e-2}},
    "delta2": {"rhs": {"delta2": 1e-4}, "run": {"delta2": 5e-5}},
    "eta1": {"rhs": {"eta1": 1e-3}, "run": {"eta1": 2e-7}},
    "eta2": {"rhs": {"eta2": 1e-8, "s": 2}, "run": {"eta2": 5e-13, "s": 2},
             "envelope": {"nu": 1e-12, "eta2": 1e-16, "s": 2}},
}
# the per-term cases: the base case, then every TERMS coefficient alone
TERM_IDS = list(TERMS)


def term_params(term, kind, **kw):
    """The ParamSet of a per-term case: the TERM_CASES values of `kind` ("base"
    has none) on the base eps = 1e-3 in the bounded viscous form, then kw."""
    case = TERM_CASES[term][kind] if term != "base" else {}
    return ParamSet(**{"eps": 1e-3, "viscous_form": "bounded", **case, **kw})


def drag_state(g, pert=0.4, vel=0.6):
    y = np.broadcast_to(g.y[0], g.shape)
    s = np.exp(-(y**2) / 2.0) * np.sqrt(1.0 + pert * np.cos(math.pi * y / g.ell))
    lam = vel * np.exp(-(y**2) / 2.0) * np.sin(2 * math.pi * y / g.ell)
    return state_from_root(g, s, lam[None])


def test_rhs_constant_state_confinement_only():
    g = Grid(1, 6.0, 64)
    c = 0.7
    st = FluidState(t=0.0, grid=g, R=np.full(g.shape, c), M=np.zeros((1,) + g.shape))
    dR, dM = rhs(st, ParamSet(nu=0.3, eps=0.1), (1.0, 0.0))
    assert np.abs(dR).max() < 1e-13
    assert np.abs(dM[0] + 2.0 * g.y[0] * c).max() < 1e-12


def test_rhs_gaussian_equilibrium_eps0():
    # pressure + confinement cancel identically on R = exp(-|y|^2)
    g = Grid(1, 8.0, 128)
    st = gaussian_state(g)
    dR, dM = rhs(st, ParamSet(nu=0.3, eps=0.0), (1.0, 0.0))
    assert np.abs(dR).max() < 1e-13
    assert np.abs(dM[0]).max() < 1e-12


def test_korteweg_divergence_form_matches_potential_form():
    g = Grid(1, 6.0, 128)
    s = np.exp(-g.r2) + 0.2
    R = s**2
    lhs = g.spectral.grad(g.spectral.lap(s) / s)
    lhs = [R * a for a in lhs]
    st = state_from_root(g, s, np.zeros((1,) + g.shape))
    dR, dM = rhs(st, ParamSet(nu=0.0, eps=2.0), (1.0, 0.0))
    # subtract the pressure + confinement part (eps-independent)
    dR0, dM0 = rhs(st, ParamSet(nu=1e-30, eps=0.0), (1.0, 0.0))
    kort = dM[0] - dM0[0]  # = (eps^2/2) Div(S_K)
    rel = np.abs(kort - 2.0 * lhs[0]).max() / np.abs(kort).max()
    assert rel < 1e-8


@pytest.mark.parametrize("term", TERM_IDS)
def test_rhs_is_the_generator_of_step(term):
    # D(h) = (advance(h) x - x)/h - rhs(x) is O(h); its Richardson limit
    # 2 D(h/2) - D(h) is O(h^2) when rhs is the step's generator, term by term
    g = Grid(1, 8.0, 128)
    st = term_state(g)
    p = term_params(term, "rhs")
    tau, h = (1.3, 0.4), 2e-5
    dR, dM = rhs(st, p, tau)
    R, M = arrays_from_state(st)
    stepper = _Stepper(g, p, float(np.mean(R)), float(R.min() / R.max()))

    def defect(hh):
        R1, M1 = stepper.advance(R, M, hh, tau)
        return (R1 - R) / hh - dR, (M1[0] - M[0]) / hh - dM[0]

    (r_h, m_h), (r_h2, m_h2) = defect(h), defect(h / 2)
    scale = np.abs(dM[0]).max()
    assert np.abs(2.0 * r_h2 - r_h).max() <= 1e-7 * scale
    assert np.abs(2.0 * m_h2 - m_h).max() <= 1e-7 * scale


def _baseline_setup(d, n=None):
    """The baseline grids of the FFT counts: 1D n=256 with every term of the
    mass-conservation run; 2D n=128 and 3D n=32 prepared Gaussians with every
    regularization on (the 2D parameters are those of the fixed_2d bench
    workload); n replaces the grid size for d > 1."""
    if d == 1:
        return experiments.full_reg_setup(n=256)
    g = Grid(d, 8.0, n or {2: 128, 3: 32}[d])
    state = experiments.make_initial(
        g, {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4}
    )
    params = ParamSet(
        nu=0.1, eps=0.1, r0=0.02, r1=0.02, delta1=1e-4, delta2=1e-7,
        eta1=1e-14, eta2=1e-22, alpha=8.0, s=d + 1, dt_policy="fixed", dt=1e-3,
    )
    return state, params


def _count_transforms(monkeypatch) -> list:
    """The names of the numpy.fft and scipy.fft transforms called from now
    on, in call order."""
    calls = []
    for mod in (np.fft, scipy.fft):
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            orig = getattr(mod, name)

            def counted(*args, _orig=orig, _name=f"{mod.__name__}.{name}", **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("d,expected", [(1, 14), (2, 38), (3, 63)])
def test_transform_calls_per_advance(monkeypatch, d, expected):
    # each substep batch is one stack: [R, M] forward once and back after
    # each linear half step (3), 3 per RK stage, the density forces' 3
    # merged into stage 1's, plus the inverse of the coefficients that
    # stages 2 and 3 start from.  A stack is one call in 1D; for d > 1 a
    # forward stack is one call and an inverse one call per component,
    # and the symmetric stresses go as their upper triangles only
    state, params = _baseline_setup(d)
    R, M = arrays_from_state(state)
    stepper = _Stepper(state.grid, params, float(R.mean()), float(R.min() / R.max()))
    calls = _count_transforms(monkeypatch)
    R1, M1 = stepper.advance(R, M, 1e-4, (1.0, 0.0))
    assert len(calls) == expected
    assert all(c.startswith("scipy.fft.") for c in calls)
    assert np.all(np.isfinite(R1)) and np.all(np.isfinite(M1))


def _traced_peak(call) -> int:
    """The peak of the memory tracemalloc traces while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
def test_advance_peaks_below_its_field_bound(d, n):
    # the first RK stage holds the density forces' parts beside its own, and
    # an advance still peaks below 61 (2D n = 32) and 100 (3D n = 16) real
    # fields of the grid: the stress and the force sums build each entry
    # and row from their own rows, where gathered copies peaked at 62.6 and
    # 109.7 fields (a record peaks at or below an advance:
    # tests/test_diagnostics.py)
    fields = {2: 61, 3: 100}[d]
    state, params = _baseline_setup(d, n)
    R, M = arrays_from_state(state)
    stepper = _Stepper(state.grid, params, float(R.mean()), _contrast(R))

    def advance():
        stepper.advance(R, M, 1e-3, (1.0, 0.3))

    advance()  # the tables it builds once
    assert _traced_peak(advance) < fields * 8 * state.R.size


class _RoundTripStepper(_Stepper):
    """The advance before the spectral carry, kept as the reference: each
    linear half step transforms [R, M] forward and back, the density forces
    and every RK stage's rate come back to physical space, and the momentum
    flux goes forward as its full (d, d) stack."""

    class Frozen(NamedTuple):
        R: np.ndarray
        rho: np.ndarray
        F: np.ndarray
        grad_R: np.ndarray

    def linear_flow(self, R, M, h, tau_v, c_u):
        sp = self.sp
        Ea, S_t2, Ee = self.propagator(h, tau_v**2, c_u)
        Xh = sp.fwd(np.concatenate((R[None], M)))
        Xh[0] = Ea * Xh[0] - S_t2 * sp.sum_axes(sp.ik * Xh[1:])
        Xh[1:] *= Ee
        X = sp.inv(Xh)
        return X[0], X[1:]

    def density_forces(self, R, tau_v, taudot_v):
        p, sp = self.p, self.sp
        t2 = tau_v**2
        rho = self.rho_smooth(R)
        roots = {"R": R[None]}
        if p.eps > 0:
            roots["s"] = self.sqrt_reg(R, rho)[None]
        hat = sp.batch(sp.fwd, roots)
        Rh = hat["R"][0]
        derivs = {"grad_R": sp.ik * Rh}
        if p.eta2 > 0:
            derivs["eta2"] = sp.grad_lap_symbol(2 * p.s + 1) * Rh
        if p.eps > 0:
            derivs["s"] = np.concatenate((sp.ik, sp.hess_sym)) * hat["s"][0]
        back = sp.batch(sp.inv, derivs)
        prods = {}
        if p.eps > 0:
            gs, hs = back["s"][: sp.d], back["s"][sp.d :]
            prods["stress"] = diag.korteweg_stress_entries(sp, roots["s"][0], gs, hs)
        if p.eta1 > 0:
            prods["cold"] = self.rho_tilde(R)[None] ** (-p.alpha)
        if p.eta2 > 0:
            prods["eta2"] = R * back["eta2"]
        ph = sp.batch(sp.fwd, prods) if prods else {}
        Fh = (p.nu * taudot_v / tau_v - 1.0) * sp.ik * Rh
        if p.eps > 0:
            Fh += (p.eps**2 / (2.0 * t2)) * sp.div_dealiased_hat(ph["stress"][sp.hess_full])
        if p.eta1 > 0:
            Fh += self.eta1_ik * ph["cold"]
        if p.eta2 > 0:
            Fh += (p.eta2 / t2) * sp.mask * ph["eta2"]
        F = sp.inv(Fh) - self.y2 * R
        return self.Frozen(R, rho, F, back["grad_R"])

    def stress(self, fz, M, U, gradU, gradM):
        nu, gR = self.p.nu, fz.grad_R
        out = -M[None, :] * U[:, None]
        if nu > 0 and self.viscous_form == "bounded":
            out += nu * (fz.R * 0.5 * (gradU + gradU.swapaxes(0, 1)))
        elif nu > 0:
            out += nu * (
                0.5 * (gradM + gradM.swapaxes(0, 1))
                - 0.5 * (U[:, None] * gR[None, :] + U[None, :] * gR[:, None])
            )
        return out

    def n_rhs(self, M, fz, tau_v, c_u):
        p, sp, d = self.p, self.sp, self.grid.d
        U = M / fz.rho
        vacuum = p.nu > 0 and self.viscous_form == "vacuum"
        fields = {}
        if p.delta1 > 0 or (p.nu > 0 and not vacuum):
            fields["U"] = U
        if vacuum:
            fields["M"] = M
        if p.delta2 > 0:
            fields["delta2"] = U - c_u * M
        hat = sp.batch(sp.fwd, fields) if fields else {}
        flat = (d * d,) + sp.half_shape
        to_grad = {f: sp.apply(sp.ik, hat[f]).reshape(flat) for f in ("U", "M") if f in hat}
        grads = sp.batch(sp.inv, to_grad) if to_grad else {}
        gradU, gradM = (
            grads[f].reshape((d, d) + sp.shape) if f in grads else None for f in ("U", "M")
        )
        stress = self.stress(fz, M, U, gradU, gradM)
        prods = {"stress": stress.reshape((d * d,) + sp.shape)}
        if p.delta1 > 0:
            prods["cross"] = sp.sum_axes(fz.grad_R * gradU)
        ph = sp.batch(sp.fwd, prods)
        fh = sp.div_dealiased_hat(ph["stress"].reshape((d, d) + sp.half_shape))
        if p.delta1 > 0:
            fh -= self.delta1_mask * ph["cross"]
        if p.delta2 > 0:
            fh -= self.delta2_lap2 * hat["delta2"]
        return sp.inv(fh) / tau_v**2 + fz.F

    def advance(self, R, M, h, tau_pair):
        tau_v, taudot_v = tau_pair
        c_u = self.bilaplacian_coefficient(R)
        M = self.drag_flow(R, M, 0.5 * h, tau_v**2)
        R, M = self.linear_flow(R, M, 0.5 * h, tau_v, c_u)
        fz = self.density_forces(R, tau_v, taudot_v)
        M1 = M + h * self.n_rhs(M, fz, tau_v, c_u)
        M2 = 0.75 * M + 0.25 * (M1 + h * self.n_rhs(M1, fz, tau_v, c_u))
        M = (1.0 / 3.0) * M + (2.0 / 3.0) * (M2 + h * self.n_rhs(M2, fz, tau_v, c_u))
        R, M = self.linear_flow(R, M, 0.5 * h, tau_v, c_u)
        M = self.drag_flow(R, M, 0.5 * h, tau_v**2)
        M = self.vacuum_sponge(R, M, h, tau_v, taudot_v)
        return R, M


@pytest.mark.parametrize("zeros", [(), ("delta1", "delta2", "eta1", "eta2"),
                                   ("nu", "r0", "r1", "delta1")],
                         ids=["all", "no_reg", "inviscid"])
@pytest.mark.parametrize("form", ["bounded", "vacuum"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_carried_advance_matches_round_trip_reference(d, form, zeros):
    # the spectral carry changes only where the arithmetic rounds: after 30
    # advances R and M agree with the round-trip reference to 1e-12 of
    # their max, every term on or a group of them off, in either viscous form
    if d == 1:
        state, params = experiments.full_reg_setup(n=256)
    else:
        g = Grid(d, 8.0, {2: 64, 3: 16}[d])
        state = experiments.make_initial(
            g, {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4}
        )
        params = _baseline_setup(d)[1]
    params = dataclasses.replace(params, viscous_form=form, **{z: 0.0 for z in zeros})
    R0, M0 = arrays_from_state(state)
    args = (state.grid, params, float(R0.mean()), float(R0.min() / R0.max()))
    out = []
    for stepper in (_Stepper(*args), _RoundTripStepper(*args)):
        R, M = R0, M0
        for k in range(30):
            R, M = stepper.advance(R, M, 2e-4, (1.0 + 0.01 * k, 0.3))
        out.append((R, M))
    (R, M), (R_ref, M_ref) = out
    assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()
    assert np.abs(M - M_ref).max() <= 1e-12 * np.abs(M_ref).max()


class _UnskippedStepper(_Stepper):
    """The advance that makes every term's work whether or not the term is
    on, kept as the bitwise reference of the skips: c_u, the delta1 and
    delta2 rates as arrays and e^(e h) applied to Mhat, and the Hessian
    tables as integer arrays, whose gathers copy."""

    def __init__(self, *args):
        super().__init__(*args)
        sp = self.sp = copy.copy(self.sp)
        d, n_upper = sp.d, len(sp.hess_keys)
        sp.hess_upper = tuple(np.arange(d)[t] for t in sp.hess_upper)
        sp.hess_full = np.arange(n_upper)[sp.hess_full]
        sp.hess_diag = np.arange(n_upper)[sp.hess_diag]

    def bilaplacian_coefficient(self, R):
        return 2.0 / max(float(np.min(self.rho_smooth(R))), 1e-300)

    def linear_symbols(self, t2, c_u):
        p = self.p
        return -(p.delta1 / t2) * self.sp.k2, -(p.delta2 * c_u / t2) * self.sp.k2**2

    def propagator(self, h, t2, c_u):
        a, e = self.linear_symbols(t2, c_u)
        Ea, Ee = np.exp(a * h), np.exp(e * h)
        diff = a - e
        small = np.abs(diff) * h < 1e-8
        S = np.where(small, h * Ea, (Ea - Ee) / np.where(small, 1.0, diff))
        return Ea, S / t2, Ee

    def linear_flow(self, Xh, prop):
        sp = self.sp
        Ea, S_t2, Ee = prop
        Xh[0] = Ea * Xh[0] - S_t2 * sp.sum_axes(sp.ik * Xh[1:])
        Xh[1:] *= Ee
        return Xh

    def stress(self, fz, M, U, gradU, gradM, out):
        # the flattened Jacobians: gradU[j d + i] = d_i U_j
        nu, gR, d = self.p.nu, fz.grad_R, self.sp.d
        i, j = self.sp.hess_upper
        flux = -M[j] * U[i]
        if nu > 0 and self.viscous_form == "bounded":
            flux += nu * (fz.R * 0.5 * (gradU[j * d + i] + gradU[i * d + j]))
        elif nu > 0:
            flux += nu * (
                0.5 * (gradM[j * d + i] + gradM[i * d + j]) - 0.5 * (U[j] * gR[i] + U[i] * gR[j])
            )
        out[...] = flux
        return out


def _crosscheck_setup():
    """The Madelung image of the korteweg cross-check's offset Gaussian (1D
    n = 256) and its hydro parameters: no delta2, drag, nu or eta."""
    g = Grid(1, 8.0, 256)
    psi0 = experiments.make_wavefunction(
        g, {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}, eps=1.0
    )
    return madelung(psi0), crosscheck_hydro_params(1.0, 1e-4, 2.5e-4), 2.5e-4


def _drag_ladder_setup(form):
    """The drag ladder's state and parameters (no delta1 or delta2)."""
    p = ParamSet(nu=0.1, eps=0.2, r1=0.05, dt_policy="fixed", dt=5e-3, viscous_form=form)
    return experiments.drag_run_state(), p, 5e-3


# (state, params, h) of runs that skip work and of runs that make it all
SKIP_SETUPS = {
    "crosscheck": _crosscheck_setup,
    "full_reg": lambda: (*experiments.full_reg_setup(n=256), 2e-4),
    "drag_bounded": lambda: _drag_ladder_setup("bounded"),
    "drag_vacuum": lambda: _drag_ladder_setup("vacuum"),
    "fixed_2d_n32": lambda: (*_baseline_setup(2, n=32), 1e-3),
}


@pytest.mark.parametrize("setup", list(SKIP_SETUPS))
def test_advance_is_bitwise_the_unskipped_advance(setup):
    # skipping the work of a term that is off, and gathering through views,
    # changes no bit of the state
    state, params, h = SKIP_SETUPS[setup]()
    R0, M0 = arrays_from_state(state)
    args = (state.grid, params, float(R0.mean()), _contrast(R0))
    out = []
    for stepper in (_Stepper(*args), _UnskippedStepper(*args)):
        R, M = R0, M0
        for k in range(30):
            R, M = stepper.advance(R, M, h, (1.0 + 0.01 * k, 0.3))
        out.append((R, M))
    (R, M), (R_ref, M_ref) = out
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(M))
    assert np.array_equal(R, R_ref) and np.array_equal(M, M_ref)


class _UnfusedStepper(_Stepper):
    """The advance before the density forces merged into the first RK
    stage, kept as the bitwise reference of the merge and of the stacks
    written in place: density_forces makes its own three transform batches
    and returns the forces, each n_rhs builds its parts before it hands them
    to Spectral.batch, [R, M] is concatenated, the linear half step assigns
    Rhat, and the drag builds all its factors at each call.  Its SSP-RK3
    stages are the increment form's, each sum out of place: k_i from n_rhs,
    stages from Mh + k1 and Mh + (k1 + k2)/4 and the end
    Mh + (k1 + k2)/6 + 2 k3/3."""

    class Frozen(NamedTuple):
        R: np.ndarray
        rho: np.ndarray
        Fh: np.ndarray
        grad_R: np.ndarray

    def drag_coefficients(self, R, M, tau_v):
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
            rho = self.rho_smooth(R)
            y = np.exp((-2.0 * h / tau_v**2) * (p.r0 / rho))
            q = (p.r1 / p.r0) * np.maximum(R, 0.0) / rho**2
            fac = np.sqrt(y / (1.0 + q * m2 * (1.0 - y)))
        else:
            fac = np.sqrt(1.0 / (1.0 + 2.0 * b * m2 * h))
        return M * fac

    def linear_flow(self, Xh, h, tau_v, c_u):
        sp = self.sp
        Ea, S_t2, Ee = self.propagator(h, tau_v**2, c_u)
        Xh[0] = Ea * Xh[0] - S_t2 * sp.sum_axes(sp.ik * Xh[1:])
        if self.p.delta2 > 0:
            Xh[1:] *= Ee
        return Xh

    def density_forces(self, R, Rh, tau_v, taudot_v):
        p, sp = self.p, self.sp
        t2 = tau_v**2
        rho = self.rho_smooth(R)
        derivs = {"grad_R": sp.ik * Rh}
        if p.eta2 > 0:
            derivs["eta2"] = sp.grad_lap_symbol(2 * p.s + 1) * Rh
        if p.eps > 0:
            s = self.sqrt_reg(R, rho)
            derivs["s"] = np.concatenate((sp.ik, sp.hess_sym)) * sp.fwd(s)
        back = sp.batch(sp.inv, derivs)
        prods = {"confinement": self.y2 * R}
        if p.eps > 0:
            gs, hs = back["s"][: sp.d], back["s"][sp.d :]
            prods["stress"] = diag.korteweg_stress_entries(sp, s, gs, hs)
        if p.eta1 > 0:
            prods["cold"] = self.rho_tilde(R)[None] ** (-p.alpha)
        if p.eta2 > 0:
            prods["eta2"] = R * back["eta2"]
        ph = sp.batch(sp.fwd, prods)
        Fh = (p.nu * taudot_v / tau_v - 1.0) * sp.ik * Rh - ph["confinement"]
        if p.eps > 0:
            Fh += (p.eps**2 / (2.0 * t2)) * sp.div_dealiased_hat(ph["stress"][sp.hess_full])
        if p.eta1 > 0:
            Fh += self.eta1_ik * ph["cold"]
        if p.eta2 > 0:
            Fh += (p.eta2 / t2) * sp.mask * ph["eta2"]
        return self.Frozen(R, rho, Fh, back["grad_R"])

    def stress(self, fz, M, U, gradU, gradM):
        nu, gR, sp = self.p.nu, fz.grad_R, self.sp
        (i, j), (ki, kj) = sp.hess_upper, np.array(sp.hess_keys).T
        ji, ij = kj * sp.d + ki, ki * sp.d + kj
        out = -M[j] * U[i]
        if nu > 0 and self.viscous_form == "bounded":
            gU = gradU.reshape((-1,) + sp.shape)
            out += nu * (fz.R * 0.5 * (gU[ji] + gU[ij]))
        elif nu > 0:
            gM = gradM.reshape((-1,) + sp.shape)
            out += nu * (0.5 * (gM[ji] + gM[ij]) - 0.5 * (U[j] * gR[i] + U[i] * gR[j]))
        return out

    def n_rhs(self, M, Mh, fz, tau_v, c_u, h):
        p, sp = self.p, self.sp
        U = M / fz.rho
        vacuum = p.nu > 0 and self.viscous_form == "vacuum"
        grad_u = p.delta1 > 0 or (p.nu > 0 and not vacuum)
        Uh = sp.fwd(U) if grad_u or p.delta2 > 0 else None
        to_grad = {}
        if grad_u:
            to_grad["U"] = sp.apply(sp.ik, Uh)
        if vacuum:
            to_grad["M"] = sp.apply(sp.ik, Mh)
        grads = sp.batch(sp.inv, to_grad)
        gradU, gradM = grads.get("U"), grads.get("M")
        prods = {"stress": self.stress(fz, M, U, gradU, gradM)}
        if p.delta1 > 0:
            prods["cross"] = sp.sum_axes(fz.grad_R * gradU)
        ph = sp.batch(sp.fwd, prods)
        fh = sp.div_dealiased_hat(ph["stress"][sp.hess_full])
        if p.delta1 > 0:
            fh -= self.delta1_mask * ph["cross"]
        if p.delta2 > 0:
            fh -= self.delta2_lap2 * (Uh - c_u * Mh)
        return fh * (h / tau_v**2) + fz.Fh

    def advance(self, R, M, h, tau_pair):
        tau_v, taudot_v = tau_pair
        sp = self.sp
        c_u = self.bilaplacian_coefficient(R)
        M = self.drag_flow(R, M, 0.5 * h, tau_v)
        Xh = self.linear_flow(sp.fwd(np.concatenate((R[None], M))), 0.5 * h, tau_v, c_u)
        X = sp.inv(Xh)
        R, M, Mh = X[0], X[1:], Xh[1:]
        fz = self.density_forces(R, Xh[0], tau_v, taudot_v)
        fz = fz._replace(Fh=fz.Fh * h)
        k1 = self.n_rhs(M, Mh, fz, tau_v, c_u, h)
        M1h = Mh + k1
        k2 = self.n_rhs(sp.inv(M1h), M1h, fz, tau_v, c_u, h)
        M2h = Mh + 0.25 * (k1 + k2)
        k3 = self.n_rhs(sp.inv(M2h), M2h, fz, tau_v, c_u, h)
        Xh[1:] = Mh + (1.0 / 6.0) * (k1 + k2) + (2.0 / 3.0) * k3
        X = sp.inv(self.linear_flow(Xh, 0.5 * h, tau_v, c_u))
        R, M = X[0], X[1:]
        M = self.drag_flow(R, M, 0.5 * h, tau_v)
        M = self.vacuum_sponge(R, M, h, tau_v, taudot_v)
        return R, M


@pytest.mark.parametrize("setup", list(SKIP_SETUPS))
def test_advance_is_bitwise_the_unfused_advance(setup):
    # merging the density forces into the first RK stage, writing each
    # batch in place, keeping the drag's R-only factors and summing the RK
    # increments in place change no bit of the state
    state, params, h = SKIP_SETUPS[setup]()
    R0, M0 = arrays_from_state(state)
    args = (state.grid, params, float(R0.mean()), _contrast(R0))
    out = []
    for stepper in (_Stepper(*args), _UnfusedStepper(*args)):
        R, M = R0, M0
        for k in range(30):
            R, M = stepper.advance(R, M, h, (1.0 + 0.01 * k, 0.3))
        out.append((R, M))
    (R, M), (R_ref, M_ref) = out
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(M))
    assert np.array_equal(R, R_ref) and np.array_equal(M, M_ref)


class _ShuOsherStepper(_Stepper):
    """The advance before the increment form, kept as its reference: the
    SSP-RK3 stages in Shu-Osher form, M1 = M + k1, M2 = 3/4 M + 1/4 (M1 + k2)
    and 1/3 M + 2/3 (M2 + k3), each combined on M and on Mh, with stages 1
    and 2 inverting their increment."""

    def advance(self, R, M, h, tau_pair):
        tau_v, taudot_v = tau_pair
        half, t2, sp = 0.5 * h, tau_v**2, self.sp
        c_u = self.bilaplacian_coefficient(R)
        prop = self.propagator(half, t2, c_u)
        M = self.drag_flow(R, M, half, t2)
        Xh = self.linear_flow(sp.fwd(np.concatenate((R[None], M))), prop)
        X = sp.inv(Xh)
        R, M, Mh = X[0], X[1:], Xh[1:]
        fz = self.density_forces(R, Xh[0], tau_v, taudot_v)
        rh = self.n_rhs(M, Mh, fz, t2, c_u, h)
        M1, M1h = M + sp.inv(rh), Mh + rh
        rh = self.n_rhs(M1, M1h, fz, t2, c_u, h)
        M2, M2h = 0.75 * M + 0.25 * (M1 + sp.inv(rh)), 0.75 * Mh + 0.25 * (M1h + rh)
        rh = self.n_rhs(M2, M2h, fz, t2, c_u, h)
        Xh[1:] = (1.0 / 3.0) * Mh + (2.0 / 3.0) * (M2h + rh)
        X = sp.inv(self.linear_flow(Xh, prop))
        R, M = X[0], X[1:]
        M = self.drag_flow(R, M, half, t2)
        return R, self.vacuum_sponge(R, M, h, tau_v, taudot_v)


@pytest.mark.parametrize("setup", list(SKIP_SETUPS))
def test_increment_form_matches_the_shu_osher_stages(setup):
    # the increment form is the same SSP-RK3 method: after 30 advances R
    # and M agree with the Shu-Osher stages to 1e-12 of their max
    state, params, h = SKIP_SETUPS[setup]()
    R0, M0 = arrays_from_state(state)
    args = (state.grid, params, float(R0.mean()), _contrast(R0))
    out = []
    for stepper in (_Stepper(*args), _ShuOsherStepper(*args)):
        R, M = R0, M0
        for k in range(30):
            R, M = stepper.advance(R, M, h, (1.0 + 0.01 * k, 0.3))
        out.append((R, M))
    (R, M), (R_ref, M_ref) = out
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(M))
    assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()
    assert np.abs(M - M_ref).max() <= 1e-12 * np.abs(M_ref).max()


def _drag_setup(floor, **params):
    """full_reg_setup's stepper and (R, M), the ParamSet changed by params;
    with floor, R set to r_min, 0 and -r_min at every 7th, 11th and 13th
    cell and to a ramp from 1e-9 to 1e-1 at every 17th, where the drag
    crushes M."""
    state, p = experiments.full_reg_setup(n=256)
    R, M = arrays_from_state(state)
    st = _Stepper(state.grid, dataclasses.replace(p, **params), float(R.mean()), _contrast(R))
    if floor:
        R = R.copy()
        R[::7], R[3::11], R[5::13] = st.r_min, 0.0, -st.r_min
        R[1::17] = np.geomspace(1e-9, 1e-1, R[1::17].size)
    return st, R, M


def _two_transcendental_drag(st, R, M, h, t2):
    """The drag flow's factor as the exact Bernoulli flow was first written:
    sqrt(a e^x / (a - b |M|^2 expm1(x))), x = -2 a h."""
    p, rho = st.p, st.rho_smooth(R)
    a, b = p.r0 / (t2 * rho), p.r1 * np.maximum(R, 0.0) / (t2 * rho**3)
    x = -2.0 * a * h
    return np.sqrt(a * np.exp(x) / (a - b * (M * M).sum(axis=0) * np.expm1(x)))


@pytest.mark.parametrize("h_t2", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("floor", [False, True], ids=["full_reg", "r_min"])
def test_drag_flow_is_the_two_transcendental_flow(floor, h_t2):
    # the one-exp flow from the per-R table is the old flow to 1e-13
    # relative, 0 exactly where the old one is 0, also where it crushes M;
    # a ladder's rows are their single flows bitwise
    st, R, M = _drag_setup(floor)
    t2 = 1.3
    old = M * _two_transcendental_drag(st, R, M, h_t2 * t2, t2)
    new = st.drag_flow(R, M, h_t2 * t2, t2)
    assert np.all(np.abs(new - old) <= 1e-13 * np.abs(old))
    if floor:  # cells where the old flow gives 0, and where it leaves M < 1e-3 M
        assert np.any((old == 0) & (M != 0))
        assert np.any((0 < np.abs(old)) & (np.abs(old) < 1e-3 * np.abs(M)))
    grid, rows = st.grid, [dataclasses.replace(st.p, dt=dt) for dt in (5e-3, 1e-3, 2e-4)]
    ladder = _Stepper(grid, rows, float(R.mean()), _contrast(R))
    R3, M3 = np.stack([R, 0.9 * R, R[::-1]]), np.stack([M, 1.1 * M, M[:, ::-1]], axis=1)
    t2s = [1.0, t2, 2.0]
    got = ladder.drag_flow(R3, M3, ladder._stacked([h_t2 * c for c in t2s]), ladder._stacked(t2s))
    for b, c in enumerate(t2s):
        one = _Stepper(grid, rows[b], float(R.mean()), _contrast(R))
        assert np.array_equal(got[:, b], one.drag_flow(R3[b], M3[:, b], h_t2 * c, c))
        old = M3[:, b] * _two_transcendental_drag(one, R3[b], M3[:, b], h_t2 * c, c)
        assert np.all(np.abs(got[:, b] - old) <= 1e-13 * np.abs(old))


@pytest.mark.parametrize("floor", [False, True], ids=["full_reg", "r_min"])
@pytest.mark.parametrize("coef", ["r0", "r1"])
def test_one_coefficient_drag_flows_keep_their_formulas(coef, floor):
    # with r0 alone the flow is exp(-a h) M, with r1 alone
    # M / sqrt(1 + 2 b |M|^2 h), bitwise, also from a kept table
    st, R, M = _drag_setup(floor, **{"r1" if coef == "r0" else "r0": 0.0})
    p, rho = st.p, st.rho_smooth(R)
    for h_t2 in (1e-6, 1e-3, 1.0):
        t2 = 1.3
        h = h_t2 * t2
        a, b = p.r0 / (t2 * rho), p.r1 * np.maximum(R, 0.0) / (t2 * rho**3)
        if coef == "r0":
            fac = np.exp(-a * h)
        else:
            fac = np.sqrt(1.0 / (1.0 + 2.0 * b * (M * M).sum(axis=0) * h))
        assert np.array_equal(st.drag_flow(R, M, h, t2), M * fac)


def _crosscheck_ladder(t_end, pairs):
    """The cross-check's Madelung state and hydro rows (delta_stab, dt)."""
    state = _crosscheck_setup()[0]
    return state, [crosscheck_hydro_params(1.0, ds, dt) for ds, dt in pairs], t_end, 0


def _starting_at(t, state, rows, t_end, diag_every):
    """The ladder from `state` moved to time t."""
    return dataclasses.replace(state, t=t), rows, t_end, diag_every


def _ladder_of(state, p, t_end, diag_every, *others):
    """p and its copies with each of the others' (dt, delta1)."""
    rows = [p, *(dataclasses.replace(p, dt=dt, delta1=d1) for dt, d1 in others)]
    return state, rows, t_end, diag_every


# (state, rows, t_end, diag_every) of ladders whose rows must be their runs
LADDERS = {
    # to t = 0.095 the dt = 5e-4 row meets, at step 126, a tau whose
    # Python square tau**2 differs from numpy's, and the bit carries to the
    # row's final state
    "crosscheck": lambda: _crosscheck_ladder(0.095, [(1e-3, 5e-4), (1e-4, 2.5e-4)]),
    # the dt = 5e-3 row stops while the other finishes
    "row_stops": lambda: _crosscheck_ladder(0.25, [(1e-3, 5e-3), (1e-3, 1e-3)]),
    # the dt = 1e-13 row underflows at its first step
    "underflow": lambda: _crosscheck_ladder(0.01, [(1e-3, 1e-3), (1e-3, 1e-13)]),
    # three rows, a record at every step
    "drag": lambda: _ladder_of(*_drag_ladder_setup("bounded")[:2], 0.1, 1,
                               (1e-2, 0.0), (2e-2, 0.0)),
    # every regularization on: each row's own c_u, and the d > 1 inverse
    "fixed_2d_n16": lambda: _ladder_of(*_baseline_setup(2, n=16), 4e-3, 3, (5e-4, 2e-4)),
    # a CFL ladder runs its rows one after another
    "cfl": lambda: _ladder_of(*experiments.full_reg_setup(n=64), 0.01, 2, (2e-3, 1e-4)),
    # a ladder of one row is the single run
    "one_row": lambda: _crosscheck_ladder(0.095, [(1e-3, 5e-4)]),
    # a ladder that needs the vacuum sponge runs its rows one after another
    "sponge": lambda: _ladder_of(*_drag_ladder_setup("vacuum")[:2], 0.1, 1, (1e-2, 0.0)),
    # starting within 1e-12 relative of t_end, every row ends ok with no step
    "near_end": lambda: _starting_at(0.25 - 1e-14, *_crosscheck_ladder(
        0.25, [(1e-3, 1e-3), (1e-4, 5e-4)])),
}


@pytest.mark.parametrize("case", list(LADDERS))
def test_ladder_rows_are_their_single_runs(case):
    # each row of a ladder run is bitwise the run of that row alone: its
    # final state, every record, its status, stop and step count
    state, rows, t_end, diag_every = LADDERS[case]()
    ladder = run(state, rows, t_end, diag_every=diag_every)
    assert len(ladder) == len(rows)
    for traj, p in zip(ladder, rows):
        own = run(state, p, t_end, diag_every=diag_every)
        assert (traj.status, traj.stop, traj.n_steps) == (own.status, own.stop, own.n_steps)
        assert traj.timing["transforms"] == own.timing["transforms"]
        assert traj.times == own.times and traj.records == own.records
        assert np.array_equal(traj.state_final.R, own.state_final.R)
        assert np.array_equal(traj.state_final.M, own.state_final.M)
    if case in ("row_stops", "underflow"):
        assert [traj.status for traj in ladder] != ["ok", "ok"]


def test_crosscheck_ladder_meets_a_tau_numpy_squares_differently():
    # the horizon of LADDERS["crosscheck"] is one where squaring the rows'
    # tau with numpy would change a row
    tau_sol, t, differs = tau_cover(0.095, 0.0), 0.0, []
    for k in range(190):
        tau = tau_sol.eval(t + 0.5 * 5e-4)[0]
        differs.append(tau**2 != float(np.square(np.array([tau]))[0]))
        t += 5e-4
    assert differs.index(True) == 125


_OTHER_VALUES = {"nu": 0.1, "eps": 0.5, "r0": 0.01, "r1": 0.01, "delta2": 1e-7,
                 "eta1": 1e-12, "eta2": 1e-12, "alpha": 9.0, "s": 3, "dt_policy": "cfl",
                 "cfl": 0.3, "r_min": 1e-5, "viscous_form": "bounded"}


@pytest.mark.parametrize("name", list(_OTHER_VALUES))
def test_ladder_rows_may_differ_only_in_dt_and_delta1(name):
    assert set(_OTHER_VALUES) == {f.name for f in dataclasses.fields(ParamSet)} - {"dt", "delta1"}
    state, p, _ = _crosscheck_setup()
    with pytest.raises(ValueError, match=f"differ in {name};"):
        run(state, [p, dataclasses.replace(p, **{name: _OTHER_VALUES[name]})], 1e-3)


@pytest.mark.parametrize("d,expected", [(1, 14), (2, 38), (3, 63)])
def test_rows_advance_makes_the_transform_calls_of_one(monkeypatch, d, expected):
    # a stack of rows goes through the transforms of a single advance
    state, params = _baseline_setup(d, {1: None, 2: 16, 3: 8}[d])
    R, M = arrays_from_state(state)
    rows = [params, dataclasses.replace(params, dt=params.dt / 2, delta1=2 * params.delta1)]
    stepper = _Stepper(state.grid, rows, float(R.mean()), _contrast(R))
    calls = _count_transforms(monkeypatch)
    stepper.advance(np.stack([R, R]), np.stack([M, M], axis=1), [1e-4, 5e-5], [(1.0, 0.0)] * 2)
    assert len(calls) == expected


@pytest.mark.parametrize("setup", ["full_reg", "drag_vacuum", "fixed_2d_n32"])
def test_advance_results_outlive_the_next_advance(monkeypatch, setup):
    # the R and M an advance returns come through the next advance unchanged
    # and share no memory with the stacks of any batch or their transforms
    from isofluid import spectral

    state, params, h = SKIP_SETUPS[setup]()
    R, M = arrays_from_state(state)
    stepper = _Stepper(state.grid, params, float(R.mean()), _contrast(R))
    stacks = []

    def kept(self, lay, stack, _orig=spectral.Spectral.transform):
        out = _orig(self, lay, stack)
        stacks.append(stack)
        stacks.extend(out.values() if isinstance(out, dict) else [] if out is None else [out])
        return out

    monkeypatch.setattr(spectral.Spectral, "transform", kept)
    R1, M1 = stepper.advance(R, M, h, (1.0, 0.3))
    R1_in, M1_in = R1.copy(), M1.copy()
    stepper.advance(R1, M1, h, (1.01, 0.3))
    assert np.array_equal(R1, R1_in) and np.array_equal(M1, M1_in)
    assert stacks
    assert not any(np.shares_memory(a, s) for a in (R1, M1) for s in stacks)


def test_run_snapshots_keep_the_states_of_their_steps(monkeypatch):
    # a snapshot holds the arrays of its step, which later steps never write
    from isofluid import solver

    state, params = _baseline_setup(2, n=16)
    taken = []

    def copied(grid, t, R, M, mass_ratio=1.0, _orig=solver.state_from_arrays):
        taken.append((R.copy(), M.copy()))
        return _orig(grid, t, R, M, mass_ratio)

    monkeypatch.setattr(solver, "state_from_arrays", copied)
    traj = run(state, params, 5e-3, snapshot_every=1, diag_every=0)
    assert traj.status == "ok" and len(traj.snapshots) == traj.n_steps + 1 == 6
    for snap, (R, M) in zip(traj.snapshots, taken):
        assert np.array_equal(snap.R, R) and np.array_equal(snap.M, M)


@pytest.mark.parametrize("setup", list(SKIP_SETUPS))
def test_advance_record_and_rhs_leave_their_input_unchanged(setup):
    # a gather that returns a view is never written into
    state, params, h = SKIP_SETUPS[setup]()
    R, M = arrays_from_state(state)
    R_in, M_in = R.copy(), M.copy()
    stepper = _Stepper(state.grid, params, float(R.mean()), _contrast(R))
    stepper.advance(R, M, h, (1.1, 0.3))
    diag.record(diag.StateOps(state.grid, R, M, stepper.r_min, 0.0), stepper.p, (1.1, 0.3),
                full=True)
    rhs(state, params, (1.1, 0.3))
    assert np.array_equal(R, R_in) and np.array_equal(M, M_in)


@pytest.mark.parametrize(
    "d,full,expected",
    [(1, False, 3), (1, True, 6), (2, False, 16), (2, True, 33), (3, False, 27), (3, True, 58)],
)
def test_transform_calls_per_record(monkeypatch, d, full, expected):
    # every field forward and every derivative back once per record.  In 1D
    # the columns' fields go forward in one call and their derivatives back
    # in one, then lap log R forward; the full tier's second phase brings
    # its derivatives back in one call, and its third sends R^(1/4),
    # lap sqrt R / sqrt R and the Korteweg stress forward in one and their
    # derivatives back in one.  For d > 1 each forward batch is one call
    # too, and each inverse component is one call.  The Parseval terms make
    # no inverse.
    state, params = _baseline_setup(d)
    p = params.bind(d)
    R, M = arrays_from_state(state)
    stepper = _Stepper(state.grid, p, float(R.mean()), float(R.min() / R.max()))
    ops = diag.StateOps(state.grid, R, M, stepper.r_min, 0.0)
    calls = _count_transforms(monkeypatch)
    rec = diag.record(ops, p, (1.1, 0.3), full=full)
    assert len(calls) == expected
    assert all(c.startswith("scipy.fft.") for c in calls)
    filled = [f.name for f in dataclasses.fields(rec) if full or f.default is dataclasses.MISSING]
    assert np.all(np.isfinite(np.hstack([getattr(rec, name) for name in filled])))


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, float).view(np.int64), np.asarray(b, float).view(np.int64))


# (state, params or a ladder, t_end, record and snapshot cadence, states per
# block of core records or None for diagnostics.STACK_VALUES) of runs whose
# records must be the standalone records of their states
RECORD_RUNS = {
    "1d": lambda: (*_baseline_setup(1), 1e-2, 3, None),
    "2d": lambda: (*_baseline_setup(2), 3e-3, 1, None),
    # every step recorded, 8 steps in blocks of 2 states
    "1d_blocks": lambda: (*_baseline_setup(1), 1e-2, 1, 2),
    # three rows, each with its own blocks of 4 states (5 for the first)
    "ladder": lambda: _ladder_of(*_drag_ladder_setup("bounded")[:2], 0.1, 1,
                                 (1e-2, 0.0), (2e-2, 0.0)) + (4,),
    # stops "floor" after 5 steps, with 2 records pending in a block of 3
    "floor": lambda: (_crosscheck_setup()[0], crosscheck_hydro_params(1.0, 1e-3, 5e-3), 0.25,
                      1, 3),
}


@pytest.mark.parametrize("case", list(RECORD_RUNS))
def test_run_records_are_the_standalone_records_of_their_states(monkeypatch, case):
    # a run builds each record's term lists from the parameters and tau once
    # per record, and evaluates its core records in blocks, as stacks of
    # states; each of its records, the full ones at the start (taudot = 0
    # there, which turns the taudot-weighted terms off) and at the end of a
    # run that reaches t_end and the core ones between, is bitwise the
    # standalone record of its state, and a run that stops keeps every
    # record it took
    state, params, t_end, every, block = RECORD_RUNS[case]()
    if block:
        monkeypatch.setattr(diag, "STACK_VALUES", block * math.prod(state.grid.shape))
    tau = tau_cover(t_end, 0.0)
    out = run(state, params, t_end, tau_sol=tau, snapshot_every=every, diag_every=every)
    trajs = out if isinstance(out, list) else [out]
    if block:
        # the core records of every step but the last fill 3 or more blocks;
        # the floor run stops with a block part filled
        cores = [traj.n_steps - (traj.status == "ok") for traj in trajs]
        assert max(cores) >= 3 * block if case != "floor" else cores[0] % block
    for traj in trajs:
        ok = traj.status == "ok"
        assert ok == (case != "floor")
        assert len(traj.records) == len(traj.snapshots) >= 3
        if block:
            assert len(traj.records) == traj.n_steps + 1
        assert tau.eval(traj.times[0])[1] == 0.0
        last = len(traj.records) - 1
        for i, (rec, snap) in enumerate(zip(traj.records, traj.snapshots)):
            assert rec.t == snap.t
            full = i == 0 or (ok and i == last)
            ops = diag.StateOps(state.grid, snap.R, snap.M, traj.r_min, snap.t)
            alone = diag.record(ops, traj.params, tau.eval(snap.t), full=full)
            assert (rec.bd_entropy_reg is None) == (not full)
            assert _same_bits(rec.csv_row(), alone.csv_row()), i


@pytest.mark.parametrize("d,expected", [(1, 3), (2, 16), (3, 27)])
def test_a_block_of_core_records_makes_the_transform_calls_of_one(monkeypatch, d, expected):
    # a stack of states goes through the transforms of one core record; a
    # full record of the stack goes through those of one full record and
    # gives one record per row, each bitwise the full record of its stack
    # of one
    state, params = _baseline_setup(d, {1: None, 2: 16, 3: 8}[d])
    p = params.bind(d)
    R, M = arrays_from_state(state)
    stepper = _Stepper(state.grid, p, float(R.mean()), _contrast(R))
    times = [0.1, 0.2, 0.3, 0.4]

    def stack(rows, t=None):
        return diag.StateOps(state.grid, np.stack([R] * rows), np.stack([M] * rows, axis=1),
                             stepper.r_min, times[:rows] if t is None else t)

    calls = _count_transforms(monkeypatch)
    recs = diag.record(stack(4), p, [(1.1, 0.3)] * 4)
    assert len(calls) == expected
    assert [rec.t for rec in recs] == times
    one = len(calls)
    diag.record(stack(1), p, [(1.1, 0.3)], full=True)
    one = len(calls) - one
    fulls = diag.record(stack(4), p, [(1.1, 0.3)] * 4, full=True)
    assert len(calls) - expected - one == one
    for rec, t in zip(fulls, times):
        alone = diag.record(stack(1, [t]), p, [(1.1, 0.3)], full=True)
        assert len(alone) == 1 and rec.bd_entropy_reg is not None
        assert _same_bits(rec.csv_row(), alone[0].csv_row())
    untimed = diag.StateOps(state.grid, np.stack([R] * 4), np.stack([M] * 4, axis=1),
                            stepper.r_min)
    with pytest.raises(ValueError, match=r"4 states needs 4 times t, got t of shape \(\)"):
        diag.record(untimed, p, [(1.1, 0.3)] * 4)


def test_a_run_builds_one_record_plan_per_params_and_tier(monkeypatch):
    # a run's records share the evaluation plan of their parameter set and
    # tier: a run of many records builds two (core and full), a run of a
    # second parameter set two more, and a repeated run none
    built = []

    class Counted(diag._Plan):
        def __init__(self, columns):
            built.append(tuple(columns))
            super().__init__(columns)

    monkeypatch.setattr(diag, "_Plan", Counted)
    diag._plan.cache_clear()
    try:
        state, params = experiments.full_reg_setup(n=64)
        traj = run(state, params, 0.02, diag_every=1)
        assert traj.status == "ok" and len(traj.records) >= 5
        assert len(built) == 2 and "bd_entropy_reg" in built[1] + built[0]
        run(state, dataclasses.replace(params, nu=0.2), 0.02, diag_every=1)
        assert len(built) == 4
        run(state, params, 0.02, diag_every=1)
        assert len(built) == 4
    finally:
        diag._plan.cache_clear()


def test_run_timing_counts_the_transforms_of_its_record_blocks(monkeypatch):
    # timing["transforms"] counts every scipy.fft call of the run: 14 per
    # advance, 6 per full record and 3 per block of core records, made on
    # the rows backend of the block
    state, params = _baseline_setup(1)
    monkeypatch.setattr(diag, "STACK_VALUES", 2 * math.prod(state.grid.shape))
    calls = _count_transforms(monkeypatch)
    traj = run(state, params, 1e-2, diag_every=1)
    blocks = math.ceil((traj.n_steps - 1) / 2)
    assert traj.status == "ok" and blocks >= 3
    assert traj.timing["transforms"] == len(calls) == 14 * traj.n_steps + 2 * 6 + 3 * blocks


def test_a_backend_is_freed_without_the_cyclic_gc():
    # a backend and its rows backends hold no reference cycle (a layout's
    # cache key names its direction, not a bound method), so they go when
    # the grid and a stepper built on it do, with the cyclic GC off
    state, params = _baseline_setup(2, n=16)
    g = Grid(2, state.grid.ell, 16)
    R, M = arrays_from_state(state)
    gc.collect()
    gc.disable()
    try:
        stepper = _Stepper(g, params, float(R.mean()), _contrast(R))
        stepper.advance(R, M, 1e-4, (1.0, 0.3))
        stack = diag.StateOps(g, np.stack([R, R]), np.stack([M, M], axis=1), t=[0.1, 0.2])
        diag.record(stack, stepper.p, [(1.0, 0.3)] * 2)
        refs = [weakref.ref(g.spectral), weakref.ref(g.rows(2))]
        assert g.spectral._layouts and g.rows(2)._layouts
        del g, stepper, stack
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_step_frozen_tau_preserves_equilibrium():
    g = Grid(1, 8.0, 128)
    R0, M = arrays_from_state(gaussian_state(g))
    p = ParamSet(nu=0.3, eps=0.0, dt_policy="fixed", dt=1e-3)
    stepper, R = _Stepper(g, p, float(R0.mean()), _contrast(R0)), R0
    for _ in range(100):
        R, M = stepper.advance(R, M, 1e-3, (1.0, 0.0))
    assert np.abs(R - R0).max() <= 1e-10


def test_step_mass_exact():
    g = Grid(1, 8.0, 128)
    R, M = arrays_from_state(drag_state(g))
    p = ParamSet(nu=0.1, eps=0.2, r1=0.05, dt_policy="fixed", dt=5e-3,
                 viscous_form="bounded")
    stepper, m0 = _Stepper(g, p, float(R.mean()), _contrast(R)), g.quad(R)
    for _ in range(20):
        R, M = stepper.advance(R, M, 5e-3, (1.02, 0.2))
    # the zero mode of R is exactly constant; the state carries the raw R,
    # so its mass moves only by round-off
    assert np.all(np.isfinite(R)) and np.all(np.isfinite(M))
    assert abs(g.quad(R) - m0) / m0 < 1e-12


def test_state_convergence_second_order():
    g = Grid(1, 8.0, 128)
    st0 = drag_state(g)
    finals = {}
    for dt in (8e-3, 4e-3, 2e-3, 5e-4):
        p = ParamSet(nu=0.1, eps=0.2, r1=0.05, dt_policy="fixed", dt=dt,
                     viscous_form="bounded")
        traj = run(st0, p, 0.1, diag_every=10**9)
        finals[dt] = traj.state_final.R
    e1 = np.abs(finals[8e-3] - finals[5e-4]).max()
    e2 = np.abs(finals[4e-3] - finals[5e-4]).max()
    e3 = np.abs(finals[2e-3] - finals[5e-4]).max()
    assert 2.5 < e1 / e2 < 6.5
    assert 2.5 < e2 / e3 < 8.0


# every term at once in 2D
ALL_TERMS_2D = {"nu": 0.1, "eps": 0.1, "r0": 0.02, "r1": 0.02, "delta1": 1e-4,
                "delta2": 1e-7, "eta1": 1e-14, "eta2": 1e-22, "s": 3}


@pytest.mark.parametrize("term", [*TERM_IDS, "2d_all"])
def test_state_convergence_per_term(term):
    # the per-term cases in 1D, each term alone on the base eps = 1e-3, plus
    # every term at once in 2D: the fixed-dt errors of the final R and M
    # against a dt = 5e-4 reference fall about 4x per halving
    g = Grid(1, 8.0, 128) if term != "2d_all" else Grid(2, 4.0, 32)
    st0 = term_state(g)
    finals = {}
    for dt in (8e-3, 4e-3, 2e-3, 5e-4):
        if term == "2d_all":
            p = ParamSet(**ALL_TERMS_2D, viscous_form="bounded", dt_policy="fixed", dt=dt)
        else:
            p = term_params(term, "run", dt_policy="fixed", dt=dt)
        traj = run(st0, p, 0.1, diag_every=10**9)
        assert traj.status == "ok"
        finals[dt] = arrays_from_state(traj.state_final)
    for i in (0, 1):
        e1, e2, e3 = (np.abs(finals[dt][i] - finals[5e-4][i]).max() for dt in (8e-3, 4e-3, 2e-3))
        assert 2.5 < e1 / e2 < 6.5
        assert 2.5 < e2 / e3 < 8.0


# one explicit family binds each case: (params, U on the data, tau); the
# base's advective and acoustic families are always on, the others those of
# the coefficients' TERMS entries
ENVELOPE_CASES = {
    "advective": ({"nu": 1e-12}, 1.0, 0.5),
    "acoustic": ({"nu": 1e-12}, 0.0, 1.0),
    **{family: (case["envelope"], 0.0, 1.0)
       for c, case in TERM_CASES.items() if "envelope" in case for family in TERMS[c]},
}
FAMILIES = [family for entry in TERMS.values() if isinstance(entry, dict) for family in entry]


def _envelope_setup(family):
    """The stepper, the data (R, M) and the tau pair of the family's
    envelope case: ell = 1, R = 1 + 0.3 cos, bounded form."""
    kw, u0, tau_v = ENVELOPE_CASES[family]
    g = Grid(1, 1.0, 64)
    y = g.y[0]
    R = 1.0 + 0.3 * np.cos(math.pi * y / g.ell)
    M = (R * u0 * (1.0 + 0.2 * np.sin(math.pi * y / g.ell)))[None]
    p = ParamSet(**kw, viscous_form="bounded", dt_policy="fixed")
    return _Stepper(g, p, float(R.mean()), float(R.min() / R.max())), R, M, (tau_v, 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_cfl_dt_within_stability_envelope(family):
    # The stability envelope of one family is the largest fixed dt at which
    # 60 steps of the step's linearization about smooth periodic data grow a
    # random perturbation less than 100x, bisected.  A run of the
    # linearization, not of the state: the state's own evolution (thin
    # tails losing positivity, the confinement's jump at the box face) would
    # end a run before the step did.  The box is small (ell = 1, so |y| <= 1
    # keeps the confinement's own amplification small per step).  The
    # formula's dt must lie in [envelope/8 (not wasteful), envelope/1.5
    # (safe)].
    st, R, M, tau = _envelope_setup(family)
    v0 = np.random.default_rng(0).standard_normal((2, R.size))
    dt, bound_by = st.cfl_dt(R, M, *tau)
    assert bound_by == family

    def bounded(h, eps=1e-7):
        R1, M1 = st.advance(R, M, h, tau)
        v, growth = v0 / np.abs(v0).max(), 1.0
        with np.errstate(all="ignore"):
            for _ in range(60):
                Rp, Mp = st.advance(R + eps * v[0], M + eps * v[1:], h, tau)
                v = np.concatenate(((Rp - R1)[None], Mp - M1)) / eps
                a = float(np.abs(v).max())
                growth *= a
                if not growth < 100.0:
                    return False
                v /= a
        return True

    lo, hi = dt / 16, dt * 64
    assert bounded(lo) and not bounded(hi)
    for _ in range(8):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if bounded(mid) else (lo, mid)
    assert lo / 8 <= dt <= lo / 1.5


def test_vacuum_sponge_outruns_every_family_by_3x():
    # a vacuum-form state (tails below 1e-6 of the max) whose largest family
    # at kmx is the viscous one: the sponge damps M by
    # exp(-min(h 3 max_rate w, 50)), max_rate = nu kmx^2 / tau^2, the rate
    # with no reach folded in
    g = Grid(1, 8.0, 128)
    s = np.exp(-g.r2 / 2.0)
    state = state_from_root(g, s, 0.5 * s[None])
    R, M = arrays_from_state(state)
    st = _Stepper(g, ParamSet(nu=0.5, eps=0.01), float(R.mean()), _contrast(R))
    tau_v, taudot_v, h = 1.0, 0.0, 1e-3
    assert st.viscous_form == "vacuum"
    rates = {family: rate for family, rate, _ in st._rates(R, M, tau_v, taudot_v)}
    assert max(rates, key=rates.get) == "viscous"
    max_rate = 0.5 * st.kmx**2 / tau_v**2
    assert rates["viscous"] == max_rate
    w = 1.0 / (1.0 + (np.maximum(R, 0.0) / (10.0 * st.r_min)) ** 4)
    fac = np.exp(-np.minimum(h * 3.0 * max_rate * w, 50.0))
    assert np.any((fac > 1e-3) & (fac < 0.999))  # cells the factor acts on
    np.testing.assert_allclose(st.vacuum_sponge(R, M, h, tau_v, taudot_v), M * fac,
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha", [4.5, 8.0, 12.0])
def test_acoustic_rate_from_min_R_is_the_array_form(alpha):
    # the cold pressure's sound speed, taken at max(min R, r_min), is its
    # largest value over the cells to 2 ulp, on states whose least cells
    # lie below r_min, below 0, or just above r_min
    state, p = experiments.full_reg_setup(n=256)
    R0, M = arrays_from_state(state)
    p = dataclasses.replace(p, eta1=1e-3, alpha=alpha)
    st = _Stepper(state.grid, p, float(R0.mean()), _contrast(R0))
    tau_v, taudot_v = 1.3, 0.2
    for floor in (0.5 * st.r_min, -1e-3, 1.5 * st.r_min):
        R = np.maximum(R0, 2.0 * st.r_min)
        R[4::31] = np.geomspace(2.0 * st.r_min, 2e2 * st.r_min, R[4::31].size)
        R[::9] = floor
        rates = {family: rate for family, rate, _ in st._rates(R, M, tau_v, taudot_v)}
        cs2 = 1.0 + p.nu * abs(taudot_v) / tau_v + p.eta1 * p.alpha * float(
            (st.rho_tilde(R) ** (-p.alpha - 1.0)).max())
        ref = math.sqrt(cs2) * st.kmx / tau_v
        assert abs(rates["acoustic"] - ref) <= 2 * math.ulp(ref)


# the ParamSet fields that gate no term: exponents and numerical controls
NOT_TERMS = {"alpha", "s", "dt", "dt_policy", "cfl", "r_min", "viscous_form"}
NO_FAMILY = pytest.mark.xfail(strict=True, reason="no CFL family for its N part: ROADMAP F")


@pytest.mark.parametrize("coef", [
    pytest.param(name, marks=NO_FAMILY) if name in TERMS and TERMS[name] is None else name
    for name in ["base", *(f.name for f in dataclasses.fields(ParamSet))] if name not in NOT_TERMS
])
def test_every_term_is_declared(coef):
    # the base and every coefficient that gates a term have a TERMS entry:
    # the CFL families its force feeds, each of which binds its envelope
    # case, or the reason it needs none
    assert set(TERMS) <= {"base", *(f.name for f in dataclasses.fields(ParamSet))} - NOT_TERMS
    assert coef in TERMS, f"{coef} has no TERMS entry"
    entry = TERMS[coef]
    assert entry is not None, f"{coef} has no CFL family"
    if isinstance(entry, str):
        assert entry.strip()
        return
    assert entry
    for family, (band, reach, _, _) in entry.items():
        assert 0.0 < band <= 1.0 and reach > 0.0
        assert family in ENVELOPE_CASES, f"{family} has no envelope case"
        st, R, M, tau = _envelope_setup(family)
        assert st.cfl_dt(R, M, *tau)[1] == family


FACE_TERM = pytest.mark.xfail(
    strict=True, reason="the box-face term of |y|^2 that balance_rhs leaves out: ROADMAP E"
)
# the tau of the along-rhs energy law, taken at t = 0.3
LAW_TAU = tau_cover(1.0, 0.0)


def _along_rhs_gap(d, term):
    """The relative gap of the semi-discrete energy identity along rhs on the
    per-term case `term`: dE_reg/dt (a Richardson-extrapolated central
    difference, tau taken at t +- h) against -dissipation_reg + balance_rhs."""
    g = Grid(1, 8.0, 128) if d == 1 else Grid(2, 8.0, 64)
    p = term_params(term, "rhs", **({"s": 3} if d == 2 else {})).bind(d)
    state, tau, t = term_state(g), LAW_TAU, 0.3
    dR, dM = rhs(state, p, tau.eval(t))

    def energy(h):
        moved = FluidState(t=t + h, grid=g, R=state.R + h * dR, M=state.M + h * dM)
        return diag.energy_reg(moved, p, tau.eval(t + h))

    def central(h):
        return (energy(h) - energy(-h)) / (2.0 * h)

    h = 1e-4
    rate = (4.0 * central(h / 2) - central(h)) / 3.0
    balance = -diag.dissipation_reg(state, p, tau.eval(t)) + diag.balance_rhs(state, p, tau.eval(t))
    return abs(rate - balance) / abs(balance)


@pytest.mark.parametrize("term", [
    pytest.param(term, marks=FACE_TERM) if term == "delta1" else term for term in TERM_IDS
])
@pytest.mark.parametrize("d,tol", [(1, 1e-8), (2, 1e-5)], ids=["1d", "2d"])
def test_energy_balance_along_rhs(d, tol, term):
    # the semi-discrete energy identity, with no time step's error, holds
    # along rhs term by term
    assert _along_rhs_gap(d, term) <= tol


# The mutation oracle.  A mutant flips the sign of one term, on its force or
# on its energy side, and the energy law along rhs must fail for it.  A force
# mutant flips the stepper seam its TERMS entry writes through: a table
# _Stepper.__init__ builds, or what a method or diag.korteweg_stress_entries
# (written in place) returns.  Each mutant is mutate(monkeypatch).


def _wrapped(owner, name, edit):
    """The mutant that passes what owner.name returns through edit(result, *args)."""
    def mutate(monkeypatch):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: edit(orig(*args), *args))
    return mutate


def _negated(table):
    """The mutant that negates the stepper's table after __init__."""
    return _wrapped(_Stepper, "__init__",
                    lambda _, st, *args: setattr(st, table, -getattr(st, table)))


def _viscous_negated(out, st, fz, M, U, *_):
    # each stress entry is the flux -M_j U_i plus its viscous part: twice the
    # flux less the entry flips the viscous part alone
    for e, (i, j) in enumerate(st.sp.hess_keys):
        out[e] = -2.0 * M[j] * U[i] - out[e]
    return out


_DRAG_NEGATED = _wrapped(_Stepper, "drag_rate", lambda rate, *_: -rate)
FORCE_MUTANTS = {
    "base": {  # the confinement 2 y R and the pressure grad R
        "y2": _negated("y2"),
        "grad_R_factor": _wrapped(_Stepper, "density_forces", lambda fz, *_: dataclasses.replace(
            fz, grad_R_factor=-fz.grad_R_factor)),
    },
    "nu": {"stress": _wrapped(_Stepper, "stress", _viscous_negated)},
    "eps": {"korteweg_stress_entries": _wrapped(
        diag, "korteweg_stress_entries", lambda out, *_: np.negative(out, out=out))},
    "r0": {"drag_rate": _DRAG_NEGATED},
    "r1": {"drag_rate": _DRAG_NEGATED},
    "delta1": {"delta1_mask": _negated("delta1_mask")},
    "delta2": {"delta2_lap2": _negated("delta2_lap2")},
    "eta1": {"eta1_ik": _negated("eta1_ik")},
    "eta2": {"eta2_sym": _negated("eta2_sym")},
}
# the term-list builders of the energy law, with their arguments after the
# ParamSet in 1D
LAW = {"_energy_reg": (), "_dissipation_reg": (), "_balance_rhs": (1,)}


def _groups(columns) -> tuple:
    return columns if isinstance(columns, tuple) else (columns,)


def _pairs(name, p, tau) -> dict:
    """The (coefficient, key) pairs of the law builder `name`, by (group, place)."""
    groups = _groups(getattr(diag, name)(tau, p, *LAW[name]))
    return {(i, j): pair for i, group in enumerate(groups) for j, pair in enumerate(group)}


def _flipped(name, places):
    """The mutant of the law builder `name` that flips the sign of its pairs
    at `places`, as -1.0 * c (a plan's coefficient has no unary minus)."""
    def mutate(monkeypatch):
        build = getattr(diag, name)

        def mutant(tau, *args):
            columns = build(tau, *args)
            groups = tuple([(-1.0 * c if (i, j) in places else c, key)
                            for j, (c, key) in enumerate(group)]
                           for i, group in enumerate(_groups(columns)))
            return groups if isinstance(columns, tuple) else groups[0]

        monkeypatch.setattr(diag, name, mutant)
    return mutate


def _energy_mutants(term) -> dict:
    """The energy-side mutants of `term`, by builder: each flips the pairs
    whose coefficient changes when the coefficient is zeroed on a copy of
    the case's bound ParamSet, at the law's real (tau, taudot); the base's
    flip the potential's Rr2 and RlogR."""
    p, tau = term_params(term, "rhs").bind(1), LAW_TAU.eval(0.3)
    if term == "base":
        pairs = _pairs("_energy_reg", p, tau)
        return {key: _flipped("_energy_reg", {at for at, (_, k) in pairs.items() if k == key})
                for key in ("Rr2", "RlogR")}
    zeroed = copy.copy(p)
    object.__setattr__(zeroed, term, 0.0)  # past the checks, which refuse eps = nu = 0
    mutants = {}
    for name in LAW:
        on, off = _pairs(name, p, tau), _pairs(name, zeroed, tau)
        places = {at for at, (c, _) in on.items() if c != off[at][0]}
        if places:
            mutants[name[1:]] = _flipped(name, places)
    return mutants


@pytest.mark.parametrize("term,mutate", [
    pytest.param(term, mutate, id=f"{term}-{side}-{name}",
                 marks=FACE_TERM if term == "delta1" else ())
    for term in TERMS
    for side, mutants in (("force", FORCE_MUTANTS.get(term)), ("energy", _energy_mutants(term)))
    for name, mutate in (mutants or {"none": None}).items()
])
def test_every_term_mutant_breaks_the_energy_law(monkeypatch, term, mutate):
    # every TERMS entry has a force-side and an energy-side mutant; the law
    # holds on its 1D case to 1e-8 and fails by more for each mutant
    assert mutate is not None, f"{term} has no mutant on this side"
    assert _along_rhs_gap(1, term) <= 1e-8
    mutate(monkeypatch)
    assert _along_rhs_gap(1, term) > 1e-8


def test_smooth_density_once_per_distinct_density(monkeypatch):
    # a bounded-form CFL step reads three densities: the step's R (CFL, c_u,
    # first drag), R after the first linear half step (density forces) and
    # the final R (last drag, and the next step's CFL); rho_sm is built at
    # most once for each
    from isofluid import solver

    state, params = experiments.full_reg_setup(n=64)
    R, M = arrays_from_state(state)
    st = _Stepper(state.grid, params.bind(1), float(R.mean()), float(R.min() / R.max()))
    assert st.viscous_form == "bounded"
    calls = []

    def counted(*args, _orig=solver.smooth_density):
        calls.append(1)
        return _orig(*args)

    monkeypatch.setattr(solver, "smooth_density", counted)
    for _ in range(4):
        before = len(calls)
        dt, _ = st.cfl_dt(R, M, 1.0, 0.1)
        R, M = st.advance(R, M, dt, (1.0, 0.1))
        assert len(calls) - before <= 3
    assert len(calls) <= 3 + 2 * 3


def test_cfl_binding_of_the_mass_conservation_run():
    # the eta2 wave binds the first steps of the criterion-3 run (t = 1), and
    # the acoustic wave (with the cold pressure's sound speed) binds from
    # about t = 0.05 to the end; both at their reach 2, the run takes 1,080
    # steps, 43 of them bound by eta2
    state, params = experiments.full_reg_setup(n=256)
    R, M = arrays_from_state(state)
    st = _Stepper(state.grid, params.bind(1), float(R.mean()), float(R.min() / R.max()))
    assert st.cfl_dt(R, M, 1.0, 0.0)[1] == "eta2"
    traj = run(state, params, 1.0, diag_every=10**9)
    assert traj.status == "ok"
    assert set(traj.cfl_binding) == {"eta2", "acoustic"}
    assert sum(traj.cfl_binding.values()) == traj.n_steps
    assert traj.cfl_binding["acoustic"] > 0.9 * traj.n_steps
    assert 30 <= traj.cfl_binding["eta2"] <= 60 and traj.n_steps < 1150
    R1, M1 = arrays_from_state(traj.state_final)
    tau = tau_solve(1.001, 1e-12, 1e-14).eval(1.0)
    assert st.cfl_dt(R1, M1, *tau)[1] == "acoustic"


def _against_a_converged_run(state, params, t_end) -> tuple:
    """The run to t_end against the same run at 1/8 of its CFL number: the
    run's binding families and the relative errors of its final min R,
    energy and dissipation."""
    ends = []
    for cfl in (params.cfl, params.cfl / 8):
        traj = run(state, dataclasses.replace(params, cfl=cfl), t_end, diag_every=10**9)
        assert traj.status == "ok"
        rec = traj.records[-1]
        ends.append((float(traj.state_final.R.min()), rec.energy, rec.dissipation,
                     traj.cfl_binding))
    (r, e, d, binding), (r0, e0, d0, _) = ends
    return binding, abs(r / r0 - 1), abs(e / e0 - 1), abs(d / d0 - 1)


def test_cfl_run_stays_near_a_converged_run():
    # the criterion-3 benchmark run (t = 0.1, 87 steps) against the same run
    # at 1/8 of its CFL number (800 steps), relative: min R is 1.2% off,
    # the energy 9e-6 and the dissipation 0.2%
    state, params = experiments.full_reg_setup(n=256)
    _, r, e, d = _against_a_converged_run(state, params, 0.1)
    assert r < 2e-2
    assert e < 5e-5
    assert d < 5e-3


def test_korteweg_bound_cfl_run_stays_near_a_converged_run():
    # the Korteweg family binds every step of a prepared Gaussian at eps =
    # 0.5 (t = 0.1, 35 steps at its reach 2) within the bounds of the
    # criterion-3 run: min R is 7e-5 off, the energy 2e-7 and the
    # dissipation 0.05%
    g = Grid(1, 8.0, 256)
    state = experiments.make_initial(
        g, {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4})
    params = ParamSet(nu=0.1, eps=0.5, r0=0.02, r1=0.02, delta1=1e-4, delta2=1e-7,
                      dt_policy="cfl", dt=5e-3)
    binding, r, e, d = _against_a_converged_run(state, params, 0.1)
    assert set(binding) == {"korteweg"}
    assert r < 2e-2
    assert e < 5e-5
    assert d < 5e-3


def test_run_zero_horizon_returns_initial():
    g = Grid(1, 6.0, 64)
    st = gaussian_state(g)
    traj = run(st, ParamSet(nu=0.1, eps=0.0, dt_policy="fixed", dt=1e-3), 0.0)
    assert traj.n_steps == 0
    assert len(traj.records) == 1
    assert np.abs(traj.state_final.R - st.R).max() == 0.0
    assert np.abs(traj.state_final.M - st.M).max() == 0.0


def test_run_without_diagnostics_records_the_start_and_the_end():
    # diag_every = 0 keeps exactly the two full records, at t = 0 and at
    # t_end, that a run recording every step makes there
    state, params = experiments.full_reg_setup(n=64)
    every, ends = (run(state, params, 0.01, diag_every=k) for k in (1, 0))
    assert ends.status == every.status == "ok"
    assert ends.n_steps == every.n_steps > 1
    assert ends.times == [every.times[0], every.times[-1]]
    assert ends.times[-1] == pytest.approx(0.01)
    assert ends.records == [every.records[0], every.records[-1]]


def test_run_times_strictly_increasing():
    g = Grid(1, 6.0, 64)
    st = drag_state(g, pert=0.2, vel=0.3)
    p = ParamSet(nu=0.05, eps=0.1, dt_policy="cfl", dt=5e-3)
    traj = run(st, p, 0.05, diag_every=1)
    traj.validate()
    assert traj.status == "ok"
    t = np.asarray(traj.times)
    assert np.all(np.diff(t) > 0)


def test_run_detects_blowup():
    # a grossly unstable fixed step must terminate with a failure status,
    # keeping the last valid state
    g = Grid(1, 6.0, 64)
    st = drag_state(g)
    p = ParamSet(nu=0.5, eps=1.0, dt_policy="fixed", dt=0.3, viscous_form="bounded")
    traj = run(st, p, 3.0, diag_every=1)
    assert traj.status in ("nan", "floor")
    assert np.all(np.isfinite(traj.state_final.R))


def test_prepare_initial_data_floor_and_mass():
    g = Grid(1, 8.0, 256)
    st = prepare_initial_data(
        g,
        lambda y: np.exp(-np.asarray(y) ** 2 / 2.0),
        lambda y: (np.zeros(g.shape),),
        theta=0.1,
        iota=0.3,
    )
    # the constant theta convolves to itself: sqrtR >= theta exactly
    assert np.sqrt(st.R).min() >= 0.1 - 1e-12
    assert g.quad(st.R) > 0


def test_prepare_small_iota_approaches_unmollified():
    g = Grid(1, 6.0, 512)
    target = None
    errs = []
    for iota in (0.4, 0.2, 0.1):
        st = prepare_initial_data(
            g,
            lambda y: np.exp(-np.asarray(y) ** 2 / 2.0),
            lambda y: (np.zeros(g.shape),),
            theta=0.25,
            iota=iota,
        )
        from isofluid.solver import plateau

        raw = np.exp(-g.r2 / 2.0) * plateau(g) + 0.25
        errs.append(np.abs(np.sqrt(st.R) - raw).max())
    assert errs[0] > errs[1] > errs[2]


def test_mollifier_kernel_unit_mass_nonnegative():
    g = Grid(2, 4.0, 32)
    z = mollifier_kernel(g, 0.5)
    assert z.min() >= 0.0
    assert abs(z.sum() * g.weight - 1.0) < 1e-12
    with pytest.raises(ValueError):
        mollifier_kernel(g, -1.0)


def test_truncation_functionals_approach_full_space():
    from isofluid.experiments import truncation_study

    stats = truncation_study([4.0, 8.0, 16.0], n=1024)
    for key in ("mass_excess", "dirichlet_excess", "moment_excess"):
        seq = [abs(s[key]) for s in stats]
        assert seq[0] >= seq[1] >= seq[2] - 1e-12
    assert abs(stats[-1]["moment_excess"]) < 0.05


def test_drag_schedule_values():
    g = Grid(1, 10.0, 64)
    r0, r1, eps_l = drag_schedule(g, np.full(g.shape, 2.0), eps=0.25)
    assert abs(r0 - 0.1) < 1e-15  # indicator region empty
    assert abs(r1 - 0.1) < 1e-15
    assert abs(eps_l - 0.35) < 1e-15


def test_drag_schedule_log_product_vanishes():
    vals = []
    for ell in (4.0, 8.0, 16.0):
        g = Grid(1, ell, 256)
        R0 = np.exp(-g.r2)
        r0, _, _ = drag_schedule(g, R0)
        logneg = np.where(R0 < 1.0, np.log(np.maximum(R0, 1e-30)), 0.0)
        intlog = float(g.weight * logneg.sum())
        vals.append(abs(r0 * intlog))
    assert vals[0] > vals[1] > vals[2]


def test_full_regularized_balance_coarse():
    # with every regularization active on plateau data the balance holds to
    # the boundary-term floor (the y-weights are not periodic on the torus:
    # the identity carries O(theta^2 ell) face corrections, see the ledger)
    from isofluid.experiments import full_reg_setup

    state, params = full_reg_setup(n=128)
    traj = run(state, params, 0.2, diag_every=1)
    assert traj.status == "ok"
    assert traj.energy_balance_residual() < 5e-3
    assert traj.bd_identity_residual() < 2e-1


def test_dealiasing_resolution_invariance():
    # doubling n changes sampled diagnostics less than the time error scale
    finals = {}
    for n in (128, 256):
        g = Grid(1, 8.0, n)
        st = drag_state(g, pert=0.2, vel=0.3)
        p = ParamSet(nu=0.1, eps=0.1, r1=0.02, dt_policy="fixed", dt=5e-3,
                     viscous_form="bounded")
        traj = run(st, p, 0.1, diag_every=10**9)
        finals[n] = traj.records[-1].energy
    assert abs(finals[128] - finals[256]) < 1e-6 * max(1.0, abs(finals[256]))


def test_paramset_validation():
    with pytest.raises(ValueError):
        ParamSet(nu=0.0, eps=0.0)
    with pytest.raises(ValueError):
        ParamSet(nu=0.1, delta1=1.5)
    with pytest.raises(ValueError):
        ParamSet(nu=0.1, dt=-1.0)
    with pytest.raises(ValueError):
        ParamSet(nu=0.1, eta1=0.5, alpha=3.0).bind(1)
    with pytest.raises(ValueError):
        ParamSet(nu=0.1, eta2=0.5, s=1).bind(1)
    with pytest.raises(ValueError):
        ParamSet(nu=0.1, viscous_form="magic")
    p = ParamSet(nu=0.1, eta2=0.5).bind(2)
    assert p.s == 3  # default s = d + 1


def test_binding_a_bound_set_returns_it_after_the_d_checks():
    p = ParamSet(nu=0.1, eta2=0.5).bind(1)
    assert p.bind(1) is p
    # s = 2 > d holds at d = 1 only: the check runs again at d = 2
    with pytest.raises(ValueError, match="s > d"):
        p.bind(2)
    with pytest.raises(ValueError, match="alpha > 4"):
        dataclasses.replace(p, eta1=0.5, alpha=3.0).bind(1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_stops_a_diverging_run_without_warnings():
    # the criterion-3 run diverges at 3x the default CFL number, past the
    # acoustic reach (R undershoots the floor near t = 0.15), and at a fixed
    # dt of 5e-3, about 4x its CFL steps there (it overflows near t = 0.075);
    # each run names the failed step and cell instead of letting numpy warn
    state, params = experiments.full_reg_setup(n=256)
    for policy, status in (({"cfl": 1.2}, "floor"),
                           ({"dt_policy": "fixed", "dt": 5e-3}, "nan")):
        traj = run(state, dataclasses.replace(params, **policy), 1.0, diag_every=10**9)
        assert traj.status == status
        stop = traj.stop
        assert stop["reason"] == status
        assert stop["step"] == traj.n_steps + 1
        assert stop["t"] == traj.state_final.t < 1.0
        assert len(stop["cell"]) == 1 and 0 <= stop["cell"][0] < 256
        assert np.all(np.isfinite(traj.state_final.R))


@pytest.mark.parametrize("policy", ["cfl", "fixed"])
def test_run_from_a_state_that_is_not_finite_stops_at_its_cell(policy):
    # a NaN in a live cell made the CFL dt NaN, which passed the underflow
    # and budget tests and ran off the tau table; a fixed run named the cell
    # the NaN had spread to after one advance.  Either stops "nan" before
    # its first step, at the cell, and numpy warns of nothing
    state = gaussian_state(Grid(1, 8.0, 64))
    state.M[0, 32] = math.nan
    traj = run(state, ParamSet(nu=0.1, eps=0.1, dt_policy=policy), 0.01)
    assert traj.status == "nan" and traj.n_steps == 0
    assert traj.stop == {"reason": "nan", "step": 1, "t": 0.0, "cell": [32]}


def test_fixed_steps_past_the_budget_stop_before_the_first(monkeypatch):
    # the budget guarded CFL runs only: a fixed dt of 1e-11 to t = 1 asked
    # for 1e11 steps.  A ladder row past it stops as its run alone does,
    # and the row within it runs
    monkeypatch.setattr(solver, "MAX_STEPS", 300)
    state = gaussian_state(Grid(1, 8.0, 64))
    p = ParamSet(nu=0.1, eps=0.1, dt_policy="fixed", dt=1e-3)
    over, within = run(state, [p, dataclasses.replace(p, dt=2e-3)], 0.5, diag_every=0)
    assert over.status == "budget" and over.n_steps == 0 and over.stop["step"] == 1
    assert over.stop == run(state, p, 0.5, diag_every=0).stop
    assert within.status == "ok" and within.n_steps == 250


def test_readme_quick_start_reaches_its_t_end(capsys):
    # the README's library quick start, executed as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(block, scope)
    traj = scope["traj"]
    assert traj.status == "ok" and traj.stop is None
    assert traj.times[-1] == pytest.approx(1.0, rel=1e-12)
    assert capsys.readouterr().out.split()[:2] == ["ok", str(traj.n_steps)]
