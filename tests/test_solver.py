"""Stepper, right-hand side, initial-data preparation and drag schedules."""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft

from isofluid import diagnostics as diag
from isofluid import experiments
from isofluid.params import ParamSet
from isofluid.rescaling import FluidState
from isofluid.solver import (
    _Stepper,
    arrays_from_state,
    drag_schedule,
    mollifier_kernel,
    prepare_initial_data,
    rhs,
    run,
    state_from_root,
    step,
)
from isofluid.spectral import Grid
from isofluid.tauode import tau_solve


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


@pytest.mark.parametrize(
    "term",
    [
        {},
        {"nu": 0.1},
        {"eps": 0.5},
        {"delta1": 1e-2},
        {"delta2": 1e-4},
        {"eta1": 1e-3},
        {"eta2": 1e-8, "s": 2},
        {"r0": 0.1},
        {"r1": 1.0},
    ],
    ids=["base", "nu", "eps", "delta1", "delta2", "eta1", "eta2", "r0", "r1"],
)
def test_rhs_is_the_generator_of_step(term):
    # D(h) = (advance(h) x - x)/h - rhs(x) is O(h); its Richardson limit
    # 2 D(h/2) - D(h) is O(h^2) when rhs is the step's generator, term by term
    g = Grid(1, 8.0, 128)
    st = term_state(g)
    p = ParamSet(**{"eps": 1e-3, "viscous_form": "bounded", **term})
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


def _baseline_setup(d):
    """The baseline grids of the FFT counts: 1D n=256 with every term of the
    mass-conservation run; 2D n=128 and 3D n=32 prepared Gaussians with every
    regularization on."""
    if d == 1:
        return experiments.full_reg_setup(n=256)
    g = Grid(d, 8.0, {2: 128, 3: 32}[d])
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


@pytest.mark.parametrize("d,expected", [(1, 17), (2, 46), (3, 71)])
def test_transform_calls_per_advance(monkeypatch, d, expected):
    # 1D transforms each substep batch as one stack: [R, M] forward once and
    # back after each linear half step (3), 3 for the density forces, 3 per
    # RK stage plus the inverse of the rate after stages 1 and 2; d > 1
    # transforms each forward stack in one call and each inverse one
    # component per call, and the symmetric stresses only their upper
    # triangles
    state, params = _baseline_setup(d)
    R, M = arrays_from_state(state)
    stepper = _Stepper(state.grid, params, float(R.mean()), float(R.min() / R.max()))
    calls = _count_transforms(monkeypatch)
    R1, M1 = stepper.advance(R, M, 1e-4, (1.0, 0.0))
    assert len(calls) == expected
    assert all(c.startswith("scipy.fft.") for c in calls)
    assert np.all(np.isfinite(R1)) and np.all(np.isfinite(M1))


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
        Ea, S_t2, Ee = self.propagator(h, tau_v, c_u)
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
            derivs["s"] = sp.deriv_sym * hat["s"][0]
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
        M = self.drag_flow(R, M, 0.5 * h, tau_v)
        R, M = self.linear_flow(R, M, 0.5 * h, tau_v, c_u)
        fz = self.density_forces(R, tau_v, taudot_v)
        M1 = M + h * self.n_rhs(M, fz, tau_v, c_u)
        M2 = 0.75 * M + 0.25 * (M1 + h * self.n_rhs(M1, fz, tau_v, c_u))
        M = (1.0 / 3.0) * M + (2.0 / 3.0) * (M2 + h * self.n_rhs(M2, fz, tau_v, c_u))
        R, M = self.linear_flow(R, M, 0.5 * h, tau_v, c_u)
        M = self.drag_flow(R, M, 0.5 * h, tau_v)
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


@pytest.mark.parametrize(
    "d,full,expected",
    [(1, False, 3), (1, True, 4), (2, False, 21), (2, True, 40), (3, False, 32), (3, True, 65)],
)
def test_transform_calls_per_record(monkeypatch, d, full, expected):
    # every derivative once per record: in 1D the state's fields go forward
    # in one call and their derivatives back in one, then lap log R (and, in
    # the full tier, lap sqrt R / sqrt R and the Korteweg stress) forward and
    # their derivatives back; for d > 1 each field's forward is one call and
    # each inverse component one call.  The Parseval terms make no inverse.
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


def test_step_frozen_tau_preserves_equilibrium():
    g = Grid(1, 8.0, 128)
    st0 = gaussian_state(g)
    p = ParamSet(nu=0.3, eps=0.0, dt_policy="fixed", dt=1e-3)
    st = st0
    for _ in range(100):
        st = step(st, p, 1e-3, (1.0, 0.0))
    drift = np.abs(st.R - st0.R).max()
    assert drift <= 1e-10


def test_step_mass_exact():
    g = Grid(1, 8.0, 128)
    st = drag_state(g)
    p = ParamSet(nu=0.1, eps=0.2, r1=0.05, dt_policy="fixed", dt=5e-3,
                 viscous_form="bounded")
    m0 = g.quad(st.R)
    for _ in range(20):
        st = step(st, p, 5e-3, (1.02, 0.2))
    # the zero mode of R is exactly constant; the state carries the raw R,
    # so its mass moves only by round-off
    assert abs(g.quad(st.R) - m0) / m0 < 1e-12


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


@pytest.mark.parametrize(
    "d,term",
    [
        (1, {}),
        (1, {"nu": 0.1}),
        (1, {"eps": 0.5}),
        (1, {"delta1": 1e-2}),
        (1, {"delta2": 5e-5}),
        (1, {"eta1": 2e-7}),
        (1, {"eta2": 5e-13, "s": 2}),
        (1, {"r0": 0.1}),
        (1, {"r1": 1.0}),
        (2, {"nu": 0.1, "eps": 0.1, "r0": 0.02, "r1": 0.02, "delta1": 1e-4,
             "delta2": 1e-7, "eta1": 1e-14, "eta2": 1e-22, "s": 3}),
    ],
    ids=["base", "nu", "eps", "delta1", "delta2", "eta1", "eta2", "r0", "r1", "2d_all"],
)
def test_state_convergence_per_term(d, term):
    # the terms of test_rhs_is_the_generator_of_step, each alone on the base
    # eps = 1e-3 (delta2, eta1 and eta2 milder, so that the coarsest step
    # resolves them), plus every term at once in 2D: the fixed-dt errors of
    # the final R and M against a dt = 5e-4 reference fall about 4x per
    # halving
    g = Grid(1, 8.0, 128) if d == 1 else Grid(2, 4.0, 32)
    st0 = term_state(g)
    finals = {}
    for dt in (8e-3, 4e-3, 2e-3, 5e-4):
        p = ParamSet(**{"eps": 1e-3, "viscous_form": "bounded", **term,
                        "dt_policy": "fixed", "dt": dt})
        traj = run(st0, p, 0.1, diag_every=10**9)
        assert traj.status == "ok"
        finals[dt] = arrays_from_state(traj.state_final)
    for i in (0, 1):
        e1, e2, e3 = (np.abs(finals[dt][i] - finals[5e-4][i]).max() for dt in (8e-3, 4e-3, 2e-3))
        assert 2.5 < e1 / e2 < 6.5
        assert 2.5 < e2 / e3 < 8.0


# one explicit family binds each case: (params, U on the data, tau)
ENVELOPE_CASES = {
    "advective": ({"nu": 1e-12}, 1.0, 0.5),
    "acoustic": ({"nu": 1e-12}, 0.0, 1.0),
    "viscous": ({"nu": 0.1}, 0.0, 1.0),
    "korteweg": ({"eps": 0.1}, 0.0, 1.0),
    "eta2": ({"nu": 1e-12, "eta2": 1e-16, "s": 2}, 0.0, 1.0),
}


@pytest.mark.parametrize("family", list(ENVELOPE_CASES))
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
    kw, u0, tau_v = ENVELOPE_CASES[family]
    g = Grid(1, 1.0, 64)
    y = g.y[0]
    R = 1.0 + 0.3 * np.cos(math.pi * y / g.ell)
    M = (R * u0 * (1.0 + 0.2 * np.sin(math.pi * y / g.ell)))[None]
    v0 = np.random.default_rng(0).standard_normal((2, g.n))
    tau = (tau_v, 0.0)
    p = ParamSet(**kw, viscous_form="bounded", dt_policy="fixed")
    st = _Stepper(g, p, float(R.mean()), float(R.min() / R.max()))
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
    # about t = 0.05 to the end
    state, params = experiments.full_reg_setup(n=256)
    R, M = arrays_from_state(state)
    st = _Stepper(state.grid, params.bind(1), float(R.mean()), float(R.min() / R.max()))
    assert st.cfl_dt(R, M, 1.0, 0.0)[1] == "eta2"
    traj = run(state, params, 1.0, diag_every=10**9)
    assert traj.status == "ok"
    assert set(traj.cfl_binding) == {"eta2", "acoustic"}
    assert sum(traj.cfl_binding.values()) == traj.n_steps
    assert traj.cfl_binding["acoustic"] > 0.9 * traj.n_steps
    R1, M1 = arrays_from_state(traj.state_final)
    tau = tau_solve(1.001, 1e-12, 1e-14).eval(1.0)
    assert st.cfl_dt(R1, M1, *tau)[1] == "acoustic"


def test_run_zero_horizon_returns_initial():
    g = Grid(1, 6.0, 64)
    st = gaussian_state(g)
    traj = run(st, ParamSet(nu=0.1, eps=0.0, dt_policy="fixed", dt=1e-3), 0.0)
    assert traj.n_steps == 0
    assert len(traj.records) == 1
    assert np.abs(traj.state_final.R - st.R).max() == 0.0
    assert np.abs(traj.state_final.M - st.M).max() == 0.0


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_stops_a_diverging_run_without_warnings():
    # at 3x the default CFL number the criterion-3 run diverges near t = 1;
    # the run names the failed step and cell instead of letting numpy warn
    state, params = experiments.full_reg_setup(n=256)
    params = dataclasses.replace(params, cfl=1.2)
    traj = run(state, params, 1.0, diag_every=10**9)
    assert traj.status == "nan"
    stop = traj.stop
    assert stop["reason"] == "nan"
    assert stop["step"] == traj.n_steps + 1
    assert stop["t"] == traj.state_final.t < 1.0
    assert len(stop["cell"]) == 1 and 0 <= stop["cell"][0] < 256
    assert np.all(np.isfinite(traj.state_final.R))
