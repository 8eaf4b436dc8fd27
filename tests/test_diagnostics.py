"""Functional and identity diagnostics.

Closed-form oracle used repeatedly: for the mass-matched Gaussian
R = exp(-|y|^2) in one dimension,
    quad(R |y|^2) = sqrt(pi)/2,   quad(R log R) = -sqrt(pi)/2,
so the potential part of the pseudo-energy vanishes exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isofluid import diagnostics as diag
from isofluid.params import ParamSet
from isofluid.rescaling import FluidState, smooth_density
from isofluid.solver import state_from_root
from isofluid.spectral import Grid


def state_from_R(g, R, lam=None):
    """The state of R with Lambda = sqrt R U (a list of components)."""
    lam = np.zeros((g.d,) + g.shape) if lam is None else np.stack(lam)
    return state_from_root(g, np.sqrt(np.maximum(R, 0.0)), lam)


def random_mass_matched(g, rng, mass):
    from isofluid.experiments import random_positive_field

    R = random_positive_field(g, rng)
    R *= mass / (R.sum() * g.weight)
    return R


def test_energy_gaussian_zero_potential():
    g = Grid(1, 8.0, 256)
    st = state_from_R(g, np.exp(-g.r2))
    e = diag.energy(st, (1.0, 0.0), eps=0.0)
    assert abs(e) < 1e-10  # quad(R|y|^2 + R log R) = 0 for the Gaussian


def test_energy_kinetic_and_quantum_parts():
    g = Grid(1, 8.0, 256)
    R = np.exp(-g.r2)
    lam = [0.5 * np.sqrt(R)]
    st = state_from_R(g, R, lam)
    tau = (2.0, 0.3)
    e0 = diag.energy(state_from_R(g, R), tau, eps=0.0)
    e = diag.energy(st, tau, eps=0.0)
    kinetic = 0.25 * math.sqrt(math.pi)  # quad(|Lambda|^2) = 0.25 quad(R)
    assert abs((e - e0) - kinetic / (2 * tau[0] ** 2)) < 1e-10


def test_dissipation_zero_cases():
    g = Grid(1, 6.0, 128)
    st = state_from_R(g, np.exp(-g.r2))
    assert diag.dissipation(st, (1.0, 0.0), eps=0.0, nu=0.0) == 0.0
    # U = 0, eps = 0: only the nu term could contribute and DU = 0
    assert abs(diag.dissipation(st, (1.0, 0.5), eps=0.0, nu=0.3)) < 1e-12


def test_dissipation_nonnegative_random():
    g = Grid(1, 6.0, 64)
    rng = np.random.default_rng(0)
    for _ in range(20):
        R = random_mass_matched(g, rng, math.sqrt(math.pi))
        lam = [0.3 * rng.standard_normal(g.shape) * np.sqrt(R)]
        st = state_from_R(g, R, lam)
        assert diag.dissipation(st, (1.2, 0.7), eps=0.4, nu=0.2) >= 0.0


def test_bd_kinetic_vanishes_at_effective_velocity():
    # U = -nu grad log R  <=>  Lambda = -2 nu grad sqrt R
    g = Grid(1, 7.0, 256)
    nu = 0.37
    R = np.exp(-g.r2) + 0.05
    s = np.sqrt(R)
    gs = g.spectral.grad(s)
    st = state_from_R(g, R, [-2.0 * nu * gs[0]])
    bd = diag.bd_entropy(st, (1.0, 0.0), eps=0.0, nu=nu)
    plain = diag.bd_entropy(state_from_R(g, R), (1.0, 0.0), eps=0.0, nu=0.0)
    # kinetic part of E_BD vanishes: what remains is the potential part
    assert abs(bd - plain) < 1e-12 * max(1.0, abs(plain))


def test_bd_matches_energy_when_unregularized():
    g = Grid(1, 6.0, 128)
    st = state_from_R(g, np.exp(-g.r2) + 0.02)
    e = diag.energy(st, (1.0, 0.0), eps=0.0)
    bd = diag.bd_entropy(st, (1.0, 0.0), eps=0.0, nu=0.0)
    assert abs(e - bd) < 1e-13 * max(1.0, abs(e))


def test_bd_entropy_reg_nonnegative_sweep():
    g = Grid(1, 6.0, 64)
    rng = np.random.default_rng(1)
    mass = float(np.exp(-g.r2).sum() * g.weight)
    p = ParamSet(nu=0.2, eps=0.3, r0=0.05, eta1=1e-12, eta2=1e-12, s=2).bind(1)
    for _ in range(100):
        R = random_mass_matched(g, rng, mass)
        lam = [0.2 * rng.standard_normal(g.shape) * np.sqrt(R)]
        st = state_from_R(g, R, lam)
        assert diag.bd_entropy_reg(st, p, (1.0, 0.0)) >= -1e-10


def test_relative_entropy_and_ck_gap():
    g = Grid(1, 8.0, 256)
    gam = diag.matched_gaussian(g, math.sqrt(math.pi))
    st_R = diag.StateOps(g, gam)
    assert abs(diag.relative_entropy(st_R)) < 1e-12
    assert abs(diag.csiszar_kullback_gap(st_R)) < 1e-12
    shifted = diag.StateOps(g, np.exp(-((g.y[0] - 1.0) ** 2)))
    assert diag.csiszar_kullback_gap(shifted) > 1e-3


def test_ck_gap_sweep():
    rng = np.random.default_rng(2)
    worst = math.inf
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        g = Grid(d, 6.0, 64 if d == 1 else 32)
        R = diag.StateOps(g, random_mass_matched(g, rng, 2.0))
        worst = min(worst, diag.csiszar_kullback_gap(R))
    assert worst >= -1e-10


def test_korteweg_identity_residuals():
    g1 = Grid(1, 5.0, 128)
    const = diag.StateOps(g1, np.full(g1.shape, 0.8**2))
    assert diag.korteweg_identity_residual(const) < 1e-12
    assert diag.loghess_identity_residual(diag.StateOps(g1, np.full(g1.shape, 0.5))) < 1e-12
    s1 = np.exp(-g1.r2) + 0.2
    assert diag.korteweg_identity_residual(diag.StateOps(g1, s1**2)) <= 1e-8
    assert diag.loghess_identity_residual(diag.StateOps(g1, s1**2)) <= 1e-8
    g2 = Grid(2, 5.0, 64)
    s2 = np.exp(-g2.r2) + 0.2
    assert diag.korteweg_identity_residual(diag.StateOps(g2, s2**2)) <= 1e-6
    assert diag.loghess_identity_residual(diag.StateOps(g2, s2**2)) <= 1e-6


def test_korteweg_residual_decays_with_resolution():
    res = []
    for n in (32, 64, 128):
        g = Grid(1, 5.0, n)
        s = np.exp(-g.r2) + 0.2
        res.append(max(diag.korteweg_identity_residual(diag.StateOps(g, s**2)), 1e-16))
    assert res[0] > res[1] >= res[2] - 1e-16


def test_korteweg_requires_positive_field():
    g = Grid(1, 5.0, 64)
    with pytest.raises(ValueError):
        diag.korteweg_identity_residual(diag.StateOps(g, np.zeros(g.shape)))


def test_compatibility_constant_velocity():
    g = Grid(1, 6.0, 128)
    s = np.exp(-g.r2) + 0.3
    st = state_from_root(g, s, 0.7 * s[None])  # U = 0.7
    tn, sk = diag.compatibility_residuals(st)
    assert tn <= 1e-10
    assert sk <= 1e-10


def test_sk_of_constant_density_vanishes():
    g = Grid(2, 4.0, 32)
    st = state_from_R(g, np.full(g.shape, 0.64))
    ops = diag.StateOps.of(st)
    hs = g.spectral.inv(g.spectral.hess_sym * g.spectral.fwd(ops.s))
    assert max(np.abs(h).max() for h in hs) < 1e-12


def test_irrotationality_trivial_1d():
    g = Grid(1, 4.0, 32)
    st = state_from_R(g, np.exp(-g.r2), [np.ones(g.shape) * 0.1])
    assert diag.irrotationality_residual(st) == 0.0


def test_llogl_bound_small_field_branch():
    g = Grid(1, 6.0, 128)
    f = 0.9 * np.exp(-g.r2)  # |f| <= 0.9 < 1 everywhere
    value, bound = diag.llogl_bound(diag.StateOps(g, f**2), beta=2.0 / 3.0)
    assert value <= bound


def test_llogl_bound_gaussian_and_scaling():
    g = Grid(1, 6.0, 128)
    f = np.exp(-g.r2 / 2.0)
    v1, b1 = diag.llogl_bound(diag.StateOps(g, f**2), beta=2.0 / 3.0)
    assert v1 <= b1
    v2, b2 = diag.llogl_bound(diag.StateOps(g, (2.0 * f) ** 2), beta=2.0 / 3.0)
    assert v2 <= b2
    assert v2 > v1 and b2 > b1


def test_llogl_bound_sweep_and_validation():
    rng = np.random.default_rng(3)
    from isofluid.experiments import random_positive_field

    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        g = Grid(d, 6.0, 64 if d == 1 else 32)
        f = np.sqrt(random_positive_field(g, rng))
        value, bound = diag.llogl_bound(diag.StateOps(g, f**2), 2.0 / (d + 2))
        assert value <= bound
    g = Grid(1, 4.0, 32)
    with pytest.raises(ValueError):
        diag.llogl_bound(diag.StateOps(g, np.ones(g.shape)), beta=2.0)


def test_jungel_quantities():
    g = Grid(1, 5.0, 128)
    l0, r0 = diag.jungel_quantities(diag.StateOps(g, np.full(g.shape, 0.7)))
    assert abs(l0) < 1e-12 and abs(r0) < 1e-12
    rng = np.random.default_rng(4)
    from isofluid.experiments import random_positive_field

    ratios = []
    for _ in range(100):
        R = diag.StateOps(g, random_positive_field(g, rng) + 0.05)
        left, right = diag.jungel_quantities(R)
        assert left >= 0.0 and right >= 0.0
        if right > 1e-12:
            ratios.append(left / right)
    # equivalence constants are implicit; record the observed range only
    assert all(math.isfinite(r) and r > 0 for r in ratios)


def test_balance_residual_frozen_trajectory():
    times = np.linspace(0.0, 1.0, 11)
    e = np.full(11, 3.7)
    zeros = np.zeros(11)
    assert diag.energy_balance_residual(times, e, zeros, zeros) == 0.0
    assert diag.bd_identity_residual(times, zeros, zeros, zeros) == 0.0


def test_record_and_csv_layout():
    g = Grid(2, 5.0, 16)
    rng = np.random.default_rng(5)
    R = random_mass_matched(g, rng, 2.0) + 0.05
    st = state_from_R(g, R, [0.1 * np.sqrt(R), -0.2 * np.sqrt(R)])
    p = ParamSet(nu=0.1, eps=0.2, r0=0.01, r1=0.01).bind(2)
    rec = diag.record(st, p, (1.1, 0.2), full=True)
    cols = diag.DiagnosticsRecord.csv_columns(2)
    row = rec.csv_row()
    assert len(cols) == len(row)
    assert cols[0] == "t"
    assert "momentum_1" in cols
    sem = diag.DiagnosticsRecord.column_semantics()
    assert "energy_reg" in sem
    assert rec.mass > 0 and math.isfinite(rec.energy)
    assert rec.ck_gap is not None and rec.ck_gap >= -1e-10


def _llogl_small_reference(g, l2, yf, beta):
    """The small-field term of llogl_bound as one lattice sum per kappa
    candidate: the minimum over the candidates of
    |f|_2^(2-beta) V_kappa^(beta/2) + ||y| f|_2^(2-beta) W_kappa^(beta/2)."""
    a_exp = g.d * beta / 2.0
    b_exp = (2.0 - beta) - a_exp
    p_neg = 2.0 * (2.0 - beta) / beta
    c_d = {1: 2.0, 2: math.pi}[g.d]
    s_d = {1: 2.0, 2: 2.0 * math.pi}[g.d]
    P = l2 ** (2.0 - beta) * c_d ** (beta / 2.0)
    Q = yf ** (2.0 - beta) * (s_d * beta / (2.0 * (2.0 - beta) - g.d * beta)) ** (beta / 2.0)
    cand = [(b_exp * Q / (a_exp * P)) ** (1.0 / (a_exp + b_exp))]
    cand += list(np.geomspace(g.dy, g.ell * math.sqrt(g.d), 24))
    rad = np.sqrt(g.r2)
    safe_rad = np.maximum(rad, g.dy * 1e-6)
    best = math.inf
    for kappa in cand:
        near = rad <= kappa
        v_kappa = g.weight * near.sum()
        w_kappa = g.weight * np.where(~near, safe_rad ** (-p_neg), 0.0).sum()
        best = min(best, l2 ** (2 - beta) * v_kappa ** (beta / 2) + yf ** (2 - beta) * w_kappa ** (beta / 2))
    return best


@st.composite
def positive_fields(draw):
    """A strictly positive field on a 1D or 2D grid, peak from 0.1 to 30 (so
    either branch of the bound can dominate)."""
    from isofluid.experiments import random_positive_field

    d = draw(st.sampled_from([1, 2]))
    g = Grid(d, draw(st.sampled_from([3.0, 6.0, 10.0])), draw(st.sampled_from([8, 16, 32, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = random_positive_field(g, rng, draw(st.sampled_from([1.0, 4.0, 8.0])))
    return g, draw(st.sampled_from([0.1, 1.0, 30.0])) * np.sqrt(R / R.max())


@settings(max_examples=60)
@given(positive_fields())
def test_llogl_bound_matches_reference_kappa_loop(case):
    g, f = case
    beta = 2.0 / (g.d + 2)
    value, bound = diag.llogl_bound(diag.StateOps(g, f**2), beta)
    assert value <= bound
    v2 = f**2
    l2 = math.sqrt(g.weight * v2.sum())
    yf = math.sqrt(g.weight * (g.r2 * v2).sum())
    small = _llogl_small_reference(g, l2, yf, beta)
    # the large-field term, unchanged: the lattice Sobolev bound of max |f|
    h1 = g.weight * (v2.sum() + sum(a**2 for a in g.spectral.grad(f)).sum())
    f_inf = math.sqrt(float(np.sum(1.0 / (1.0 + g.k2))) / g.volume * h1)
    ref = 2.0 / (math.e * beta) * (small + f_inf**beta * l2**2)
    assert abs(bound - ref) <= 1e-14 * ref


# ---------------------------------------------------------------------------
# the record before its term-integral form, kept as a reference: every column
# evaluated in physical space, one inverse transform per derivative, as a
# list of its terms (each a quadrature times its coefficient)


def _reference_record(state, p, tau, r_floor):
    """(terms, residuals): the terms of each value column and each
    identity-residual column of diag.record(state, p, tau, full=True)."""
    g, sp, d = state.grid, state.grid.spectral, state.grid.d
    tau_v, taudot_v = tau
    t2, t3, t4 = tau_v**2, tau_v**3, tau_v**4

    def quad(a):
        return float(g.weight * np.sum(a))

    def hess(a):
        return dict(zip(sp.hess_keys, sp.inv(sp.hess_sym * sp.fwd(a))))

    def tensor2(h):
        return sum((1.0 if i == j else 2.0) * v**2 for (i, j), v in h.items())

    R = state.R
    s = np.sqrt(R)
    lam = [a / np.sqrt(smooth_density(R, r_floor)) for a in state.M]
    U = [a / np.sqrt(smooth_density(R, r_floor)) for a in lam]
    rt = np.maximum(R, r_floor)
    logR = np.log(np.maximum(R, diag.LOG_FLOOR))
    gs, gR = sp.grad(s), sp.grad(R)
    gs2 = sum(a**2 for a in gs)
    lam2, U2 = sum(a**2 for a in lam), sum(u**2 for u in U)
    lgs = sum(a * b for a, b in zip(lam, gs))
    cols = [sp.grad(u) for u in U]
    gU = [[cols[j][i] for j in range(d)] for i in range(d)]  # gU[i][j] = d_i U_j
    DU2 = sum(0.25 * (gU[i][j] + gU[j][i]) ** 2 for i in range(d) for j in range(d))
    AU2 = sum(0.25 * (gU[i][j] - gU[j][i]) ** 2 for i in range(d) for j in range(d))
    hR = hess(R)
    hlog = {k: (h - gR[k[0]] * gR[k[1]] / rt) / rt for k, h in hR.items()}
    RH = quad(R * (R > r_floor) * tensor2(hlog))

    def glR2(q):
        return quad(sum(sp.inv(sym * sp.fwd(R)) ** 2 for sym in sp.grad_lap_symbol(q)))

    kin = [quad(lam2), p.eps**2 * quad(gs2)]
    kin_eta = kin + ([p.eta2 * glR2(p.s)] if p.eta2 > 0 else [])
    pot = [quad(R * g.r2), quad(R * np.where(R > 0, logR, 0.0))]
    eta_pot = []
    if p.eta1 > 0:
        eta_pot.append(p.eta1 / (p.alpha + 1.0) * quad(rt ** (-p.alpha)))
    if p.eta2 > 0:
        eta_pot.append(p.eta2 / (2 * t2) * glR2(p.s))

    def diffusion(c):
        out = [4.0 * c / t2 * quad(gs2)]
        if p.eta1 > 0:
            neg = sum(a**2 for a in sp.grad(rt ** (-p.alpha / 2.0)))
            out.append(4.0 * p.eta1 * c / (p.alpha * t2) * quad(neg))
        if p.eta2 > 0:
            out.append(p.eta2 * c / t4 * quad(sp.lap(R, p.s + 1) ** 2))
        return out if c > 0 else []

    lapU = [sp.lap(u) for u in U]
    damping = [p.delta2 / t4 * quad(sum(a**2 for a in lapU)), p.r0 / t4 * quad(U2),
               p.r1 / t4 * quad(lam2 * U2)]
    rate = [taudot_v / t3 * a for a in kin]
    rate_eta = [taudot_v / t3 * a for a in kin_eta]
    bd_kin = [quad(lam2), 4.0 * p.nu * quad(lgs), 4.0 * p.nu**2 * quad(gs2),
              p.eps**2 * quad(gs2), -2.0 * p.r0 * quad(np.where(R <= 1.0, logR, 0.0))]
    bd = [a / (2 * t2) for a in bd_kin] + pot
    chess = p.delta1 * p.nu**2 + p.nu * p.eps**2 + p.delta1 * p.eps**2 / 2.0
    terms = {
        "mass": [quad(R)],
        "second_moment": [quad(R * g.r2)],
        "energy": [a / (2 * t2) for a in kin] + pot,
        "dissipation": rate + [p.nu / t4 * quad(R * DU2)],
        "bd_entropy": bd,
        "bd_dissipation": rate + [4.0 * p.nu / t2 * quad(gs2), p.nu / t4 * quad(R * AU2),
                                  p.nu * p.eps**2 / t4 * RH],
        "balance_rhs": [2.0 * d * p.delta1 / t2 * quad(R),
                        -p.nu * taudot_v / t3 * quad(R * sum(gU[i][i] for i in range(d)))],
        "energy_reg": [a / (2 * t2) for a in kin] + pot + eta_pot,
        "dissipation_reg": rate_eta + [p.nu / t4 * quad(R * DU2)] + diffusion(p.delta1)
        + [p.delta1 * p.eps**2 / (2 * t4) * RH] + damping,
        "bd_entropy_reg": bd + eta_pot,
        "bd_dissipation_reg": rate_eta
        + [2.0 * p.r0 * p.nu * taudot_v / t3 * quad(np.where(R < 1.0, np.abs(logR), 0.0)),
           chess / t4 * RH, p.nu / t4 * quad(R * AU2)]
        + diffusion(p.nu + p.delta1) + damping,
    }
    terms.update({f"momentum_{i}": [quad(s * a)] for i, a in enumerate(lam)})
    nu = p.nu
    if nu > 0:
        gradUT = sum(gU[i][j] * gU[j][i] for i in range(d) for j in range(d))
        lapR = sp.lap(R)
        glog = sp.grad(logR)
        mix = sum(gU[i][j] * gR[i] * glog[j] for i in range(d) for j in range(d))
        div_mom = sp.div([s * a for a in lam])
        glaplog = sp.grad(sum(hlog[(i, i)] for i in range(d)))
        terms["bdid_f"] = [nu * 2.0 * quad(lgs) / t2, 2.0 * nu**2 * quad(gs2) / t2,
                           -p.r0 * nu * quad(logR) / t2]
        terms["bdid_diss"] = [
            2.0 * nu * taudot_v / t3 * 2.0 * quad(lgs),
            -2.0 * nu * taudot_v / t3 * p.r0 * quad(logR),
            (p.delta1 * nu**2 + p.eps**2 * nu / 4.0) / t4 * RH,
        ] + diffusion(nu)
        terms["bdid_rhs"] = [
            2.0 * d * nu / t2 * quad(R),
            nu / t4 * quad(R * gradUT),
            -p.r1 * nu / t4 * quad(U2 * sum(u * a for u, a in zip(U, gR))),
            -p.r0 * nu * p.delta1 / t4 * quad(lapR / rt),
            -p.delta1 * nu / t4 * quad(mix),
            -p.delta1 * nu / t4 * quad((lapR / rt) * div_mom),
            -p.delta2 * nu / t4 * quad(sum(a * b for a, b in zip(lapU, glaplog))),
        ]
    gam = np.exp(-g.r2)
    gam *= quad(R) / quad(gam)
    rel = [quad(np.where(R > 0, R * logR, 0.0)), -quad(np.where(R > 0, R * np.log(gam), 0.0))]
    terms["relative_entropy"] = rel
    terms["ck_gap"] = rel + [-quad(np.abs(R - gam)) ** 2 / (2.0 * quad(R))]
    terms["llogl_value"] = [quad(R * np.abs(logR))]
    hs = hess(s)
    terms["jungel_left"] = [quad(tensor2(hs)), quad(sum(a**2 for a in sp.grad(np.sqrt(s))) ** 2)]
    terms["jungel_right"] = [quad(R * tensor2(hess(logR)))]

    # identity residuals
    stress = {k: s * h - gs[k[0]] * gs[k[1]] for k, h in hs.items()}
    rows = [[stress[(min(i, j), max(i, j))] for i in range(d)] for j in range(d)]
    lhs = [R * a for a in sp.grad(sp.lap(s) / s)]
    rhs = [sp.div(row) for row in rows]
    kort = math.sqrt(quad(sum((a - b) ** 2 for a, b in zip(lhs, rhs))))
    kort /= math.sqrt(quad(sum(b**2 for b in rhs)))
    left = 0.5 * quad(R * tensor2(hess(logR)))
    loghess = abs(left - quad((sp.lap(s) / s) * sp.lap(R))) / abs(left)
    mask = R > r_floor
    gj = [sp.grad(s * a) for a in lam]
    num = den = 0.0
    for i in range(d):
        for j in range(d):
            diff = R * gU[i][j] - (gj[j][i] - 2.0 * lam[j] * gs[i])
            num += float(np.sum((diff**2)[mask]))
            den += float(np.sum((gj[j][i] ** 2 + (2.0 * lam[j] * gs[i]) ** 2)[mask]))
    tn = math.sqrt(num) / max(math.sqrt(den), 1e-300)
    num = den = 0.0
    for (i, j), h in hR.items():
        w = 1.0 if i == j else 2.0
        num += w * float(np.sum((stress[(i, j)] - (0.5 * h - 2.0 * gs[i] * gs[j])) ** 2))
        den += w * float(np.sum((stress[(i, j)] + gs[i] * gs[j]) ** 2 + 0.25 * h**2))
    sk = math.sqrt(num) / max(math.sqrt(den), 1e-300)
    irrot = 0.0
    if d == 2:
        curl = gj[1][0] - gj[0][1]
        target = 2.0 * (gs[0] * lam[1] - gs[1] * lam[0])
        irrot = math.sqrt(quad((curl - target) ** 2) / quad(curl**2 + target**2))
    residuals = {"korteweg_residual": kort, "loghess_residual": loghess, "tn_residual": tn,
                 "sk_residual": sk, "irrot_residual": irrot}
    return terms, residuals


# the thresholds the identity checks apply to each residual, here applied to
# the residual's move from the reference
RESIDUAL_TOL = {"korteweg_residual": 1e-8, "loghess_residual": 1e-8, "tn_residual": 1e-10,
                "sk_residual": 1e-10, "irrot_residual": 1e-8}


@st.composite
def record_cases(draw):
    """(state, params, tau, r_floor): a random positive 1D or 2D state with a
    random momentum, and a parameter set in which each term may vanish."""
    from isofluid.experiments import random_positive_field

    d = draw(st.sampled_from([1, 2]))
    g = Grid(d, draw(st.sampled_from([4.0, 6.0])), draw(st.sampled_from([16, 32])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = random_positive_field(g, rng, draw(st.sampled_from([2.0, 4.0]))) + 0.05
    lam = [0.4 * np.sqrt(R) * (random_positive_field(g, rng) - 0.5) for _ in range(d)]
    state = state_from_R(g, R, lam)

    def maybe(value):
        return draw(st.sampled_from([0.0, value]))

    nu, eps = maybe(0.1), maybe(0.2)
    params = ParamSet(
        nu=nu if nu or eps else 0.1, eps=eps, r0=maybe(0.03), r1=maybe(0.05),
        delta1=maybe(1e-3), delta2=maybe(1e-4), eta1=maybe(1e-6), eta2=maybe(1e-9),
        alpha=draw(st.sampled_from([5.0, 8.0])), s=d + draw(st.sampled_from([1, 2])),
    ).bind(d)
    tau = (draw(st.sampled_from([1.0, 1.7])), draw(st.sampled_from([0.0, 0.4])))
    return state, params, tau, 1e-10 * float(R.mean())


@settings(max_examples=40)
@given(record_cases())
def test_record_matches_physical_space_reference(case):
    state, p, tau, r_floor = case
    g = state.grid
    terms, residuals = _reference_record(state, p, tau, r_floor)
    for x in (state, diag.StateOps(g, state.R, state.M, r_floor)):
        rec = diag.record(x, p, tau, full=True, r_floor=r_floor)
        row = dict(zip(diag.DiagnosticsRecord.csv_columns(g.d), rec.csv_row()))
        for name, parts in terms.items():
            assert abs(row[name] - sum(parts)) <= 1e-12 * sum(abs(a) for a in parts), name
        for name in ("bdid_f", "bdid_diss", "bdid_rhs"):
            if name not in terms:
                assert row[name] == 0.0
        for name, ref in residuals.items():
            assert abs(row[name] - ref) <= RESIDUAL_TOL[name], name
        value, bound = diag.llogl_bound(state, 2.0 / (g.d + 2))
        assert abs(row["llogl_bound"] - bound) <= 1e-12 * bound
        assert row["min_density"] == float(state.R.min())


@settings(max_examples=20)
@given(record_cases())
def test_record_columns_are_their_functionals_bitwise(case):
    # record builds the term lists of its columns once and sums each column
    # as the functional of its name does, in the same groups (energy_reg is
    # energy plus the eta potential's total); taudot = 0 turns the
    # taudot-weighted terms off in both
    state, p, tau, r_floor = case
    rec = diag.record(state, p, tau, full=True, r_floor=r_floor)

    def ops():
        return diag.StateOps(state.grid, state.R, state.M, r_floor)

    columns = {
        "energy": diag.energy(ops(), tau, p.eps),
        "dissipation": diag.dissipation(ops(), tau, p.eps, p.nu),
        "bd_entropy": diag.bd_entropy(ops(), tau, p.eps, p.nu, p.r0),
        "bd_dissipation": diag.bd_dissipation(ops(), tau, p.eps, p.nu),
        **{name: getattr(diag, name)(ops(), p, tau)
           for name in ("energy_reg", "dissipation_reg", "bd_entropy_reg", "bd_dissipation_reg",
                        "balance_rhs")},
        **dict(zip(("bdid_f", "bdid_diss", "bdid_rhs"), diag.bd_identity_terms(ops(), p, tau))),
    }
    for name, value in columns.items():
        assert np.float64(getattr(rec, name)).view(np.int64) == np.float64(value).view(np.int64), name


def _plans():
    """The plans of the plain energy, dissipation and BD dissipation, and the
    core and full record plans of check's drag ladder, the cross-check's
    hydro rows and crit3_1d's run."""
    from isofluid import experiments
    from isofluid.lognls import crosscheck_hydro_params

    yield "energy", diag._plan(diag._energy, 1e-3)
    yield "dissipation", diag._plan(diag._dissipation, 1e-3, 0.1)
    yield "bd_dissipation", diag._plan(diag._bd_dissipation, 1e-3, 0.1)
    records = {
        "drag": ParamSet(nu=0.1, eps=0.2, r1=0.05, dt_policy="fixed", dt=1e-2,
                         viscous_form="bounded"),
        "hydro": crosscheck_hydro_params(1.0, 1e-3, 5e-4),
        "crit3_1d": experiments.full_reg_setup(n=64)[1],
    }
    for name, p in records.items():
        for full in (False, True):
            yield f"{name} {full}", diag._plan(diag._columns, p.bind(1), 1, full)


def test_plans_carry_no_switched_off_term():
    # a zero parameter times or over a tau factor folds to the constant 0.0
    # (see diagnostics._Coef), which the plan leaves out: no key takes an
    # unset argument (the s of eta2 = 0) and no key's every coefficient is 0
    # at a real (tau, taudot)
    for name, plan in _plans():
        assert not [k for k in plan.keys if isinstance(k, tuple) and None in k], name
        c = plan.coefficients((1.3, 0.4))
        dead = [k for k, slots in zip(plan.keys, plan.key_slots) if all(c[s] == 0.0 for s in slots)]
        assert not dead, name


def test_energy_at_a_nan_tau_is_nan():
    # with no switched-off term left in a plan, a NaN tau gives NaN, not a
    # term evaluated on an unset argument
    g = Grid(1, 8.0, 64)
    state = state_from_R(g, np.exp(-g.r2))
    assert math.isnan(diag.energy(state, (math.nan, 0.0), 1.0))
    assert math.isnan(diag.record(state, ParamSet(nu=0.1, eps=1.0).bind(1), (math.nan, 0.0)).energy)


# ---------------------------------------------------------------------------
# stacks of states


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _one(R, M):
    """The stack of one of the state (R, M)."""
    return R[None], M[:, None]


def _rows(g, Rs, Ms):
    return np.stack(Rs), np.stack(Ms, axis=1)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_stacked_fetch_of_several_fields_is_each_states_fetch(d, n):
    # a stack's fetch of derivatives of several fields, forward as one
    # batch, gives each row the derivatives of its own stack of one, bitwise
    from isofluid.experiments import random_positive_field

    g = Grid(d, 6.0, n)
    rng = np.random.default_rng(22)
    Rs = [random_positive_field(g, rng) + 0.01 for _ in range(3)]
    Ms = [np.stack([R * (random_positive_field(g, rng) - 0.5) for _ in range(d)]) for R in Rs]
    names = ("grad_s", "grad_U", "hess_R", "div_mom")
    stack = diag.StateOps(g, *_rows(g, Rs, Ms))
    stack.fetch(*names)
    for b, (R, M) in enumerate(zip(Rs, Ms)):
        one = diag.StateOps(g, *_one(R, M))
        one.fetch(*names)
        for name in names:
            row = stack[name][(Ellipsis, slice(b, b + 1)) + (slice(None),) * d]
            assert np.array_equal(_bits(row), _bits(one[name])), (b, name)


def _random_rows(d, n, masses=(0.5, 1.0, 3.0)):
    """A grid and the (R, M) of one random positive state per mass."""
    from isofluid.experiments import random_positive_field

    g = Grid(d, 6.0, n)
    rng = np.random.default_rng(21)
    Rs = [m * random_positive_field(g, rng) + 0.01 for m in masses]
    Ms = [np.stack([0.3 * R * (random_positive_field(g, rng) - 0.5) for _ in range(d)])
          for R in Rs]
    return g, Rs, Ms


def _all_terms_params(d):
    return ParamSet(nu=0.1, eps=0.2, r0=0.03, r1=0.05, delta1=1e-3, delta2=1e-4, eta1=1e-6,
                    eta2=1e-9, alpha=5.0, s=d + 1).bind(d)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32)])
def test_stack_rows_are_their_single_states_bitwise(d, n):
    # a stacked StateOps gives each row the term integrals and functionals
    # of the row's own stack of one, bitwise; the rows differ in mass, and
    # the first has taudot = 0, which turns its taudot-weighted terms off
    g, Rs, Ms = _random_rows(d, n)
    taus = [(1.0, 0.0), (1.3, 0.2), (2.1, 0.6)]
    p = _all_terms_params(d)
    stack = diag.StateOps(g, *_rows(g, Rs, Ms))
    singles = [diag.StateOps(g, *_one(R, M)) for R, M in zip(Rs, Ms)]
    assert stack.rows == 3 and all(ops.rows == 1 and not ops.lone for ops in singles)

    def same(name, fn, with_tau=False):
        got = fn(stack, taus) if with_tau else fn(stack)
        want = np.concatenate([fn(ops, [tau]) if with_tau else fn(ops)
                               for ops, tau in zip(singles, taus)])
        assert np.array_equal(_bits(got), _bits(want)), name

    args = {"glR2": (p.s,), "lapR2": (p.s + 1,), "gneg2": (p.alpha,), "rtneg": (p.alpha,)}
    for name in diag._TERMS:
        key = (name, *args[name]) if name in args else name
        same(name, lambda ops: ops.q(key))
    same("min_density", lambda ops: ops.min_density)
    same("energy", lambda ops, tau: diag.energy(ops, tau, p.eps), True)
    same("dissipation", lambda ops, tau: diag.dissipation(ops, tau, p.eps, p.nu), True)
    same("dissipation nu=0", lambda ops, tau: diag.dissipation(ops, tau, p.eps, 0.0), True)
    same("bd_entropy", lambda ops, tau: diag.bd_entropy(ops, tau, p.eps, p.nu, p.r0), True)
    same("bd_dissipation", lambda ops, tau: diag.bd_dissipation(ops, tau, p.eps, p.nu), True)
    for name in ("energy_reg", "dissipation_reg", "bd_entropy_reg", "bd_dissipation_reg",
                 "balance_rhs"):
        same(name, lambda ops, tau, fn=getattr(diag, name): fn(ops, p, tau), True)
    for i in range(3):
        same(f"bd_identity_terms[{i}]",
             lambda ops, tau: diag.bd_identity_terms(ops, p, tau)[i], True)
    same("relative_entropy", diag.relative_entropy)
    same("csiszar_kullback_gap", diag.csiszar_kullback_gap)
    for i in range(2):
        same(f"llogl_bound[{i}]", lambda ops: diag.llogl_bound(ops, 2.0 / (d + 2))[i])
        same(f"compatibility_residuals[{i}]", lambda ops: diag.compatibility_residuals(ops)[i])
        same(f"jungel_quantities[{i}]", lambda ops: diag.jungel_quantities(ops)[i])
    for fn in (diag.irrotationality_residual, diag.korteweg_identity_residual,
               diag.loghess_identity_residual):
        same(fn.__name__, fn)
    assert diag.dissipation(stack, taus, p.eps, 0.0)[0] == 0.0
    with pytest.raises(ValueError, match="3 tau pairs"):
        diag.energy(stack, taus[:2], p.eps)


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32)])
def test_stack_records_are_their_stacks_of_one_bitwise(d, n, full):
    # a core or a full record of a stack of B states gives B records, each
    # bitwise the record of its stack of one; the full tier evaluates the
    # identities on the rows whose R > 0 and leaves them None on the others
    g, Rs, Ms = _random_rows(d, n, (0.5, 1.0, 3.0, 2.0))
    Rs[2] = Rs[2] - 0.02  # a row with R < 0 somewhere
    taus = [(1.0, 0.0), (1.3, 0.2), (2.1, 0.6), (1.7, 0.3)]
    times = [0.0, 0.1, 0.2, 0.3]
    p = _all_terms_params(d)
    recs = diag.record(diag.StateOps(g, *_rows(g, Rs, Ms), 1e-9, times), p, taus, full=full)
    assert len(recs) == 4
    for b, rec in enumerate(recs):
        alone = diag.record(diag.StateOps(g, *_one(Rs[b], Ms[b]), 1e-9, [times[b]]), p,
                            [taus[b]], full=full)
        assert len(alone) == 1 and rec.t == times[b]
        assert np.array_equal(_bits(rec.csv_row()), _bits(alone[0].csv_row()), equal_nan=True), b
        assert (rec.ck_gap is None) == (not full)
        assert (rec.korteweg_residual is None) == (not full or b == 2)


def _column_functionals(ops, p, taus, full):
    """Each column of a record that its functional computes, from a fresh
    StateOps ops(): {column: the array of the rows' values}."""
    columns = {
        "energy": diag.energy(ops(), taus, p.eps),
        "dissipation": diag.dissipation(ops(), taus, p.eps, p.nu),
        "bd_entropy": diag.bd_entropy(ops(), taus, p.eps, p.nu, p.r0),
        "bd_dissipation": diag.bd_dissipation(ops(), taus, p.eps, p.nu),
        **{name: getattr(diag, name)(ops(), p, taus)
           for name in ("energy_reg", "dissipation_reg", "balance_rhs")},
        **dict(zip(("bdid_f", "bdid_diss", "bdid_rhs"), diag.bd_identity_terms(ops(), p, taus))),
    }
    if full:
        columns.update({name: getattr(diag, name)(ops(), p, taus)
                        for name in ("bd_entropy_reg", "bd_dissipation_reg")})
    return columns


@pytest.mark.parametrize("full", [False, True])
def test_a_block_of_64_records_is_its_stacks_of_one_bitwise(full):
    # the block a 1D n = 128 run evaluates its records in (stack_rows): the
    # rows have their own (tau, taudot) pairs, taudot = 0 on every third
    # (which turns the taudot-weighted terms off on those rows only), and
    # one row has R < 0; each record is bitwise the record of its stack of
    # one, and each column bitwise its functional on the stack
    g, Rs, Ms = _random_rows(1, 128, np.linspace(0.5, 3.0, 64))
    assert diag.stack_rows(g) == 64
    Rs[5] = Rs[5] - 0.02
    taus = [(1.0 + 0.05 * b, 0.0 if b % 3 == 0 else 0.01 * b) for b in range(64)]
    times = [0.01 * b for b in range(64)]
    p = _all_terms_params(1)

    def stack():
        return diag.StateOps(g, *_rows(g, Rs, Ms), 1e-9, times)

    recs = diag.record(stack(), p, taus, full=full)
    for b, rec in enumerate(recs):
        alone = diag.record(diag.StateOps(g, *_one(Rs[b], Ms[b]), 1e-9, [times[b]]), p,
                            [taus[b]], full=full)
        assert np.array_equal(_bits(rec.csv_row()), _bits(alone[0].csv_row()), equal_nan=True), b
        assert (rec.korteweg_residual is None) == (not full or b == 5)
    for name, values in _column_functionals(stack, p, taus, full).items():
        assert np.array_equal(_bits([getattr(rec, name) for rec in recs]), _bits(values)), name


@pytest.mark.parametrize("d,n", [(1, 128), (2, 16)])
def test_floor_and_min_density_are_each_rows_bitwise(d, n):
    # r_floor and min_density, one max and one min over the grid axes, are
    # bitwise each row's rescaling.vacuum_floor of max(R, 0) and its raw
    # minimum, on a stack with a row of R < 0 and a row of R <= 0 with zeros
    from isofluid.rescaling import vacuum_floor

    g, Rs, Ms = _random_rows(d, n, np.linspace(0.5, 3.0, 6))
    Rs[2] = -Rs[2]
    Rs[4] = np.where(Rs[4] > np.median(Rs[4]), 0.0, -Rs[4])
    ops = diag.StateOps(g, *_rows(g, Rs, Ms))
    floors = [vacuum_floor(np.maximum(R, 0.0)) for R in Rs]
    assert floors[2] == floors[4] == 1e-312
    assert ops.r_floor.shape == (6,) + (1,) * d
    assert np.array_equal(_bits(ops.r_floor.ravel()), _bits(floors))
    assert np.array_equal(_bits(ops.min_density), _bits([R.min() for R in Rs]))


def test_lone_states_answer_in_python_floats():
    # every public functional called on a FluidState returns a Python float,
    # or a tuple of them, bitwise the value of its stack of one; record
    # returns one DiagnosticsRecord of Python floats
    from isofluid import lognls
    from isofluid.rescaling import WaveFunction

    g, Rs, Ms = _random_rows(2, 16, (1.0,))
    p, tau = _all_terms_params(2), (1.3, 0.2)
    state = FluidState(t=0.5, grid=g, R=Rs[0], M=Ms[0])
    stack = FluidState(t=[0.5], grid=g, R=Rs[0][None], M=Ms[0][:, None])
    calls = {
        "energy": (tau, p.eps), "dissipation": (tau, p.eps, p.nu),
        "bd_entropy": (tau, p.eps, p.nu, p.r0), "bd_dissipation": (tau, p.eps, p.nu),
        **{name: (p, tau) for name in ("energy_reg", "dissipation_reg", "bd_entropy_reg",
                                       "bd_dissipation_reg", "balance_rhs",
                                       "bd_identity_terms")},
        **{name: () for name in ("relative_entropy", "csiszar_kullback_gap",
                                 "korteweg_identity_residual", "loghess_identity_residual",
                                 "jungel_quantities", "compatibility_residuals",
                                 "irrotationality_residual")},
        "llogl_bound": (0.5,),
    }
    # every name of diagnostics.__all__ that is a functional of a state
    assert set(calls) | {"record"} == set(diag.__all__) - {
        "DiagnosticsRecord", "StateOps", "energy_balance_residual", "bd_identity_residual",
        "korteweg_stress_entries", "matched_gaussian", "each_row", "lone_state", "stack_rows"}
    for name, args in calls.items():
        fn = getattr(diag, name)
        value = fn(state, *args)
        rows = fn(stack, *[[a] if a is tau else a for a in args])
        values, rows = (value, rows) if isinstance(value, tuple) else ((value,), (rows,))
        assert all(type(v) is float for v in values), name
        assert all(r.shape == (1,) for r in rows), name
        assert _bits(values).tolist() == _bits(np.concatenate(rows)).tolist(), name
    rec = diag.record(state, p, tau, full=True)
    assert isinstance(rec, diag.DiagnosticsRecord) and rec.t == 0.5
    assert all(type(v) is float for v in rec.csv_row())
    assert rec == diag.record(stack, p, [tau], full=True)[0]
    psi = WaveFunction(0.0, g, np.sqrt(Rs[0]) * np.exp(0.3j * g.y[0]), 1.0)
    energy = lognls.nls_energy(psi, lognls.NlsParams(eps=1.0), tau)
    assert type(energy) is float


# ---------------------------------------------------------------------------
# a full record's phases, on the fixed_2d workload's state at n = 64


def _fixed_2d_state(n):
    """The fixed_2d bench workload's start state and parameters on a 2D grid
    of n points per axis, with a stepper of them (its r_min is the floor a
    run's records take)."""
    from isofluid import experiments
    from isofluid.solver import _Stepper, arrays_from_state

    g = Grid(2, 8.0, n)
    state = experiments.make_initial(
        g, {"generator": "prepared_gaussian", "theta": 0.2, "iota": 0.4})
    params = ParamSet(nu=0.1, eps=0.1, r0=0.02, r1=0.02, delta1=1e-4, delta2=1e-7,
                      eta1=1e-14, eta2=1e-22, alpha=8.0, s=3, dt_policy="fixed", dt=1e-3)
    R, M = arrays_from_state(state)
    return g, R, M, _Stepper(g, params, float(R.mean()), float(R.min() / R.max()))


def _traced_peak(call) -> int:
    """The peak of the memory tracemalloc traces while call() runs, in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [64, 128])
def test_records_peak_at_or_below_an_advance(n):
    # a full record fetches in three phases, each dropping what no later
    # phase reads, and builds its fields in their stack rows: a full and a
    # core record of a state each peak at or below one advance of it, on
    # fixed_2d's grid (n = 128: 5.78 and 5.27 MiB against 7.12) and at n = 64
    g, R, M, stepper = _fixed_2d_state(n)

    def record(full):
        diag.record(diag.StateOps(g, R, M, stepper.r_min, 0.0), stepper.p, (1.0, 0.3), full=full)

    def advance():
        stepper.advance(R, M, 1e-3, (1.0, 0.3))

    advance(), record(True), record(False)  # the tables each builds once
    peak = _traced_peak(advance)
    assert _traced_peak(lambda: record(True)) <= peak
    assert _traced_peak(lambda: record(False)) <= peak


def test_full_record_identity_columns_are_the_identity_functions_bitwise():
    # the second and third phases read what the first kept: each column is
    # bitwise its function on a fresh StateOps of the state
    g, R, M, stepper = _fixed_2d_state(64)
    rec = diag.record(diag.StateOps(g, R, M, stepper.r_min, 0.0), stepper.p, (1.0, 0.3),
                      full=True)

    def ops():
        return diag.StateOps(g, R, M, stepper.r_min)

    assert ops().min_density > 0
    columns = {
        "relative_entropy": diag.relative_entropy(ops()),
        "ck_gap": diag.csiszar_kullback_gap(ops()),
        **dict(zip(("tn_residual", "sk_residual"), diag.compatibility_residuals(ops()))),
        "irrot_residual": diag.irrotationality_residual(ops()),
        **dict(zip(("llogl_value", "llogl_bound"), diag.llogl_bound(ops(), 0.5))),
        "korteweg_residual": diag.korteweg_identity_residual(ops()),
        "loghess_residual": diag.loghess_identity_residual(ops()),
        **dict(zip(("jungel_left", "jungel_right"), diag.jungel_quantities(ops()))),
    }
    for name, value in columns.items():
        assert _bits(getattr(rec, name)) == _bits(value), name
