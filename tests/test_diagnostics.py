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
from isofluid.rescaling import FluidState
from isofluid.spectral import Grid, ScalarField, VectorField


def state_from_R(g, R, lam=None):
    s = np.sqrt(np.maximum(R, 0.0))
    lamf = VectorField.zero(g) if lam is None else VectorField.from_arrays(g, lam)
    return FluidState(t=0.0, grid=g, sqrtR=ScalarField(g, s), Lambda=lamf)


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
    st_R = ScalarField(g, gam)
    assert abs(diag.relative_entropy(st_R)) < 1e-12
    assert abs(diag.csiszar_kullback_gap(st_R)) < 1e-12
    y0 = np.broadcast_to(g.y[0], g.shape)
    shifted = ScalarField(g, np.exp(-((y0 - 1.0) ** 2)))
    assert diag.csiszar_kullback_gap(shifted) > 1e-3


def test_ck_gap_sweep():
    rng = np.random.default_rng(2)
    worst = math.inf
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        g = Grid(d, 6.0, 64 if d == 1 else 32)
        R = ScalarField(g, random_mass_matched(g, rng, 2.0))
        worst = min(worst, diag.csiszar_kullback_gap(R))
    assert worst >= -1e-10


def test_korteweg_identity_residuals():
    g1 = Grid(1, 5.0, 128)
    const = ScalarField.constant(g1, 0.8)
    assert diag.korteweg_identity_residual(const) < 1e-12
    assert diag.loghess_identity_residual(ScalarField.constant(g1, 0.5)) < 1e-12
    s1 = ScalarField(g1, np.exp(-g1.r2) + 0.2)
    assert diag.korteweg_identity_residual(s1) <= 1e-8
    assert diag.loghess_identity_residual(ScalarField(g1, s1.values**2)) <= 1e-8
    g2 = Grid(2, 5.0, 64)
    s2 = ScalarField(g2, np.exp(-g2.r2) + 0.2)
    assert diag.korteweg_identity_residual(s2) <= 1e-6
    assert diag.loghess_identity_residual(ScalarField(g2, s2.values**2)) <= 1e-6


def test_korteweg_residual_decays_with_resolution():
    res = []
    for n in (32, 64, 128):
        g = Grid(1, 5.0, n)
        s = ScalarField(g, np.exp(-g.r2) + 0.2)
        res.append(max(diag.korteweg_identity_residual(s), 1e-16))
    assert res[0] > res[1] >= res[2] - 1e-16


def test_korteweg_requires_positive_field():
    g = Grid(1, 5.0, 64)
    with pytest.raises(ValueError):
        diag.korteweg_identity_residual(ScalarField(g, np.zeros(g.shape)))


def test_compatibility_constant_velocity():
    g = Grid(1, 6.0, 128)
    s = np.exp(-g.r2) + 0.3
    st = FluidState(
        t=0.0, grid=g, sqrtR=ScalarField(g, s),
        Lambda=VectorField.from_arrays(g, [0.7 * s]),
    )
    tn, sk = diag.compatibility_residuals(st)
    assert tn <= 1e-10
    assert sk <= 1e-10


def test_sk_of_constant_density_vanishes():
    g = Grid(2, 4.0, 32)
    st = state_from_R(g, np.full(g.shape, 0.64))
    ops = diag.StateOps(st)
    hs = g.spectral.hessian(ops.s)
    assert max(np.abs(h).max() for h in hs.values()) < 1e-12


def test_irrotationality_trivial_1d():
    g = Grid(1, 4.0, 32)
    st = state_from_R(g, np.exp(-g.r2), [np.ones(g.shape) * 0.1])
    assert diag.irrotationality_residual(st) == 0.0


def test_llogl_bound_small_field_branch():
    g = Grid(1, 6.0, 128)
    f = ScalarField(g, 0.9 * np.exp(-g.r2))  # |f| <= 0.9 < 1 everywhere
    value, bound = diag.llogl_bound(f, beta=2.0 / 3.0)
    assert value <= bound


def test_llogl_bound_gaussian_and_scaling():
    g = Grid(1, 6.0, 128)
    f = ScalarField(g, np.exp(-g.r2 / 2.0))
    v1, b1 = diag.llogl_bound(f, beta=2.0 / 3.0)
    assert v1 <= b1
    f2 = ScalarField(g, 2.0 * f.values)
    v2, b2 = diag.llogl_bound(f2, beta=2.0 / 3.0)
    assert v2 <= b2
    assert v2 > v1 and b2 > b1


def test_llogl_bound_sweep_and_validation():
    rng = np.random.default_rng(3)
    from isofluid.experiments import random_positive_field

    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        g = Grid(d, 6.0, 64 if d == 1 else 32)
        f = ScalarField(g, np.sqrt(random_positive_field(g, rng)))
        value, bound = diag.llogl_bound(f, 2.0 / (d + 2))
        assert value <= bound
    g = Grid(1, 4.0, 32)
    with pytest.raises(ValueError):
        diag.llogl_bound(ScalarField.constant(g, 1.0), beta=2.0)


def test_jungel_quantities():
    g = Grid(1, 5.0, 128)
    l0, r0 = diag.jungel_quantities(ScalarField.constant(g, 0.7))
    assert abs(l0) < 1e-12 and abs(r0) < 1e-12
    rng = np.random.default_rng(4)
    from isofluid.experiments import random_positive_field

    ratios = []
    for _ in range(100):
        R = ScalarField(g, random_positive_field(g, rng) + 0.05)
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
    return ScalarField(g, draw(st.sampled_from([0.1, 1.0, 30.0])) * np.sqrt(R / R.max()))


@settings(max_examples=60)
@given(positive_fields())
def test_llogl_bound_matches_reference_kappa_loop(f):
    g = f.grid
    beta = 2.0 / (g.d + 2)
    value, bound = diag.llogl_bound(f, beta)
    assert value <= bound
    v2 = f.values**2
    l2 = math.sqrt(g.weight * v2.sum())
    yf = math.sqrt(g.weight * (g.r2 * v2).sum())
    small = _llogl_small_reference(g, l2, yf, beta)
    # the large-field term, unchanged: the lattice Sobolev bound of max |f|
    h1 = g.weight * (v2.sum() + sum(a**2 for a in g.spectral.grad(f.values)).sum())
    f_inf = math.sqrt(float(np.sum(1.0 / (1.0 + g.k2))) / g.volume * h1)
    ref = 2.0 / (math.e * beta) * (small + f_inf**beta * l2**2)
    assert abs(bound - ref) <= 1e-14 * ref
