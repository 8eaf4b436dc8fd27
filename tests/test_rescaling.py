"""Change of variables, Madelung transform, original-variable energy."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from isofluid import diagnostics as diag
from isofluid.rescaling import (
    WaveFunction,
    from_self_similar,
    madelung,
    original_energy,
    smooth_density,
    to_self_similar,
)
from isofluid.spectral import Grid


def _smooth_state(g, offset=0.05, vel=0.3):
    rho = np.exp(-g.r2) + offset
    u = np.zeros((g.d,) + g.shape)
    u[0] = vel * np.sin(math.pi * g.y[0] / g.ell)
    return rho, u


def test_identity_scaling_at_t0():
    g = Grid(1, 8.0, 128)
    rho, u = _smooth_state(g)
    state = to_self_similar(g, rho, u, (1.0, 0.0))
    ratio = state.mass_ratio
    # R = rho / mass_ratio, U = u at tau = 1, taudot = 0
    assert np.abs(state.R - rho / ratio).max() < 1e-13
    U = state.M / state.R
    assert np.abs(U[0] - u[0]).max() < 1e-9


def test_round_trip():
    g = Grid(1, 6.0, 128)
    rho, u = _smooth_state(g)
    for tau in ((1.0, 0.0), (1.7, 0.9)):
        state = to_self_similar(g, rho, u, tau)
        rho2, u2 = from_self_similar(state, tau)
        assert np.abs(rho2 - rho).max() < 1e-12
        assert np.abs(u2[0] - u[0]).max() < 1e-9


def test_mass_normalization():
    g = Grid(2, 6.0, 32)
    rho, u = _smooth_state(g)
    state = to_self_similar(g, rho, u, (1.3, 0.4))
    gamma_mass = g.quad(np.exp(-g.r2))
    # quad(R) = |Gamma|_L1 (computed quadrature value, about pi^(d/2))
    assert abs(g.quad(state.R) - gamma_mass) < 1e-10


def test_negative_density_rejected():
    g = Grid(1, 4.0, 32)
    with pytest.raises(ValueError):
        to_self_similar(g, -np.ones(g.shape), np.zeros((1,) + g.shape), (1.0, 0.0))


def test_madelung_plane_wave():
    g = Grid(1, 4.0, 64)
    eps = 1.3
    k = 2 * math.pi / g.ell  # mode m = 2
    psi = WaveFunction(0.0, g, np.exp(1j * k * g.y[0]), eps)
    st = madelung(psi)
    assert np.abs(st.R - 1.0).max() < 1e-12
    assert np.abs(st.M[0] - eps * k).max() < 1e-9


def test_madelung_real_gaussian_zero_velocity():
    g = Grid(1, 6.0, 128)
    psi = WaveFunction(0.0, g, np.exp(-g.r2 / 2.0) + 0j, 1.0)
    st = madelung(psi)
    assert np.abs(st.M[0]).max() < 1e-14
    # rho from madelung equals |psi|^2 pointwise exactly
    assert np.abs(st.R - np.exp(-g.r2)).max() < 1e-14


def test_madelung_momentum_needs_no_floor():
    # M = eps Im(conj(psi) grad psi) exactly, through a node of psi where a
    # polar factor psi/|psi| is undefined
    g = Grid(1, 4.0, 64)
    y = g.y[0]
    z = y * np.exp(-(y**2)) * np.exp(1j * math.pi * y / g.ell)
    st = madelung(WaveFunction(0.0, g, z, 0.8))
    gz = g.spectral.cinv(g.spectral.cik * g.spectral.cfwd(z))
    assert np.abs(st.M[0] - 0.8 * (np.conj(z) * gz).imag).max() < 1e-12
    assert np.all(np.isfinite(st.M))


def test_madelung_irrotationality_2d():
    g = Grid(2, 6.0, 64)
    z = (0.2 + np.exp(-g.r2)) * np.exp(1j * (math.pi / g.ell) * g.y[0])
    st = madelung(WaveFunction(0.0, g, z, 1.0))
    assert diag.irrotationality_residual(st) < 1e-8


def test_energy_transport_identity_at_unit_tau():
    # for mass-matched input, the self-similar pseudo-energy at tau = (1, 0)
    # equals the original energy plus the moment term (mass_ratio = 1)
    g = Grid(1, 7.0, 128)
    rho = np.exp(-g.r2)  # carries the reference mass
    u = (0.3 * np.exp(-g.r2 / 2) * np.sin(math.pi * g.y[0] / g.ell))[None]
    eps = 0.7
    state = to_self_similar(g, rho, u, (1.0, 0.0))
    assert abs(state.mass_ratio - 1.0) < 1e-12
    E0 = original_energy(g, rho, u, eps)
    moment = g.quad(state.R * g.r2)
    EE = diag.energy(state, (1.0, 0.0), eps)
    assert abs(EE - (E0 + moment)) < 1e-10 * max(1.0, abs(EE))


def test_original_energy_finite():
    g = Grid(1, 6.0, 128)
    rho, u = _smooth_state(g)
    e = original_energy(g, rho, u, 0.5)
    assert math.isfinite(e)


def test_to_self_similar_momentum_zero_on_vacuum():
    # M = R U vanishes exactly where rho does, with no vacuum cut
    g = Grid(1, 4.0, 64)
    rho = np.where(np.abs(g.y[0]) < 2.0, 1.0, 0.0)
    u = np.ones((1,) + g.shape)  # nonzero on the vacuum too
    for tau in ((1.0, 0.0), (1.4, 0.6)):
        st = to_self_similar(g, rho, u, tau)
        assert np.all(st.M[:, rho == 0.0] == 0.0)
        assert np.all(st.M[:, rho > 0.0] != 0.0)
        rho2, u2 = from_self_similar(st, tau)
        assert np.all(np.isfinite(u2))


def test_wavefunction_validation():
    g = Grid(1, 4.0, 32)
    with pytest.raises(ValueError):
        WaveFunction(0.0, g, np.ones(g.shape, dtype=complex), -1.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_wavefunction_refuses_non_finite_epsilon(epsilon):
    g = Grid(1, 4.0, 32)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        WaveFunction(0.0, g, np.ones(g.shape, dtype=complex), epsilon)


# the floor invariants of smooth_density, each up to 2 ulp
_ULP2 = 2.0 * np.finfo(float).eps
_FINITE = {"allow_nan": False, "allow_infinity": False}
_R = st.floats(-1e150, 1e150, **_FINITE)
_FLOOR = st.floats(0.0, 1e150, **_FINITE)


@given(_R, _FLOOR)
def test_smooth_density_bounds(R, r):
    rp = max(r, 1e-150)
    rho = smooth_density(R, r)
    assert rho >= max(abs(R), rp) * (1.0 - _ULP2)
    assert rho <= (abs(R) + rp) * (1.0 + _ULP2)
    assert smooth_density(-R, r) == rho


@given(_R, _FLOOR, st.floats(-1e100, 1e100, **_FINITE))
def test_smooth_density_bounds_recovered_velocity(R, r, M):
    rp = max(r, 1e-150)
    assert abs(M / smooth_density(R, r)) <= abs(M) / rp * (1.0 + _ULP2)


# velocities whose product with any R >= 10 r' stays a normal double
_U0 = st.floats(-1e6, 1e6, **_FINITE).filter(lambda u: u == 0.0 or abs(u) >= 1e-100)


@given(_R, _FLOOR, _U0)
def test_smooth_density_recovers_bulk_velocity(R, r, U0):
    rp = max(r, 1e-150)
    assume(R >= 10.0 * rp)
    U = (R * U0) / smooth_density(R, r)
    assert abs(U - U0) <= abs(U0) * ((rp / R) ** 2 + _ULP2)


def test_smooth_density_floor_survives_underflow():
    # r*r underflows below r ~ 1.5e-154; the floor is clamped above that
    for r in (0.0, 1e-200, 1e-150):
        assert smooth_density(0.0, r) == 1e-150
    assert np.all(smooth_density(np.zeros(4), 0.0) > 0.0)
