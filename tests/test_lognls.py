"""Split-step logarithmic Schrodinger solver tests."""

import math

import numpy as np
import pytest

from isofluid import lognls
from isofluid.experiments import make_wavefunction
from isofluid.rescaling import WaveFunction, madelung
from isofluid.spectral import Grid, ScalarField, integrate
from isofluid.tauode import tau_solve


def test_plane_wave_free_evolution_exact():
    # |psi| = 1 and mu = 0 make the log potential vanish identically, so one
    # step must reproduce the exact free propagator for a single mode
    g = Grid(1, 4.0, 64)
    eps = 0.8
    k = 2 * math.pi / g.ell
    y0 = np.broadcast_to(g.y[0], g.shape)
    psi = WaveFunction.from_complex(0.0, g, np.exp(1j * k * y0), eps)
    dt = 0.01
    p = lognls.NlsParams(eps=eps, dt=dt, mu=0.0, variant="original")
    out = lognls.nls_step(psi, p)
    exact = np.exp(1j * (k * y0 - eps * k**2 / 2.0 * dt))
    assert np.abs(out.psi - exact).max() < 1e-13
    assert np.abs(np.abs(out.psi) - 1.0).max() < 1e-14


def test_mass_conserved_per_step():
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    p = lognls.NlsParams(eps=1.0, dt=2e-3)
    traj = lognls.run_nls(psi0, p, 0.3)
    assert traj.max_step_mass_drift <= 1e-12


def test_dissipation_identity_order():
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    res = []
    for dt in (4e-3, 2e-3, 1e-3):
        p = lognls.NlsParams(eps=1.0, dt=dt)
        traj = lognls.run_nls(psi0, p, 0.5)
        res.append(traj.dissipation_identity_residual())
    ratios = [a / b for a, b in zip(res, res[1:])]
    assert all(4 / 1.4 < r < 4 * 1.4 for r in ratios)


def test_frozen_tau_conserves_pseudo_energy():
    # with tau pinned at (1, 0) the dissipation vanishes and the variant
    # energy is conserved up to the splitting error
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    p = lognls.NlsParams(eps=1.0, dt=1e-3)
    psi = psi0
    mu = 1e-12 * float(np.max(np.abs(psi0.psi) ** 2))
    e0 = lognls.nls_energy(psi0, p, (1.0, 0.0))
    for _ in range(200):
        psi = lognls.nls_step(psi, p, (1.0, 0.0), mu=mu)
    eT = lognls.nls_energy(psi, p, (1.0, 0.0))
    assert abs(lognls.pseudo_dissipation(psi, (1.0, 0.0))) < 1e-14
    assert abs(eT - e0) / abs(e0) < 1e-5


def test_madelung_kinetic_split():
    # eps^2 |grad psi|^2 = |Lambda|^2 + eps^2 |grad sqrt R|^2 for smooth
    # nonvanishing psi
    g = Grid(1, 8.0, 256)
    psi = make_wavefunction(
        g, {"generator": "plane_wave_phase", "offset": 0.4, "offset_width": 3.0, "mode": 2},
        eps=0.9,
    )
    st = madelung(psi)
    ga = g.spectral.grad(psi.re.values)
    gb = g.spectral.grad(psi.im.values)
    lhs = 0.9**2 * integrate(ScalarField(g, sum(a**2 + b**2 for a, b in zip(ga, gb))))
    gs = g.spectral.grad(st.sqrtR.values)
    rhs = integrate(
        ScalarField(
            g,
            sum(c.values**2 for c in st.Lambda.components)
            + 0.9**2 * sum(a**2 for a in gs),
        )
    )
    # spectral floor set by the modulus dip of the interference pattern
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_crosscheck_zero_horizon():
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(g, {"generator": "offset_gaussian", "offset": 0.3}, eps=1.0)
    rep = lognls.nls_to_hydro_crosscheck(psi0, 0.0, delta_stab=1e-3, dt=1e-3)
    assert rep.status == "ok"
    assert rep.diff_rel == 0.0
    assert abs(rep.mass_nls - rep.mass_hydro) < 1e-12


def test_crosscheck_ladder_decreases():
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(
        g, {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}, eps=1.0
    )
    reps = [
        lognls.nls_to_hydro_crosscheck(psi0, 0.1, delta_stab=1e-3, dt=1e-3),
        lognls.nls_to_hydro_crosscheck(psi0, 0.1, delta_stab=1e-4, dt=5e-4),
    ]
    assert all(r.status == "ok" for r in reps)
    assert reps[0].diff_rel > reps[1].diff_rel
    assert abs(reps[1].mass_nls - reps[1].mass_hydro) < 1e-8


def test_crosscheck_reports_hydro_failure():
    # a fixed step far beyond the dispersive CFL must be reported, not raised
    g = Grid(1, 8.0, 256)
    psi0 = make_wavefunction(
        g, {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}, eps=1.0
    )
    rep = lognls.nls_to_hydro_crosscheck(psi0, 0.25, delta_stab=1e-3, dt=5e-3)
    assert rep.status.startswith("hydro_")
    assert rep.diff_rel is None


def test_theta_phase_and_reconstruction():
    ts = tau_solve(1.0, 1e-12, 1e-14)
    assert lognls.theta_phase(ts, 0.0, 1, 1.0) == 0.0
    g = Grid(1, 6.0, 64)
    psi = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    psi = WaveFunction.from_complex(1e-9, g, psi.psi, 1.0)  # t ~ 0
    phys, z = lognls.reconstruct_original(psi, ts, mass_ratio=1.0)
    assert phys.d == 1 and abs(phys.ell - g.ell) < 1e-6
    assert np.abs(z - psi.psi).max() < 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        lognls.NlsParams(eps=0.0)
    with pytest.raises(ValueError):
        lognls.NlsParams(eps=1.0, mu=-1.0)
    with pytest.raises(ValueError):
        lognls.NlsParams(eps=1.0, variant="sideways")
