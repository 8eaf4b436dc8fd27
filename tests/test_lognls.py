"""Split-step logarithmic Schrodinger solver tests."""

import math

import numpy as np
import pytest
import scipy.fft

from isofluid import diagnostics as diag
from isofluid import lognls, solver
from isofluid.experiments import make_wavefunction
from isofluid.params import ParamSet
from isofluid.rescaling import WaveFunction, madelung, wave_gradients
from isofluid.solver import run
from isofluid.spectral import Grid
from isofluid.tauode import tau_solve


def test_plane_wave_free_evolution_exact():
    # |psi| = 1 and mu = 0 make the log potential vanish identically, so one
    # step must reproduce the exact free propagator for a single mode
    g = Grid(1, 4.0, 64)
    eps = 0.8
    k = 2 * math.pi / g.ell
    y0 = g.y[0]
    psi = WaveFunction(0.0, g, np.exp(1j * k * y0), eps)
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
    assert abs(diag.dissipation(madelung(psi), (1.0, 0.0), psi.epsilon, nu=0.0)) < 1e-14
    assert abs(eT - e0) / abs(e0) < 1e-5


def _reference_nls_step(psi, params, tau=(1.0, 0.0), mu=None):
    """nls_step as it stood before the march on coefficients: kinetic half
    step, potential step and kinetic half step, each from physical space."""
    g, h, eps = psi.grid, params.dt, params.eps
    if mu is None:
        mu = 1e-12 * max(float(np.max(np.abs(psi.psi) ** 2)), 1e-300)
    tau_v = float(tau[0]) if params.variant == "rescaled" else 1.0
    z = psi.psi
    sp = g.spectral
    kin = np.exp(-1j * eps * g.k2 * h / (4.0 * tau_v**2))
    z = sp.cinv(kin * sp.cfwd(z))
    pot = np.log(np.abs(z) ** 2 + mu)
    if params.variant == "rescaled":
        pot = pot + g.r2
    z = z * np.exp(-1j * h * pot / eps)
    z = sp.cinv(kin * sp.cfwd(z))
    return WaveFunction(psi.t + h, g, z, eps)


def _offset_wave(d, n):
    g = Grid(d, 6.0, n)
    spec = {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}
    return make_wavefunction(g, spec, eps=1.0)


@pytest.mark.parametrize("variant", ["rescaled", "original"])
@pytest.mark.parametrize("d,n", [(1, 128), (2, 32), (3, 16)])
def test_nls_step_bitwise_unchanged(d, n, variant):
    psi = _offset_wave(d, n)
    p = lognls.NlsParams(eps=0.7, dt=2e-3, variant=variant)
    for tau in ((1.0, 0.0), (1.3, 0.2)):
        out = lognls.nls_step(psi, p, tau)
        ref = _reference_nls_step(psi, p, tau)
        assert out.t == ref.t
        assert np.array_equal(out.psi, ref.psi)


@pytest.mark.parametrize("d,n", [(1, 128), (1, 256), (2, 32)])
def test_kinetic_factor_from_the_half_spectrum_is_the_full_one(d, n):
    # the kinetic half-step symbol, evaluated on the half spectrum and
    # mirrored, is bitwise its evaluation on the full spectrum
    g = Grid(d, 6.0, n)
    for h, eps, tau_v in ((2e-3, 0.7, 1.0), (1e-4, 1.0, 1.3), (0.37, 2.0, 0.9)):
        full = np.exp(-1j * eps * g.k2 * h / (4.0 * tau_v**2))
        kin = lognls._kinetic(g, h, eps, tau_v)
        assert kin.shape == g.shape
        assert np.array_equal(kin.view(np.int64), full.view(np.int64))


@pytest.mark.parametrize("d,n", [(1, 128), (2, 32)])
def test_run_nls_matches_nls_step_loop(d, n):
    # the march on coefficients against a loop of nls_step calls sampled
    # from physical space, as run_nls did before
    psi0 = _offset_wave(d, n)
    p = lognls.NlsParams(eps=1.0, dt=2e-3)
    ts = tau_solve(0.1, 1e-12, 1e-14)
    traj = lognls.run_nls(psi0, p, 0.05, tau_sol=ts, sample_every=5)
    mu = 1e-12 * float(np.max(np.abs(psi0.psi) ** 2))
    psi, ref = psi0, {"mass": [], "energy": [], "dissipation": []}

    def sample():
        tp = ts.eval(psi.t)
        grads = wave_gradients(psi)
        ops = diag.StateOps.of(madelung(psi, grads=grads))
        ref["mass"].append(psi.grid.quad(psi.psi.real**2 + psi.psi.imag**2))
        ref["energy"].append(diag.energy(ops, tp, 1.0))
        ref["dissipation"].append(diag.dissipation(ops, tp, 1.0, nu=0.0))

    sample()
    for k in range(1, 26):
        psi = _reference_nls_step(psi, p, ts.eval(psi.t + 1e-3), mu=mu)
        if k % 5 == 0:
            sample()
    assert traj.times == pytest.approx([0.01 * i for i in range(6)], rel=1e-13, abs=0)
    assert np.abs(traj.psi_final.psi - psi.psi).max() <= 1e-12
    for name, values in ref.items():
        assert getattr(traj, name) == pytest.approx(values, rel=1e-13, abs=0), name
    assert traj.max_step_mass_drift <= 1e-12


@pytest.mark.parametrize("t_end", [0.0005, 0.0109])
def test_run_nls_lands_on_t_end(t_end):
    # a horizon that is no multiple of dt ends with a shorter step, as in
    # solver.run: no step past the tau table, no stop short of t_end
    psi0 = _offset_wave(1, 64)
    p = lognls.NlsParams(eps=1.0, dt=2e-3)
    ts = tau_solve(max(t_end, 1e-3) * 1.001, 1e-12, 1e-14)
    traj = lognls.run_nls(psi0, p, t_end, tau_sol=ts, sample_every=0)
    assert traj.times[-1] == pytest.approx(t_end, rel=1e-12)
    assert traj.psi_final.t == traj.times[-1]
    assert len(traj.times) == 2


def test_run_nls_without_samples_records_the_start_and_the_end():
    # sample_every = 0 keeps only the records at the start and at t_end, as
    # solver.run's diag_every = 0 does; they are those of a sampled run
    psi0 = _offset_wave(1, 64)
    p = lognls.NlsParams(eps=1.0, dt=2e-3)
    bare = lognls.run_nls(psi0, p, 0.02, sample_every=0)
    sampled = lognls.run_nls(psi0, p, 0.02, sample_every=3)
    assert len(bare.times) == 2
    for name in ("times", "mass", "energy", "dissipation"):
        full = getattr(sampled, name)
        assert getattr(bare, name) == [full[0], full[-1]], name
    assert np.array_equal(bare.psi_final.psi, sampled.psi_final.psi)


def test_run_nls_past_t_end_samples_its_start():
    # a start past t_end takes no step, as in solver.run, and the tau the
    # run solves covers the start
    psi0 = _offset_wave(1, 64)
    psi0 = WaveFunction(0.5, psi0.grid, psi0.psi, psi0.epsilon)
    traj = lognls.run_nls(psi0, lognls.NlsParams(eps=1.0, dt=2e-3), 0.1)
    assert traj.times == [0.5] and traj.psi_final.t == 0.5
    hydro = run(madelung(psi0), ParamSet(eps=1.0, dt_policy="fixed", dt=2e-3), 0.1)
    assert hydro.times == [0.5] and hydro.status == "ok"


def _count_complex(monkeypatch) -> list:
    """The complex transforms called from now on (the march's; the
    functionals of a sample transform real fields)."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        orig = getattr(scipy.fft, name)
        monkeypatch.setattr(
            scipy.fft, name, lambda *a, _o=orig, _n=name, **k: calls.append(_n) or _o(*a, **k)
        )
    return calls


def test_run_nls_zero_horizon_samples_once(monkeypatch):
    psi0 = _offset_wave(1, 64)
    calls = _count_complex(monkeypatch)
    traj = lognls.run_nls(psi0, lognls.NlsParams(eps=1.0, dt=2e-3), psi0.t)
    assert traj.times == [psi0.t]
    assert traj.max_step_mass_drift == 0.0
    assert calls == ["fft", "ifft"]  # psi0 forward, the sample back
    assert np.abs(traj.psi_final.psi - psi0.psi).max() <= 1e-15


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_run_nls_transform_count(monkeypatch, d, n):
    # psi0 goes forward once; each Strang step makes one complex inverse and
    # one forward; each block of samples one stacked inverse of [psi, grad
    # psi]: the five samples fit one block of STACK_VALUES grid values, or
    # go in three blocks of at most two
    psi0 = _offset_wave(d, n)
    ts = tau_solve(0.1, 1e-12, 1e-14)
    steps = 10
    for block, blocks in ((diag.STACK_VALUES, 1), (2 * n**d, 3)):
        monkeypatch.setattr(diag, "STACK_VALUES", block)
        calls = _count_complex(monkeypatch)
        traj = lognls.run_nls(psi0, lognls.NlsParams(eps=1.0, dt=2e-3), 0.02, ts, sample_every=3)
        monkeypatch.undo()
        assert len(traj.times) == 5  # t = 0, steps 3, 6, 9 and the last
        assert len(calls) == 1 + 2 * steps + blocks
        assert traj.timing["transforms"] >= len(calls)  # and the samples' real transforms
        assert set(calls) == ({"fft", "ifft"} if d == 1 else {"fftn", "ifftn"})


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_run_nls_samples_are_their_states_one_at_a_time(monkeypatch, d, n, sample_every):
    # the march's own states, each evaluated alone on the single-state path,
    # give run_nls's sample series bitwise, with blocks of two samples (so a
    # run evaluates several stacks, the last one shorter) and of all of them
    psi0 = _offset_wave(d, n)
    g, sp = psi0.grid, psi0.grid.spectral
    p = lognls.NlsParams(eps=1.0, dt=2e-3)
    ts = tau_solve(0.05, 1e-12, 1e-14)
    mu = 1e-12 * float(np.max(psi0.psi.real**2 + psi0.psi.imag**2))
    names = ("times", "mass", "energy", "dissipation")
    ref = {name: [] for name in names}
    zh, t = sp.cfwd(psi0.psi), psi0.t

    def sample():
        X = sp.cinv(np.concatenate((zh[None], sp.cik * zh)))
        psi = WaveFunction(t, g, X[0], 1.0)
        grads = (X[1:].real, X[1:].imag)
        tp = ts.eval(t)
        ops = diag.StateOps.of(madelung(psi, grads=grads))
        for name, value in zip(names, (t, g.weight * float(np.vdot(zh, zh).real) / sp.size,
                                       diag.energy(ops, tp, 1.0),
                                       diag.dissipation(ops, tp, 1.0, nu=0.0))):
            ref[name].append(value)
        return psi

    psi = sample()
    for k in range(1, 11):
        h = min(p.dt, 0.02 - t)
        zh = lognls._strang_hat(g, zh, h, 1.0, float(ts.eval(t + 0.5 * h)[0]), mu, True)
        t += h
        if k % sample_every == 0 or k == 10:
            psi = sample()
    for block in (2 * n**d, diag.STACK_VALUES):
        monkeypatch.setattr(diag, "STACK_VALUES", block)
        traj = lognls.run_nls(psi0, p, 0.02, tau_sol=ts, sample_every=sample_every)
        for name in names:
            got = getattr(traj, name)
            assert len(got) == len(ref[name]) and all(type(v) is float for v in got), name
            assert np.array_equal(np.array(got).view(np.int64),
                                  np.array(ref[name]).view(np.int64)), name
        assert traj.psi_final.t == t and np.array_equal(traj.psi_final.psi, psi.psi)


def test_run_nls_refuses_a_dt_that_would_stop_a_run(monkeypatch):
    # run_nls had no step budget and no DT_MIN: a dt of 1e-300 marched for
    # minutes.  A dt below DT_MIN, or past the budget, raises before any step
    monkeypatch.setattr(solver, "MAX_STEPS", 300)
    psi0 = _offset_wave(1, 64)
    with pytest.raises(ValueError, match="DT_MIN"):
        lognls.run_nls(psi0, lognls.NlsParams(eps=1.0, dt=1e-13), 1e-11)
    p = lognls.NlsParams(eps=1.0, dt=1e-3)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        lognls.run_nls(psi0, p, 0.5, sample_every=0)
    assert lognls.run_nls(psi0, p, 0.25, sample_every=0).n_steps == 250


@pytest.mark.parametrize("bad", [-3, 1.5, "2", None])
def test_run_nls_refuses_a_bad_sample_every(bad):
    # Python's modulo would sample -3 and 1.5 every 3rd step
    with pytest.raises(ValueError, match="sample_every"):
        lognls.run_nls(_offset_wave(1, 64), lognls.NlsParams(eps=1.0), 0.01, sample_every=bad)


def test_run_nls_times_its_march_and_samples(monkeypatch):
    # the keys of solver.Trajectory.timing, the march and the samples as
    # parts of the wall time, and every scipy.fft call of the run counted
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        orig = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name,
                            lambda *a, _o=orig, **k: calls.append(1) or _o(*a, **k))
    traj = lognls.run_nls(_offset_wave(2, 16), lognls.NlsParams(eps=1.0, dt=2e-3), 0.02,
                          sample_every=3)
    timing = traj.timing
    assert set(timing) == {"advance_s", "diagnostics_s", "wall_s", "steps_per_s", "transforms"}
    assert traj.n_steps == 10
    assert 0.0 < timing["advance_s"] and 0.0 < timing["diagnostics_s"]
    assert timing["advance_s"] + timing["diagnostics_s"] <= timing["wall_s"]
    assert timing["steps_per_s"] == 10 / timing["wall_s"]
    assert timing["transforms"] == len(calls)


def test_madelung_kinetic_split():
    # eps^2 |grad psi|^2 = |Lambda|^2 + eps^2 |grad sqrt R|^2 for smooth
    # nonvanishing psi
    g = Grid(1, 8.0, 256)
    psi = make_wavefunction(
        g, {"generator": "plane_wave_phase", "offset": 0.4, "offset_width": 3.0, "mode": 2},
        eps=0.9,
    )
    st = madelung(psi)
    ga, gb = wave_gradients(psi)
    lhs = 0.9**2 * g.quad(ga**2 + gb**2)
    gs = g.spectral.grad(np.sqrt(st.R))
    rhs = g.quad((st.M**2).sum(axis=0) / st.R + 0.9**2 * (gs**2).sum(axis=0))
    # spectral floor set by the modulus dip of the interference pattern
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_crosscheck_zero_horizon():
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(g, {"generator": "offset_gaussian", "offset": 0.3}, eps=1.0)
    rep = lognls.crosscheck_ladder(psi0, 0.0, [(1e-3, 1e-3)])[0]
    assert rep.status == "ok"
    assert rep.diff_rel == 0.0
    assert abs(rep.mass_nls - rep.mass_hydro) < 1e-12


def test_crosscheck_ladder_decreases():
    g = Grid(1, 8.0, 128)
    psi0 = make_wavefunction(
        g, {"generator": "offset_gaussian", "offset": 0.35, "offset_width": 3.0}, eps=1.0
    )
    reps = [
        lognls.crosscheck_ladder(psi0, 0.1, [(1e-3, 1e-3)])[0],
        lognls.crosscheck_ladder(psi0, 0.1, [(1e-4, 5e-4)])[0],
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
    rep = lognls.crosscheck_ladder(psi0, 0.25, [(1e-3, 5e-3)])[0]
    assert rep.status.startswith("hydro_")
    assert rep.diff_rel is None


def test_theta_phase_and_reconstruction():
    ts = tau_solve(1.0, 1e-12, 1e-14)
    assert lognls.theta_phase(ts, 0.0, 1, 1.0) == 0.0
    g = Grid(1, 6.0, 64)
    psi = make_wavefunction(g, {"generator": "gaussian"}, eps=1.0)
    psi = WaveFunction(1e-9, g, psi.psi, 1.0)  # t ~ 0
    phys, z = lognls.reconstruct_original(psi, ts, mass_ratio=1.0)
    assert phys.d == 1 and abs(phys.ell - g.ell) < 1e-6
    assert np.abs(z - psi.psi).max() < 1e-6


def test_theta_phase_identity_against_fine_trapezoid():
    # int_0^t log tau = tau taudot / 4 - t / 2, at a node (the table's end)
    for t in (0.1, 1.0, 10.0):
        ts = tau_solve(t, 1e-12, 1e-14)
        s = np.linspace(0.0, t, 200_001)
        tau = np.array([ts.eval(x)[0] for x in s.tolist()])
        ref = float(np.trapezoid(np.log(tau), s))
        assert abs(lognls.theta_phase(ts, t, 1, 1.0) / ref - 1.0) <= 1e-10, t


def test_params_validation():
    with pytest.raises(ValueError):
        lognls.NlsParams(eps=0.0)
    with pytest.raises(ValueError):
        lognls.NlsParams(eps=1.0, mu=-1.0)
    with pytest.raises(ValueError):
        lognls.NlsParams(eps=1.0, variant="sideways")


@pytest.mark.parametrize("field,value", [
    ("eps", math.nan), ("eps", math.inf), ("dt", math.nan), ("dt", math.inf),
    ("mu", math.nan), ("mu", math.inf),
])
def test_params_refuse_non_finite_values(field, value):
    # a NaN passes every sign check, so each field is checked finite first
    kw = {"eps": 1.0, "dt": 1e-3, "mu": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        lognls.NlsParams(**kw)
