"""Transform, derivative, dealiasing and quadrature tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isofluid.spectral import Grid


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 12)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 1.0, 4)  # too small


def test_quadrature_weight():
    g = Grid(2, 3.0, 16)
    assert abs(g.weight - (6.0 / 16) ** 2) < 1e-15
    assert abs(g.quad(np.ones(g.shape)) - 36.0) < 1e-12


def test_pure_mode_single_pair():
    g = Grid(1, 4.0, 32)
    f = np.cos(math.pi * g.y[0] / g.ell)
    c = g.spectral.cfwd(f) / g.n
    mags = np.abs(c)
    big = mags > 1e-12
    assert big.sum() == 2  # modes m = +-1 only


def test_roundtrip_random():
    g = Grid(2, 2.0, 16)
    sp = g.spectral
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    for back in (sp.cinv(sp.cfwd(f)).real, sp.inv(sp.fwd(f))):
        rel = np.abs(back - f).max() / np.abs(f).max()
        assert rel < 1e-13


def test_parseval():
    g = Grid(1, 3.0, 64)
    sp = g.spectral
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.shape)
    quad = g.quad(f**2)
    coeffs = sp.cfwd(f) / g.n
    spec = g.volume * float(np.sum(np.abs(coeffs) ** 2))
    assert abs(quad - spec) / abs(quad) < 1e-12
    # the half-spectrum form the diagnostics use
    fh = sp.fwd(f)
    assert abs(quad - g.weight * sp.inner(fh, fh)) / abs(quad) < 1e-12


def test_derivative_pure_mode():
    g = Grid(1, 4.0, 64)
    y = g.y[0]
    df = g.spectral.grad(np.sin(math.pi * y / g.ell))[0]
    expect = (math.pi / g.ell) * np.cos(math.pi * y / g.ell)
    assert np.abs(df - expect).max() < 1e-12


def test_laplacian_constant_zero():
    g = Grid(2, 1.0, 16)
    assert np.abs(g.spectral.lap(np.full(g.shape, 3.7))).max() < 1e-13


def test_bilaplacian_symbol():
    g = Grid(2, 2.0, 16)
    kx = math.pi * 2 / g.ell  # mode m = 2 on axis 0
    f = np.broadcast_to(np.cos(kx * g.y[0]), g.shape)
    out = g.spectral.lap(f, 2)
    assert np.abs(out - kx**4 * f).max() < 1e-9 * kx**4


def test_laplacian_power_matches_composition():
    g = Grid(1, 2.0, 32)
    sp = g.spectral
    rng = np.random.default_rng(2)
    f = sp.dealias(rng.standard_normal(g.shape))
    twice = sp.lap(sp.lap(f))
    power = sp.lap(f, 2)
    assert np.abs(twice - power).max() < 1e-8


def test_dealias_rules():
    g = Grid(1, 1.0, 32)
    sp = g.spectral
    y = g.y[0]
    keep = np.cos(math.pi * (g.n // 4) * y / g.ell)  # m = 8 < 32/3
    gone = np.cos(math.pi * (g.n // 2 - 1) * y / g.ell)  # m = 15
    assert np.abs(sp.dealias(keep) - keep).max() < 1e-12
    assert np.abs(sp.dealias(gone)).max() < 1e-12
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    once = sp.dealias(f)
    twice = sp.dealias(once)
    assert np.abs(once - twice).max() < 1e-14


def test_integral_of_derivative_vanishes():
    g = Grid(2, 2.5, 32)
    rng = np.random.default_rng(4)
    df = g.spectral.grad(rng.standard_normal(g.shape))[1]
    assert abs(g.quad(df)) < 1e-12 * np.abs(df).max() * g.volume


def test_gaussian_quadrature():
    g = Grid(1, 10.0, 256)
    f = np.exp(-g.r2)
    assert abs(g.quad(f) - math.sqrt(math.pi)) < 1e-10
    assert abs(g.quad(f * g.r2) - math.sqrt(math.pi) / 2) < 1e-9
    assert abs(g.quad(f * g.y[0])) < 1e-12


def test_spectral_accuracy_ladder():
    # derivative error on an analytic periodic field decays faster than any
    # power: the error ratio between n and 2n is far below 1e-2 once resolved
    errs = []
    for n in (16, 32):
        g = Grid(1, 3.0, n)
        y = g.y[0]
        df = g.spectral.grad(np.exp(np.sin(math.pi * y / g.ell)))[0]
        expect = (
            (math.pi / g.ell) * np.cos(math.pi * y / g.ell) * np.exp(np.sin(math.pi * y / g.ell))
        )
        errs.append(np.abs(df - expect).max())
    assert errs[1] < 1e-2 * errs[0]


def test_gradient_divergence_consistency():
    g = Grid(2, 2.0, 32)
    sp = g.spectral
    rng = np.random.default_rng(5)
    f = sp.dealias(rng.standard_normal(g.shape))
    lap = sp.div(sp.grad(f))
    assert np.abs(lap - sp.lap(f)).max() < 1e-9


def _nyquist_rich_field(g, rng):
    """White noise plus explicit Nyquist content: the all-axes corner mode and
    the Nyquist mode of axis 0 alone."""
    idx = np.indices(g.shape)
    corner = np.prod([(-1.0) ** i for i in idx], axis=0)
    return rng.standard_normal(g.shape) + 3.0 * corner + 2.0 * (-1.0) ** idx[0]


def _c2c(g, symbol, a):
    """The complex-transform reference: ifftn(symbol * fftn(a)).real."""
    return np.fft.ifftn(symbol * np.fft.fftn(a)).real


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_backend_matches_complex_reference(d, n):
    g = Grid(d, 3.0, n)
    sp = g.spectral
    rng = np.random.default_rng(10 + d)
    a = _nyquist_rich_field(g, rng)
    comps = [_nyquist_rich_field(g, rng) for _ in range(d)]
    keep = np.abs(g.modes) <= n / 3.0
    mask = np.ones(g.shape, dtype=bool)
    for i in range(d):
        mask &= keep.reshape((1,) * i + (n,) + (1,) * (d - 1 - i))

    def dealias_ref(x):
        return _c2c(g, mask, x)

    def div_ref(cs):
        acc = sum((1j * g.k[i]) * np.fft.fftn(c) for i, c in enumerate(cs))
        return np.fft.ifftn(acc).real

    pairs = [(sp.grad(a)[i], _c2c(g, 1j * g.k[i], a)) for i in range(d)]
    pairs.append((sp.div(comps), div_ref(comps)))
    for p in (1, 2, 3):
        pairs.append((sp.lap(a, p), _c2c(g, (-g.k2) ** p, a)))
        for i, sym in enumerate(sp.grad_lap_symbol(p)):
            pairs.append((sp.inv(sym * sp.fwd(a)), _c2c(g, 1j * g.k[i] * (-g.k2) ** p, a)))
    for (i, j), h in zip(sp.hess_keys, sp.inv(sp.hess_sym * sp.fwd(a))):
        pairs.append((h, _c2c(g, -(g.k[i] * g.k[j]), a)))
    pairs.append((sp.dealias(a), dealias_ref(a)))
    pairs.append((sp.div_dealiased(comps), div_ref([dealias_ref(c) for c in comps])))
    for got, ref in pairs:
        assert got.shape == g.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@st.composite
def band_limited_stacks(draw):
    """(grid, stack): real fields without Nyquist content on a grid of
    d = 1..3 and n = 8..32, stacked as lead + (d,) + grid.shape with one or
    two leading axes of 1..3 entries."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([8, 16, 32]))
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = Grid(d, draw(st.sampled_from([1.0, 3.0, 8.0])), n)
    shape = lead + (d,) + g.shape[:-1] + (n // 2 + 1,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis in range(-d, 0):  # no Nyquist mode on any axis
        nyquist = [slice(None)] * coeffs.ndim
        nyquist[axis] = n // 2
        coeffs[tuple(nyquist)] = 0.0
    return g, np.fft.irfftn(coeffs, s=g.shape, axes=tuple(range(-d, 0))) * n**d


@settings(max_examples=60)
@given(band_limited_stacks())
def test_stacked_backend_matches_per_component(case):
    g, a = case
    sp, d = g.spectral, g.d
    ah, grads, divs = sp.fwd(a), sp.grad(a), sp.div_dealiased(a)
    back = sp.inv(ah)
    assert grads.shape == a.shape[:-d] + (d,) + g.shape
    assert divs.shape == a.shape[: -d - 1] + g.shape
    for idx in np.ndindex(a.shape[:-d]):
        assert np.array_equal(ah[idx], sp.fwd(a[idx]))
        assert np.array_equal(back[idx], sp.inv(ah[idx]))
        assert np.array_equal(grads[idx], sp.grad(a[idx]))
    for idx in np.ndindex(a.shape[: -d - 1]):
        assert np.array_equal(divs[idx], sp.div_dealiased(a[idx]))
    assert np.abs(back - a).max() <= 1e-13 * np.abs(a).max()
    # identities of band-limited fields: div grad = lap = trace of the Hessian
    f = a[(0,) * (a.ndim - d)]
    lap = sp.lap(f)
    tol = 1e-12 * np.abs(lap).max()
    assert np.abs(sp.div(sp.grad(f)) - lap).max() <= tol
    assert np.abs(sp.trace(sp.inv(sp.hess_sym * sp.fwd(f))) - lap).max() <= tol


@pytest.mark.parametrize("d,n", [(2, 16), (2, 128), (3, 8), (3, 32)])
def test_stacked_forward_bitwise_per_component(d, n):
    # fwd hands a d > 1 stack to one rfftn call over the grid axes; each
    # component's coefficients must equal those of its own call, for stacks
    # of 1 to 9 components
    g = Grid(d, 4.0, n)
    sp = g.spectral
    rng = np.random.default_rng(d * n)
    for count in range(1, 10):
        a = rng.standard_normal((count,) + g.shape)
        ah = sp.fwd(a)
        assert ah.shape == (count,) + sp.half_shape
        for i in range(count):
            assert np.array_equal(ah[i], sp.fwd(a[i]))
