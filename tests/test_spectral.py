"""Transform, derivative, dealiasing and quadrature tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isofluid.spectral import (
    Grid,
    ScalarField,
    VectorField,
    bilaplacian,
    dealias,
    derivative,
    divergence,
    gradient,
    integrate,
    laplacian,
    laplacian_power,
    moment,
    transform_forward,
    transform_inverse,
)


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
    assert abs(integrate(ScalarField.constant(g, 1.0)) - 36.0) < 1e-12


def test_pure_mode_single_pair():
    g = Grid(1, 4.0, 32)
    f = ScalarField(g, np.cos(math.pi * np.broadcast_to(g.y[0], g.shape) / g.ell))
    c = transform_forward(f)
    mags = np.abs(c)
    big = mags > 1e-12
    assert big.sum() == 2  # modes m = +-1 only


def test_roundtrip_random():
    g = Grid(2, 2.0, 16)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal(g.shape))
    back = transform_inverse(g, transform_forward(f))
    rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
    assert rel < 1e-13


def test_parseval():
    g = Grid(1, 3.0, 64)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal(g.shape))
    quad = integrate(ScalarField(g, f.values**2))
    coeffs = transform_forward(f)
    spec = g.volume * float(np.sum(np.abs(coeffs) ** 2))
    assert abs(quad - spec) / abs(quad) < 1e-12


def test_derivative_pure_mode():
    g = Grid(1, 4.0, 64)
    y = np.broadcast_to(g.y[0], g.shape)
    f = ScalarField(g, np.sin(math.pi * y / g.ell))
    df = derivative(f, 0)
    expect = (math.pi / g.ell) * np.cos(math.pi * y / g.ell)
    assert np.abs(df.values - expect).max() < 1e-12


def test_laplacian_constant_zero():
    g = Grid(2, 1.0, 16)
    assert np.abs(laplacian(ScalarField.constant(g, 3.7)).values).max() < 1e-13


def test_bilaplacian_symbol():
    g = Grid(2, 2.0, 16)
    kx = math.pi * 2 / g.ell  # mode m = 2 on axis 0
    y0 = np.broadcast_to(g.y[0], g.shape)
    f = ScalarField(g, np.cos(kx * y0))
    out = bilaplacian(f)
    assert np.abs(out.values - kx**4 * f.values).max() < 1e-9 * kx**4


def test_laplacian_power_matches_composition():
    g = Grid(1, 2.0, 32)
    rng = np.random.default_rng(2)
    f = dealias(ScalarField(g, rng.standard_normal(g.shape)))
    twice = laplacian(laplacian(f))
    power = laplacian_power(f, 2)
    assert np.abs(twice.values - power.values).max() < 1e-8
    with pytest.raises(ValueError):
        laplacian_power(f, 0)


def test_dealias_rules():
    g = Grid(1, 1.0, 32)
    y = np.broadcast_to(g.y[0], g.shape)
    keep = ScalarField(g, np.cos(math.pi * (g.n // 4) * y / g.ell))  # m = 8 < 32/3
    gone = ScalarField(g, np.cos(math.pi * (g.n // 2 - 1) * y / g.ell))  # m = 15
    assert np.abs(dealias(keep).values - keep.values).max() < 1e-12
    assert np.abs(dealias(gone).values).max() < 1e-12
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal(g.shape))
    once = dealias(f)
    twice = dealias(once)
    assert np.abs(once.values - twice.values).max() < 1e-14


def test_integral_of_derivative_vanishes():
    g = Grid(2, 2.5, 32)
    rng = np.random.default_rng(4)
    f = ScalarField(g, rng.standard_normal(g.shape))
    df = derivative(f, 1)
    assert abs(integrate(df)) < 1e-12 * np.abs(df.values).max() * g.volume


def test_gaussian_quadrature():
    g = Grid(1, 10.0, 256)
    f = ScalarField(g, np.exp(-g.r2))
    assert abs(integrate(f) - math.sqrt(math.pi)) < 1e-10
    assert abs(moment(f, "r2") - math.sqrt(math.pi) / 2) < 1e-9
    assert abs(moment(f, "y0")) < 1e-12


def test_moment_weights_validated():
    g = Grid(1, 1.0, 16)
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        moment(f, "y2")  # out of range for d = 1
    with pytest.raises(ValueError):
        moment(f, "cubic")


def test_spectral_accuracy_ladder():
    # derivative error on an analytic periodic field decays faster than any
    # power: the error ratio between n and 2n is far below 1e-2 once resolved
    errs = []
    for n in (16, 32):
        g = Grid(1, 3.0, n)
        y = np.broadcast_to(g.y[0], g.shape)
        f = ScalarField(g, np.exp(np.sin(math.pi * y / g.ell)))
        df = derivative(f, 0)
        expect = (
            (math.pi / g.ell) * np.cos(math.pi * y / g.ell) * np.exp(np.sin(math.pi * y / g.ell))
        )
        errs.append(np.abs(df.values - expect).max())
    assert errs[1] < 1e-2 * errs[0]


def test_gradient_divergence_consistency():
    g = Grid(2, 2.0, 32)
    rng = np.random.default_rng(5)
    f = dealias(ScalarField(g, rng.standard_normal(g.shape)))
    gv = gradient(f)
    lap = divergence(gv)
    assert np.abs(lap.values - laplacian(f).values).max() < 1e-9


def test_vector_field_shape_checks():
    g = Grid(2, 1.0, 16)
    with pytest.raises(ValueError):
        VectorField(g, [ScalarField.constant(g, 0.0)])  # wrong component count


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
    for (i, j), h in sp.hessian(a).items():
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
    assert np.abs(sum(sp.hessian(f)[(i, i)] for i in range(d)) - lap).max() <= tol


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
