"""Transform, derivative, dealiasing and quadrature tests."""

import math
from functools import partial

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from isofluid import spectral
from isofluid.spectral import Grid


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 1.0, 16)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 16)
    for ell in (math.inf, math.nan):  # refused before its tables warn
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(1, ell, 16)
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
    div_dealiased = sp.inv(sp.div_dealiased_hat(sp.fwd(np.asarray(comps))))
    pairs.append((div_dealiased, div_ref([dealias_ref(c) for c in comps])))
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
    def div_dealiased(c):
        return sp.inv(sp.div_dealiased_hat(sp.fwd(c)))

    ah, grads, divs = sp.fwd(a), sp.grad(a), div_dealiased(a)
    back = sp.inv(ah)
    assert grads.shape == a.shape[:-d] + (d,) + g.shape
    assert divs.shape == a.shape[: -d - 1] + g.shape
    for idx in np.ndindex(a.shape[:-d]):
        assert np.array_equal(ah[idx], sp.fwd(a[idx]))
        assert np.array_equal(back[idx], sp.inv(ah[idx]))
        assert np.array_equal(grads[idx], sp.grad(a[idx]))
    for idx in np.ndindex(a.shape[: -d - 1]):
        assert np.array_equal(divs[idx], div_dealiased(a[idx]))
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


def _same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _backend_calls(monkeypatch) -> list:
    """Whether each call the pocketfft backend sees from now on is taken
    (True) or declined (False)."""
    seen = []
    serve = spectral._Pocketfft.__ua_function__

    def counted(method, args, kwargs):
        out = serve(method, args, kwargs)
        seen.append(out is not NotImplemented)
        return out

    monkeypatch.setattr(spectral._Pocketfft, "__ua_function__", staticmethod(counted))
    return seen


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_transforms_are_the_scipy_fft_calls_bitwise(monkeypatch, d, n):
    # the backend takes every call of fwd and inv on single fields, stacks
    # and rows, and of cfwd and cinv on a complex field, and each result is
    # bitwise the same scipy.fft call made outside Spectral
    g = Grid(d, 3.0, n)
    axes = tuple(range(-d, 0))
    rng = np.random.default_rng(40 + d)
    z = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    pairs = [(g.spectral.cfwd, z, scipy.fft.fft(z) if d == 1 else scipy.fft.fftn(z)),
             (g.spectral.cinv, z, scipy.fft.ifft(z) if d == 1 else scipy.fft.ifftn(z, axes=axes))]
    for sp, lead in [(g.spectral, ()), (g.spectral, (3,)), (g.spectral, (2, 2)), (g.rows(3), ())]:
        a = rng.standard_normal(lead + sp.shape)
        ah = scipy.fft.rfft(a) if d == 1 else scipy.fft.rfftn(a, axes=axes)
        if d == 1:
            back = scipy.fft.irfft(ah)
        else:
            back = np.empty(a.shape)
            for idx in np.ndindex(a.shape[:-d]):
                back[idx] = scipy.fft.irfftn(ah[idx], s=g.shape, axes=axes)
        pairs += [(sp.fwd, a, ah), (sp.inv, ah, back)]
    seen = _backend_calls(monkeypatch)
    for transform, x, want in pairs:
        assert _same_bits(transform(x), want)
    assert len(seen) >= len(pairs) and all(seen)


@pytest.mark.parametrize("d", [2, 3])
def test_cfwd_of_rows_is_each_fields_cfwd(d):
    # cfwd transforms the grid axes only: each row of a stack is bitwise its
    # field's transform, and a single field's is scipy's fftn over all its
    # axes, as before
    g = Grid(d, 3.0, 8)
    rng = np.random.default_rng(60 + d)
    z = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    rows = g.rows(3).cfwd(z)
    for b in range(3):
        one = g.spectral.cfwd(z[b])
        assert _same_bits(one, scipy.fft.fftn(z[b]))
        assert _same_bits(rows[b], one)


def test_backend_declines_other_calls_and_is_off_outside_spectral(monkeypatch):
    sp = Grid(1, 3.0, 32).spectral
    a = np.random.default_rng(7).standard_normal(sp.shape)
    seen = _backend_calls(monkeypatch)
    # a real array into cfwd: declined, so scipy's own backend runs it
    assert _same_bits(sp.cfwd(a), scipy.fft.fft(a)) and seen == [False]
    # scipy.fft called outside Spectral never reaches the backend
    scipy.fft.rfft(a)
    scipy.fft.rfftn(a[None], axes=(-1,))
    assert seen == [False]


_A = np.random.default_rng(11).standard_normal((3, 16))
_Z = _A + 1j * np.random.default_rng(12).standard_normal(_A.shape)
_ZH = scipy.fft.rfftn(_A, axes=(-2, -1))  # the (3, 9) half spectrum of _A
# scipy.fft calls the pocketfft backend must decline: a dtype, size, keyword
# set or s it does not take
DECLINED = {
    "float_into_cfwd": lambda: scipy.fft.fft(_A),
    "float_into_cfwd_nd": lambda: scipy.fft.fftn(_A, axes=(-2, -1)),
    "complex_into_fwd": lambda: scipy.fft.rfft(_Z),
    "complex_into_fwd_nd": lambda: scipy.fft.rfftn(_Z, axes=(-2, -1)),
    "float32_into_fwd": lambda: scipy.fft.rfft(_A.astype(np.float32)),
    "real_into_inv": lambda: scipy.fft.irfft(_A),
    "zero_size": lambda: scipy.fft.rfft(np.empty((0, 16))),
    "zero_size_inv": lambda: scipy.fft.irfftn(np.empty((0, 9), complex), s=(0, 16), axes=(-2, -1)),
    "zero_length": lambda: scipy.fft.rfft(np.empty(0)),
    "one_column_inv": lambda: scipy.fft.irfft(_ZH[:, :1]),
    "padding_s": lambda: scipy.fft.irfftn(_ZH, s=(4, 20), axes=(-2, -1)),
    "odd_s": lambda: scipy.fft.irfftn(_ZH, s=(3, 17), axes=(-2, -1)),
    "axis_out_of_range_inv": lambda: scipy.fft.irfftn(_ZH, s=(16,), axes=(5,)),
    "extra_keyword": lambda: scipy.fft.rfft(_A, norm="ortho"),
    "extra_keyword_nd": lambda: scipy.fft.irfftn(_ZH, s=(3, 16), axes=(-2, -1), workers=1),
    "axes_as_list": lambda: scipy.fft.rfftn(_A, axes=[-2, -1]),
    "no_axes": lambda: scipy.fft.ifftn(_Z),
    "length_n": lambda: scipy.fft.fft(_Z, 8),
}


def _outcome(call):
    """What call gives: its array's dtype, shape and bytes, or the type
    and message of what it raised."""
    try:
        out = call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.parametrize("case", list(DECLINED))
def test_backend_declines_calls_it_does_not_know(monkeypatch, case):
    # inside the backend's context each call is declined, without raising
    # from the backend, and scipy's own backend gives scipy's bits (or
    # raises scipy's error)
    seen = _backend_calls(monkeypatch)
    with spectral._POCKETFFT:
        inside = _outcome(DECLINED[case])
    assert seen == [False]
    assert inside == _outcome(DECLINED[case]) and seen == [False]


def _integer_tables(d: int) -> dict:
    """The Hessian index tables as integer arrays, each with the length of
    the leading axis it gathers along: the stacked entries (i, j), i <= j,
    their rows and columns, the mirrored (d, d) rows and the diagonal."""
    keys = [(i, j) for i in range(d) for j in range(i, d)]
    rows, cols = np.array(keys).T
    full = np.array([[keys.index((min(i, j), max(i, j))) for i in range(d)] for j in range(d)])
    return {
        "hess_upper": ((rows, d), (cols, d)),
        "hess_full": ((full, len(keys)),),
        "hess_diag": ((np.array([keys.index((i, i)) for i in range(d)]), len(keys)),),
    }


@given(
    d=st.sampled_from([1, 2, 3]),
    tail=st.lists(st.integers(1, 4), min_size=0, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_index_tables_gather_as_the_integer_tables(d, tail, seed):
    # every table gathers the values, in the shape, of its integer array;
    # in 1D each gather is a view
    sp = Grid(d, 4.0, 8).spectral
    rng = np.random.default_rng(seed)
    for name, parts in _integer_tables(d).items():
        tables = getattr(sp, name) if len(parts) == 2 else (getattr(sp, name),)
        for table, (ref, length) in zip(tables, parts, strict=True):
            x = rng.standard_normal((length, *tail))
            got = x[table]
            assert got.shape == x[ref].shape, name
            assert np.array_equal(got, x[ref]), name
            assert (d == 1) == np.shares_memory(got, x), name


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_batch_stacks_its_parts_bitwise(d, n):
    # a batch writes its parts, arrays and (lead, fill) pairs, into one
    # stack: each result is bitwise its part's own transform; a forward
    # batch is one call, a d > 1 inverse one call per component with an
    # output of each part's own
    sp = Grid(d, 4.0, n).spectral
    rng = np.random.default_rng(d)
    a, b = rng.standard_normal((2,) + sp.shape), rng.standard_normal(sp.shape)
    parts = {"a": a, "ab": ((2,), partial(np.multiply, a, b)), "b": b}
    calls = sp.calls
    hat = sp.batch(sp.fwd, parts)
    assert sp.calls - calls == 1
    for name, v in {"a": a, "ab": a * b, "b": b}.items():
        assert np.array_equal(hat[name], sp.fwd(v)), name
    derivs = {"grad": ((d,), partial(np.multiply, sp.ik, hat["b"])), "a": hat["a"]}
    calls = sp.calls
    back = sp.batch(sp.inv, derivs)
    assert sp.calls - calls == (1 if d == 1 else d + 2)
    assert np.array_equal(back["grad"], sp.inv(sp.ik * hat["b"]))
    assert np.array_equal(back["a"], sp.inv(hat["a"]))
    owner = [r if r.base is None else r.base for r in (back["grad"], back["a"])]
    assert (d == 1) == (owner[0] is owner[1])


# ---------------------------------------------------------------------------
# the confinement weight


@pytest.mark.parametrize("d,n,bounds", [
    # measured: w 8.8e-11, grad 4.4e-15, lap 1.75e-7
    (1, 256, (2e-10, 1e-13, 4e-7)),
    # measured: w 2.0e-7, grad 1.07e-6, lap 1.23e-4
    (2, 128, (4e-7, 2e-6, 2.5e-4)),
    # measured: w 2.9e-5, grad 1.03e-4, lap 5.4e-3
    (3, 64, (6e-5, 2e-4, 1e-2)),
])
def test_confinement_weight_on_the_plateau(monkeypatch, d, n, bounds):
    # on |y| <= ell/2 the weight is |y|^2, its force 2 y and lap w 2 d, to
    # bounds at about twice what chi's fall leaves at each resolution; on
    # the whole box the force and lap w are w's spectral gradient and
    # Laplacian, w(0) = 0, and the arrays are built once per (d, ell, n),
    # shared and read-only, with no transform through the public names
    calls = []
    for mod in (np.fft, scipy.fft):
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            def counted(*args, _orig=getattr(mod, name), **kwargs):
                calls.append(_orig)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    spectral._confinement.cache_clear()
    g = Grid(d, 8.0, n)
    c = g.confinement
    assert not calls
    assert Grid(d, 8.0, n).confinement.w is c.w
    assert not any(a.flags.writeable for a in c)
    on = np.sqrt(g.r2) <= g.ell / 2
    y = np.stack([np.broadcast_to(yi, g.shape) for yi in g.y])
    assert np.abs(c.w - g.r2)[on].max() <= bounds[0]
    assert np.abs(c.grad - 2.0 * y)[:, on].max() <= bounds[1]
    assert np.abs(c.lap - 2.0 * d)[on].max() <= bounds[2]
    assert c.w[(n // 2,) * d] == 0.0
    sp = g.spectral
    assert np.abs(sp.grad(c.w) - c.grad).max() <= 1e-11
    assert np.abs(sp.lap(c.w) - c.lap).max() <= 1e-10
