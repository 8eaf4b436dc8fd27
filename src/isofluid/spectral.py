"""Periodic-box field algebra: FFT transforms, spectral derivatives, dealiasing
and quadrature of plain sample arrays on the torus [-ell, ell]^d.

Conventions
-----------
* samples live on the uniform grid y_i = -ell + i * (2 ell / n), i = 0..n-1,
  per axis (row-major, axis 0 varies slowest);
* wavenumbers are k_j = pi * m_j / ell for integer modes m_j in [-n/2, n/2);
* spectral coefficients are those of the trigonometric interpolant,
  c_k = fftn(values) / n^d, so that  quad(f^2) = (2 ell)^d * sum |c_k|^2
  (Parseval with the uniform quadrature weight (2 ell / n)^d);
* every transform goes through one backend per grid, `Grid.spectral`: real
  fields use real-to-complex transforms (scipy.fft rfft/irfft in 1D,
  rfftn/irfftn otherwise) and live on the half spectrum, whose last axis
  keeps the modes 0..n/2; its tables (wavenumbers, |k|^2, the 2/3 mask and
  the derived symbols) are built once, and each is held once: no table is
  another's concatenation (the solver multiplies ik and hess_sym into the
  two halves of its rows of grad s and hess s), and grad_lap_norm(p) keeps
  no grad_lap_symbol(p) (at 2D n = 128 a concatenated derivative table
  held 0.63 MiB, and each grad_lap_symbol 0.25 MiB).  Complex fields use
  the complex-to-complex transforms on the full spectrum, over the grid
  axes only, so a stack's rows are each field's transform;
* dispatch: fwd, inv, cfwd and cinv call the public scipy.fft names, looked
  up at each call, so tools that rebind those names (a profiler, a call
  counter, a clock that stamps each transform) see every transform, and
  `calls` counts them.  Each of the four methods makes its calls inside one
  scipy.fft backend context (uarray, scipy.fft.set_backend), entered per
  call and nowhere else, whose backend _Pocketfft runs them on scipy's own
  pocketfft extension, the module scipy's default backend ends in, with
  scipy's default normalization (forward unscaled, inverse 1/N) on one
  thread, so every result is bitwise scipy's.  It takes the names and
  keywords Spectral passes (irfftn only where s is the input's shape, with
  no padding) on a non-empty ndarray, float64 into a real-to-complex
  transform and complex128 into the others; it declines any other call (a
  real array into cfwd, say), which scipy's own backend then runs.  Calling
  pocketfft directly would be faster still but would hide the transforms
  from those tools.  On a 2-core x86 host (scipy 1.17.1, best of 60 x 5 x
  200 calls) a 3 x 256 rfft took 7.4-7.8 us through scipy's backend,
  4.6-5.1 us through this one and 3.2-3.3 us calling pocketfft directly.
  uarray binds the context to the thread that builds it, at import: from
  another thread Spectral's calls run on scipy's own backend, and while
  they do the importing thread's scipy.fft calls run on this one, with the
  same bits either way;
* stacks: the leading axes of a real array in front of the grid's d axes
  are components, so an array of shape lead + grid.shape is a stack of
  fields.  fwd/inv transform every component; grad adds a d-long component
  axis just in front of the grid axes (grad(a)[..., i, :] = d_i a), and
  div/div_dealiased_hat sum over that axis.  A forward transform takes the
  whole stack in one call: rfft in 1D, rfftn over the grid axes otherwise
  (on a 2-core x86 host, scipy 1.17, one rfft call took about 9 us on one
  256-point row and about 14 us on six; one rfftn on 3 x 128^2 took 405 us
  against 453 us for three calls, and on 4 x 128^2 532 us against 608 us).
  An inverse takes the whole stack in one irfft call in 1D, but for d > 1
  each component gets its own irfftn call, because one multi-axis inverse
  on a stack measured slower (4 x 128^2: 0.99 ms, against 0.73 ms for four
  calls; 0.8-0.9x as fast with 4 or more components in 2D).  A component's
  coefficients and samples are bitwise the same either way;
* batches: a Layout gives each named part of a batch its rows in one
  stack, allocated per batch, into which the part is written in place (by
  its ufunc's out=; Spectral.batch copies an array part in): one call in 1D
  and one forward call for d > 1, where an inverse gives each part its own
  output, so that a result kept after the batch (grad R through the N
  substep, a record's kept derivatives) does not hold the others alive.
  A caller that writes its parts itself allocates the stack of the
  Layout's end_shape and calls Spectral.transform; Spectral.batch does
  both for a dict of parts.  On a 2-core x86 host a 1D RK stage's rate
  written this way took 44 us, against 47 us built part by part and then
  concatenated;
* index tables: the Hessian tables (hess_upper, hess_full, hess_diag)
  gather entries along a stack's leading axis.  Where a table's
  index set is one contiguous run, as in 1D, it is a basic slice and the
  gather is a view (on a 2-core x86 host, numpy 2.4, 0.15 us against
  1.8 us for an integer-array copy of one 256-point row); otherwise it is
  the integer array;
* parallelism: every transform runs on one thread.  On a 2-core x86 host
  (scipy 1.17, best of 7) scipy.fft's workers=2 was slower or level
  against workers=1: one 128^2 irfftn 239 us against 153 us, a stacked
  4 x 128^2 inverse 1.35 ms against 1.08 ms, one 32^3 irfftn 0.67 ms
  against 0.36 ms, a 256-point irfft 11.5 us against 11.6 us.  Nothing
  else runs in parallel either: a sweep runs its ladder points in order,
  and the rows of a fixed-dt ladder share each call as one stack (below).
  The grid reductions (diagnostics' quadratures of products, Spectral.inner,
  the log-NLS mass) go through vdot, which hands np.vdot chunks of at most
  VDOT_CHUNK = 8,192 values and adds the partial sums in order: OpenBLAS
  splits a longer dot product over its threads, whose partial sums it adds
  in an order that depends on the thread count, so a 2D n = 128 field
  (16,384 values) summed in one call gave different last bits under
  OPENBLAS_NUM_THREADS=1 and =2.  A 1D field stays below the chunk and is
  one np.vdot call, as before;
* rows: Grid.rows(B) is the backend of B fields of one grid that a solver
  ladder advances together, or that diagnostics.StateOps evaluates as one
  stack of states.  Its sample shape is (B,) + grid.shape and every table
  is a view of Grid.spectral's with a unit row axis in front of the grid
  axes (Spectral.with_rows: nothing is recomputed, 6.5 us on a 2-core x86
  host against 0.23 ms for 1D n = 128 and 2.1 ms for 2D n = 128 when the
  tables were built again per row count); a
  component axis goes in front of the row axis, so a stack is lead + (B,)
  + grid.shape and the Hessian tables gather along its leading axis as
  before; the transforms act on the grid axes only.  Each row's
  coefficients and samples are bitwise those of Grid.spectral, which every
  single run keeps using;
* Nyquist rule: a symbol s acts as the real part of its complex-transform
  evaluation does, i.e. as (s(m) + conj(s(-m)))/2 with modes taken mod n.
  So an odd symbol (a single factor i k_j) uses k_j = 0 at the Nyquist index
  of axis j, where i k_j only feeds the imaginary part the real part drops;
  a mixed product k_i k_j (i != j) vanishes where exactly one of the two
  axes is at its Nyquist index; even symbols (|k|^2, k_j^2) keep the
  Nyquist value.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property, partial

import numpy as np
import scipy.fft
from scipy.fft._pocketfft import pypocketfft as _pypocketfft

__all__ = ["Grid", "Layout", "Spectral", "vdot"]

# the most values one np.vdot call reduces (see the module notes): below
# the length above which OpenBLAS splits a dot product over its threads
VDOT_CHUNK = 8192


def _along(d: int, i: int, v: np.ndarray) -> np.ndarray:
    """A 1-D per-axis table shaped to broadcast along axis i of d."""
    return v.reshape((1,) * i + (v.size,) + (1,) * (d - 1 - i))


def _gather(idx):
    """The index x[...] that gathers x[idx] along x's leading axis for the
    integer table idx: a basic index (new unit axes, then a slice), whose
    result is a view, where idx is one ascending contiguous run shaped
    (1, ..., 1, m), as every 1D table is; else idx as an integer array,
    whose result is a copy.  Either gives the same values in the same shape;
    a caller must not write into the result."""
    idx = np.asarray(idx)
    lo = int(idx.flat[0])
    if idx.shape[:-1] == (1,) * (idx.ndim - 1) and np.array_equal(
        idx.ravel(), np.arange(lo, lo + idx.size)
    ):
        return (None,) * (idx.ndim - 1) + (slice(lo, lo + idx.size),)
    return idx


def vdot(a, b):
    """np.vdot(a, b) (a conjugated), summed over chunks of at most VDOT_CHUNK
    values whose partial sums are added in order, so that the result is the
    same bits at any OpenBLAS thread count."""
    if a.size <= VDOT_CHUNK:
        return np.vdot(a, b)
    a, b = a.ravel(), b.ravel()
    total = np.vdot(a[:VDOT_CHUNK], b[:VDOT_CHUNK])
    for lo in range(VDOT_CHUNK, a.size, VDOT_CHUNK):
        total += np.vdot(a[lo:lo + VDOT_CHUNK], b[lo:lo + VDOT_CHUNK])
    return total


class Grid:
    """Periodic box [-ell, ell]^d with n (power of two, >= 8) points per axis."""

    def __init__(self, d: int, ell: float, n: int):
        if d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
        if ell <= 0:
            raise ValueError(f"half-width must be positive, got {ell}")
        if n < 8 or n % 2 != 0 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        self.d = int(d)
        self.ell = float(ell)
        self.n = int(n)
        self.shape = (self.n,) * self.d
        self.dy = 2.0 * self.ell / self.n
        self.weight = self.dy**self.d  # uniform quadrature weight
        self.volume = (2.0 * self.ell) ** self.d

        axis_y = -self.ell + self.dy * np.arange(self.n)
        axis_k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dy)  # = pi*m/ell
        self.modes = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integer modes m
        # broadcastable per-axis coordinate / wavenumber arrays
        self.y = tuple(_along(self.d, i, axis_y) for i in range(self.d))
        self.k = tuple(_along(self.d, i, axis_k) for i in range(self.d))
        self.k2 = sum(ki**2 for ki in self.k)  # |k|^2, broadcast to full shape
        self.k2 = np.broadcast_to(self.k2, self.shape).copy()
        self.r2 = np.broadcast_to(
            sum(yi**2 for yi in self.y), self.shape
        ).copy()  # |y|^2 samples
        self._rows: dict = {}  # see rows

    def quad(self, a) -> float:
        """Quadrature of the samples a (summed over a stack as well)."""
        return float(self.weight * a.sum())

    @cached_property
    def gaussian_mass(self) -> float:
        """quad(exp(-|y|^2)): the periodized Gaussian's mass, about pi^(d/2)."""
        gaussian = np.exp(-self.r2)
        return self.quad(gaussian)

    @cached_property
    def spectral(self) -> "Spectral":
        """The transform backend of this grid, built on first use."""
        return Spectral(self)

    def rows(self, count: int) -> "Spectral":
        """The transform backend of `count` rows of this grid's fields, whose
        sample shape is (count,) + shape (see the module notes), built once
        per count."""
        sp = self._rows.get(count)
        if sp is None:
            sp = self._rows[count] = self.spectral.with_rows(count)
        return sp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.d == other.d
            and self.n == other.n
            and self.ell == other.ell
        )

    def __hash__(self):
        return hash((self.d, self.ell, self.n))

    def __repr__(self):
        return f"Grid(d={self.d}, ell={self.ell}, n={self.n})"


# ---------------------------------------------------------------------------
# transforms


def _r2c(x, axes=(-1,)):
    return _pypocketfft.r2c(x, axes, True, 0, None, 1)


def _c2r(x, axes=(-1,), s=None):
    """pocketfft's inverse of the half spectrum x over axes, to the even
    last length 2 m - 2 of x's m columns; NotImplemented where that length
    is 0 or s, if given, is not x's shape along axes with it."""
    last = 2 * x.shape[axes[-1]] - 2
    if last < 2 or s is not None and list(s) != [x.shape[a] for a in axes[:-1]] + [last]:
        return NotImplemented
    return _pypocketfft.c2r(x, axes, last, False, 2, None, 1)


def _c2c(forward, x, axes=(-1,)):
    return _pypocketfft.c2c(x, axes, forward, 0 if forward else 2, None, 1)


_F8, _C16 = np.dtype(np.float64), np.dtype(np.complex128)
# the scipy.fft calls Spectral makes, by name and keywords: (input dtype,
# pocketfft call).  inorm 0 is scipy's unscaled forward transform, 2 its
# 1/N inverse
_POCKETFFT_CALLS = {
    ("rfft",): (_F8, _r2c),
    ("irfft",): (_C16, _c2r),
    ("rfftn", "axes"): (_F8, _r2c),
    ("irfftn", "s", "axes"): (_C16, _c2r),
    ("fft",): (_C16, partial(_c2c, True)),
    ("ifft",): (_C16, partial(_c2c, False)),
    ("fftn", "axes"): (_C16, partial(_c2c, True)),
    ("ifftn", "axes"): (_C16, partial(_c2c, False)),
}


class _Pocketfft:
    """The scipy.fft backend (uarray protocol) that Spectral's transforms
    run under.  The calls Spectral makes (_POCKETFFT_CALLS: these names,
    one positional input, these keywords in this order), on a non-empty
    ndarray that is float64 for a real-to-complex transform and complex128
    otherwise, go straight to scipy's own pocketfft extension with scipy's
    default normalization, on one thread, bitwise scipy's result; any other
    call returns NotImplemented, and scipy's own backend runs it."""

    __ua_domain__ = "numpy.scipy.fft"

    @staticmethod
    def __ua_function__(method, args, kwargs):
        call = _POCKETFFT_CALLS.get((method.__name__, *kwargs))
        if call is None or len(args) != 1:
            return NotImplemented
        x = args[0]
        if type(x) is not np.ndarray or x.dtype != call[0] or not x.size:
            return NotImplemented
        return call[1](x, **kwargs)


# entered by Spectral's transform methods only (module notes: dispatch)
_POCKETFFT = scipy.fft.set_backend(_Pocketfft)


class Spectral:
    """Transform backend of one Grid: real-to-complex transforms on the half
    spectrum, complex-to-complex transforms for complex fields, and the
    symbol tables, each built once (see the module notes for the Nyquist
    rule and the stack convention).  Transforms are unnormalized:
    inv(fwd(a)) == a.  With rows (Grid.rows, with_rows), the samples of
    each field are (rows,) + grid.shape and every table carries a unit row
    axis."""

    def __init__(self, grid: Grid):
        self.d, self.shape = grid.d, grid.shape
        self.half_shape = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        k = grid.k
        self.k2 = self._half(grid.k2)
        self.ik = np.stack([self._half(1j * ki) for ki in k])  # (d,) + half
        # upper-triangular Hessian entries -k_i k_j, i <= j, stacked in key order
        self.hess_keys = [(i, j) for i in range(self.d) for j in range(i, self.d)]
        self.hess_sym = np.stack([self._half(-(k[i] * k[j])) for i, j in self.hess_keys])
        # gathers over a stack's leading axis (see _gather): hess_upper the
        # (rows, columns) of the stacked entries; hess_full[j, i] the stacked
        # entry at row j, column i
        d, keys = self.d, self.hess_keys
        self.hess_upper = tuple(_gather(v) for v in zip(*keys))
        self._mirror = [[keys.index((min(i, j), max(i, j))) for i in range(d)] for j in range(d)]
        self.hess_full = _gather(self._mirror)
        # the diagonal entries, and the weight of each entry in a Frobenius norm
        self.hess_diag = _gather([keys.index((i, i)) for i in range(d)])
        self.hess_w = np.array([1.0 if i == j else 2.0 for i, j in self.hess_keys])
        keep = (np.abs(grid.modes) <= grid.n / 3.0).astype(float)  # 2/3 rule
        self.mask = self._half(math.prod(_along(grid.d, i, keep) for i in range(grid.d)))
        self.mask_ik = self.mask * self.ik
        self._axis_ik = [1j * ki * _along(grid.d, i, np.abs(grid.modes) < grid.n / 2)
                         for i, ki in enumerate(k)]
        self.size = math.prod(self.shape)
        self.calls = 0  # scipy.fft calls made so far
        self._symbols: dict = {}
        self._layouts: dict = {}  # see layout
        self._grid_shape = grid.shape
        self._grid_axes = tuple(range(-self.d, 0))
        self._sample_axes()

    def _sample_axes(self) -> None:
        # index of a new component axis, and of each entry of the existing
        # one, just in front of the sample axes (the row axis, if any, and
        # the grid axes)
        sample_axes = (slice(None),) * len(self.shape)
        self._new_axis = (Ellipsis, None) + sample_axes
        self._entries = [(Ellipsis, i) + sample_axes for i in range(self.d)]

    def with_rows(self, rows: int) -> "Spectral":
        """This backend for `rows` fields at once (Grid.rows): its tables
        as views with a unit row axis in front of the grid axes, and its own
        call count, symbols and layouts."""
        out = copy.copy(self)
        unit = (Ellipsis, None) + (slice(None),) * self.d
        for name in ("k2", "ik", "hess_sym", "mask", "mask_ik"):
            setattr(out, name, getattr(self, name)[unit])
        out.shape, out.half_shape = (rows,) + self.shape, (rows,) + self.half_shape
        out.calls, out._symbols, out._layouts = 0, {}, {}
        out.__dict__.pop("cik", None)  # built on first use from the shape
        out._sample_axes()
        return out

    def _half(self, sym) -> np.ndarray:
        """Half-spectrum table of a full-spectrum symbol as the real part of
        a complex-transform evaluation sees it: (sym(m) + conj(sym(-m)))/2,
        modes taken mod n.  This is the Nyquist rule of the module notes."""
        full = np.broadcast_to(sym, self.shape)
        neg = np.roll(np.flip(full), 1, axis=tuple(range(self.d)))
        return (0.5 * (full + np.conj(neg)))[..., : self.shape[-1] // 2 + 1].copy()

    @cached_property
    def cik(self) -> np.ndarray:
        """i k_j on the full spectrum, stacked over the axes j and zero at
        axis j's Nyquist index, as the Nyquist rule sets ik: the gradient
        symbol of a complex field."""
        return np.stack([np.broadcast_to(c, self.shape) for c in self._axis_ik])

    # -- transforms: scipy.fft names are looked up at every call, inside
    #    the pocketfft backend's context, so tools that rebind them see each
    #    transform; `calls` counts them.  Leading axes are stack components
    #    (see the module notes: dispatch, stacks).

    def fwd(self, a: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of a real array or stack, one call."""
        self.calls += 1
        with _POCKETFFT:
            if self.d == 1:
                return scipy.fft.rfft(a)
            return scipy.fft.rfftn(a, axes=self._grid_axes)

    def inv(self, ah: np.ndarray) -> np.ndarray:
        """Real array or stack of half-spectrum coefficients: one call in
        1D, one irfftn call per component for d > 1."""
        if self.d == 1:
            self.calls += 1
            with _POCKETFFT:
                return scipy.fft.irfft(ah)
        lead = ah.shape[: ah.ndim - len(self.shape)]
        s, axes = self._grid_shape, self._grid_axes
        with _POCKETFFT:
            if not lead:
                self.calls += 1
                return scipy.fft.irfftn(ah, s=s, axes=axes)
            out = np.empty(lead + self.shape)
            for idx in np.ndindex(lead):
                self.calls += 1
                out[idx] = scipy.fft.irfftn(ah[idx], s=s, axes=axes)
        return out

    def cfwd(self, z: np.ndarray) -> np.ndarray:
        """Full-spectrum coefficients of a complex array or stack, one call."""
        self.calls += 1
        with _POCKETFFT:
            return scipy.fft.fft(z) if self.d == 1 else scipy.fft.fftn(z, axes=self._grid_axes)

    def cinv(self, zh: np.ndarray) -> np.ndarray:
        """Complex array or stack of full-spectrum coefficients, one call."""
        self.calls += 1
        with _POCKETFFT:
            return scipy.fft.ifft(zh) if self.d == 1 else scipy.fft.ifftn(zh, axes=self._grid_axes)

    # -- cached symbols --------------------------------------------------------

    def cached(self, key, build):
        """build(), built once per key: the symbols, and tables that depend
        on the grid alone."""
        out = self._symbols.get(key)
        if out is None:
            out = self._symbols[key] = build()
        return out

    def lap_symbol(self, p: int) -> np.ndarray:
        """(-|k|^2)^p."""
        return self.cached(("lap", p), lambda: (-self.k2) ** p)

    def grad_lap_symbol(self, p: int) -> np.ndarray:
        """i k_j (-|k|^2)^p, stacked over the axes j."""
        return self.cached(("grad_lap", p), lambda: self.ik * self.lap_symbol(p))

    def grad_lap_norm(self, p: int) -> np.ndarray:
        """sum_j |i k_j (-|k|^2)^p|^2, the symbol of |grad lap^p a|^2 in inner,
        built from ik and lap_symbol(p) without keeping grad_lap_symbol(p)."""
        return self.cached(
            ("grad_lap_norm", p), lambda: self.sum_axes(np.abs(self.ik * self.lap_symbol(p)) ** 2)
        )

    def layout(self, transform, leads: dict) -> "Layout":
        """The Layout of a batch of `transform` (fwd or inv) whose named
        parts have these leading shapes, in this order; built once."""
        forward = transform == self.fwd
        # keyed by the direction, not the bound method, which would hold
        # this backend in a reference cycle that only the cyclic GC frees
        key = (forward, *leads.items())
        lay = self._layouts.get(key)
        if lay is None:
            lay = self._layouts[key] = Layout(self, forward, leads)
        return lay

    def batch(self, transform, parts: dict) -> dict:
        """`transform` (fwd or inv) of the named parts, each a stack of any
        leading shape or a pair (lead, fill), fill(out) writing the stack
        of leading shape lead into out; each result keeps its part's
        leading shape.  The parts are written into one stack (see Layout),
        except that a lone part, and each part of a d > 1 inverse, goes on
        its own, built just before its calls."""
        if len(parts) == 1 or (self.d > 1 and transform != self.fwd):
            # each part alone, built just before its calls
            return {name: transform(self._built(v, transform)) for name, v in parts.items()}
        ndim = len(self.shape)  # the sample axes: the row axis, if any, and the grid's
        lay = self.layout(transform, {name: v[0] if type(v) is tuple else v.shape[: v.ndim - ndim]
                                      for name, v in parts.items()})
        stack = np.empty(lay.end_shape, lay.dtype)
        for (name, cut, shape, _), v in zip(lay.parts, parts.values()):
            view = stack[cut] if shape is None else stack[cut].reshape(shape)
            if type(v) is tuple:
                v[1](view)
            else:
                view[...] = v
        results = self.transform(lay, stack)
        return {name: results[cut] if shape is None else results[cut].reshape(shape)
                for name, cut, _, shape in lay.parts}

    def _built(self, part, transform):
        """A batch part as an array: itself, or the stack its fill writes."""
        if type(part) is not tuple:
            return part
        lead, fill = part
        fwd = transform == self.fwd
        out = np.empty(lead + (self.shape if fwd else self.half_shape), float if fwd else complex)
        fill(out)
        return out

    def transform(self, lay: "Layout", stack):
        """The transform of a stack laid out by lay, its parts written into
        their rows: the array of the results at the parts' rows, or for a
        d > 1 inverse the results of each part on its own, read the same
        way, res[cut]; None, and no call, for a stack without rows."""
        if not len(stack):
            return None
        if lay.each:
            return _PerPart((cut.start, self.inv(stack[cut])) for _, cut, _, _ in lay.parts)
        return self.fwd(stack) if lay.forward else self.inv(stack)

    def inner(self, ah, bh) -> float:
        """Grid sum of a * b (and over the stack) from ah = fwd(a), bh = fwd(b)
        by Parseval: a coefficient off the last axis's 0 and Nyquist columns
        also stands for its conjugate mirror."""
        both = 2.0 * vdot(ah, bh) - vdot(ah[..., 0], bh[..., 0])
        return float((both - vdot(ah[..., -1], bh[..., -1])).real) / self.size

    def trace(self, h, out=None) -> np.ndarray:
        """sum_i h_ii of a stack of upper Hessian entries (hess_keys order),
        written into out where it is given."""
        return h[self.hess_diag].sum(axis=0, out=out)

    def frob2(self, h) -> np.ndarray:
        """|h|^2, the squared Frobenius norm of the symmetric tensor whose
        upper entries (hess_keys order) the stack h holds: np.tensordot's
        matrix product of the weights and h^2, without its bookkeeping."""
        return np.dot(self.hess_w[None], (h * h).reshape(len(self.hess_w), -1)).reshape(h.shape[1:])

    # -- operations on real arrays or stacks

    def apply(self, syms, ah, out=None) -> np.ndarray:
        """Each symbol of the stack `syms` times each coefficient array of
        `ah`: shape ah.lead + syms.lead + half (ready for one inverse),
        written into out where it is given."""
        return np.multiply(syms, ah[self._new_axis], out=out)

    def sum_axes(self, x) -> np.ndarray:
        """Sum over the d-long component axis just in front of the grid axes
        (the axis i of a grad or a stress row), added in order i = 0..d-1."""
        out = x[self._entries[0]]
        for e in self._entries[1:]:
            out = out + x[e]
        return out

    def grad(self, a) -> np.ndarray:
        """grad(a)[..., i, :] = d_i a, for an array or a stack a."""
        return self.inv(self.apply(self.ik, self.fwd(a)))

    def div(self, comps) -> np.ndarray:
        """sum_i d_i comps[..., i, :]."""
        return self.inv(self.sum_axes(self.ik * self.fwd(np.asarray(comps))))

    def lap(self, a, p: int = 1) -> np.ndarray:
        return self.inv(self.lap_symbol(p) * self.fwd(a))

    def dealias(self, a) -> np.ndarray:
        """Zero every coefficient with an axis mode |m_j| > n/3 (2/3 rule)."""
        return self.inv(self.mask * self.fwd(a))

    def div_dealiased_hat(self, ch) -> np.ndarray:
        """Coefficients of sum_i d_i dealias(c[..., i, :]) from ch = fwd(c):
        the mask and i k applied together, no round trip."""
        return self.sum_axes(self.mask_ik * ch)

    def div_upper_dealiased_hat(self, ch) -> np.ndarray:
        """div_dealiased_hat of the symmetric tensor whose upper entries
        (hess_keys order) the stack ch holds, from their coefficients: row j
        adds its d products mask i k_i ch[(i, j)] in order i = 0..d-1 into
        its own output, as div_dealiased_hat(ch[hess_full]) adds them, so no
        mirrored (d, d) stack is built."""
        if self.d == 1:  # one row of one product
            return self.mask_ik * ch
        out = np.empty((self.d,) + ch.shape[1:], complex)
        for row, entries in zip(out, self._mirror):
            np.multiply(self.mask_ik[0], ch[entries[0]], out=row)
            for i in range(1, self.d):
                row += self.mask_ik[i] * ch[entries[i]]
        return out


class Layout:
    """The rows of a batch's parts in its stack, allocated per batch: each
    named part's slice of rows (its leading shape flattened), also an
    attribute of that name.  `parts` holds (name, cut, view shape, result
    shape), the shapes None for a one-axis lead, which needs no reshape.
    Built by Spectral.layout."""

    def __init__(self, sp: Spectral, forward: bool, leads: dict):
        self.forward = forward
        self.base, res = (sp.shape, sp.half_shape) if forward else (sp.half_shape, sp.shape)
        self.dtype = float if forward else complex
        # a d > 1 inverse: one output per part (see the module notes)
        self.each = sp.d > 1 and not forward
        self.parts, lo = [], 0
        for name, lead in leads.items():
            cut = slice(lo, lo + math.prod(lead))
            if isinstance(name, str):
                if name in _LAYOUT_FIELDS:
                    raise ValueError(f"a part may not be named {name!r}")
                setattr(self, name, cut)
            one = len(lead) == 1
            self.parts.append((name, cut, None if one else lead + self.base,
                               None if one else lead + res))
            lo = cut.stop
        self.end_shape = (lo,) + self.base


_LAYOUT_FIELDS = {"forward", "base", "dtype", "each", "parts", "end_shape"}


class _PerPart(dict):
    """The results of a d > 1 inverse batch, one array per part, keyed by
    the start of the part's rows and read as res[cut]."""

    def __getitem__(self, cut):
        return dict.__getitem__(self, cut.start)
