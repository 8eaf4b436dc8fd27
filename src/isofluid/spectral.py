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
  the derived symbols) are built once.  Complex fields use the
  complex-to-complex transforms on the full spectrum;
* stacks: the leading axes of a real array in front of the grid's d axes
  are components, so an array of shape lead + grid.shape is a stack of
  fields.  fwd/inv transform every component; grad adds a d-long component
  axis just in front of the grid axes (grad(a)[..., i, :] = d_i a), and
  div/div_dealiased sum over that axis.  A forward transform takes the
  whole stack in one call: rfft in 1D, rfftn over the grid axes otherwise
  (on a 2-core x86 host, scipy 1.17, one rfft call took about 9 us on one
  256-point row and about 14 us on six, and one rfftn on 4 x 128^2 about
  260 us against 321 us for four calls).  An inverse takes the whole stack
  in one irfft call in 1D, but for d > 1 each component gets its own
  irfftn call, because one multi-axis inverse on a stack measured slower
  (4 x 128^2: 0.99 ms, against 0.73 ms for four calls; 0.8-0.9x as fast
  with 4 or more components in 2D).  A component's coefficients and
  samples are bitwise the same either way;
* parallelism: every transform runs on one thread.  On a 2-core x86 host
  (scipy 1.17, best of 7) scipy.fft's workers=2 was slower or level
  against workers=1: one 128^2 irfftn 239 us against 153 us, a stacked
  4 x 128^2 inverse 1.35 ms against 1.08 ms, one 32^3 irfftn 0.67 ms
  against 0.36 ms, a 256-point irfft 11.5 us against 11.6 us.  The one
  parallel setting is the sweep's thread pool (the `threads` config key,
  default 1), which runs whole ladder points side by side;
* Nyquist rule: a symbol s acts as the real part of its complex-transform
  evaluation does, i.e. as (s(m) + conj(s(-m)))/2 with modes taken mod n.
  So an odd symbol (a single factor i k_j) uses k_j = 0 at the Nyquist index
  of axis j, where i k_j only feeds the imaginary part the real part drops;
  a mixed product k_i k_j (i != j) vanishes where exactly one of the two
  axes is at its Nyquist index; even symbols (|k|^2, k_j^2) keep the
  Nyquist value.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.fft

__all__ = ["Grid", "Spectral"]


def _along(d: int, i: int, v: np.ndarray) -> np.ndarray:
    """A 1-D per-axis table shaped to broadcast along axis i of d."""
    return v.reshape((1,) * i + (v.size,) + (1,) * (d - 1 - i))


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

    def quad(self, a) -> float:
        """Quadrature of the samples a (summed over a stack as well)."""
        return float(self.weight * a.sum())

    @cached_property
    def spectral(self) -> "Spectral":
        """The transform backend of this grid, built on first use."""
        return Spectral(self)

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


class Spectral:
    """Transform backend of one Grid: real-to-complex transforms on the half
    spectrum, complex-to-complex transforms for complex fields, and the
    symbol tables, each built once (see the module notes for the Nyquist
    rule and the stack convention).  Transforms are unnormalized:
    inv(fwd(a)) == a."""

    def __init__(self, grid: Grid):
        self.d, self.shape = grid.d, grid.shape
        self.half_shape = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        k = grid.k
        self.k2 = self._half(grid.k2)
        self.ik = np.stack([self._half(1j * ki) for ki in k])  # (d,) + half
        # upper-triangular Hessian entries -k_i k_j, i <= j, stacked in key order
        self.hess_keys = [(i, j) for i in range(self.d) for j in range(i, self.d)]
        self.hess_sym = np.stack([self._half(-(k[i] * k[j])) for i, j in self.hess_keys])
        # hess_upper: the (rows, columns) of the stacked entries;
        # hess_full[j, i]: the stacked entry at row j, column i
        self.hess_upper = tuple(np.array(self.hess_keys).T)
        self.hess_full = np.array(
            [[self.hess_keys.index((min(i, j), max(i, j))) for i in range(self.d)]
             for j in range(self.d)]
        )
        # the diagonal entries, and the weight of each entry in a Frobenius norm
        self.hess_diag = [self.hess_keys.index((i, i)) for i in range(self.d)]
        self.hess_w = np.array([1.0 if i == j else 2.0 for i, j in self.hess_keys])
        # first and second derivatives of a scalar: grad, then the Hessian entries
        self.deriv_sym = np.concatenate((self.ik, self.hess_sym))
        keep = (np.abs(grid.modes) <= grid.n / 3.0).astype(float)  # 2/3 rule
        self.mask = self._half(math.prod(_along(grid.d, i, keep) for i in range(grid.d)))
        self.mask_ik = self.mask * self.ik
        self._axis_ik = [1j * ki * _along(grid.d, i, np.abs(grid.modes) < grid.n / 2)
                         for i, ki in enumerate(k)]
        self.size = math.prod(self.shape)
        self.calls = 0  # scipy.fft calls made so far
        self._symbols: dict = {}
        # index of a new component axis, and of each entry of the existing
        # one, just in front of the grid axes
        grid_axes = (slice(None),) * self.d
        self._grid_axes = tuple(range(-self.d, 0))
        self._new_axis = (Ellipsis, None) + grid_axes
        self._entries = [(Ellipsis, i) + grid_axes for i in range(self.d)]

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

    # -- transforms: scipy.fft names are looked up at every call, so tools
    #    that rebind them (profilers, call counters) see each transform;
    #    `calls` counts them.  Leading axes are stack components (see the
    #    module notes).

    def fwd(self, a: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of a real array or stack, one call."""
        self.calls += 1
        if self.d == 1:
            return scipy.fft.rfft(a)
        return scipy.fft.rfftn(a, axes=self._grid_axes)

    def inv(self, ah: np.ndarray) -> np.ndarray:
        """Real array or stack of half-spectrum coefficients: one call in
        1D, one irfftn call per component for d > 1."""
        if self.d == 1:
            self.calls += 1
            return scipy.fft.irfft(ah)
        lead = ah.shape[: ah.ndim - self.d]
        if not lead:
            self.calls += 1
            return scipy.fft.irfftn(ah, s=self.shape)
        out = np.empty(lead + self.shape)
        for idx in np.ndindex(lead):
            self.calls += 1
            out[idx] = scipy.fft.irfftn(ah[idx], s=self.shape)
        return out

    def cfwd(self, z: np.ndarray) -> np.ndarray:
        """Full-spectrum coefficients of a complex array."""
        self.calls += 1
        return scipy.fft.fft(z) if self.d == 1 else scipy.fft.fftn(z)

    def cinv(self, zh: np.ndarray) -> np.ndarray:
        """Complex array or stack of full-spectrum coefficients, one call."""
        self.calls += 1
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
        """sum_j |i k_j (-|k|^2)^p|^2, the symbol of |grad lap^p a|^2 in inner."""
        return self.cached(
            ("grad_lap_norm", p), lambda: self.sum_axes(np.abs(self.grad_lap_symbol(p)) ** 2)
        )

    def batch(self, transform, parts: dict) -> dict:
        """`transform` (fwd or inv) of the named parts, each a stack along one
        leading axis or a function that builds it.  In 1D the parts go as one
        concatenated stack, one call; for d > 1 each part goes alone (a
        forward stack is one call, an inverse one call per component anyway),
        a function's part built just before its transform."""
        if len(parts) == 1 or self.d > 1:
            return {name: transform(v() if callable(v) else v) for name, v in parts.items()}
        stacks = [v() if callable(v) else v for v in parts.values()]
        out = transform(np.concatenate(stacks))
        pieces, lo = {}, 0
        for name, v in zip(parts, stacks):
            pieces[name] = out[lo : lo + len(v)]
            lo += len(v)
        return pieces

    def inner(self, ah, bh) -> float:
        """Grid sum of a * b (and over the stack) from ah = fwd(a), bh = fwd(b)
        by Parseval: a coefficient off the last axis's 0 and Nyquist columns
        also stands for its conjugate mirror."""
        both = 2.0 * np.vdot(ah, bh) - np.vdot(ah[..., 0], bh[..., 0])
        return float((both - np.vdot(ah[..., -1], bh[..., -1])).real) / self.size

    def trace(self, h) -> np.ndarray:
        """sum_i h_ii of a stack of upper Hessian entries (hess_keys order)."""
        return h[self.hess_diag].sum(axis=0)

    def frob2(self, h) -> np.ndarray:
        """|h|^2, the squared Frobenius norm of the symmetric tensor whose
        upper entries (hess_keys order) the stack h holds."""
        return np.tensordot(self.hess_w, h * h, axes=1)

    # -- operations on real arrays or stacks; `ah` passes a precomputed fwd(a)

    def apply(self, syms, ah) -> np.ndarray:
        """Each symbol of the stack `syms` times each coefficient array of
        `ah`: shape ah.lead + syms.lead + half (ready for one inverse)."""
        return syms * ah[self._new_axis]

    def sum_axes(self, x) -> np.ndarray:
        """Sum over the d-long component axis just in front of the grid axes
        (the axis i of a grad or a stress row), added in order i = 0..d-1."""
        out = x[self._entries[0]]
        for e in self._entries[1:]:
            out = out + x[e]
        return out

    def grad(self, a, ah=None) -> np.ndarray:
        """grad(a)[..., i, :] = d_i a, for an array or a stack a."""
        ah = self.fwd(a) if ah is None else ah
        return self.inv(self.apply(self.ik, ah))

    def div(self, comps) -> np.ndarray:
        """sum_i d_i comps[..., i, :]."""
        return self.inv(self.sum_axes(self.ik * self.fwd(np.asarray(comps))))

    def lap(self, a, p: int = 1, ah=None) -> np.ndarray:
        ah = self.fwd(a) if ah is None else ah
        return self.inv(self.lap_symbol(p) * ah)

    def dealias(self, a) -> np.ndarray:
        """Zero every coefficient with an axis mode |m_j| > n/3 (2/3 rule)."""
        return self.inv(self.mask * self.fwd(a))

    def div_dealiased_hat(self, ch) -> np.ndarray:
        """Coefficients of sum_i d_i dealias(c[..., i, :]) from ch = fwd(c):
        the mask and i k applied together, no round trip."""
        return self.sum_axes(self.mask_ik * ch)

    def div_dealiased(self, comps) -> np.ndarray:
        return self.inv(self.div_dealiased_hat(self.fwd(np.asarray(comps))))
