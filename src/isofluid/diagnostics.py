"""Energy, entropy and identity diagnostics for fluid states.

Every functional of the self-similar system is evaluated by quadrature
on the torus.  Conventions used throughout:

* 0 log 0 = 0; logarithms of the density are taken as log(max(R, 1e-30)),
  so floored cells contribute <= 1e-28 per cell to R log R;
* R |grad log R|^2 is evaluated as 4 |grad sqrt(R)|^2 (exact for R > 0 and
  the correct extension by 0 on vacuum);
* in the balance functionals R |hess log R|^2 is evaluated on R > r_floor
  through the split hess R / R - grad R x grad R / R^2
  (StateOps.hess_logR_split);
* kinetic quantities use Lambda = M / sqrt(rho_sm), so R|U|^2 = |Lambda|^2
  up to the floor's bias; U itself is M / rho_sm, rho_sm =
  smooth_density(R, r_floor), the solver's recovery (r_floor: see StateOps).

Stacks.  A StateOps is the table of the derived arrays of a stack of B >= 1
states of one grid, from (R, M, r_floor) in the layout of Grid.rows(B): R
(B,) + grid.shape, M and every vector (d, B) + grid.shape, grad U (d, d,
B) + grid.shape with grad_U[j, i] = d_i U_j, and a Hessian the stack of its
upper entries in sp.hess_keys order.  Its arrays and transforms are built
once for the stack and every reduction runs on each row (each_row), so
each row's values are bitwise those of its stack of one.  A functional of
tau takes one (tau, taudot) pair per row and returns the array of the
rows' values; each row's coefficients, total and scalar math (the CK shift,
the L log L sweep, the residuals' norms) are Python floats, so a
coefficient that vanishes on some rows skips its term on exactly those.
solver.run evaluates its records in blocks of stack_rows states,
lognls.run_nls its samples and check its random fields.  A lone state (a
FluidState or StateOps whose R has the grid's axes only)
crosses one boundary, lone_state, around every public functional: it goes
in as its stack of one and comes back as Python floats or one record.

Terms.  Each functional is a sum of named term integrals (_TERMS) with
coefficients from the parameters and tau, in groups of (coefficient, term)
pairs that its term-list builder gives.  A functional, and each tier of
`record`, evaluates on a _Plan built once per builder and arguments (a
record's per parameter set, d and tier): the term keys, each column's
groups, and each coefficient's arithmetic, recorded from the builders and
replayed on each row's own (tau, taudot) in Python floats.  A switched-off
term (a constant 0 coefficient) is not in the plan; a term whose
coefficient is 0 on a row is skipped on that row, and not evaluated where
it is 0 on every row.  What the live terms transform is made in one
StateOps.fetch (the fields forward as one Spectral.batch and their
derivatives back as one more; the fields built from derivatives (lap log
R, lap sqrt R / sqrt R, the Korteweg stress) in a second such stage where
those derivatives are not held yet), whose stages are resolved once per
request; each term integral is taken once per row.

Phases.  A full record fetches and integrates in three phases: its columns;
then relative_entropy, csiszar_kullback_gap, compatibility_residuals,
irrotationality_residual and llogl_bound; then the identities, on the rows
whose R > 0 (on their own stack, StateOps.take, where other rows have not).
Between two phases StateOps.keep drops every coefficient, derivative and
pointwise array that no later phase reads, and keeps what one does: the
derivatives it reads and the coefficients of sqrt R, R U and log R, whose
later derivatives come back from them.  So no field goes forward twice and
no derivative comes back twice.  A kept array that is rows of a larger
batch is copied out, so that the batch goes.  A core record is the first
phase alone.  The phases cost one more forward call per d > 1 full record
(33 in 2D, 58 in 3D) and two per 1D one (6), and keep a record's traced
peak at or below one advance's (5.78 against 6.37 MiB on the fixed_2d
start state; tests/test_diagnostics.py).

Fields in their rows.  A fetch builds each field that goes forward straight
into its rows of the batch's stack (a Spectral.batch part (lead, fill)),
and the table keeps those rows as the field's pointwise array (R, sqrt R,
U, R U, log R, rho_tilde^(-alpha/2), lap sqrt R / sqrt R, the Korteweg
stress), so the stack is those arrays and nothing is copied into it; a
field built before its fetch is copied in and kept there from then on.

Parseval.  Quadratures of products of linear derivatives of one field
(|grad lap^s R|^2, (lap^(s+1) R)^2, |grad rho_tilde^(-alpha/2)|^2, |lap U|^2,
lap U . grad lap log R) are taken on the half spectrum by Spectral.inner,
with no inverse transform; under the Nyquist rule of the spectral module
they equal the grid sums of the inverses up to rounding.
"""

from __future__ import annotations

import inspect
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial, wraps

import numpy as np

from .params import ParamSet
from .rescaling import FluidState, smooth_density, vacuum_floor
from .spectral import Grid, vdot

__all__ = [
    "DiagnosticsRecord",
    "StateOps",
    "energy",
    "dissipation",
    "bd_entropy",
    "bd_dissipation",
    "energy_reg",
    "dissipation_reg",
    "bd_entropy_reg",
    "bd_dissipation_reg",
    "balance_rhs",
    "energy_balance_residual",
    "bd_identity_terms",
    "bd_identity_residual",
    "relative_entropy",
    "csiszar_kullback_gap",
    "korteweg_stress_entries",
    "korteweg_identity_residual",
    "loghess_identity_residual",
    "compatibility_residuals",
    "irrotationality_residual",
    "llogl_bound",
    "jungel_quantities",
    "matched_gaussian",
    "each_row",
    "lone_state",
    "stack_rows",
    "record",
]

LOG_FLOOR = 1e-30
# the grid values of the states that one stack holds, half of one 2D
# n = 128 field: it bounds the memory of a stack's derived arrays.  Measured
# in-process on `isofluid check` (2-core x86 host, numpy 2.4): at 128 * 128
# the process's peak RSS rose 1.0-1.3 MiB over one state at a time, at this
# bound 0.1-0.25 MiB, and the nls family took the same time at either
STACK_VALUES = 128 * 64


def stack_rows(grid: Grid) -> int:
    """The number of states of this grid that one stack holds (at least one)."""
    return max(1, STACK_VALUES // math.prod(grid.shape))


def each_row(grid: Grid, reduce, *arrays) -> np.ndarray:
    """The array of reduce on each row of a stack: each array with a row axis
    in front of the grid axes (the first has one) gives reduce its row,
    contiguous, and a grid table goes to every row whole: each value is
    bitwise that of the row's stack of one, which is its own row."""
    d = grid.d
    rows = arrays[0].shape[-d - 1]
    if rows == 1:
        return np.array([reduce(*arrays)], dtype=float)
    parts = [map(np.ascontiguousarray, _by_row(a, d)) if a.ndim > d
             else itertools.repeat(a, rows) for a in arrays]
    return np.fromiter(itertools.starmap(reduce, zip(*parts)), float, rows)


_sum_all = partial(np.add.reduce, axis=None)  # ndarray.sum, without its Python frame


def _by_row(a, d: int):
    """a with its row axis (the last before the d grid axes) in front, so
    that iterating it gives its rows."""
    at = a.ndim - d - 1
    return a.transpose(at, *range(at), *range(at + 1, a.ndim))


def matched_gaussian(grid: Grid, mass: float) -> np.ndarray:
    """Discrete periodized Gaussian exp(-|y|^2) rescaled to the given mass."""
    return np.exp(-grid.r2) * (mass / grid.gaussian_mass)


def korteweg_stress_entries(sp, s, gs, hs, out=None) -> np.ndarray:
    """The upper entries (i <= j, in sp.hess_keys order) of the symmetric
    Korteweg stress s d_i d_j s - d_i s d_j s, from grad s and the upper
    Hessian entries of s, written into out where it is given.  The
    solver's force takes the dealiased divergence of the mirrored rows."""
    i, j = sp.hess_upper
    out = np.multiply(s, hs, out=out)
    out -= gs[i] * gs[j]
    return out


# ---------------------------------------------------------------------------
# the derived-array table of a stack of states


def _neg(o, out, alpha):
    # in out, rho_tilde ** (-alpha/2) as numpy's ** gives it: a copy, then
    # the power in place
    if out is None:
        return o.rho_tilde ** (-alpha / 2.0)
    np.copyto(out, o.rho_tilde)
    out **= -alpha / 2.0
    return out


def _ks(o, out):
    out = o.sp.trace(o["hess_s"], out=out)
    out /= o.s
    return out


# the leading shape of a field's stack in a batch (fetch): () for a scalar
# field, which takes one row
def _scalar(sp):
    return ()


def _vector(sp):
    return (sp.d,)


def _upper(sp):
    return (len(sp.hess_keys),)


# fields that go forward: (the leading shape of the field, build(ops, out,
# *args)), build writing the field into out, or a new array where out is
# None, and returning it ("neg" takes alpha).  A fetch builds each field
# straight into its rows of the batch's stack.  The fields of _KEPT are
# pointwise arrays of the table, each built once (StateOps.field): where a
# fetch builds one first, the table keeps its rows.  The late fields are
# built from the derivatives _LATE lists; a fetch transforms them in a
# second stage while it still has to make those
_FIELDS = {
    "R": (_scalar, lambda o, out: np.maximum(o._R_raw, 0.0, out=out)),
    "s": (_scalar, lambda o, out: np.sqrt(o.R, out=out)),
    "U": (_vector, lambda o, out: np.divide(o.lam, o.root, out=out)),
    "mom": (_vector, lambda o, out: np.multiply(o.s, o.lam, out=out)),
    "logR": (_scalar, lambda o, out: np.log(np.maximum(o.R, LOG_FLOOR, out=out), out=out)),
    "root_s": (_scalar, lambda o, out: np.sqrt(o.s, out=out)),
    "neg": (_scalar, _neg),
    "laplog": (_scalar, lambda o, out: o.sp.trace(o.hess_logR_split, out=out)),
    "ks": (_scalar, _ks),
    "stress": (_upper, lambda o, out: korteweg_stress_entries(
        o.sp, o.s, o["grad_s"], o["hess_s"], out)),
}
_KEPT = {"R", "s", "U", "mom", "logR", "neg", "ks", "stress"}
_LATE = {"laplog": ("grad_R", "hess_R"), "ks": ("hess_s",), "stress": ("grad_s", "hess_s")}

# the coefficients of the derivatives of a field from the field's, h, as a
# Spectral.batch part (lead, fill): grad and hess of a scalar field (one
# component), the Jacobian [j, i] = d_i h_j of a stack and the divergence
# over its component axis
def _grad(sp, h):
    return (sp.d,), partial(np.multiply, sp.ik, h)


def _hess(sp, h):
    return (len(sp.hess_keys),), partial(np.multiply, sp.hess_sym, h)


def _jacobian(sp, h):
    return (sp.d, sp.d), partial(sp.apply, sp.ik, h)


def _div(sp, h):
    lead = h.shape[: h.ndim - len(sp.shape) - 1]
    return lead, lambda out: np.copyto(out, sp.sum_axes(sp.ik * h))


# derivatives that come back from the coefficients of one field: (the
# field's key, the function of its batch part above)
_DERIVS = {
    "grad_s": (("s",), _grad),
    "hess_s": (("s",), _hess),
    "grad_R": (("R",), _grad),
    "hess_R": (("R",), _hess),
    "grad_U": (("U",), _jacobian),  # [j, i] = d_i U_j
    "grad_mom": (("mom",), _jacobian),
    "div_mom": (("mom",), _div),
    "grad_logR": (("logR",), _grad),
    # the spectral Hessian of log R, for the identity checks on R > 0
    "hess_logR": (("logR",), _hess),
    "grad_root_s": (("root_s",), _grad),
    "grad_ks": (("ks",), _grad),
    # row divergences of the Korteweg stress
    "div_stress": (("stress",), lambda sp, h: _div(sp, h[sp.hess_full])),
}


def _key(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


_LATE_KEYS = tuple((name,) for name in _LATE)


@lru_cache(maxsize=256)
def _requires(names: tuple, late_held: tuple) -> dict:
    """name: the key of the field it needs, for the named fields and
    derivatives, and for the derivatives that a late field among them is
    built from where the table holds neither the field's coefficients nor
    the field (late_held); resolved once per request (shared: read only)."""
    needs = {}
    for n in names:
        key = needs[n] = _DERIVS[n][0] if n in _DERIVS else _key(n)
        if key[0] in _LATE and key not in late_held:
            for dep in _LATE[key[0]]:
                needs[dep] = _DERIVS[dep][0]
    return needs


@lru_cache(maxsize=256)
def _stages(names: tuple, later: tuple, held: frozenset, late_held: tuple) -> tuple:
    """StateOps.fetch's stages for a table holding the derivatives `held`
    and the late fields late_held, resolved once per request and holding:
    ((todo, named), ...), each stage's {name: field key} and the fields
    whose coefficients stay.  A late field waits for a second stage where
    this fetch makes a derivative it is built from."""
    needs = _requires(names, late_held)
    todo = {n: key for n, key in needs.items() if n not in held}
    named = {needs[n] for n in names if n not in _DERIVS} | {
        key for n, key in _requires(later, late_held).items()
        if n in _DERIVS and n not in held and n not in todo}
    early = {n: key for n, key in todo.items()
             if not any(dep in todo for dep in _LATE.get(key[0], ()))}
    late = {n: key for n, key in todo.items() if n not in early}
    return tuple((stage, named) for stage in (early, late) if stage)


class StateOps:
    """Derived arrays of a stack of states (see the module notes), each
    computed once and shared between functionals: the density and its
    root, Lambda, U, the coefficients of the fields (hat), their
    derivatives (ops[name], see _DERIVS) and the term integrals (q, see
    _TERMS).

    Built from R (raw, so min_density is the raw minimum; StateOps.R is
    max(R, 0)) and M = R U, with Lambda = M / sqrt(rho_sm).  r_floor is the
    density floor of rho_sm = smooth_density(R, r_floor), of the eta1
    clamp rho_tilde = max(R, r_floor) and of the live set of
    R |hess log R|^2; record passes the solver's r_min, and it defaults to
    rescaling.vacuum_floor(R) of each row.  Without M the momentum is zero.
    t holds each row's time.  A lone state (R with the grid's axes only, M
    and t its own) is held as its stack of one and marked `lone`."""

    def __init__(self, grid: Grid, R, M=None, r_floor: float | None = None, t=0.0):
        R = np.asarray(R, dtype=float)
        self.lone = R.ndim == grid.d
        if self.lone:
            R, M, t = _with_row(R, grid.d), _with_row(M, grid.d), [t]
        self._R_raw, self.rows = R, len(R)
        self.grid, self.t = grid, t
        self.sp = grid.rows(self.rows)
        self._cache, self._hat, self._arr, self._terms = {}, {}, {}, {}
        if r_floor is not None:
            self._cache["r_floor"] = r_floor
        if M is None:
            self.lam = np.zeros((grid.d,) + R.shape)
        else:
            self.lam = M / self.root

    @classmethod
    def of(cls, x, r_floor: float | None = None) -> "StateOps":
        """The StateOps of the FluidState x."""
        return cls(x.grid, x.R, x.M, r_floor, x.t)

    def take(self, rows) -> "StateOps":
        """The StateOps of these rows (indices), bitwise theirs here."""
        floor = self.r_floor[rows] if isinstance(self.r_floor, np.ndarray) else self.r_floor
        out = StateOps(self.grid, self._R_raw[rows], None, floor, [self.t[b] for b in rows])
        out.lam = self.lam[:, rows]
        return out

    # -- transforms and term integrals --------------------------------------

    def fetch(self, *names, later=()) -> None:
        """Transform what the named fields (_FIELDS keys, forward only) and
        derivatives (_DERIVS) need and the table does not hold yet: the
        fields forward as one Spectral.batch, each built in its rows, and
        the derivatives back as one more; a late field, and what it is built
        from, in a second such stage where the table does not hold that yet.
        The named fields keep their coefficients, and so do the fields of
        the derivatives that `later` names, which a later fetch makes."""
        if all(n in self._arr for n in names):
            return
        for todo, named in _stages(names, later, frozenset(self._arr), self._late_held()):
            self._transform(todo, named)

    def _late_held(self) -> tuple:
        """The late fields whose coefficients or pointwise array the table holds."""
        return tuple(key for key in _LATE_KEYS if key in self._hat or key in self._cache)

    def _transform(self, todo: dict, named: set) -> None:
        """One stage of fetch: the fields forward in one batch, the
        derivatives back in one more; then the coefficients made or read
        here that are not named go, and a kept one that shares its stack
        with them is copied out, so that the stack goes too."""
        sp = self.sp
        fields = dict.fromkeys(key for key in todo.values() if key not in self._hat)
        if fields:
            self._hat.update(sp.batch(sp.fwd, {key: self._rows(key) for key in fields}))
        parts = {n: _DERIVS[n][1](sp, self._hat[key]) for n, key in todo.items() if n in _DERIVS}
        if parts:
            self._arr.update(sp.batch(sp.inv, parts))
        drop = (fields.keys() | {todo[n] for n in parts}) - named
        if drop:
            self._hat = {key: _owned(h) for key, h in self._hat.items() if key not in drop}

    def _rows(self, key):
        """The Spectral.batch part (lead, fill) of the field `key`, which
        fill builds in its rows of the batch's stack."""
        lead = _FIELDS[key[0]][0](self.sp)
        if lead:
            return lead, partial(self.field, key)
        return (1,), lambda rows: self.field(key, rows[0])

    def hat(self, key) -> np.ndarray:
        """The coefficients of a field (a _FIELDS key), with its stack axis."""
        if _key(key) not in self._hat:
            self.fetch(key)
        return self._hat[_key(key)]

    def keep(self, *names) -> None:
        """Drop, once the terms that read them are integrated, every
        coefficient, derivative and pointwise array that a fetch of the
        named fields and derivatives would not read.  R, sqrt R and the
        floor stay; a kept array that shares its stack with dropped
        ones is copied out (_owned).  A dropped pointwise array is built
        again where it is read."""
        needs = _requires(names, self._late_held())
        fields = {key for n, key in needs.items() if n not in self._arr}
        self._arr = {n: _owned(a) for n, a in self._arr.items() if n in needs}
        self._hat = {key: _owned(h) for key, h in self._hat.items() if key in fields}
        # and the fields that go forward from their pointwise arrays
        state = _STATE | (fields - self._hat.keys())
        self._cache = {key: _owned(a) for key, a in self._cache.items() if key in state}

    def __getitem__(self, name) -> np.ndarray:
        """The derivative `name` of _DERIVS."""
        if name not in self._arr:
            self.fetch(name)
        return self._arr[name]

    def q(self, key) -> np.ndarray:
        """The term integral `key` of _TERMS (a name, or a tuple of a name
        and its arguments), computed once: the array of the rows' values."""
        out = self._terms.get(key)
        if out is None:
            name, args = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
            out = self._terms[key] = _TERMS[name][1](self, *args)
        return out

    # -- reductions, per row ---------------------------------------------------

    def _weighted(self, reduce, *arrays) -> np.ndarray:
        """The quadrature weight times reduce on each row (each_row), as
        Grid.quad takes it."""
        if self.rows == 1:
            return np.array([self.grid.weight * reduce(*arrays)])
        return self.grid.weight * each_row(self.grid, reduce, *arrays)

    def dot(self, a, b) -> np.ndarray:
        """quad(a b), summed over the stack components as well."""
        return self._weighted(vdot, a, b)

    def quad(self, a) -> np.ndarray:
        """Grid.quad of a."""
        return self._weighted(_sum_all, a)

    def inner(self, ah, bh) -> np.ndarray:
        """quad of the product of two fields from their coefficients
        (Parseval, Spectral.inner)."""
        return self._weighted(self.grid.spectral.inner, ah, bh)

    def each(self, fn, *values) -> np.ndarray:
        """The array of fn on each row's values (Python floats) of values."""
        return np.array([fn(*row) for row in zip(*(np.asarray(v).tolist() for v in values))])

    def column(self, values) -> np.ndarray:
        """The rows' values shaped to broadcast over the stack's samples."""
        return np.reshape(values, (self.rows,) + (1,) * self.grid.d)

    # -- pointwise arrays, each built on first use ----------------------------

    def _get(self, key, build):
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    def field(self, key, out=None) -> np.ndarray:
        """The field `key` of _FIELDS (a tuple of a name and its arguments),
        written into out where it is given (fetch: the field's rows in a
        batch's stack).  A field of _KEPT is a pointwise array of the
        table, built once; given out, it is kept there from then on, built
        there or copied there where it was built before."""
        arr = self._cache.get(key)
        if arr is None:
            arr = _FIELDS[key[0]][1](self, out, *key[1:])
        elif out is None:
            return arr
        if out is not None and arr is not out:
            np.copyto(out, arr)
            arr = out
        if key[0] in _KEPT:
            self._cache[key] = arr
        return arr

    @property
    def R(self):
        """max(R, 0) of the raw R."""
        return self.field(("R",))

    @property
    def s(self):
        """sqrt(R)."""
        return self.field(("s",))

    @property
    def r_floor(self):
        """The density floor: the float given, or the column of the rows'
        floors, rescaling.vacuum_floor of each row from one max over the
        grid axes (a max is exact, so each is its row's bitwise)."""
        return self._get("r_floor", lambda: self.column(vacuum_floor(self.R, self._grid_axes)))

    @property
    def min_density(self):
        """Each row's raw minimum of R, one min over the grid axes."""
        return self._get("min", lambda: self._R_raw.min(axis=self._grid_axes))

    @property
    def _grid_axes(self) -> tuple:
        return tuple(range(1, self.grid.d + 1))

    @property
    def root(self):
        """sqrt(rho_sm), rho_sm of the raw R as the solver recovers U; built
        where it is read (for Lambda and U), not kept."""
        return np.sqrt(smooth_density(self._R_raw, self.r_floor))

    @property
    def U(self):
        """The solver's recovery U = M / rho_sm = Lambda / sqrt(rho_sm)."""
        return self.field(("U",))

    @property
    def mom(self):
        """sqrt R Lambda = R U."""
        return self.field(("mom",))

    @property
    def lam2(self):
        return self._get("lam2", lambda: (self.lam * self.lam).sum(axis=0))

    @property
    def U2(self):
        return self._get("U2", lambda: (self.U * self.U).sum(axis=0))

    @property
    def rho_tilde(self):
        return self._get("rt", lambda: np.maximum(self.R, self.r_floor))

    @property
    def logR(self):
        return self.field(("logR",))

    def neg(self, alpha):
        """rho_tilde^(-alpha/2)."""
        return self.field(("neg", alpha))

    @property
    def lapR_rt(self):
        """lap R / rho_tilde, lap R the trace of hess R."""
        return self._get("lapR_rt", lambda: self.sp.trace(self["hess_R"]) / self.rho_tilde)

    @property
    def ks(self):
        """lap sqrt R / sqrt R, lap sqrt R the trace of hess sqrt R."""
        return self.field(("ks",))

    @property
    def stress(self):
        """The upper entries of the Korteweg stress s hess s - grad s x grad s,
        whose mirrored rows (sp.hess_full) have the divergence
        R grad(lap s / s) (korteweg_stress_entries)."""
        return self.field(("stress",))

    @property
    def hess_logR_split(self):
        """Hessian of log R through the algebraic split
        d_i d_j log R = (d_i d_j R)/R - (d_i R)(d_j R)/R^2 with floored
        divisions.  Differentiating log(max(R, floor)) spectrally is unusable
        on states with vacuum tails: round-off ringing there flips cells onto
        the floor, and the resulting log jumps pollute the global transform."""

        def build():
            rho, gR, (i, j) = self.rho_tilde, self["grad_R"], self.sp.hess_upper
            return (self["hess_R"] - gR[i] * gR[j] / rho) / rho

        return self._get("hlog", build)


# the pointwise arrays that StateOps.keep keeps: R, sqrt R, the floor and
# the raw minimum
_STATE = {("R",), ("s",), "r_floor", "min"}


def _owned(a):
    """a, or a copy of a where a is rows of a larger array, so that a does
    not keep the rest of that array alive."""
    base = getattr(a, "base", None)
    return a.copy() if base is not None and base.nbytes > a.nbytes else a


# ---------------------------------------------------------------------------
# the boundary of a lone state


def _with_row(x, d: int):
    """A lone state's array x as its stack of one, with a unit row axis in
    front of its d grid axes; None as it is."""
    return x if x is None else x[(Ellipsis, None) + (slice(None),) * d]


def _the_row(out):
    """A stack of one's value as its state's: a list's record, an array's float."""
    if isinstance(out, tuple):
        return tuple(map(_the_row, out))
    return out[0] if isinstance(out, list) else float(out[0])


def lone_state(fn):
    """The boundary of a lone state around fn(ops, *args, **kw), a function
    of a stack of states ops: a StateOps, or a FluidState, which goes in as
    its StateOps on the keyword r_floor if given.  A lone state is held as
    its stack of one already; its argument tau (its one pair) goes in as
    the list of that pair, and fn's value comes back as the one state's."""
    names = list(inspect.signature(fn).parameters)
    at = names.index("tau") - 1 if "tau" in names else None

    @wraps(fn)
    def boundary(x, *args, **kw):
        if isinstance(x, FluidState):
            x = StateOps.of(x, kw.get("r_floor"))
        if not x.lone:
            return fn(x, *args, **kw)
        if "tau" in kw:
            kw["tau"] = [kw["tau"]]
        elif at is not None:
            args = (*args[:at], [args[at]], *args[at + 1:])
        return _the_row(fn(x, *args, **kw))

    return boundary


def _rgugut(o):
    """quad(R grad U : grad U^T) = sum_ij quad(R d_i U_j d_j U_i), one entry
    pair at a time: the diagonal, then each pair i < j twice, so that no
    swapped copy of grad U nor a whole R grad U is made (in 1D the one
    entry's dot, as the whole stack's was)."""
    gU, d = o["grad_U"], o.grid.d
    total = o.dot(gU[0, 0], o.R * gU[0, 0])
    for i in range(1, d):
        total = total + o.dot(gU[i, i], o.R * gU[i, i])
    for i in range(d):
        for j in range(i + 1, d):
            total = total + 2.0 * o.dot(gU[i, j], o.R * gU[j, i])
    return total


# The term integrals, by name: (what they transform, (ops, *args) -> value);
# the transforms are _FIELDS or _DERIVS keys, or a function of the term's
# arguments that returns them.
_TERMS = {
    "R": ((), lambda o: o.quad(o.R)),
    "Rr2": ((), lambda o: o.dot(o.R, o.grid.r2)),
    "RlogR": ((), lambda o: o.dot(o.R, o.logR)),
    "logR": ((), lambda o: o.quad(o.logR)),
    "logR_le1": ((), lambda o: o.quad(np.where(o.R <= 1.0, o.logR, 0.0))),
    "lam2": ((), lambda o: o.quad(o.lam2)),
    "U2": ((), lambda o: o.quad(o.U2)),
    "lam2U2": ((), lambda o: o.dot(o.lam2, o.U2)),
    # quad(rho_tilde^(-alpha)), as the square of the transformed field
    "rtneg": ((), lambda o, alpha: o.dot(o.neg(alpha), o.neg(alpha))),
    "gs2": (("grad_s",), lambda o: o.dot(o["grad_s"], o["grad_s"])),
    "lgs": (("grad_s",), lambda o: o.dot(o.lam, o["grad_s"])),
    # R |grad U|^2 and R grad U : grad U^T; R |DU|^2 and R |AU|^2 are their
    # half sum and half difference
    "RgU2": (("grad_U",), lambda o: o.dot(o["grad_U"], o.R * o["grad_U"])),
    "RgUgUT": (("grad_U",), _rgugut),
    "RDU2": (("grad_U",), lambda o: 0.5 * (o.q("RgU2") + o.q("RgUgUT"))),
    "RAU2": (("grad_U",), lambda o: 0.5 * (o.q("RgU2") - o.q("RgUgUT"))),
    "RdivU": (("grad_U",), lambda o: o.dot(o.R, np.trace(o["grad_U"]))),
    "RhlogR2": (
        ("grad_R", "hess_R"),
        lambda o: o.dot(np.where(o.R > o.r_floor, o.R, 0.0), o.sp.frob2(o.hess_logR_split)),
    ),
    "U2UgR": (("grad_R",), lambda o: o.dot(o.U2 * o.U, o["grad_R"])),
    "lapR_rt": (("hess_R",), lambda o: o.quad(o.lapR_rt)),
    "lapR_divmom": (("hess_R", "div_mom"), lambda o: o.dot(o.lapR_rt, o["div_mom"])),
    # sum_ij d_i U_j d_i R d_j log R
    "mix": (
        ("grad_U", "grad_R", "grad_logR"),
        lambda o: o.dot(o["grad_logR"], o.sp.sum_axes(o["grad_U"] * o["grad_R"])),
    ),
    # Parseval: |grad lap^p R|^2, (lap^p R)^2, |grad rho_tilde^(-alpha/2)|^2,
    # |lap U|^2 and lap U . grad lap log R (lap log R the trace of
    # hess_logR_split)
    "glR2": (("R",), lambda o, p: o.inner(o.hat("R"), o.sp.grad_lap_norm(p) * o.hat("R"))),
    "lapR2": (("R",), lambda o, p: o.inner(o.hat("R"), o.sp.lap_symbol(2 * p) * o.hat("R"))),
    "gneg2": (
        lambda alpha: (("neg", alpha),),
        lambda o, a: o.inner(o.hat(("neg", a)), o.sp.grad_lap_norm(0) * o.hat(("neg", a))),
    ),
    "lapU2": (("U",), lambda o: o.inner(o.hat("U"), o.sp.lap_symbol(2) * o.hat("U"))),
    "lapU_glaplog": (
        ("U", "laplog"),
        lambda o: o.inner(o.hat("U"), o.sp.grad_lap_symbol(1) * o.hat("laplog")),
    ),
    # R |hess log R|^2 with the spectral Hessian of log R (identity checks)
    "RhlogR2_sp": (("hess_logR",), lambda o: o.dot(o.R, o.sp.frob2(o["hess_logR"]))),
}


def _needs(key: tuple) -> tuple:
    needs = _TERMS[key[0]][0]
    return needs(*key[1:]) if callable(needs) else needs


# ---------------------------------------------------------------------------
# evaluation plans


class _Coef:
    """A coefficient as a function of one row's (tau, taudot): a term-list
    builder runs once on _TAU, the pair of the two leaves, and an operation
    on a _Coef records itself instead of computing, for _Plan to replay on
    each row's own pair in the builder's order, in Python floats.  A
    constant 0 factor or numerator folds to the constant 0.0 (a _Coef has no
    __eq__, so only a constant equals 0), so a switched-off term is a pair
    _Plan leaves out, not one that every finite row skips."""

    __slots__ = ("op", "args")

    def __init__(self, op=None, *args):
        self.op, self.args = op, args

    __mul__ = lambda a, b: 0.0 if b == 0 else _Coef(operator.mul, a, b)
    __rmul__ = lambda a, b: 0.0 if b == 0 else _Coef(operator.mul, b, a)
    __truediv__ = lambda a, b: _Coef(operator.truediv, a, b)
    __rtruediv__ = lambda a, b: 0.0 if b == 0 else _Coef(operator.truediv, b, a)
    __pow__ = lambda a, b: _Coef(operator.pow, a, b)


_TAU = (_Coef(), _Coef())  # tau and taudot


class _Plan:
    """The plan of named columns as a term-list builder gives them on _TAU,
    each a list of (coefficient, term key) pairs or a tuple of such groups
    (its total the groups' totals added in order): the term keys in order,
    each column's groups as (slot, key index) pairs, and the program of a
    row's slots (its tau and taudot, the constants and the recorded
    operations, equal ones sharing a slot).  A pair whose coefficient is the
    constant 0.0 (a switched-off term: see _Coef) is left out, as it
    vanishes on every row."""

    def __init__(self, columns: dict):
        self.init, self.steps, index = [None, None], [], {("tau", 0): 0, ("tau", 1): 1}

        def slot(c) -> int:
            if not isinstance(c, _Coef):
                key = (type(c), repr(c))  # repr keeps 0.0 and -0.0 apart
            else:
                key = (c.op, *map(slot, c.args)) if c.op else ("tau", _TAU.index(c))
            if key not in index:
                index[key] = len(self.init)
                self.init.append(None if isinstance(c, _Coef) else c)
                if isinstance(c, _Coef):
                    self.steps.append((index[key], *key))
            return index[key]

        groups = {name: [[(slot(c), key) for c, key in group if isinstance(c, _Coef) or c != 0.0]
                         for group in (g if isinstance(g, tuple) else (g,))]
                  for name, g in columns.items()}
        pairs = [pair for gs in groups.values() for group in gs for pair in group]
        self.keys = list(dict.fromkeys(key for _, key in pairs))
        at = {key: k for k, key in enumerate(self.keys)}
        self.columns = {name: [[(s, at[key]) for s, key in group] for group in gs]
                        for name, gs in groups.items()}
        # a key is live on the rows where one of its coefficients is not 0
        self.key_slots = [[s for s, key in pairs if key == k] for k in self.keys]
        self._needs = {}  # what the live keys transform, per set of them

    def coefficients(self, pair) -> list:
        """The slots of one row's (tau, taudot) pair."""
        v = list(self.init)
        v[:2] = pair
        for k, op, i, j in self.steps:
            v[k] = op(v[i], v[j])
        return v

    def totals(self, ops: StateOps, tau, later=()) -> dict:
        """Each column's list of the rows' totals on the stack ops, from one
        (tau, taudot) pair per row: a group's total on a row is the sum of
        c * q(key) over its pairs whose c != 0 on that row, in Python
        floats.  What the live terms transform is made in one fetch (later:
        see StateOps.fetch)."""
        if len(tau) != ops.rows:
            raise ValueError(f"a stack of {ops.rows} states needs {ops.rows} tau pairs, "
                             f"got {len(tau)}")
        coefs = [self.coefficients(pair) for pair in tau]
        live = tuple(k for k, slots in enumerate(self.key_slots)
                     if any(c[s] != 0.0 for c in coefs for s in slots))
        needs = self._needs.get(live)
        if needs is None:
            needs = self._needs[live] = tuple(dict.fromkeys(
                n for k in live for n in _needs(_key(self.keys[k]))))
        ops.fetch(*needs, later=later)
        # each term's rows' values (a term that is not live is never read)
        terms = [ops.q(key).tolist() if k in live else coefs for k, key in enumerate(self.keys)]
        out = {name: [] for name in self.columns}
        for c, *v in zip(coefs, *terms):
            for name, groups in self.columns.items():
                total = 0.0
                for group in groups:
                    part = 0.0
                    for s, k in group:
                        x = c[s]
                        if x != 0.0:
                            part += x * v[k]
                    total += part
                out[name].append(total)
        return out


@lru_cache(maxsize=64)
def _plan(build, *args) -> _Plan:
    """The _Plan of the columns build(tau, *args) gives (a dict of them, or
    one column), built once per builder and arguments."""
    columns = build(_TAU, *args)
    return _Plan(columns if isinstance(columns, dict) else {"": columns})


@lone_state
def _total(ops: StateOps, tau, build, *args):
    """The array of each row's total of the one column build(tau, *args)
    gives: a tau functional's lone_state."""
    return np.array(_plan(build, *args).totals(ops, tau)[""])


def _times(c: float, terms) -> list:
    return [(c * a, key) for a, key in terms]


# ---------------------------------------------------------------------------
# energy / dissipation of the plain system
#
# Each functional is the total of its (coefficient, term) lists, built by the
# function of the same name with a leading underscore from tau and its
# arguments; its _plan, and record's, runs the builders once.


_POTENTIAL = [(1.0, "Rr2"), (1.0, "RlogR")]  # quad(R |y|^2 + R log R)


def _kinetic(eps: float, eta2: float = 0.0, s: int | None = None) -> list:
    """The terms of quad(R|U|^2 + eps^2 |grad sqrt R|^2 + eta2 |grad lap^s R|^2)."""
    return [(1.0, "lam2"), (eps**2, "gs2"), (eta2, ("glR2", s))]


def _energy(tau, eps: float) -> list:
    return [*_times(1.0 / (2 * tau[0] ** 2), _kinetic(eps)), *_POTENTIAL]


def energy(state: FluidState | StateOps, tau, eps: float):
    """Self-similar pseudo-energy
    (1/2 tau^2) quad(R|U|^2 + eps^2 |grad sqrt R|^2) + quad(R|y|^2 + R log R)."""
    return _total(state, tau, _energy, eps)


def _dissipation(tau, eps: float, nu: float) -> list:
    tau_v, taudot_v = tau
    return [*_times(taudot_v / tau_v**3, _kinetic(eps)), (nu / tau_v**4, "RDU2")]


def dissipation(state: FluidState | StateOps, tau, eps: float, nu: float):
    """(taudot/tau^3) quad(R|U|^2 + eps^2|grad sqrt R|^2) + (nu/tau^4) quad(R |DU|^2)."""
    return _total(state, tau, _dissipation, eps, nu)


# ---------------------------------------------------------------------------
# BD entropy family


def _bd_entropy(tau, eps: float, nu: float, r0: float) -> list:
    kin = [(1.0, "lam2"), (4.0 * nu, "lgs"), (4.0 * nu**2 + eps**2, "gs2"),
           (-2.0 * r0, "logR_le1")]
    return [*_times(1.0 / (2 * tau[0] ** 2), kin), *_POTENTIAL]


def bd_entropy(state: FluidState | StateOps, tau, eps: float, nu: float, r0: float = 0.0):
    """BD entropy; with r0 > 0 includes the drag term -2 r0 (log R) 1_{R<=1}.
    R |U + nu grad log R|^2 is expanded without division:
    |Lambda|^2 + 4 nu Lambda . grad sqrt R + 4 nu^2 |grad sqrt R|^2."""
    return _total(state, tau, _bd_entropy, eps, nu, r0)


def _bd_dissipation(tau, eps: float, nu: float) -> list:
    tau_v, taudot_v = tau
    t4 = tau_v**4
    return [*_times(taudot_v / tau_v**3, _kinetic(eps)),
            (4.0 * nu / tau_v**2, "gs2"), (nu / t4, "RAU2"), (nu * eps**2 / t4, "RhlogR2")]


def bd_dissipation(state: FluidState | StateOps, tau, eps: float, nu: float):
    return _total(state, tau, _bd_dissipation, eps, nu)


# ---------------------------------------------------------------------------
# regularized energy / dissipation (the discrete balance checked by the solver)


def _eta_potential(tau, p: ParamSet) -> list:
    """The terms of eta1/(alpha+1) quad(rho_tilde^(-alpha))
    + eta2/(2 tau^2) quad(|grad lap^s R|^2), the regularization potential
    shared by energy_reg and bd_entropy_reg."""
    return [(p.eta1 / (p.alpha + 1.0), ("rtneg", p.alpha)),
            (p.eta2 / (2 * tau[0] ** 2), ("glR2", p.s))]


def _diffusion_dissipation(tau, p: ParamSet, c: float) -> list:
    """The terms of the dissipation of the entropy and eta potentials by a
    density diffusion c lap R / tau^2: (c/tau^2) quad(4 |grad sqrt R|^2
    + (4 eta1/alpha) |grad rho_tilde^(-alpha/2)|^2) + (c eta2/tau^4) quad((lap^(s+1) R)^2).
    c is delta1 in the energy balance, nu in the BD identity, and nu + delta1
    in the regularized BD dissipation: the term integrals are shared."""
    t2 = tau[0] ** 2
    return _times(c, [(4.0 / t2, "gs2"), (4.0 * p.eta1 / (p.alpha * t2), ("gneg2", p.alpha)),
                      (p.eta2 / t2**2, ("lapR2", p.s + 1))])


def _velocity_damping(tau, p: ParamSet) -> list:
    """The terms of (1/tau^4) quad(delta2 |lap U|^2 + r0 |U|^2 + r1 R |U|^4),
    the delta2 and drag dissipation of dissipation_reg and bd_dissipation_reg."""
    t4 = tau[0] ** 4
    return [(p.delta2 / t4, "lapU2"), (p.r0 / t4, "U2"), (p.r1 / t4, "lam2U2")]


def _energy_reg(tau, p: ParamSet) -> tuple:
    return _energy(tau, p.eps), _eta_potential(tau, p)


def energy_reg(state: FluidState | StateOps, params: ParamSet, tau):
    return _total(state, tau, _energy_reg, params)


def _dissipation_reg(tau, p: ParamSet) -> list:
    tau_v, taudot_v = tau
    t4 = tau_v**4
    return [
        *_times(taudot_v / tau_v**3, _kinetic(p.eps, p.eta2, p.s)),
        (p.nu / t4, "RDU2"),
        *_diffusion_dissipation(tau, p, p.delta1),
        (p.delta1 * p.eps**2 / (2 * t4), "RhlogR2"),
        *_velocity_damping(tau, p),
    ]


def dissipation_reg(state: FluidState | StateOps, params: ParamSet, tau):
    return _total(state, tau, _dissipation_reg, params)


def _bd_entropy_reg(tau, p: ParamSet) -> tuple:
    return _bd_entropy(tau, p.eps, p.nu, p.r0), _eta_potential(tau, p)


def bd_entropy_reg(state: FluidState | StateOps, params: ParamSet, tau):
    """Positive part of the regularized BD entropy (drag log-term truncated
    to {R <= 1}, plus the eta contributions)."""
    return _total(state, tau, _bd_entropy_reg, params)


def _bd_dissipation_reg(tau, p: ParamSet) -> list:
    # sum of the energy-identity and BD-identity dissipations; adding the
    # two derivations gives the density-diffusion coefficient nu + delta1.
    # The drag term 2 r0 nu (taudot/tau^3) quad(|log R| 1_{R<1}) is read off
    # quad(log R 1_{R<=1}) <= 0.
    tau_v, taudot_v = tau
    t4 = tau_v**4
    chess = p.delta1 * p.nu**2 + p.nu * p.eps**2 + p.delta1 * p.eps**2 / 2.0
    return [
        *_times(taudot_v / tau_v**3, _kinetic(p.eps, p.eta2, p.s)),
        (-2.0 * p.r0 * p.nu * taudot_v / tau_v**3, "logR_le1"),
        (chess / t4, "RhlogR2"),
        *_diffusion_dissipation(tau, p, p.nu + p.delta1),
        (p.nu / t4, "RAU2"),
        *_velocity_damping(tau, p),
    ]


def bd_dissipation_reg(state: FluidState | StateOps, params: ParamSet, tau):
    return _total(state, tau, _bd_dissipation_reg, params)


def _balance_rhs(tau, p: ParamSet, d: int) -> list:
    tau_v, taudot_v = tau
    return [(2.0 * d * p.delta1 / tau_v**2, "R"), (-p.nu * taudot_v / tau_v**3, "RdivU")]


def balance_rhs(state: FluidState | StateOps, params: ParamSet, tau):
    """Right side of the regularized energy balance:
    2 d delta1 / tau^2 quad(R) - nu taudot / tau^3 quad(R div U)."""
    return _total(state, tau, _balance_rhs, params, state.grid.d)


def energy_balance_residual(times, e_reg, d_reg, rhs) -> float:
    """|E(T) - E(0) + int (D - RHS) dt| / |E(0)| from dense samples (trapezoid)."""
    times = np.asarray(times, float)
    e_reg = np.asarray(e_reg, float)
    flux = np.asarray(d_reg, float) - np.asarray(rhs, float)
    res = abs(e_reg[-1] - e_reg[0] + np.trapezoid(flux, times))
    return float(res / max(abs(e_reg[0]), 1e-300))


# ---------------------------------------------------------------------------
# BD identity (time-integrated, all terms carry a factor nu)


def _bd_identity(tau, p: ParamSet, d: int) -> dict:
    """The term lists of the columns F, DISS and RHS of bd_identity_terms;
    every coefficient carries nu, so without nu a plan keeps none."""
    tau_v, taudot_v = tau
    nu, t4 = p.nu, tau_v**4
    # R U . grad log R = U . grad R = 2 Lambda . grad sqrt R (no division).
    # The transported functional carries -r0 nu log R and the dissipation
    # carries (delta1 nu^2 + eps^2 nu / 4) R |hess log R|^2: both follow from
    # re-deriving the drag-term rewrite and the Korteweg pairing
    # (int R grad(lap sqrt R / sqrt R) . grad log R = -1/2 int R |hess log R|^2,
    # so the eps^2/2-weighted force contributes eps^2/4), and both are
    # confirmed by the residual vanishing at the scheme's order.
    f = _times(1.0 / tau_v**2, [(2.0 * nu, "lgs"), (2.0 * nu**2, "gs2"), (-p.r0 * nu, "logR")])
    diss = [
        *_times(2.0 * nu * taudot_v / tau_v**3, [(2.0, "lgs"), (-p.r0, "logR")]),
        *_diffusion_dissipation(tau, p, nu),
        ((p.delta1 * nu**2 + p.eps**2 * nu / 4.0) / t4, "RhlogR2"),
    ]
    rhs = [
        (2.0 * d * nu / tau_v**2, "R"),
        (nu / t4, "RgUgUT"),
        (-p.r1 * nu / t4, "U2UgR"),
        (-p.r0 * nu * p.delta1 / t4, "lapR_rt"),
        (-p.delta1 * nu / t4, "mix"),
        (-p.delta1 * nu / t4, "lapR_divmom"),
        (-p.delta2 * nu / t4, "lapU_glaplog"),
    ]
    return dict(bdid_f=f, bdid_diss=diss, bdid_rhs=rhs)


@lone_state
def bd_identity_terms(ops: StateOps, params: ParamSet, tau):
    """(F, DISS, RHS) of the BD identity at one instant, where the identity is

        dF/dt + DISS = RHS,
        F = (1/tau^2) quad(nu R U . grad log R + nu^2/2 R |grad log R|^2
                           - 2 r0 nu log R).
    """
    columns = _plan(_bd_identity, params, ops.grid.d).totals(ops, tau)
    return tuple(np.array(v) for v in columns.values())


def bd_identity_residual(times, f_series, diss_series, rhs_series) -> float:
    """|F(T) - F(0) + int (DISS - RHS) dt| / scale, trapezoid in time."""
    times = np.asarray(times, float)
    f = np.asarray(f_series, float)
    diss = np.asarray(diss_series, float)
    rhs = np.asarray(rhs_series, float)
    num = abs(f[-1] - f[0] + np.trapezoid(diss - rhs, times))
    scale = max(
        abs(f[0]),
        abs(f[-1]),
        float(np.trapezoid(np.abs(diss) + np.abs(rhs), times)),
        1e-300,
    )
    return float(num / scale)


# ---------------------------------------------------------------------------
# entropy comparisons with the Gaussian attractor


@lone_state
def relative_entropy(ops: StateOps):
    """quad(R log(R / Gamma_m)) with Gamma_m the mass-matched periodized
    Gaussian: log Gamma_m = -|y|^2 + log(m / quad(exp(-|y|^2))), so this is
    quad(R log R) + quad(R |y|^2) - m log(m / quad(exp(-|y|^2)))."""
    gm = ops.grid.gaussian_mass
    return ops.each(lambda m, rlogr, r2: rlogr + r2 - (m * math.log(m / gm) if m > 0 else 0.0),
                    ops.q("R"), ops.q("RlogR"), ops.q("Rr2"))


@lone_state
def csiszar_kullback_gap(ops: StateOps):
    """quad(R log(R/Gamma_m)) - |R - Gamma_m|_L1^2 / (2 m), m = quad(R).

    Nonnegative (up to roundoff) by the Csiszar-Kullback/Pinsker inequality,
    which holds exactly for the discrete lattice measure."""
    m = ops.q("R")
    l1 = ops.quad(np.abs(ops.R - matched_gaussian(ops.grid, ops.column(m))))
    return ops.each(lambda rel, l1, m: rel - l1**2 / (2.0 * m) if m > 0 else math.nan,
                    relative_entropy.__wrapped__(ops), l1, m)


# ---------------------------------------------------------------------------
# algebraic identities (Korteweg, log-Hessian, Jungel)


def _ratio(num: float, den: float) -> float:
    """sqrt(num) / sqrt(den), the root of den floored at 1e-300."""
    return math.sqrt(num) / max(math.sqrt(den), 1e-300)


# the transforms each identity function fetches, which record's full tier
# makes for them in its second and third phases
_KORTEWEG_NEEDS = ("grad_ks", "div_stress")
_LOGHESS_NEEDS = ("hess_logR", "hess_R", "hess_s")
_JUNGEL_NEEDS = ("hess_s", "grad_root_s", "hess_logR")
_COMPAT_NEEDS = ("grad_s", "hess_s", "hess_R", "grad_U", "grad_mom")
_IRROT_NEEDS = ("grad_s", "grad_mom")


@lone_state
def korteweg_identity_residual(ops: StateOps):
    """Normalized L2 mismatch of
    R grad(lap sqrt R / sqrt R) = div(sqrt R hess sqrt R - grad sqrt R x grad sqrt R)."""
    if ops.s.min() <= 0:
        raise ValueError("sqrtR must be strictly positive for the identity check")
    ops.fetch(*_KORTEWEG_NEEDS)
    diff = ops.R * ops["grad_ks"] - ops["div_stress"]
    return ops.each(_ratio, ops.dot(diff, diff), ops.dot(ops["div_stress"], ops["div_stress"]))


@lone_state
def loghess_identity_residual(ops: StateOps):
    """Normalized mismatch of  1/2 quad(R |hess log R|^2) = quad((lap sqrt R / sqrt R) lap R)."""
    if ops.min_density.min() <= 0:
        raise ValueError("R must be strictly positive for the identity check")
    ops.fetch(*_LOGHESS_NEEDS)
    left = 0.5 * ops.q("RhlogR2_sp")
    right = ops.dot(ops.ks, ops.sp.trace(ops["hess_R"]))
    return ops.each(lambda a, b: abs(a - b) / max(abs(a), 1e-300), left, right)


@lone_state
def jungel_quantities(ops: StateOps):
    """(quad|hess sqrt R|^2 + quad|grad R^(1/4)|^4,  quad R |hess log R|^2);
    equivalent up to implicit constants, reported without assertion."""
    ops.fetch(*_JUNGEL_NEEDS)
    g4 = np.sum(ops["grad_root_s"] ** 2, axis=0)
    return ops.quad(ops.sp.frob2(ops["hess_s"])) + ops.dot(g4, g4), ops.q("RhlogR2_sp")


# ---------------------------------------------------------------------------
# weak-solution compatibility tensors and irrotationality


@lone_state
def compatibility_residuals(ops: StateOps):
    """Residuals of the compatibility relations on positive-density cells:

    sqrtR T_N = grad(sqrtR Lambda) - 2 Lambda x grad sqrtR, with T_N = sqrtR grad U;
    S_K two-way evaluation: sqrtR hess sqrtR - grad sqrtR x grad sqrtR
                            = hess(R)/2 - 2 grad sqrtR x grad sqrtR.
    """
    ops.fetch(*_COMPAT_NEEDS)
    sp = ops.sp
    live = (ops.R > ops.r_floor).astype(float)
    gs = ops["grad_s"]
    # entries [j, i]: d_i of the component j, of R grad U and of its two
    # pieces grad(sqrtR Lambda) and 2 Lambda x grad sqrtR
    grad_piece = ops["grad_mom"]
    cross_piece = ops.lam[:, None] * gs[None, :]
    cross_piece *= 2.0
    diff = ops.R * ops["grad_U"]
    diff -= grad_piece
    diff += cross_piece
    num = ops.dot(live, np.square(diff, out=diff).sum(axis=(0, 1)))
    # scale by the ingredients so exact cancellations score zero
    cross_piece *= cross_piece
    cross_piece += np.square(grad_piece, out=diff)
    den = ops.dot(live, cross_piece.sum(axis=(0, 1)))
    tn_res = ops.each(_ratio, num, den)

    i, j = sp.hess_upper
    gg = gs[i] * gs[j]
    hR, a = ops["hess_R"], ops.stress
    sums = partial(each_row, ops.grid, np.sum)
    num = sums(sp.frob2(a - 0.5 * hR + 2.0 * gg))
    # a + grad_i sqrtR grad_j sqrtR = sqrtR d_i d_j sqrtR
    den = sums(sp.frob2(a + gg)) + 0.25 * sums(sp.frob2(hR))
    sk_res = ops.each(_ratio, num, den)
    return tn_res, sk_res


@lone_state
def irrotationality_residual(ops: StateOps):
    """Normalized residual of  curl j = 2 grad sqrtR wedge Lambda  (j = sqrtR Lambda);
    identically zero in one dimension."""
    g = ops.grid
    if g.d == 1:
        return np.zeros(ops.rows)
    ops.fetch(*_IRROT_NEEDS)
    gs, lam = ops["grad_s"], ops.lam
    gj = ops["grad_mom"]  # gj[c, i] = d_i j_c
    a, b = ([0], [1]) if g.d == 2 else ([1, 2, 0], [2, 0, 1])
    curl = gj[b, a] - gj[a, b]
    target = 2.0 * (gs[a] * lam[b] - gs[b] * lam[a])
    num = ops.dot(curl - target, curl - target)
    den = ops.dot(curl, curl) + ops.dot(target, target)
    return ops.each(_ratio, num, den)


# ---------------------------------------------------------------------------
# L log L constructive bound


def _llogl_tables(grid: Grid, p_neg: float):
    """The grid's sorted radii |y|, the reversed cumulative sums of
    max(|y|, dy 1e-6)^(-p_neg) over them (a trailing 0 past the largest)
    and the lattice sweep's 24 kappa candidates, built once per grid and
    p_neg."""

    def build():
        rad = np.sort(np.sqrt(grid.r2), axis=None)
        far = np.maximum(rad, grid.dy * 1e-6) ** (-p_neg)
        kappas = np.geomspace(grid.dy, grid.ell * math.sqrt(grid.d), 24)
        return rad, np.append(np.cumsum(far[::-1])[::-1], 0.0), kappas

    return grid.spectral.cached(("llogl", p_neg), build)


@lone_state
def llogl_bound(ops: StateOps, beta: float):
    """(value, bound) for the L log L control of |f|^2 in terms of the L2 norm,
    the momentum |y| f and the discrete H1 norm, where f = sqrt R is the
    root of the state.

    value = quad(|f|^2 |log |f|^2|).  The bound reproduces the proof's split at
    |f| = 1 with t |log t| <= (2/(e beta)) t^(1 -/+ beta/2) on each branch:

    * |f| < 1:  quad |f|^(2-beta) <= |f|_2^(2-beta) V_kappa^(beta/2)
                + ||y| f|_2^(2-beta) W_kappa^(beta/2),
      where V_kappa is the lattice measure of {|y| <= kappa} and
      W_kappa = quad_{|y| > kappa} |y|^(-2(2-beta)/beta); the classical
      kappa-optimization of  P k^a + Q k^(-b)  (a = d beta/2, b = 2 - beta - a)
      gives  kappa* = (b Q / (a P))^(1/(a+b))  and the constant
      C_beta = (b/a)^(a/(a+b)) + (a/b)^(b/(a+b))  of the continuum proof; here
      the lattice sums are evaluated exactly at a grid of kappa candidates
      including kappa*, so every candidate yields a valid discrete bound;
    * |f| > 1:  quad |f|^(2+beta) <= |f|_inf^beta |f|_2^2 with the maximum
      bounded through the lattice Sobolev constant
      |f|_inf^2 <= S_grid / (2 ell)^d * (|f|_2^2 + |grad f|_2^2),
      S_grid = sum over lattice modes of (1 + |k|^2)^(-1) (finite sum).

    All steps are exact finite-sum inequalities, so value <= bound holds for
    every grid function with the stated finiteness.
    """
    g = ops.grid
    if not 0.0 < beta < 4.0 / (g.d + 2):
        raise ValueError(f"beta must lie in (0, 4/(d+2)) = (0, {4.0/(g.d+2):.4f})")
    # |f|^2 = R, and log(max(R, LOG_FLOOR)) vanishes with R on {R = 0}
    value = ops.dot(ops.R, np.abs(ops.logR))
    h1 = ops.q("R") + ops.q("gs2")
    return value, ops.each(partial(_llogl_bound_of, g, beta), ops.q("R"), ops.q("Rr2"), h1)


def _llogl_bound_of(g: Grid, beta: float, mass: float, second: float, h1: float) -> float:
    """llogl_bound's bound of one state from its quad(R), quad(R |y|^2) and
    H1 norm quad(R) + quad(|grad sqrt R|^2)."""
    cpt = 2.0 / (math.e * beta)  # max of t^(beta/2) |log t| on (0,1] and [1,inf)
    l2 = math.sqrt(mass)
    yf = math.sqrt(second)
    a_exp = g.d * beta / 2.0
    b_exp = (2.0 - beta) - a_exp  # positive iff beta < 4/(d+2)
    p_neg = 2.0 * (2.0 - beta) / beta

    # the lattice sweep, plus the continuum kappa* (documented optimization)
    rad, tail, cand = _llogl_tables(g, p_neg)
    if yf > 0 and l2 > 0:
        c_d = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[g.d]
        s_d = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[g.d]
        P = l2 ** (2.0 - beta) * c_d ** (beta / 2.0)
        Q = yf ** (2.0 - beta) * (s_d * beta / (2.0 * (2.0 - beta) - g.d * beta)) ** (
            beta / 2.0
        )
        if P > 0 and Q > 0:
            cand = np.append(cand, (b_exp * Q / (a_exp * P)) ** (1.0 / (a_exp + b_exp)))
    # every candidate in one pass over the sorted radii: the count of radii
    # <= kappa gives V_kappa, and the sum of |y|^(-p) over the rest (from
    # the smallest term up) gives W_kappa
    n_near = np.searchsorted(rad, cand, side="right")
    v_kappa = g.weight * n_near
    w_kappa = g.weight * tail[n_near]
    b_small = l2 ** (2.0 - beta) * v_kappa ** (beta / 2.0) + yf ** (
        2.0 - beta
    ) * w_kappa ** (beta / 2.0)
    small_best = float(b_small.min())

    s_grid = g.spectral.cached("sobolev", lambda: float(np.sum(1.0 / (1.0 + g.k2))))
    f_inf_bound = math.sqrt(s_grid / g.volume * h1)
    b_large = f_inf_bound**beta * l2**2

    return float(cpt * (small_best + b_large))


# ---------------------------------------------------------------------------
# records


def _col(doc: str, **kw):
    """A record field with its column semantics."""
    return field(metadata={"doc": doc}, **kw)


@dataclass(kw_only=True)
class DiagnosticsRecord:
    """One diagnostics sample; the fields are the CSV columns, in order.  The
    core tier fills the fields without a default, the full tier the rest."""

    t: float = _col("time")
    mass: float = _col("quad(R)")
    momentum: tuple = _col("quad(R U_i), one column per component")
    second_moment: float = _col("quad(R |y|^2)")
    energy: float = _col("pseudo-energy of the plain system")
    dissipation: float = _col("pseudo-dissipation of the plain system")
    energy_reg: float = _col("regularized energy")
    dissipation_reg: float = _col("regularized dissipation")
    balance_rhs: float = _col("right side of the regularized energy balance")
    bd_entropy: float = _col("BD entropy (with drag log-term when r0 > 0)")
    bd_dissipation: float = _col("BD dissipation")
    bd_entropy_reg: float | None = _col("positive part of regularized BD entropy", default=None)
    bd_dissipation_reg: float | None = _col("regularized BD dissipation", default=None)
    bdid_f: float = _col("BD identity transported functional F")
    bdid_diss: float = _col("BD identity dissipation")
    bdid_rhs: float = _col("BD identity right side")
    relative_entropy: float | None = _col("quad(R log(R/Gamma_m))", default=None)
    ck_gap: float | None = _col("Csiszar-Kullback slack", default=None)
    min_density: float = _col("min R")
    korteweg_residual: float | None = _col(
        "divergence-form Korteweg identity residual", default=None
    )
    loghess_residual: float | None = _col("log-Hessian exact-formula residual", default=None)
    tn_residual: float | None = _col("T_N compatibility residual", default=None)
    sk_residual: float | None = _col("S_K compatibility residual", default=None)
    irrot_residual: float | None = _col("generalized irrotationality residual", default=None)
    llogl_value: float | None = _col("L log L norm of R", default=None)
    llogl_bound: float | None = _col("constructive L log L bound", default=None)
    jungel_left: float | None = _col("quad|hess sqrt R|^2 + quad|grad R^1/4|^4", default=None)
    jungel_right: float | None = _col("quad R |hess log R|^2", default=None)

    @classmethod
    def csv_columns(cls, d: int) -> list[str]:
        cols = []
        for f in fields(cls):
            if f.name == "momentum":
                cols.extend(f"momentum_{i}" for i in range(d))
            else:
                cols.append(f.name)
        return cols

    @classmethod
    def column_semantics(cls) -> dict:
        return {f.name: f.metadata["doc"] for f in fields(cls)}

    def csv_row(self) -> list[float]:
        out = []
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "momentum":
                out.extend(val)
            else:
                out.append(math.nan if val is None else val)
        return out


# what the full tier transforms besides its columns' terms, in its second
# and third phases (see record): for the compatibility, irrotationality and
# L log L functions, then for the identities on R > 0 (a fetch takes each
# name at its first place)
_FULL_NEEDS = _COMPAT_NEEDS + _IRROT_NEEDS
_IDENTITY_NEEDS = _LOGHESS_NEEDS + _JUNGEL_NEEDS + _KORTEWEG_NEEDS


def _columns(tau, p: ParamSet, d: int, full: bool) -> dict:
    """The (coefficient, term) lists of each value column of a record but its
    moments, grouped as its functional groups them: the column is the
    lists' totals added in order (energy_reg is energy plus the eta
    potential's total)."""
    cols = {
        "energy": _energy(tau, p.eps),
        "dissipation": _dissipation(tau, p.eps, p.nu),
        "energy_reg": _energy_reg(tau, p),
        "dissipation_reg": _dissipation_reg(tau, p),
        "balance_rhs": _balance_rhs(tau, p, d),
        "bd_entropy": _bd_entropy(tau, p.eps, p.nu, p.r0),
        "bd_dissipation": _bd_dissipation(tau, p.eps, p.nu),
        **_bd_identity(tau, p, d),
    }
    if full:
        cols["bd_entropy_reg"] = _bd_entropy_reg(tau, p)
        cols["bd_dissipation_reg"] = _bd_dissipation_reg(tau, p)
    return cols


@lone_state
def record(
    ops: StateOps,
    params: ParamSet,
    tau,
    full: bool = False,
    *,
    r_floor: float | None = None,
):
    """Evaluate the diagnostics family on a stack of states (a StateOps,
    such as the one run builds from the stepper's (R, M, r_min) of its
    pending states, or a FluidState, whose StateOps takes r_floor) with one
    time t and one (tau, taudot) pair per row: the list of one record per
    row, each bitwise the record of the row's stack of one.  A lone state
    takes its one pair and gives its one record (lone_state).

    The core tier (always computed) carries everything needed for the
    time-integrated balance residuals; full=True adds the identity residuals
    and entropy comparisons (meaningful on smooth positive states), the
    identities on the rows whose R > 0 only.  The columns are evaluated
    on the plan of (params, d, tier), built once (_plan of _columns): what
    their live terms transform is made in one fetch, each term integral is
    taken once and each column summed from its rows' coefficients; the full
    tier fetches in two more phases (the module notes).
    """
    g = ops.grid
    if isinstance(ops.t, float) or len(ops.t) != ops.rows:
        raise ValueError(f"a stack of {ops.rows} states needs {ops.rows} times t, "
                         f"got t of shape {np.shape(ops.t)}")
    live = [b for b, m in enumerate(ops.min_density.tolist()) if m > 0] if full else []
    # the phases of the transforms after the columns': the full tier's
    # functions' and the identities' (of the live rows); each keeps what a
    # later reads
    phases = [_FULL_NEEDS if full else (), _IDENTITY_NEEDS if live else ()]
    columns = _plan(_columns, params, g.d, full).totals(ops, tau, later=phases[0] + phases[1])
    values = dict(mass=ops.q("R"), second_moment=ops.q("Rr2"), min_density=ops.min_density)
    columns["momentum"] = list(zip(*(ops.quad(m).tolist() for m in ops.mom)))
    if full:
        ops.keep(*phases[0], *phases[1])
        ops.fetch(*phases[0], later=phases[1])
        values["relative_entropy"] = relative_entropy.__wrapped__(ops)
        values["ck_gap"] = csiszar_kullback_gap.__wrapped__(ops)
        values["tn_residual"], values["sk_residual"] = compatibility_residuals.__wrapped__(ops)
        values["irrot_residual"] = irrotationality_residual.__wrapped__(ops)
        values["llogl_value"], values["llogl_bound"] = llogl_bound.__wrapped__(ops, 2.0 / (g.d + 2))
    columns.update((name, v.tolist()) for name, v in values.items())
    if live:
        ids = ops if len(live) == ops.rows else ops.take(live)  # the rows with R > 0
        ids.keep(*phases[1])
        ids.fetch(*phases[1])
        identities = dict(korteweg_residual=korteweg_identity_residual.__wrapped__(ids),
                          loghess_residual=loghess_identity_residual.__wrapped__(ids))
        identities["jungel_left"], identities["jungel_right"] = jungel_quantities.__wrapped__(ids)
        for name, v in identities.items():
            columns[name] = list(map(dict(zip(live, v.tolist())).get, range(ops.rows)))
    return [DiagnosticsRecord(t=t, **{name: column[b] for name, column in columns.items()})
            for b, t in enumerate(ops.t)]
