"""Discrete residual and linearization of the congestion system.

For a state (u, m, lam) on a TorusGrid the residual is

    r_u = u - lap(u) + m^alpha H_lam(x, Q) + V_lam(x, m)
    r_m = m - lap(m) - div(DpH_lam(x, Q) m) - 1,        Q = grad(u) / m^alpha,

built from the grid operators of :mod:`mfglab.grid`.  The Jacobian is
the exact derivative of this discrete residual: differentiating the
pointwise coefficients under the (linear) grid operators gives, for a
perturbation w = (v, f),

    row 1:  v - lap(v) + alpha m^(alpha-1) f (H - Q.DpH) + DpH.grad(v)
            + dV/dm f
    row 2:  f - lap(f) - div[ DpH f + m^(1-alpha) DppH grad(v)
            - alpha f DppH Q ],

with every Hamiltonian derivative evaluated at (x, Q).  The assembled
sparse matrix applies exactly this operator, so Newton converges
quadratically on the discrete system.

A state is evaluated once: `residual` computes the Hamiltonian (with
its speed inversion) and the pointwise coefficients of the
linearization together, and returns them on the ResidualPair (`lin`).
The linearization is the only input of the state's linear algebra:
`assemble_jacobian` and `bilinear_form` read it and evaluate nothing
again, and `linearize` builds one without the residual.  The
Jacobian's sparsity pattern depends on the grid alone:
`jacobian_template` computes it once per grid from the stencils of the
grid operators themselves (so residual and Jacobian share one
calculus), with the data of the two I - lap blocks and a sparse map S
from the stacked coefficients c = (DpH, density coupling,
m^(1-alpha) DppH, W) to the matrix data, so an assembly is
data = data0 + S c.  Entries whose value vanishes at a state stay in
the pattern as explicit zeros.  `jacobian_template` and
`assemble_jacobian` are the only code here that needs scipy, and they
import it when first called: the residual, the linearization and the
bilinear form run on numpy alone.  As in :mod:`mfglab.hamiltonian`, no
per-point code broadcasts over a length-d axis or calls einsum: every
component of Q, W, the flux and the contractions is computed from
length-N vectors.

The monotonicity test used to certify uniqueness is the form
B[w, w] = integrate( f row1 - v row2 ) of the linearization, w = (v, f).
The laplacian is symmetric and the divergence the exact negative
adjoint of the gradient, so summation by parts makes it pointwise in
the coefficients, with g = grad(v), c the density coupling and
k = DpH - W = alpha DppH Q:

    B[w, w] = integrate( c f^2 + f k.g - m^(1-alpha) g.DppH g ).

At a solution of the lam = 1 system with a potential that decreases
in m, B[w, w] <= 0 with equality only for f = 0 and grad(v) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse is imported inside the two functions that build a matrix,
# `jacobian_template` and `assemble_jacobian`, so that commands which
# never build one (`validate`, `audit`) start without loading scipy
if TYPE_CHECKING:
    import scipy.sparse as sp

from .grid import TorusGrid, pointwise_dot, pointwise_form
from .hamiltonian import HamiltonianEval, blend_eval, potential_eval


@dataclass
class MFGState:
    """Value function u, density m, and homotopy weight lam."""

    grid: TorusGrid
    u: np.ndarray
    m: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float).ravel()
        self.m = np.asarray(self.m, dtype=float).ravel()
        if self.u.size != self.grid.npoints or self.m.size != self.grid.npoints:
            raise ValueError("state fields must match the grid size")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"homotopy weight must lie in [0,1], got {self.lam}")


@dataclass
class ResidualPair:
    r_u: np.ndarray
    r_m: np.ndarray
    lin: Linearization = field(repr=False, compare=False)

    @property
    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(self.r_u))),
                   float(np.max(np.abs(self.r_m))))

    def stack(self) -> np.ndarray:
        return np.concatenate([self.r_u, self.r_m])


@dataclass(frozen=True, eq=False)
class MFGModels:
    """Problem data: congestion exponent, Hamiltonian family, potential."""

    grid: TorusGrid
    alpha: float
    gamma: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError(f"congestion exponent must be positive, got {self.alpha}")
        if not 1.0 < self.gamma < 2.0:
            raise ValueError(f"growth exponent must lie in (1,2), got {self.gamma}")
        if np.any(np.asarray(self.a) <= 0.0):
            raise ValueError("coefficient field a must be strictly positive")

    def hamiltonian(self, p, lam: float) -> HamiltonianEval:
        return blend_eval(p, self.a, self.gamma, lam)

    def potential(self, m, lam: float):
        return potential_eval(m, self.b, lam)

    def trivial_state(self) -> MFGState:
        """Exact root of the lam = 0 system: constant u, unit density.

        With m = 1 and u constant the density equation is satisfied
        (the base Hamiltonian has zero momentum gradient at p = 0) and
        the value equation reads u + 1 + V_0(x, 1) = 0, so
        u = -(1 + atan(1)).
        """
        u0 = -(1.0 + math.atan(1.0))
        n = self.grid.npoints
        return MFGState(self.grid, np.full(n, u0), np.ones(n), 0.0)


def _check_density(m: np.ndarray) -> None:
    if np.min(m) <= 0.0:
        raise ValueError("density must be strictly positive on the grid")


@dataclass
class Linearization:
    """Pointwise coefficients of the linearized operator at a state."""

    grid: TorusGrid
    ev: HamiltonianEval         # at Q = grad(u) / m^alpha
    density_coupling: np.ndarray  # (N,) coefficient of f in the u-row
    W: np.ndarray               # (N, d) transported vector DpH - alpha DppH.Q
    m_scale: np.ndarray         # (N,)  m^(1-alpha)


def _evaluate(state: MFGState, models: MFGModels):
    """The one Hamiltonian evaluation at a state: (m^alpha, V, linearization)."""
    _check_density(state.m)
    alpha = models.alpha
    ma = state.m**alpha
    Q = state.grid.gradient(state.u)
    for i in range(state.grid.d):
        Q[:, i] /= ma
    ev = models.hamiltonian(Q, state.lam)
    V, DmV = models.potential(state.m, state.lam)
    q_dot = pointwise_dot(Q, ev.DpH)
    density_coupling = alpha * state.m ** (alpha - 1.0) * (ev.H - q_dot) + DmV
    W = np.empty_like(ev.DpH)
    for i in range(state.grid.d):  # DpH - alpha DppH Q
        W[:, i] = ev.DpH[:, i] - alpha * pointwise_dot(ev.DppH[:, i], Q)
    lin = Linearization(state.grid, ev, density_coupling, W,
                        state.m ** (1.0 - alpha))
    return ma, V, lin


def linearize(state: MFGState, models: MFGModels) -> Linearization:
    """Coefficients of the linearized operator at the given state."""
    return _evaluate(state, models)[2]


def residual(state: MFGState, models: MFGModels) -> ResidualPair:
    """Discrete residual of the coupled system at the given state.

    The linearization built along the way rides on the result (`lin`).
    """
    ma, V, lin = _evaluate(state, models)
    grid = state.grid
    r_u = state.u - grid.laplacian(state.u) + ma * lin.ev.H + V
    flux = np.empty_like(lin.ev.DpH)
    for i in range(grid.d):
        flux[:, i] = lin.ev.DpH[:, i] * state.m
    r_m = state.m - grid.laplacian(state.m) - grid.divergence(flux) - 1.0
    return ResidualPair(r_u, r_m, lin)


@dataclass(frozen=True, eq=False)
class JacobianTemplate:
    """CSR pattern of the Jacobian on one grid and the map onto its data.

    The Jacobian's data at a state is data0 + coef_map @ c, where c stacks
    N-vectors of pointwise coefficients: DpH[:, ax] for each axis, the
    density coupling, m^(1-alpha) DppH[:, i, j] for each (i, j) in
    row-major order, and W[:, ax] for each axis.  data0 holds the two
    I - lap blocks; column k of coef_map lists the entries c[k] feeds.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data0: np.ndarray
    coef_map: sp.csc_matrix


def _stencil(op, grid: TorusGrid):
    """(step, weight) of each term of a translation-invariant grid operator.

    A step is the offset (mod n, per axis) from a point to the point its
    weight reads.  The response to a unit impulse at point 0 is column 0
    of the operator, which holds every row's weight for step s at the
    point -s.
    """
    impulse = np.zeros(grid.npoints)
    impulse[0] = 1.0
    column = op(impulse)
    at = np.flatnonzero(column)
    steps = zip(*np.unravel_index(at, grid.shape))
    return [(tuple(int(-a % grid.n) for a in step), float(w))
            for step, w in zip(steps, column[at])]


@lru_cache(maxsize=8)
def jacobian_template(grid: TorusGrid) -> JacobianTemplate:
    """Pattern and coefficient map of `assemble_jacobian` on a grid.

    Every block is a sum of stencil terms, so the blocks are described
    once by the steps and weights of the grid's I - lap and gradient
    stencils and then laid out for all points.  The pattern is every
    entry the block formula can reach, so it does not change with the
    state; entries whose value happens to vanish stay in it as explicit
    zeros.

    The build holds its final arrays, written in place, plus one row
    block's sort temporaries (the argsort of its int32 columns and
    their int8 ranks); every index array is int32.
    """
    import scipy.sparse as sp

    N, d, n = grid.npoints, grid.d, grid.n
    base = _stencil(lambda f: f - grid.laplacian(f), grid)
    grad_steps = [_stencil(lambda f: grid.gradient(f)[:, ax], grid)
                  for ax in range(d)]
    idx = np.arange(N, dtype=np.int32).reshape(grid.shape)

    def shifted(step):
        """Index of x + step, for every grid point x."""
        return np.roll(idx, [-a for a in step], range(d)).ravel()

    def plus(s1, s2):
        return tuple((a + b) % n for a, b in zip(s1, s2))

    # the terms of the u-rows and of the m-rows, each (column block: 0 for
    # u, 1 for m; column step; coefficient block of c, -1 for a constant;
    # step from the row point to the coefficient's point; weight)
    zero = (0,) * d
    hess, transport = d + 1, d * d + d + 1  # first DppH and W blocks of c
    u_terms = [(0, s, -1, zero, w) for s, w in base] + [(1, zero, d, zero, 1.0)]
    m_terms = [(1, s, -1, zero, w) for s, w in base]
    for i, gi in enumerate(grad_steps):
        u_terms += [(0, s, i, zero, w) for s, w in gi]              # DpH . grad
        m_terms += [(1, s, transport + i, s, -w) for s, w in gi]     # -div(W .)
        for j, gj in enumerate(grad_steps):                         # dmu
            m_terms += [(0, plus(s1, s2), hess + i * d + j, s1, -w1 * w2)
                        for s1, w1 in gi for s2, w2 in gj]

    # column k * N + j of the map holds, in term order, the entries that
    # coefficient k at point j feeds
    ncoef = transport + d
    fed = np.bincount([t[2] for t in u_terms + m_terms if t[2] >= 0], minlength=ncoef)
    col_ptr = np.zeros(ncoef * N + 1, dtype=np.int32)
    np.cumsum(np.repeat(fed.astype(np.int32), N), dtype=np.int32, out=col_ptr[1:])
    rows = np.empty(col_ptr[-1], dtype=np.int32)
    vals = np.empty(col_ptr[-1])
    filled = [0] * ncoef  # terms written so far, per coefficient
    blocks = [(terms, {key: k for k, key in
                       enumerate(dict.fromkeys(t[:2] for t in terms))})
              for terms in (u_terms, m_terms)]
    nnz = N * sum(len(slots) for _, slots in blocks)
    indptr = np.empty(2 * N + 1, dtype=np.int32)
    indptr[-1] = nnz
    indices = np.empty(nnz, dtype=np.int32)
    data0 = np.zeros(nnz)
    start = 0
    for r, (terms, slots) in enumerate(blocks):
        width = len(slots)
        first = start + width * np.arange(N, dtype=np.int32)  # each row's first entry
        indptr[r * N:(r + 1) * N] = first
        cols = indices[start:start + width * N].reshape(N, width)
        for (blk, s), k in slots.items():
            cols[:, k] = blk * N + shifted(s)
        order = np.argsort(cols, axis=1)
        rank = np.empty((N, width), dtype=np.int8)  # place of each slot in its row
        np.put_along_axis(rank, order, np.arange(width, dtype=np.int8), axis=1)
        del order
        cols.sort(axis=1)
        for blk, s, coef, cs, w in terms:
            at = first + rank[:, slots[blk, s]]
            if coef < 0:
                data0[at] = w
                continue
            block = slice(col_ptr[coef * N], col_ptr[(coef + 1) * N])
            t, filled[coef] = filled[coef], filled[coef] + 1
            # position of the entry each coefficient point feeds
            rows[block].reshape(N, -1)[:, t] = at[shifted(tuple(-a % n for a in cs))]
            vals[block].reshape(N, -1)[:, t] = w
        del rank
        start += width * N
    coef_map = sp.csc_matrix((vals, rows, col_ptr), shape=(nnz, ncoef * N))
    template = JacobianTemplate(indptr, indices, data0, coef_map)
    for arr in (template.indptr, template.indices, template.data0,
                coef_map.data, coef_map.indices, coef_map.indptr):
        arr.flags.writeable = False  # shared by every assembly on the grid
    return template


def assemble_jacobian(lin: Linearization) -> sp.csr_matrix:
    """Sparse 2N x 2N derivative of the discrete residual, blocks

    [[ duu, dum ],      duu = I - lap + DpH . grad
     [ dmu, dmm ]]      dum = diag(density coupling)
                        dmu = -div( m^(1-alpha) DppH grad . )
                        dmm = I - lap - div( W . )

    at the state of `lin`, filled into the grid's cached
    `jacobian_template`.
    """
    import scipy.sparse as sp

    N, d = lin.grid.npoints, lin.grid.d
    template = jacobian_template(lin.grid)
    hess, transport = d + 1, d * d + d + 1  # first DppH and W rows of coef
    coef = np.empty((transport + d, N))
    coef[:d] = lin.ev.DpH.T
    coef[d] = lin.density_coupling
    for i in range(d):
        for j in range(d):
            np.multiply(lin.m_scale, lin.ev.DppH[:, i, j], out=coef[hess + i * d + j])
    coef[transport:] = lin.W.T
    data = template.data0 + template.coef_map @ coef.ravel()
    return sp.csr_matrix((data, template.indices, template.indptr),
                         shape=(2 * N, 2 * N))


def bilinear_form(lin: Linearization, v: np.ndarray, f: np.ndarray) -> float:
    """B[w, w] at the state of `lin`, w = (v, f), as a pointwise sum.

    integrate( c f^2 + f k.g - m^(1-alpha) g.DppH g ), with g = grad(v),
    c the density coupling and k = DpH - W; it equals
    integrate( f row1 - v row2 ) of the Jacobian's action on w.
    """
    g = lin.grid.gradient(v)
    transport = pointwise_dot(lin.ev.DpH - lin.W, g)
    diffusion = pointwise_form(g, lin.ev.DppH)
    return lin.grid.integrate(lin.density_coupling * f * f + f * transport
                              - lin.m_scale * diffusion)
