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
calculus), and keeps, besides the pattern, only the stencil sums that
fill it: per row block the I - lap weight of each stencil slot and the
slot's reads of the coefficient fields c = (DpH, density coupling,
m^(1-alpha) DppH, W) at shifted points, and the moves that sort the
rows where a step wraps.  An assembly sums each slot's weighted,
shifted coefficient fields over all points in one grid-sized line, a
batch of slots at a time, and copies each batch into the slots'
entries of every row.  Entries whose value vanishes at a state stay in
the pattern as explicit zeros.  `assemble_jacobian` is the only code
here that needs scipy, and it imports it when first called: the
residual, the linearization, the template and the bilinear form run on
numpy alone.  As in :mod:`mfglab.hamiltonian`, no per-point code
broadcasts over a length-d axis or calls einsum: every component of Q,
W, the flux and the contractions is computed from length-N vectors.

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

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

# scipy.sparse is imported inside `assemble_jacobian`, the one function
# that builds a matrix, so that commands which never build one
# (`validate`, `audit`) start without loading scipy
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


class RowBlock(NamedTuple):
    """One row block of the Jacobian, its u-rows or its m-rows, as stencil sums.

    Each row of the block has one entry per slot, a (column block, column
    step) pair that the block's terms reach.  The slots are numbered in
    the order of their columns at a point where no step wraps, which is
    lexicographic (column block, step) order.  A slot's sums at all
    points are made in one flat line of scratch with the shape `line`:
    the grid's, padded like the fields the block reads along every axis
    but the first, so that each read is one contiguous slice of a flat
    field.  `sums[slot]` lists the slot's reads (field, at, weight,
    where) in summation order, that is by field and then by point; a
    read adds weight times the flat field at `at` to the line, where
    `where` is True.  `const[slot]` is the slot's weight of I - lap,
    0.0 where it has none, and is added last.
    """

    const: tuple[float, ...]
    sums: tuple
    line: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class JacobianTemplate:
    """CSR pattern of the Jacobian on one grid and the stencil sums of its data.

    The coefficient fields c_k are, in order, DpH[:, ax] for each axis,
    the density coupling, m^(1-alpha) DppH[:, i, j] for each (i, j) in
    row-major order, and W[:, ax] for each axis.  DpH and the coupling
    are read at the row's own point.  The fields from the first DppH on
    are read at shifted points, from a box with `ghost` periodic ghost
    layers on each side of each axis, and are scaled in the box by
    `scale`, the magnitude that all their weights share, so that their
    reads only add or subtract.  The u-rows and the m-rows are the two
    `blocks`.  An entry sums weight * c_k(x + step) over its terms from
    +0.0, in the order (coefficient field, point), and then adds its
    constant.  The entries of a row are written in slot order, which is
    sorted column order wherever no step wraps; `moves` then carries
    each entry of the other rows from its slot position, moves[1], to
    its sorted position, moves[0].
    """

    indptr: np.ndarray
    indices: np.ndarray
    moves: np.ndarray
    ghost: int
    scale: np.ndarray
    blocks: tuple[RowBlock, RowBlock]


def _stencil(op, grid: TorusGrid):
    """(step, weight) of each term of a translation-invariant grid operator.

    A step is the signed offset per axis, in (-n/2, n/2], from a point
    to the point its weight reads.  The response to a unit impulse at
    point 0 is column 0 of the operator, which holds every row's weight
    for step s at the point -s.
    """
    impulse = np.zeros(grid.npoints)
    impulse[0] = 1.0
    column = op(impulse)
    at = np.flatnonzero(column)
    steps = zip(*np.unravel_index(at, grid.shape))
    n = grid.n
    return [(tuple(-a if 2 * a < n else n - a for a in map(int, step)), float(w))
            for step, w in zip(steps, column[at])]


@lru_cache(maxsize=8)
def jacobian_template(grid: TorusGrid) -> JacobianTemplate:
    """Pattern and stencil sums of `assemble_jacobian` on a grid.

    Every block is a sum of stencil terms, so the blocks are described
    once by the steps and weights of the grid's I - lap and gradient
    stencils and then laid out for all points.  The pattern is every
    entry the block formula can reach, so it does not change with the
    state; entries whose value happens to vanish stay in it as explicit
    zeros.

    One field feeds one slot at most twice, by the reads at x - e and
    x + e of a DppH diagonal.  Where such a pair follows other reads,
    its order matters and flips where a step wraps, so the pair is three
    reads: x + a where it comes first, x + b, and x + a elsewhere.

    The template keeps the int32 `indptr` and `indices`, the moves of
    the entries of the rows where a step wraps (those rows are the only
    ones sorted; the moves are intp, numpy's index type, which it would
    otherwise convert to on every assembly), and a bool mask per point
    for each such pair.  Besides these, the build holds a few N-vectors
    at a time.
    """
    N, d, n = grid.npoints, grid.d, grid.n
    base = _stencil(lambda f: f - grid.laplacian(f), grid)
    grad_steps = [_stencil(lambda f: grid.gradient(f)[:, ax], grid)
                  for ax in range(d)]
    idx = np.arange(N, dtype=np.int32).reshape(grid.shape)

    def plus(s1, s2):
        return tuple(a + b for a, b in zip(s1, s2))

    # the terms of the u-rows and of the m-rows, each (column block: 0 for
    # u, 1 for m; column step; coefficient field, -1 for a constant; step
    # from the row point to the coefficient's point; weight)
    zero = (0,) * d
    hess, transport = d + 1, d * d + d + 1  # first DppH and W fields
    u_terms = [(0, s, -1, zero, w) for s, w in base] + [(1, zero, d, zero, 1.0)]
    m_terms = [(1, s, -1, zero, w) for s, w in base]
    for i, gi in enumerate(grad_steps):
        u_terms += [(0, s, i, zero, w) for s, w in gi]              # DpH . grad
        m_terms += [(1, s, transport + i, s, -w) for s, w in gi]     # -div(W .)
        for j, gj in enumerate(grad_steps):                         # dmu
            m_terms += [(0, plus(s1, s2), hess + i * d + j, s1, -w1 * w2)
                        for s1, w1 in gi for s2, w2 in gj]

    boxed = [t for t in u_terms + m_terms if t[2] >= hess]
    ghost = max(abs(a) for t in boxed for a in t[3])
    magnitudes = sorted({(coef, abs(w)) for _, _, coef, _, w in boxed})
    if len(magnitudes) != transport + d - hess:
        raise ValueError("the weights of a shifted field differ in magnitude")
    scale = np.reshape([w for _, w in magnitudes], (-1, 1))
    box = (n + 2 * ghost,) * d
    line = (n,) + box[1:]  # a line of scratch for sums of shifted fields
    span = int(np.ravel_multi_index((n - 1,) * d, line)) + 1

    def read(coef, step, w, where=True):
        """The read of w times field `coef` at x + step, where `where`."""
        if coef < hess:  # in place, at the row's own point
            return coef, slice(0, N), w, where
        at = int(np.ravel_multi_index(tuple(ghost + a for a in step), box))
        return coef, slice(at, at + span), math.copysign(1.0, w), where

    def in_point_order(coef, read_a, read_b):
        """The reads of the field at x + a and at x + b, in point order.

        The first axis on which the steps differ decides the order.
        """
        (a, wa), (b, wb) = read_a, read_b
        ax = next(ax for ax, (p, q) in enumerate(zip(a, b)) if p != q)
        x = np.arange(n)
        along = [1] * d
        along[ax] = n
        a_first = np.zeros(line, dtype=bool)
        a_first[(slice(None),) + (slice(0, n),) * (d - 1)] = (
            ((x + a[ax]) % n < (x + b[ax]) % n).reshape(along))
        a_first = a_first.ravel()[:span]
        return [read(coef, a, wa, a_first), read(coef, b, wb), read(coef, a, wa, ~a_first)]

    widths = [len({t[:2] for t in terms}) for terms in (u_terms, m_terms)]
    nnz = N * sum(widths)
    indptr = np.empty(2 * N + 1, dtype=np.int32)
    indptr[-1] = nnz
    indices = np.empty(nnz, dtype=np.int32)
    blocks, moves = [], []
    start = 0
    for r, (terms, width) in enumerate(zip((u_terms, m_terms), widths)):
        slots = sorted({t[:2] for t in terms})
        first = start + width * np.arange(N, dtype=np.int32)  # each row's first entry
        indptr[r * N:(r + 1) * N] = first
        cols = indices[start:start + width * N].reshape(N, width)
        for k, (blk, s) in enumerate(slots):
            cols[:, k] = blk * N + np.roll(idx, [-a for a in s], range(d)).ravel()
        wraps = np.zeros(N, dtype=bool)
        for k in range(1, width):
            wraps |= cols[:, k] < cols[:, k - 1]
        rows = np.flatnonzero(wraps)
        order = np.argsort(cols[rows], axis=1)
        cols[rows] = np.take_along_axis(cols[rows], order, axis=1)
        to, source = first[rows, None] + np.arange(width), first[rows, None] + order
        moved = to != source
        moves.append(np.stack([to[moved], source[moved]]).astype(np.intp))

        place = {slot: k for k, slot in enumerate(slots)}
        const = [0.0] * width
        reads = [[] for _ in slots]
        for blk, s, coef, cs, w in sorted(terms, key=lambda t: t[2:4]):
            if coef < 0:
                const[place[blk, s]] = w
            else:
                reads[place[blk, s]].append((coef, cs, w))
        sums = []
        for slot_reads in reads:
            slot_sums = []
            for coef, group in itertools.groupby(slot_reads, key=lambda t: t[0]):
                group = [(cs, w) for _, cs, w in group]
                if len(group) == 2 and slot_sums:  # the pair's point order matters
                    slot_sums += in_point_order(coef, *group)
                else:
                    slot_sums += [read(coef, cs, w) for cs, w in group]
            sums.append(tuple(slot_sums))
        shifted = any(t[2] >= hess for t in terms)  # the m-rows; the u-rows read none
        blocks.append(RowBlock(tuple(const), tuple(sums), line if shifted else grid.shape))
        start += width * N
    template = JacobianTemplate(indptr, indices, np.concatenate(moves, axis=1),
                                ghost, scale, tuple(blocks))
    masks = [where for block in blocks for reads in block.sums
             for *_, where in reads if where is not True]
    for arr in (template.indptr, template.indices, template.moves, scale, *masks):
        arr.flags.writeable = False  # shared by every assembly on the grid
    return template


def _sum_slots(block: RowBlock, fields, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write each slot's sum into `out`, the block's data viewed as the
    grid shape + (slot,), made a batch of slots at a time in `scratch`.

    Each slot's sum is made in its own line of scratch, and each batch of
    lines is then copied into its slots of every row.
    """
    n, width = out.shape[0], out.shape[-1]
    size = math.prod(block.line)
    span = size - (block.line[-1] - n)  # the last line's padding is not read
    interior = (slice(None),) + tuple(slice(0, n) for _ in block.line)
    to_slots = (*range(1, out.ndim), 0)
    batch = scratch.size // size
    for lo in range(0, width, batch):
        hi = min(lo + batch, width)
        lines = scratch[:(hi - lo) * size].reshape(hi - lo, size)
        for sums, const, reads in zip(lines, block.const[lo:hi], block.sums[lo:hi]):
            sums = sums[:span]
            if not reads:
                sums.fill(const)
                continue
            field, at, w, _ = reads[0]
            if len(reads) == 1 and abs(w) == 1.0:  # const +- the field
                (np.add if w > 0 else np.subtract)(const, fields[field][at], out=sums)
                continue
            np.multiply(fields[field][at], w, out=sums)
            for field, at, w, where in reads[1:]:
                term = fields[field][at]
                if w == -1.0:
                    np.subtract(sums, term, out=sums, where=where)
                else:
                    np.add(sums, term if w == 1.0 else term * w, out=sums, where=where)
            np.add(sums, const, out=sums)
        out[..., lo:hi] = lines.reshape((hi - lo,) + block.line)[interior].transpose(to_slots)


def assemble_jacobian(lin: Linearization) -> sp.csr_matrix:
    """Sparse 2N x 2N derivative of the discrete residual, blocks

    [[ duu, dum ],      duu = I - lap + DpH . grad
     [ dmu, dmm ]]      dum = diag(density coupling)
                        dmu = -div( m^(1-alpha) DppH grad . )
                        dmm = I - lap - div( W . )

    at the state of `lin`, summed on the grid's cached
    `jacobian_template`.  The m-rows' sums are made in the u-rows' data,
    which is not yet written, and the u-rows', which read no shifted
    field, in a scratch of their own once the box of the shifted fields
    is freed, so the scratch never adds to the box.  The entries of the
    rows where a step wraps then move to their sorted places.
    """
    import scipy.sparse as sp

    grid = lin.grid
    N, d, shape = grid.npoints, grid.d, grid.shape
    template = jacobian_template(grid)
    g = template.ghost
    # the shifted fields, m^(1-alpha) DppH and W, in one box with ghost layers
    box = np.empty((d * d + d,) + (grid.n + 2 * g,) * d)
    inner = box[(slice(None),) + (slice(g, g + grid.n),) * d]
    dpph = lin.ev.DppH.reshape(N, d * d)
    for k in range(d * d):  # one component at a time: a broadcast over all is slower
        np.multiply(lin.m_scale.reshape(shape), dpph[:, k].reshape(shape), out=inner[k])
    inner[d * d:] = lin.W.T.reshape((d,) + shape)
    for ax in range(1, d + 1):
        lead = (slice(None),) * ax
        box[lead + (slice(None, g),)] = box[lead + (slice(-2 * g, -g),)]
        box[lead + (slice(-g, None),)] = box[lead + (slice(g, 2 * g),)]
    flat = box.reshape(len(box), -1)
    flat *= template.scale
    fields = [*lin.ev.DpH.T, lin.density_coupling, *flat]
    u_rows, m_rows = template.blocks
    data = np.empty(template.indices.size)
    u_data = data[:len(u_rows.const) * N]
    _sum_slots(m_rows, fields, data[u_data.size:].reshape(shape + (len(m_rows.const),)),
               u_data)
    del fields[d + 1:], box, inner, flat
    _sum_slots(u_rows, fields, u_data.reshape(shape + (len(u_rows.const),)),
               np.empty(u_data.size))
    data[template.moves[0]] = data[template.moves[1]]
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
