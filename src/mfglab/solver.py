"""Damped Newton corrector and adaptive homotopy continuation.

The driver starts from the explicit root of the lam = 0 system and
follows solutions to lam = 1: a zeroth-order predictor (the previous
solution) feeds a damped Newton corrector at each step.  The first
attempt covers the whole interval; a rejected attempt halves the lam
increment and an accepted one doubles it (step-length bisection, as in
Allgower & Georg, Numerical Continuation Methods, 1990), down to
`continuation.step_min`, below which the run stops short.  Density
positivity is enforced inside the line search, never by projecting m.

Before the continuation a run tries its starts in turn: states from
which one Newton solve at lam = 1 is made (a corrector step whose
predictor is a known solution, as in Allgower & Georg).  They are the
start built from the half-resolution problem's solution on a ladder
grid (below), then the caller's guess, if one is given (`mfglab sweep`
passes one built from the pairs it has solved).  The continuation runs
only if no start's solve converges.

Each Newton system J delta = -F is solved by one linear solver type,
`LaggedLU`: right-preconditioned GMRES that applies the exact Jacobian
J, preconditioned by the most recent sparse LU factor, which is held for
the whole continuation run (a lagged factor, as in inexact Newton-Krylov
methods).  The Krylov solution is accepted when its true residual
satisfies ||J x - b||_2 <= max(1e-10 ||b||_2, atol), and GMRES aims a
decade below that; otherwise J is factored afresh by `solve_direct`,
whose solution must pass the normwise gate
||J x - b|| / (||J|| ||x|| + ||b||) <= 1e-10 in the infinity norm, and
the new factor replaces the held one.  The normwise gate does not grow
with ||J|| ~ 4 d / h^2 as the grid is refined; the Krylov gate stays
relative to ||b|| unless atol is larger, because on a singular matrix
GMRES can return a huge x that a normwise test would accept.  A Newton
solve converges once its sup-norm residual is below the tolerance or
the state's rounding floor (`residual_floor`), whichever is larger, and
it passes a tenth of that threshold to the linear solver as atol: a
linear residual that small cannot change whether the next iterate
passes, so the last solves of a run stop there instead of at 1e-10 of
an already tiny ||b|| (inexact Newton, as in Eisenstat & Walker, SIAM
J. Sci. Comput., 1996).  Newton therefore keeps its quadratic
contraction while consecutive Jacobians along the path share one
factorization.  The long reductions of GMRES and of the gate are summed
in fixed chunks (`chunked_matvec`), so a run writes the same bits under
1 and 2 BLAS threads.  Each converged Newton solve is one
`NewtonResult`, and a continuation path is the list of them.

On 2D grids SuperLU factors J and orders the columns by minimum degree
on the pattern of A + A^T (PERMC_SPEC).  The Jacobian is a torus stencil
coupled to itself by stencil blocks, so its pattern is nearly
structurally symmetric, the case that ordering is made for: at 2D n = 32
(low-density runs factor it whole) it fills 225k entries against 415k
under SuperLU's default COLAMD ordering, which makes the factorization
about 2.4x and each triangular solve inside GMRES about 2x cheaper.

On 1D grids J is a band matrix once the ring is unfolded: visiting the
nodes in the order 0, n-1, 1, n-2, 2, ... and interleaving the unknowns
as (u_i, m_i) puts every entry of the +-2 node stencil within 9
subdiagonals and 7 superdiagonals for every n >= 8 (`band_layout`).
LAPACK's banded LU with partial pivoting (dgbsv, Anderson et al.,
LAPACK Users' Guide, 1999) then factors it in time linear in n: at
1D n = 256 a band factorization and solve take about 0.1 ms against
0.5 ms for SuperLU (one core of a 2-vCPU Xeon), less than a GMRES solve
preconditioned by a held factor.  So SuperLU factors are held and band
factors never are: a 1D system is factored afresh at every Newton
iteration.

Every 2D grid with n // 2 >= TWO_LEVEL_MIN_COARSE_N is solved from the
solution on its n // 2 grid (nested iteration, as in Briggs, Henson &
McCormick, A Multigrid Tutorial, 2000), and that grid is solved by the
same rule: 2D n = 256 climbs the ladder n = 16, 32, 64, 128, 256, and
n = 255 climbs 31, 63, 127, 255.  Each coarser level reads a, b and the
guess from the level above by linear interpolation (`_restrict`), and
the bottom of the ladder makes at most the continuation's first
attempt, the whole step from lam = 0 to 1 (step_min = 1).  A level
starts from the n / 2 solution prolonged by `fourier_resample`,
P(x_{n/2}).  When the n / 2 level itself started from its own level
below, the path holds lam = 1 states at n / 2 and n / 4, whose errors
follow the second-order law (observed order 2.008 at 2D n = 64), and
the start is their Richardson extrapolation P(x_{n/2}) + (P(x_{n/2}) -
P(x_{n/4})) / 4 (Roache, J. Fluids Eng., 1994), unless that fails
`_usable_start`.  On the default data it meets the n = 64 level at
residual 5.0e-5 instead of 3.8e-3, and the lam = 1 Newton iterations
per level at 2D n = 128 are 3, 2, 1, 1 instead of 3, 2, 2, 2.  The guess
comes after the ladder's start on each level: a Newton solve from the
guess factors that level's Jacobian, which the ladder avoids.

The linear systems of a level above the bottom go through the same
gated GMRES on the exact Jacobian: its LaggedLU is given the level
below and that level's coarse solve, and until it holds a factor of its
own it preconditions by a two-grid cycle, damped block-Jacobi sweeps on
the 2x2 (u_i, m_i) diagonal blocks around a coarse correction through
that coarse solve (as in Achdou & Perez, Iterative strategies for
solving linearized discrete mean field games systems, 2012).  The coarse
solve is the `precond` of the level below's LaggedLU: its held LU
factor, as the bottom's, or else the two-grid cycle of its last Newton
system, so the cycles nest into a V-cycle whose only factor is the
bottom's, and no Jacobian is assembled for it.  The residual is
restricted and the correction prolonged by `fourier_resample`, which
applies the Fourier transfer as small dense per-axis matrices, cached
per pair of grid sizes, rather than by FFTs.  A level's Jacobian is
factored only if its GMRES solve misses the gate, so on the default
data the only factor at every size is the bottom's, of 512 unknowns at
n = 16: at 2D n = 64 it fills 46k entries where the n = 32 factor of a
two-level run filled 270k, and the top level's one Newton iteration
takes one GMRES solve of 9 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgbsv
from scipy.sparse.linalg import splu

from .config import RunConfig
from .grid import TorusGrid
from .system import (JacobianTemplate, MFGModels, MFGState,
                     assemble_jacobian, jacobian_template, residual)

REACHED_ONE = "reached_one"
STEP_UNDERFLOW = "step_underflow"

MAX_NEWTON_ITERS = 30
EPS = np.finfo(float).eps
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 25
# a Newton solve's start and every iterate keep their density above this
MIN_M_FLOOR = 1e-8
BACKWARD_ERROR_GATE = 1e-10
# SuperLU column ordering: minimum degree on the pattern of A + A^T
PERMC_SPEC = "MMD_AT_PLUS_A"
KRYLOV_MAX_ITERS = 20
# 2D grids with n // 2 at least this start from the n // 2 solution
# (`_solve_level`), extrapolated with the n // 4 one from
# n = 4 * TWO_LEVEL_MIN_COARSE_N up, down a ladder whose bottom is the
# first level with n < 2 * TWO_LEVEL_MIN_COARSE_N
TWO_LEVEL_MIN_COARSE_N = 16
# block-Jacobi smoothing of `two_grid_cycle`: sweeps before and after the
# coarse correction, and their damping
SMOOTHING_SWEEPS = 2
SMOOTHING_DAMPING = 0.7


class SolverError(Exception):
    """Base class for corrector failures."""


class NewtonDivergenceError(SolverError):
    """Iteration or backtrack budget exhausted without convergence."""


class SingularSystemError(SolverError):
    """Direct factorization failed or produced an unusable solution."""


@dataclass
class NewtonResult:
    """A converged Newton solve, and so one step of a continuation path.

    `history` holds the sup-norm residual of the initial state and after
    each accepted iteration, so `history[-1] == residual_norm`.
    """

    state: MFGState
    iters: int
    residual_norm: float
    history: list[float]

    @property
    def lam(self) -> float:
        return self.state.lam

    @property
    def n(self) -> int:
        """Points per axis of the grid the state lives on."""
        return self.state.grid.n

    @property
    def min_m(self) -> float:
        return float(np.min(self.state.m))

    def record(self) -> dict:
        """The step's fields, in the order `path.json` writes them."""
        return {"lambda": self.lam, "n": self.n, "iters": self.iters,
                "residual": self.residual_norm, "min_m": self.min_m}

    def log_line(self) -> str:
        return " ".join(f"{k}={v:.17g}" for k, v in self.record().items())


@dataclass
class SolvePath:
    """The accepted steps of a run, and the message of its last rejected
    corrector attempt (`reason`).

    The steps are the lower levels' steps, if any, followed by the lam = 1
    step of the start that converged, or the continuation from the lam = 0
    state.
    """

    steps: list[NewtonResult]
    reason: str = ""

    @property
    def reached_one(self) -> bool:
        return self.steps[-1].lam == 1.0

    @property
    def status(self) -> str:
        return REACHED_ONE if self.reached_one else STEP_UNDERFLOW

    @property
    def lambdas(self) -> list[float]:
        return [s.lam for s in self.steps]

    @property
    def final_state(self) -> MFGState:
        return self.steps[-1].state

    @property
    def total_iters(self) -> int:
        return sum(s.iters for s in self.steps)

    def log_lines(self) -> list[str]:
        return [s.log_line() for s in self.steps]


def chunked_matvec(rows: np.ndarray, w: np.ndarray):
    """rows @ w for a vector w, summed over 4096-column chunks in order.

    OpenBLAS splits a long product among its threads, so the bits of a
    gemv of 32768 columns or a dot of 131072 depend on the BLAS thread
    count; products of 4096 columns gave the same bits under 1 and 2
    threads, and the chunks are added in a fixed order.  Below 4096
    columns this is rows @ w.
    """
    chunk = 4096
    total = rows[..., :chunk] @ w[:chunk]
    for start in range(chunk, w.size, chunk):
        total += rows[..., start:start + chunk] @ w[start:start + chunk]
    return total


def norm2(v: np.ndarray) -> float:
    """||v||_2 reduced by `chunked_matvec`, so independent of BLAS threads.

    Below 4096 entries it has the bits of np.linalg.norm(v).
    """
    return math.sqrt(chunked_matvec(v, v))


def backward_error(matrix: sp.spmatrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """||matrix x - rhs|| / ||rhs|| in the 2-norm: the Krylov gate of
    `LaggedLU.solve` at atol = 0."""
    return norm2(matrix @ x - rhs) / max(norm2(rhs), 1e-300)


def normwise_backward_error(matrix: sp.spmatrix, x: np.ndarray,
                            rhs: np.ndarray) -> float:
    """||A x - b|| / (||A|| ||x|| + ||b||) in the infinity norm, A = matrix.

    The gate of a direct solve: the smallest relative perturbation of A
    and b of which x is the exact solution (Rigal & Gaches 1967; Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 7), so it
    does not grow with the norm of A as the grid is refined.
    """
    csr = matrix.tocsr()
    ptr = csr.indptr
    # row sums of |A| from the CSR data: reduceat over the nonempty rows
    # only, since it would read an empty row's sum from the next row
    rows = np.add.reduceat(np.abs(csr.data), ptr[:-1][ptr[1:] > ptr[:-1]])
    denom = rows.max(initial=0.0) * np.abs(x).max() + np.abs(rhs).max()
    return float(np.abs(matrix @ x - rhs).max() / max(denom, 1e-300))


def gmres(matvec, precond, rhs: np.ndarray, max_iters: int,
          atol: float) -> tuple[np.ndarray, int, float]:
    """Right-preconditioned GMRES from x = 0, without restarts.

    Solves A x = b through A M^-1 y = b, x = M^-1 y, so the Givens
    estimate of the least-squares residual is ||b - A x|| itself, not a
    preconditioned residual.  Stops once that estimate is at most atol
    or after max_iters iterations.  Returns (x, iterations, residual
    estimate).  Arnoldi orthogonalizes by classical Gram-Schmidt applied
    twice, as two dense products with the basis per pass; the products
    with the new vector and the norms are reduced by `chunked_matvec`.
    """
    beta = norm2(rhs)
    if beta == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    basis = np.empty((max_iters + 1, rhs.size))
    zs = np.empty((max_iters, rhs.size))
    hess = np.zeros((max_iters + 1, max_iters))
    rot = np.zeros((max_iters, 2))
    g = np.zeros(max_iters + 1)
    g[0] = beta
    basis[0] = rhs / beta
    k = 0
    while k < max_iters:
        zs[k] = precond(basis[k])
        w = matvec(zs[k])
        h = chunked_matvec(basis[:k + 1], w)
        w -= h @ basis[:k + 1]
        h2 = chunked_matvec(basis[:k + 1], w)
        w -= h2 @ basis[:k + 1]
        col = hess[:k + 2, k]
        col[:k + 1] = h + h2
        col[k + 1] = norm2(w)
        if col[k + 1] > 0.0:
            basis[k + 1] = w / col[k + 1]
        for i, (c, s) in enumerate(rot[:k]):
            a, b = col[i], col[i + 1]
            col[i], col[i + 1] = c * a + s * b, c * b - s * a
        r = np.hypot(col[k], col[k + 1])
        if r == 0.0:  # A M^-1 is singular on the Krylov space: no progress
            break
        c, s = col[k] / r, col[k + 1] / r
        rot[k] = c, s
        col[k], col[k + 1] = r, 0.0
        g[k], g[k + 1] = c * g[k], -s * g[k]
        k += 1
        if abs(g[k]) <= atol:
            break
    y = solve_triangular(hess[:k, :k], g[:k], check_finite=False)
    return y @ zs[:k], k, abs(float(g[k]))


class LaggedLU:
    """Linear solver for Newton systems on `grid` that holds an LU factor.

    `solve` runs GMRES on the exact matrix, right-preconditioned by the
    held factor if there is one, else by a two-grid cycle
    (`two_grid_cycle`) through `coarse = (coarse_grid, coarse_solve)`, if
    given, where the function `coarse_solve` applies an approximate
    inverse of a Jacobian of the same problem on that grid: an LU
    factor's solve, or that grid's own two-grid cycle.  The Krylov
    solution is accepted once
    ||matrix x - rhs||_2 <= max(1e-10 ||rhs||_2, atol), where `atol` is
    the caller's absolute threshold (0 keeps the relative gate alone).
    Only if there is no preconditioner or the Krylov solution misses
    that gate does it refactor through `solve_direct` on `grid` (None
    for any sparse matrix): the held factor is dropped first, and the
    factor it returns is held; a band solve returns none, so 1D systems
    are always factored afresh and never read `atol`.  One instance
    serves a whole continuation run, so a factor outlives the Newton
    iteration that made it.  `precond` is the held factor's solve if
    there is one, else the last solve's two-grid cycle, else None: what
    a solved ladder level hands up as the coarse solve of the level
    above.
    """

    def __init__(self, grid: TorusGrid | None = None, coarse=None) -> None:
        self.grid = grid
        self.coarse = coarse
        self.factor = None
        self.precond = None

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray,
              atol: float = 0.0) -> np.ndarray:
        if self.factor is not None:
            precond = self.factor.solve
        elif self.coarse is not None:
            coarse, coarse_solve = self.coarse
            precond = two_grid_cycle(matrix, coarse_solve, self.grid, coarse)
        else:
            precond = None
        self.precond = precond
        if precond is not None:
            gate = max(BACKWARD_ERROR_GATE * norm2(rhs), atol)
            # aim a decade below the gate: in floating point the true
            # residual can sit slightly above the Givens estimate
            x, _, _ = gmres(matrix.__matmul__, precond, rhs,
                            KRYLOV_MAX_ITERS, 0.1 * gate)
            if norm2(matrix @ x - rhs) <= gate:
                return x
        self.factor = None
        x, self.factor = solve_direct(matrix, rhs, self.grid)
        if self.factor is not None:
            self.precond = self.factor.solve
        return x


def fourier_resample(values: np.ndarray, src: TorusGrid,
                     dst: TorusGrid) -> np.ndarray:
    """Resample stacked grid fields from `src` to `dst` (same d) in Fourier.

    `values` has shape (..., src.npoints).  Per axis, the modes |k| <= n / 2
    of the smaller grid (n points) are kept and the others dropped
    (restriction) or zero (prolongation by zero-padding).  The Nyquist
    mode of an even n is split evenly between k = +-n / 2 when prolonged
    and folded back onto itself when restricted, so restricting a
    prolongation is the identity, a trigonometric polynomial resolved on
    both grids is resampled exactly, and every field keeps its mean.

    The map is linear and acts on each axis alike, so it is applied as
    the cached per-axis matrix T = `transfer_matrix(src.n, dst.n)`:
    `values @ T` in 1D and T^T X T on each (n, n) field X in 2D.  That is
    two small dense products per field and no FFT: at 2D n = 64 a stack
    of two fields takes about 0.03 ms against 0.35 ms by FFT (one core
    of a 2-vCPU Xeon).
    """
    T = transfer_matrix(src.n, dst.n)
    lead = np.shape(values)[:-1]
    out = np.reshape(values, lead + src.shape) @ T
    if src.d == 2:
        out = T.T @ out
    return out.reshape(lead + (dst.npoints,))


@lru_cache(maxsize=16)
def transfer_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """The read-only (n_src, n_dst) matrix of `fourier_resample` on one axis.

    Entry (j, l) is (1 / n_src) sum_k w_k exp(2 pi i k (l / n_dst - j / n_src))
    over the kept modes k with their Nyquist weights w_k.  It depends on
    (j, l) only through q = (l n_src - j n_dst) / g mod M, where
    g = gcd(n_src, n_dst) and M = n_src n_dst / g, so the sums for every q
    come from one inverse FFT of length M and T is gathered from them:
    O(n_src n_dst + M) memory.
    """
    low = min(n_src, n_dst)
    k = np.arange(-(low // 2), low // 2 + 1)
    weight = np.ones(k.size)
    if low % 2 == 0 and low == n_src:
        weight[[0, -1]] = 0.5
    g = math.gcd(n_src, n_dst)
    M = n_src * n_dst // g
    modes = np.zeros(M)
    np.add.at(modes, k % M, weight)  # k = +-low / 2 meet when n_src == n_dst
    kernel = np.fft.ifft(modes).real * (M / n_src)
    q = np.add.outer(-(n_dst // g) * np.arange(n_src),
                     (n_src // g) * np.arange(n_dst))
    T = kernel[np.remainder(q, M, out=q)]
    T.flags.writeable = False
    return T


def two_grid_cycle(matrix: sp.spmatrix, coarse_solve, fine: TorusGrid,
                   coarse: TorusGrid):
    """Two-grid preconditioner M^-1 r for a Newton matrix on `fine`.

    SMOOTHING_SWEEPS damped (SMOOTHING_DAMPING) block-Jacobi sweeps on
    the 2x2 (u_i, m_i) diagonal blocks of `matrix`, a coarse correction
    `coarse_solve` of the residual restricted to `coarse` and prolonged
    back (both by `fourier_resample`), then SMOOTHING_SWEEPS more
    sweeps.  The first sweep starts from x = 0, so it is the damped
    block solve of r itself, without a product with the matrix.  A fixed
    linear map of r, as GMRES needs.
    """
    N = fine.npoints
    diag = matrix.diagonal()
    a, b, c, d = diag[:N], matrix.diagonal(N), matrix.diagonal(-N), diag[N:]
    det = a * d - b * c
    a, b, c, d = a / det, b / det, c / det, d / det

    def block_solve(res):
        ru, rm = res[:N], res[N:]
        return SMOOTHING_DAMPING * np.concatenate(
            [d * ru - b * rm, a * rm - c * ru])

    def smooth(x, r):
        return x + block_solve(r - matrix @ x)

    def cycle(r):
        x = block_solve(r)
        for _ in range(SMOOTHING_SWEEPS - 1):
            x = smooth(x, r)
        res = fourier_resample((r - matrix @ x).reshape(2, N), fine, coarse)
        correction = coarse_solve(res.ravel()).reshape(2, coarse.npoints)
        x += fourier_resample(correction, coarse, fine).ravel()
        for _ in range(SMOOTHING_SWEEPS):
            x = smooth(x, r)
        return x
    return cycle


@dataclass(frozen=True, eq=False)
class BandLayout:
    """Where the entries of a 1D Newton matrix go in LAPACK band storage.

    `order[k]` is the band index of unknown k (u_i at k = i, m_i at
    k = N + i).  A matrix on the pattern of `template`, permuted by
    `order` on both sides, has `kl` subdiagonals and `ku` superdiagonals;
    `slots[j]` is the position of its j-th CSR entry in the row-major
    (2N, ldab) array whose transpose is dgbsv's `ab` (one row per band
    column, with kl rows of room for the fill of pivoting).
    """

    template: JacobianTemplate
    order: np.ndarray
    kl: int
    ku: int
    slots: np.ndarray

    @property
    def ldab(self) -> int:
        return 2 * self.kl + self.ku + 1

    def fits(self, matrix: sp.spmatrix) -> bool:
        """Whether `matrix` is in CSR format on the template's pattern."""
        return (matrix.format == "csr"
                and matrix.shape == (self.order.size,) * 2
                and np.array_equal(matrix.indptr, self.template.indptr)
                and np.array_equal(matrix.indices, self.template.indices))


@lru_cache(maxsize=8)
def band_layout(grid: TorusGrid) -> BandLayout:
    """Band layout of the Newton matrices of a 1D grid.

    The ring's nodes are visited in folded order 0, n-1, 1, n-2, 2, ...,
    so nodes k steps apart on the ring are at most 2k positions apart,
    and the unknowns are interleaved as (u_i, m_i).  The bandwidths are
    read off the grid's `jacobian_template`.
    """
    n, N = grid.n, grid.npoints
    template = jacobian_template(grid)
    fold = np.empty(n, dtype=np.intp)
    fold[0::2] = np.arange((n + 1) // 2)
    fold[1::2] = n - 1 - np.arange(n // 2)
    position = np.argsort(fold)
    order = np.concatenate([2 * position, 2 * position + 1])
    rows = order[np.repeat(np.arange(2 * N), np.diff(template.indptr))]
    cols = order[template.indices]
    kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
    slots = cols * (2 * kl + ku + 1) + kl + ku + rows - cols
    return BandLayout(template, order, kl, ku, slots)


def solve_direct(matrix: sp.spmatrix, rhs: np.ndarray,
                 grid: TorusGrid | None = None):
    """LU solve with a normwise backward-error gate of 1e-10: (x, factor).

    On a 1D `grid` a matrix on the pattern of the grid's Jacobian
    template is solved as a band matrix by LAPACK's dgbsv, and its factor
    is not kept (None); every other matrix is factored by SuperLU, whose
    factor is returned as a `SuperLU` object.
    """
    if not np.all(np.isfinite(matrix.data)):
        raise SingularSystemError("system matrix has non-finite entries")
    layout = band_layout(grid) if grid is not None and grid.d == 1 else None
    if layout is not None and layout.fits(matrix):
        order, size = layout.order, layout.order.size
        ab = np.zeros(size * layout.ldab)
        ab[layout.slots] = matrix.data
        b = np.empty(size)
        b[order] = rhs
        _, _, x, info = dgbsv(layout.kl, layout.ku,
                              ab.reshape(size, layout.ldab).T, b,
                              overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise SingularSystemError(
                f"factorization failed: zero pivot in band column {info}")
        x, factor = x[order], None
    else:
        try:
            factor = splu(matrix.tocsc(), permc_spec=PERMC_SPEC)
            x = factor.solve(rhs)
        except RuntimeError as exc:
            raise SingularSystemError(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    backward = normwise_backward_error(matrix, x, rhs)
    if backward > BACKWARD_ERROR_GATE:
        raise SingularSystemError(
            f"numerically rank-deficient system (backward error {backward:.3e})")
    return x, factor


def residual_floor(state: MFGState) -> float:
    """eps (1 + 4 d / h^2) max(||u||, ||m||) in the sup norm.

    The rounding error of evaluating I - lap, whose infinity norm is
    1 + 4 d / h^2, on the state: a residual below it is not a
    meaningful target.  It grows 4x per halving of h.
    """
    grid = state.grid
    scale = max(np.abs(state.u).max(), np.abs(state.m).max())
    return float(EPS * (1.0 + 4.0 * grid.d / grid.h**2) * scale)


def _usable_start(state: MFGState) -> bool:
    """Finite u and m and min m > MIN_M_FLOOR: a start `newton_solve` takes."""
    return bool(np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.m))
                and float(np.min(state.m)) > MIN_M_FLOOR)


def newton_solve(init: MFGState, lam: float, models: MFGModels,
                 tol: float = RunConfig.newton_tol,
                 linear: LaggedLU | None = None) -> NewtonResult:
    """Damped Newton on the discrete system at fixed lam.

    Each iteration solves J delta = -F with `linear` (a fresh LaggedLU
    when none is passed, so a factor is reused across iterations) to the
    absolute threshold atol = 0.1 max(tol, `residual_floor(state)`), a
    decade below the test the next iterate must pass: since
    ||.||_inf <= ||.||_2, the linear residual's share of the next
    residual is then at most a tenth of that test, and solving further
    is wasted (inexact Newton; Dembo, Eisenstat & Steihaug, SIAM J.
    Numer. Anal., 1982).  It then backtracks over t in {1, beta,
    beta^2, ...} (beta = BACKTRACK_FACTOR, at most MAX_BACKTRACKS
    times), accepting the first t that keeps min(m + t delta_m) above
    max(MIN_M_FLOOR, 0.1 min m) and reduces the sup-norm residual.

    The solve converges once the sup-norm residual, tested at the start
    and after each of at most MAX_NEWTON_ITERS iterations, is below
    max(tol, `residual_floor(state)`), the rounding floor of the state;
    it raises NewtonDivergenceError if it does not, or if no t is accepted.
    A start failing `_usable_start` raises a plain SolverError at once.
    """
    if not _usable_start(init):
        raise SolverError(f"non-finite start or min m <= {MIN_M_FLOOR:g}")
    if linear is None:
        linear = LaggedLU(init.grid)
    state = MFGState(init.grid, init.u.copy(), init.m.copy(), lam)
    res = residual(state, models)
    rnorm = res.sup_norm
    history = [rnorm]

    for it in range(MAX_NEWTON_ITERS + 1):
        threshold = max(tol, residual_floor(state))
        if rnorm < threshold:
            return NewtonResult(state, it, rnorm, history)
        if it == MAX_NEWTON_ITERS:
            break
        jac = assemble_jacobian(res.lin)
        delta = linear.solve(jac, -res.stack(), 0.1 * threshold)
        n = state.grid.npoints
        du, dm = delta[:n], delta[n:]

        m_guard = max(MIN_M_FLOOR, 0.1 * float(np.min(state.m)))
        for k in range(MAX_BACKTRACKS + 1):
            t = BACKTRACK_FACTOR**k
            m_trial = state.m + t * dm
            if float(np.min(m_trial)) > m_guard:
                trial = MFGState(state.grid, state.u + t * du, m_trial, lam)
                res_trial = residual(trial, models)
                if res_trial.sup_norm < rnorm:
                    state, res, rnorm = trial, res_trial, res_trial.sup_norm
                    history.append(rnorm)
                    break
        else:
            raise NewtonDivergenceError(
                f"line search stalled at lambda={lam:.6g} (residual {rnorm:.3e})")

    raise NewtonDivergenceError(
        f"no convergence in {MAX_NEWTON_ITERS} iterations at lambda={lam:.6g} "
        f"(residual {rnorm:.3e})")


def continuation_run(models: MFGModels, tol: float = RunConfig.newton_tol,
                     step_min: float = RunConfig.continuation_step_min,
                     log=None, guess: MFGState | None = None) -> SolvePath:
    """Follow the solution branch from lam = 0 to lam = 1, or start nearer.

    The run first tries its starts (`_solve_level`): on a ladder grid the
    n / 2 solution prolonged, or extrapolated with the n / 4 one
    (`_prolonged_start`), then the `guess`.  The first whose Newton
    solve at lam = 1 converges ends the path.  If none does, the
    continuation runs from the lam = 0 root with a fresh LaggedLU.

    The first attempt of the continuation targets lam = 1 directly.
    Each attempt goes from the last accepted lam to min(1, lam + step);
    a rejected attempt halves the length it tried, an accepted one
    doubles the step, and the run stops short once the halved length is
    below `step_min`.

    Returns a SolvePath, whose status says whether it reached lam = 1; a
    corrector failure is carried in its `reason`, never raised.  One
    LaggedLU serves every corrector call on one grid.  `log` receives
    each step's log line: as the continuation accepts the step, or, when
    the start's solve converges, once for every step of the path.
    """
    if not 0.0 < step_min <= 1.0:
        raise ValueError(f"need 0 < step_min <= 1, got {step_min}")
    return _solve_level(models, tol, step_min, guess, log)[0]


def sweep_guess(alpha: float, line, last):
    """(start, guess) of a sweep pair at `alpha`.

    `line` lists the (alpha, final state) of the last two pairs solved
    on the pair's gamma line, in visiting order, and `last` is the final
    state of the last pair solved anywhere (None before the first).  The
    guess is the secant through the last two entries of `line` (a
    predictor, as in Allgower & Georg) unless their alphas are equal or
    it fails `_usable_start`; then it is `last` itself.
    """
    if len(line) == 2 and line[0][0] != line[1][0]:
        (a0, s0), (a1, s1) = line
        w = (alpha - a1) / (a1 - a0)
        with np.errstate(over="ignore", invalid="ignore"):
            u = s1.u + w * (s1.u - s0.u)
            m = s1.m + w * (s1.m - s0.m)
        guess = MFGState(s1.grid, u, m, 1.0)
        if _usable_start(guess):
            return "secant", guess
    if last is None:
        return "continuation", None
    return "neighbour", last


def _has_coarse_level(grid: TorusGrid) -> bool:
    """Whether `continuation_run` starts `grid` from its n // 2 solution."""
    return grid.d == 2 and grid.n // 2 >= TWO_LEVEL_MIN_COARSE_N


def _restrict(field, grid: TorusGrid) -> np.ndarray:
    """`field` on `grid` at the points of its n // 2 grid.

    Per axis, coarse point j interpolates linearly between the fine points
    floor(j n / n_c) and the next, with convex weights (a positive field
    stays positive) that are 1 and 0 on even n: the injected values."""
    i, rem = np.divmod(np.arange(grid.n // 2) * grid.n, grid.n // 2)
    theta = rem / (grid.n // 2)
    x = np.broadcast_to(field, (grid.npoints,)).reshape(grid.shape)
    for _ in range(grid.d):  # interpolate the last axis, then move it first
        x = np.moveaxis((1 - theta) * x[..., i]
                        + theta * x[..., (i + 1) % grid.n], -1, 0)
    return x.ravel()


def _solve_level(models: MFGModels, tol: float, step_min: float,
                 guess: MFGState | None = None, log=None):
    """(path, linear solver) of `continuation_run` on the models' grid.

    On a grid with a coarse level, a, b and the guess are restricted to
    it (`_restrict`, which keeps the density positive) and the n // 2
    level is solved by this same rule, with step_min = 1 when that level
    has no coarse level of its own (the ladder's bottom).
    The starts are then `_prolonged_start`, which keeps the mass: the
    n / 2 level's lam = 1 state prolonged, or extrapolated with the n / 4
    one where the path holds it (from n = 64 up on the default data,
    where it saves each such level's second Newton iteration), with a
    LaggedLU given the coarse grid and that level's `precond`; then the
    guess, with a fresh LaggedLU.  The ladder's start is tried only if
    the level below reached lam = 1 and holds a preconditioner.  The
    linear solver returned is the LaggedLU that made the path's last
    step, so the level above can read its `precond`.
    """
    grid = models.grid
    starts = []
    if _has_coarse_level(grid):
        coarse = TorusGrid(grid.d, grid.n // 2)
        coarse_guess = None if guess is None else replace(
            guess, grid=coarse, u=_restrict(guess.u, grid),
            m=_restrict(guess.m, grid))
        below, linear = _solve_level(
            replace(models, grid=coarse, a=_restrict(models.a, grid),
                    b=_restrict(models.b, grid)),
            tol, step_min if _has_coarse_level(coarse) else 1.0, coarse_guess)
        if below.reached_one and linear.precond is not None:
            starts.append((below.steps, _prolonged_start(below, grid),
                           LaggedLU(grid, (coarse, linear.precond))))
    if guess is not None:
        starts.append(([], guess, LaggedLU(grid)))
    for steps, start, linear in starts:
        try:
            step = newton_solve(start, 1.0, models, tol, linear)
        except SolverError:
            continue
        path = SolvePath([*steps, step])
        if log is not None:
            for line in path.log_lines():
                log(line)
        return path, linear
    linear = LaggedLU(grid)
    return _continue(models, tol, step_min, linear, log), linear


def _prolonged_start(below: SolvePath, grid: TorusGrid) -> MFGState:
    """The lam = 1 start on `grid` that the n / 2 level's path `below` gives.

    P(x_{n/2}) + (P(x_{n/2}) - P(x_{n/4})) / 4 for x = u and m, where P is
    `fourier_resample` onto `grid`, when `below` reached lam = 1 from its
    own ladder start and so holds a lam = 1 state at n / 4 (its second to
    last step): the Richardson extrapolation of two solutions whose error
    is O(h^2) (Roache, J. Fluids Eng., 1994).  The weights sum to 1, so
    it keeps the mass.  Otherwise, or if that start fails `_usable_start`,
    it is P(x_{n/2}), the plain prolongation.
    """
    top = below.final_state
    fields = fourier_resample(np.stack([top.u, top.m]), top.grid, grid)
    plain = MFGState(grid, fields[0], fields[1], 1.0)
    if len(below.steps) < 2 or below.steps[-2].n == top.grid.n:
        return plain
    quarter = below.steps[-2].state
    # built in place in the n / 4 prolongation: no third pair of fields
    ext = fourier_resample(np.stack([quarter.u, quarter.m]), quarter.grid,
                           grid)
    np.subtract(fields, ext, out=ext)
    ext *= 0.25
    ext += fields
    start = MFGState(grid, ext[0], ext[1], 1.0)
    return start if _usable_start(start) else plain


def _continue(models: MFGModels, tol: float, step_min: float,
              linear: LaggedLU, log=None) -> SolvePath:
    """The continuation of `continuation_run` on the models' own grid."""
    state = models.trivial_state()
    rnorm = residual(state, models).sup_norm
    path = SolvePath([NewtonResult(state, 0, rnorm, [rnorm])])
    if log is not None:
        log(path.steps[-1].log_line())

    step = 1.0
    while not path.reached_one:
        last = path.steps[-1]
        target = min(1.0, last.lam + step)
        try:
            result = newton_solve(last.state, target, models, tol, linear)
        except SolverError as exc:
            path.reason = str(exc)
            step = 0.5 * (target - last.lam)
            if step < step_min:
                return path
            continue
        path.steps.append(result)
        if log is not None:
            log(result.log_line())
        step *= 2.0
    return path
