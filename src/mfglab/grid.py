"""Uniform periodic grid on the unit torus with finite-difference calculus.

The domain is [0,1)^d, d in {1, 2}, sampled at n points per axis with
spacing h = 1/n (so n*h = 1 exactly).  Scalar fields are flat arrays of
length N = n^d in row-major order; vector fields carry one column per
axis.

Operator conventions:

- gradient: second-order central differences with periodic wrap,
  (grad f)_k = (f_{k+1} - f_{k-1}) / (2h) per axis.
- divergence: the exact negative adjoint of gradient under the
  rectangle-rule inner product.  For central differences this is again
  the central difference applied per component, so summation by parts
  <div g, f> = -<g, grad f> holds to machine rounding, and
  integrate(divergence(g)) telescopes to zero exactly.
- laplacian: compact (2d+1)-point stencil,
  sum over axes of (f_{k+1} - 2 f_k + f_{k-1}) / h^2.  Symmetric.
  The composition divergence(gradient(f)) instead produces the wide
  stencil with effective spacing 2h; the compact stencil is canonical
  (it obeys the discrete maximum principle).
- integrate: rectangle rule h^d * sum, spectrally accurate for smooth
  periodic integrands.

Every stencil reads its periodic neighbours through `_shift`, which
equals `np.roll` bit for bit but costs two slices and one concatenate
(a fixed cost that dominates on small grids).  These stencils are the
package's single discrete calculus: the residual applies them, and
`system.jacobian_template` reads the Jacobian's stencil steps and
weights from their response to a unit impulse.  Only the diagnostics
use a second stencil (`gradient4`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# natural logs of the normal float range, one unit inside it
_LOG_TINY = math.log(np.finfo(float).tiny) + 1.0
_LOG_HUGE = math.log(np.finfo(float).max) - 1.0


def _shift(box: np.ndarray, k: int, axis: int) -> np.ndarray:
    """np.roll(box, k, axis): out[i] = box[i - k] with periodic wrap."""
    cut = -k % box.shape[axis]
    lead = (slice(None),) * axis
    return np.concatenate((box[lead + (slice(cut, None),)],
                           box[lead + (slice(None, cut),)]), axis=axis)


def pointwise_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.y at every point of two vector fields, (N, d) x (N, d) -> (N,).

    Summed axis by axis from length-N columns, in axis order; for d <= 2
    these are the bits of np.einsum("ki,ki->k", x, y).
    """
    out = x[:, 0] * y[:, 0]
    for ax in range(1, x.shape[1]):
        out += x[:, ax] * y[:, ax]
    out += 0.0  # einsum sums from +0.0, so its sum is never -0.0
    return out


def pointwise_form(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x.A x at every point, (N, d) and (N, d, d) -> (N,).

    The terms x_i A_ij x_j are summed from +0.0 in row-major (i, j)
    order; for d <= 2 these are the bits of
    np.einsum("ki,kij,kj->k", x, a, x).
    """
    d = x.shape[1]
    return sum(x[:, i] * a[:, i, j] * x[:, j] for i in range(d) for j in range(d))


@dataclass(frozen=True)
class TorusGrid:
    """Periodic lattice {(i_1 h, ..., i_d h)} on the unit torus."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.d}")
        if self.n < 8:
            raise ValueError(f"need at least 8 points per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    def axis(self) -> np.ndarray:
        """Coordinates of the n points along one axis."""
        return np.arange(self.n) * self.h

    def coords(self) -> np.ndarray:
        """Grid point coordinates, shape (N, d), row-major ordering."""
        axis = self.axis()
        if self.d == 1:
            return axis[:, None]
        x, y = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([x.ravel(), y.ravel()], axis=1)

    def _box(self, values: np.ndarray) -> np.ndarray:
        box = np.asarray(values, dtype=float).reshape(self.shape)
        return box

    # -- differential operators --------------------------------------

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Central-difference gradient, (N,) -> (N, d)."""
        box = self._box(values)
        out = np.empty((self.npoints, self.d))
        for ax in range(self.d):
            diff = _shift(box, -1, ax) - _shift(box, 1, ax)
            out[:, ax] = diff.ravel() / (2.0 * self.h)
        return out

    def gradient4(self, values: np.ndarray) -> np.ndarray:
        """Fourth-order central gradient, (N,) -> (N, d).

        (grad f)_k = (-f_{k+2} + 8 f_{k+1} - 8 f_{k-1} + f_{k-2}) / (12h).
        Used by the diagnostics so that certificates probe the fields
        independently of the solver's second-order stencil algebra.
        """
        box = self._box(values)
        out = np.empty((self.npoints, self.d))
        for ax in range(self.d):
            diff = (
                -_shift(box, -2, ax)
                + 8.0 * _shift(box, -1, ax)
                - 8.0 * _shift(box, 1, ax)
                + _shift(box, 2, ax)
            )
            out[:, ax] = diff.ravel() / (12.0 * self.h)
        return out

    def divergence(self, values: np.ndarray) -> np.ndarray:
        """Negative adjoint of gradient, (N, d) -> (N,)."""
        vals = np.asarray(values, dtype=float)
        if vals.shape != (self.npoints, self.d):
            raise ValueError(f"vector field must have shape ({self.npoints}, {self.d})")
        out = np.zeros(self.npoints)
        for ax in range(self.d):
            box = vals[:, ax].reshape(self.shape)
            diff = _shift(box, -1, ax) - _shift(box, 1, ax)
            out += diff.ravel() / (2.0 * self.h)
        return out

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Compact (2d+1)-point Laplacian, (N,) -> (N,)."""
        box = self._box(values)
        acc = -2.0 * self.d * box
        for ax in range(self.d):
            acc = acc + _shift(box, -1, ax) + _shift(box, 1, ax)
        return acc.ravel() / self.h**2

    # -- quadrature and norms ----------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Rectangle rule h^d * sum over grid points."""
        return float(np.sum(np.asarray(values, dtype=float))) * self.h**self.d

    def lp_norm(self, values: np.ndarray, p: float) -> float:
        """L^p norm via the rectangle rule; p = inf returns max |f_k|.

        When N max|f_k|^p would leave the normal float range, the field
        is scaled by max|f_k| before the power, so a representable norm
        stays finite; otherwise |f_k|^p is summed as it is, which keeps
        ordinary norms bit-for-bit.  A zero field has norm 0.
        """
        vals = np.abs(np.asarray(values, dtype=float))
        top = float(np.max(vals))
        if math.isinf(p):
            return top
        if p < 1.0:
            raise ValueError(f"L^p norm requires p >= 1, got {p}")
        if top == 0.0 or not math.isfinite(top):
            return top
        log_peak = p * math.log(top) + math.log(vals.size)
        scale = 1.0 if _LOG_TINY < log_peak < _LOG_HUGE else top
        return scale * self.integrate((vals / scale) ** p) ** (1.0 / p)


@dataclass
class ScalarField:
    """Real-valued samples on a TorusGrid (flat, row-major)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.npoints:
            raise ValueError(
                f"expected {self.grid.npoints} values, got {self.values.size}"
            )


# -- serialization ----------------------------------------------------
#
# A field is CSV: a header, then one row per grid point in row-major
# order, every number at 17 significant digits (float64 round-trips
# exactly).  The writer formats the n axis coordinates once; for each
# x1-line (the whole grid in 1D) it joins the rows' coordinate prefixes,
# each followed by a `,%.17g` slot, into a printf template and fills the
# line's values with one `%`.  '%.17g' and f"{v:.17g}" format floats
# alike, so the bytes are those of per-cell formatting.

_AXES = {1: "x", 2: "x,y"}


def write_field_csv(field: ScalarField, path) -> None:
    """Write `x[,y],value` rows (row-major), 17 significant digits."""
    grid = field.grid
    axis = [f"{c:.17g}" for c in grid.axis().tolist()]
    tails = [c + ",%.17g\n" for c in axis]
    prefixes = [""] if grid.d == 1 else [c + "," for c in axis]
    lines = field.values.reshape(len(prefixes), -1)
    with open(path, "w") as fh:
        fh.write(_AXES[grid.d] + ",value\n")
        for prefix, line in zip(prefixes, lines):
            fh.write((prefix + prefix.join(tails)) % tuple(line.tolist()))


def read_field_csv(path, grid: TorusGrid | None = None) -> ScalarField:
    """Read a field written by write_field_csv; infers the grid if absent.

    A file without data rows or with a non-finite value is a ValueError.
    """
    headers = {f"{axes},value": d for d, axes in _AXES.items()}
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in headers:
            raise ValueError(f"{path}: unrecognized header {header!r}")
        d = headers[header]
        start = fh.tell()
        if not fh.readline().strip():
            raise ValueError(f"{path}: no data row after the header")
        fh.seek(start)
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != d + 1:
        raise ValueError(f"{path}: expected {d + 1} columns, got {rows.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} holds a non-finite value")
    if grid is None:
        n = round(rows.shape[0] ** (1.0 / d))
        grid = TorusGrid(d, n)
    if grid.d != d or rows.shape[0] != grid.npoints:
        raise ValueError(
            f"{path}: {rows.shape[0]} rows of dimension {d} do not match "
            f"a {grid.d}D grid with n={grid.n}"
        )
    if not np.abs(rows[:, :d] - grid.coords()).max() <= 1e-12:  # rows are finite
        raise ValueError(f"{path}: coordinates are not a row-major unit-torus lattice")
    return ScalarField(grid, rows[:, d])
