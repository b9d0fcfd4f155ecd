"""Shared construction helpers for the test suite."""

import numpy as np

from mfglab import MFGModels, TorusGrid, coefficient_field
from mfglab.hamiltonian import (SPEED_MAX_ITER, SPEED_TOL, _speed_map,
                                _speed_map_deriv, _speed_start,
                                conjugate_exponent, example_eval)


def default_models(grid: TorusGrid, gamma: float = 1.25,
                   alpha: float = 1.0) -> MFGModels:
    """Default problem data: a = 1 + 0.5 sin(2 pi x1), b = 0.5 cos(2 pi x1)."""
    return MFGModels(grid, alpha, gamma,
                     coefficient_field(grid, "sin_bump"),
                     coefficient_field(grid, "cos_bump"))


def low_density_models(grid: TorusGrid) -> MFGModels:
    """Data under which the density nearly vanishes: default a,
    b = 1e4 cos(2 pi x1), gamma = 1.9, alpha = 0.02."""
    return MFGModels(grid, 0.02, 1.9, coefficient_field(grid, "sin_bump"),
                     coefficient_field(grid, "fourier:0,0,1e4"))


def high_mode_models(grid: TorusGrid) -> MFGModels:
    """Default data with b = 0.5 cos(2 pi x1) + 2 cos(2 pi 10 x1), a mode
    that injection onto a 2D n = 16 grid aliases to the mode k = 6."""
    b = "fourier:0,0,0.5" + ",0,0" * 8 + ",0,2"
    return MFGModels(grid, 1.0, 1.25, coefficient_field(grid, "sin_bump"),
                     coefficient_field(grid, b))


def two_dimensional_models(grid: TorusGrid) -> MFGModels:
    """Problem data that varies along both axes (2D grids):

    a = 1 + 0.3 sin(2 pi x1) cos(2 pi x2) + 0.15 sin(2 pi (x1 + 2 x2)),
    b = 0.5 cos(2 pi x1) + 0.4 sin(2 pi x2) + 0.25 cos(2 pi (x1 - x2)).
    """
    x1, x2 = 2 * np.pi * grid.coords().T
    a = 1 + 0.3 * np.sin(x1) * np.cos(x2) + 0.15 * np.sin(x1 + 2 * x2)
    b = 0.5 * np.cos(x1) + 0.4 * np.sin(x2) + 0.25 * np.cos(x1 - x2)
    return MFGModels(grid, 1.0, 1.25, a, b)


def manufactured_solution(nf: int, gamma: float, alpha: float,
                          amplitude: float = 0.5):
    """(u*, m*, b) at the nf points x = j / nf of a 1D solution of the
    lam = 1 system with a = 1, whose potential b is built to fit it
    (method of manufactured solutions; Roache, J. Fluids Eng., 2002).

    m* = 1 + A cos(2 pi x), A = `amplitude` < 1, and
    M = (A / 2 pi) sin(2 pi x), so M' = m* - 1, and the density row holds
    with the flux DpH(Q) m* = J = M - m*' + C.  In 1D DpH(Q) = sign(Q) s
    with s the optimal speed, so s = |J / m*| and Q = sign(J) gamma' s
    (1 + s^2)^(gamma'/2 - 1).  C is set by bisection so that
    u*' = m*^alpha Q has mean 0, u* is its mean-free periodic primitive,
    and b = -u* + u*'' - m*^alpha H(Q) + arctan m*.  Derivatives and the
    primitive are taken by FFT, which is exact to rounding for these
    smooth periodic fields once nf is large (8192 resolves A = 0.5, and
    32768 resolves A = 0.99).
    """
    x = np.arange(nf) / nf
    ik = 2j * np.pi * np.fft.rfftfreq(nf, 1.0 / nf)

    def derivative(f):
        return np.fft.irfft(ik * np.fft.rfft(f), nf)

    m = 1.0 + amplitude * np.cos(2 * np.pi * x)
    flux = amplitude / (2 * np.pi) * np.sin(2 * np.pi * x) - derivative(m)
    gp = conjugate_exponent(gamma)

    def velocity(c):  # u*' = m*^alpha Q for the flux constant c
        J = flux + c
        s = np.abs(J / m)
        return m**alpha * np.sign(J) * gp * s * (1.0 + s * s) ** (0.5 * gp - 1.0)

    # u*' has the sign of flux + c, so its mean changes sign in between
    hi = np.max(np.abs(flux))
    lo = -hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.mean(velocity(mid)) < 0.0 else (lo, mid)
    du = velocity(0.5 * (lo + hi))
    du_hat = np.fft.rfft(du)
    du_hat[0] = 0.0
    du_hat[1:] /= ik[1:]
    u = np.fft.irfft(du_hat, nf)
    H = example_eval((du / m**alpha)[:, None], 1.0, gamma).H
    b = -u + derivative(du) - m**alpha * H + np.arctan(m)
    return u, m, b


def smooth_field(grid: TorusGrid, rng: np.random.Generator,
                 amplitude: float = 1.0, modes: int = 3) -> np.ndarray:
    """Random band-limited field: low Fourier modes with decaying weights."""
    x = grid.coords()
    out = np.zeros(grid.npoints)
    for k in range(1, modes + 1):
        for ax in range(grid.d):
            out += rng.normal(scale=amplitude / k) * np.sin(2 * np.pi * k * x[:, ax])
            out += rng.normal(scale=amplitude / k) * np.cos(2 * np.pi * k * x[:, ax])
    return out


def smooth_positive_density(grid: TorusGrid, rng: np.random.Generator,
                            amplitude: float = 0.4) -> np.ndarray:
    """Smooth density bounded well away from zero (min >= 0.15)."""
    m = 1.0 + amplitude * np.tanh(smooth_field(grid, rng, 0.5))
    return np.maximum(m, 0.15)


# -- reference copies of the broadcasting pointwise kernels ------------
#
# The package computes every pointwise kernel one component at a time,
# from length-N vectors.  The copies below are the earlier formulas,
# which broadcast over the length-d axes and contract with einsum; the
# tests hold the package to their bits.


def reference_solve_optimal_speed(p_mag, a, gamma_prime):
    """The safeguarded Newton loop with an eager np.nextafter test."""
    p = np.atleast_1d(np.asarray(p_mag, dtype=float)).copy()
    av = np.broadcast_to(np.asarray(a, dtype=float), p.shape).copy()
    gp = float(gamma_prime)
    s = _speed_start(p, av, gp)
    lo = np.zeros_like(p)
    hi = np.maximum(2.0 * s, 1.0)
    tol_arr = np.maximum(SPEED_TOL, 8.0 * np.finfo(float).eps * p)
    done = np.zeros(p.shape, dtype=bool)
    for _ in range(SPEED_MAX_ITER):
        g = _speed_map(s, av, gp) - p
        done |= np.abs(g) <= tol_arr
        if done.all():
            return s
        lo = np.where((g < 0.0) & ~done, s, lo)
        hi = np.where((g > 0.0) & ~done, s, hi)
        trial = s - g / _speed_map_deriv(s, av, gp)
        done |= (trial == s) | (np.nextafter(lo, hi) >= hi)
        outside = (trial <= lo) | (trial >= hi)
        trial = np.where(outside, 0.5 * (lo + hi), trial)
        s = np.where(done, s, trial)
    raise RuntimeError("optimal-speed iteration failed to converge")


def reference_example_eval(p, a, gamma):
    """(H, DpH, DppH) of the example Hamiltonian at momenta p, shape (N, d)."""
    n, d = p.shape
    gp = gamma / (gamma - 1.0)
    av = np.broadcast_to(np.asarray(a, dtype=float), (n,))
    p_mag = np.linalg.norm(p, axis=1)
    s = reference_solve_optimal_speed(p_mag, av, gp)
    with np.errstate(invalid="ignore", divide="ignore"):
        phat = np.where(p_mag[:, None] > 0.0, p / p_mag[:, None], 0.0)
    s2 = s * s
    w = (1.0 + s2) ** (0.5 * gp - 1.0)
    H = av * ((gp - 1.0) * s2 - 1.0) * w
    DpH = s[:, None] * phat
    c = gp * av * w
    eye = np.eye(d)[None, :, :]
    vv = DpH[:, :, None] * DpH[:, None, :]
    DppH = (eye - (gp - 2.0) * vv / (1.0 + (gp - 1.0) * s2)[:, None, None]) \
        / c[:, None, None]
    return H, DpH, DppH


def reference_power_eval(p, gamma):
    """(H, DpH, DppH) of (1 + |p|^2)^(gamma/2) at momenta p, shape (N, d)."""
    n, d = p.shape
    q = np.sum(p * p, axis=1)
    w = (1.0 + q) ** (0.5 * gamma - 1.0)
    H = (1.0 + q) ** (0.5 * gamma)
    DpH = gamma * w[:, None] * p
    eye = np.eye(d)[None, :, :]
    pp = p[:, :, None] * p[:, None, :]
    DppH = gamma * w[:, None, None] * eye \
        + gamma * (gamma - 2.0) * ((1.0 + q) ** (0.5 * gamma - 2.0))[:, None, None] * pp
    return H, DpH, DppH


def reference_blend_eval(p, a, gamma, lam):
    """(H, DpH, DppH) of lam * example + (1 - lam) * power."""
    if lam == 1.0:
        return reference_example_eval(p, a, gamma)
    if lam == 0.0:
        return reference_power_eval(p, gamma)
    ex = reference_example_eval(p, a, gamma)
    pw = reference_power_eval(p, gamma)
    return tuple(lam * e + (1.0 - lam) * w for e, w in zip(ex, pw))


def reference_linearization(state, models):
    """(H, DpH, DppH, density coupling, W, m^(1-alpha)) at a state."""
    alpha, m = models.alpha, state.m
    ma = m**alpha
    Q = state.grid.gradient(state.u) / ma[:, None]
    H, DpH, DppH = reference_blend_eval(Q, models.a, models.gamma, state.lam)
    _, DmV = models.potential(m, state.lam)
    q_dot = np.einsum("ki,ki->k", Q, DpH)
    coupling = alpha * m ** (alpha - 1.0) * (H - q_dot) + DmV
    W = DpH - alpha * np.einsum("kij,kj->ki", DppH, Q)
    return H, DpH, DppH, coupling, W, m ** (1.0 - alpha)


def reference_jacobian_coefficients(lin):
    """The stacked coefficient fields c that the Jacobian's data is
    linear in: DpH[:, ax], the density coupling, m^(1-alpha) DppH[:, i, j]
    in row-major (i, j) order and W[:, ax], each a length-N block."""
    N, d = lin.grid.npoints, lin.grid.d
    hess = (lin.m_scale[:, None, None] * lin.ev.DppH).reshape(N, d * d)
    return np.concatenate([lin.ev.DpH.T.ravel(), lin.density_coupling,
                           hess.T.ravel(), lin.W.T.ravel()])


def reference_jacobian_entries(lin):
    """The Jacobian's entries {(row, column): value}, each summed by a loop.

    Each contribution is weight * c_k[p], with c from
    `reference_jacobian_coefficients` and the weights read off the dense
    matrices of the grid operators.  An entry sums its contributions from
    +0.0 in (coefficient field k, point p) order and then adds its
    I - lap weight, or 0.0 where it has none.
    """
    grid = lin.grid
    N, d = grid.npoints, grid.d
    c = reference_jacobian_coefficients(lin).reshape(-1, N)
    hess, transport = d + 1, d * d + d + 1  # first DppH and W fields
    eye = np.eye(N)
    grads = [np.stack([grid.gradient(e)[:, ax] for e in eye], axis=1) for ax in range(d)]
    base = eye - np.stack([grid.laplacian(e) for e in eye], axis=1)
    terms = {}

    def add(row, col, k, p, weight):
        terms.setdefault((row, col), []).append((k, p, weight))

    for x in range(N):
        add(x, N + x, d, x, 1.0)                                    # density coupling
        for i, gi in enumerate(grads):
            for y in np.flatnonzero(gi[x]):
                add(x, y, i, x, gi[x, y])                           # DpH . grad
                add(N + x, N + y, transport + i, y, -gi[x, y])      # -div(W .)
                for j, gj in enumerate(grads):                      # -div(m^(1-a) DppH grad .)
                    for z in np.flatnonzero(gj[y]):
                        add(N + x, z, hess + i * d + j, y, -(gi[x, y] * gj[y, z]))
    for x, y in zip(*np.nonzero(base)):
        terms.setdefault((x, y), [])
        terms.setdefault((N + x, N + y), [])
    entries = {}
    for (row, col), contributions in terms.items():
        total = 0.0
        for k, p, weight in sorted(contributions, key=lambda t: t[:2]):
            total += weight * c[k, p]
        const = base[row % N, col % N] if (row < N) == (col < N) else 0.0
        entries[row, col] = total + const
    return entries


def reference_bilinear_form(lin, v, f):
    """B[w, w] with k.g and g.DppH g contracted by einsum."""
    g = lin.grid.gradient(v)
    transport = np.einsum("ki,ki->k", lin.ev.DpH - lin.W, g)
    diffusion = np.einsum("ki,kij,kj->k", g, lin.ev.DppH, g)
    return lin.grid.integrate(lin.density_coupling * f * f + f * transport
                              - lin.m_scale * diffusion)


def assert_same_bits(actual, expected):
    """Equal shapes and equal float64 bit patterns (so 0.0 != -0.0)."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))
