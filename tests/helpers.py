"""Shared construction helpers for the test suite."""

import numpy as np

from mfglab import MFGModels, TorusGrid, coefficient_field


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


def two_dimensional_models(grid: TorusGrid) -> MFGModels:
    """Problem data that varies along both axes (2D grids):

    a = 1 + 0.3 sin(2 pi x1) cos(2 pi x2) + 0.15 sin(2 pi (x1 + 2 x2)),
    b = 0.5 cos(2 pi x1) + 0.4 sin(2 pi x2) + 0.25 cos(2 pi (x1 - x2)).
    """
    x1, x2 = 2 * np.pi * grid.coords().T
    a = 1 + 0.3 * np.sin(x1) * np.cos(x2) + 0.15 * np.sin(x1 + 2 * x2)
    b = 0.5 * np.cos(x1) + 0.4 * np.sin(x2) + 0.25 * np.cos(x1 - x2)
    return MFGModels(grid, 1.0, 1.25, a, b)


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
