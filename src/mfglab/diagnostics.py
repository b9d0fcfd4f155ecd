"""A priori estimate evaluation and certification for computed states.

Every quantity a solution of the continuous system must satisfy is
re-evaluated here as a numerical certificate: unit mass, the energy
identity

    int m^(1+alpha) [H(x,Q) - DpH(x,Q).Q] dx
        = int [ m^alpha H(x,Q) + (1-m) V(x,m) ] dx,    Q = Du / m^alpha,

weighted gradient norms int |Du|^gamma m^beta dx, the density-power
Sobolev pair, the entropy pair, inverse moments of m, and sup norms.

Derivatives are taken with the fourth-order stencil (grid.gradient4),
not the solver's second-order one.  This is deliberate: the solver's
divergence is the exact adjoint of its gradient, so evaluating the
energy identity with the solver's own operators reproduces it to
solver tolerance by pure summation-by-parts algebra.  An independent
derivative makes the identity residual measure the state's fidelity to
the continuous structure instead, which decays at second order in h on
converged solution sequences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import pointwise_dot
from .system import MFGModels, MFGState


@dataclass
class DiagnosticsReport:
    """All estimate values and identity residuals for one state."""

    mass: float
    min_u: float
    max_u: float
    l1_u: float
    energy_identity_lhs: float
    energy_identity_rhs: float
    energy_identity_residual: float
    weighted_gradient_norms: tuple  # ((beta, int |Du|^gamma m^beta), ...)
    sobolev_m: tuple                # (int m^(1+alpha), int |D m^((1+alpha)/2)|^2)
    entropy: tuple                  # (int m log m, int |D m^(1/2)|^2)
    inverse_moments: tuple          # ((r, ||1/m||_{L^r}), ...)
    sup_norms: dict                 # keys: u, du, m, inv_m, dm
    delta_exponent: float           # 2 alpha_bar / (2 - gamma)
    alpha_bar: float                # (gamma - 1) alpha
    surrogate_high_norm: tuple      # (p, ||m||_{L^p}); stands in for the
    #                                 Sobolev-conjugate norm, undefined for d <= 2


def mass_check(state: MFGState) -> float:
    """Total mass int m dx; callers certify |mass - 1| < 1e-10."""
    return state.grid.integrate(state.m)


def energy_identity(state: MFGState, models: MFGModels,
                    Du: np.ndarray | None = None):
    """Both sides of the energy identity and their absolute gap.

    Meaningful near a solution of the state's lam-system; the residual
    is the certificate value.  `Du`, if given, is the caller's
    `grid.gradient4(state.u)`; it is read, not modified.
    """
    if np.min(state.m) <= 0.0:
        raise ValueError("density must be strictly positive on the grid")
    grid = state.grid
    ma = state.m**models.alpha
    Q = grid.gradient4(state.u) if Du is None else Du.copy()
    for i in range(grid.d):
        Q[:, i] /= ma
    ev = models.hamiltonian(Q, state.lam)
    V, _ = models.potential(state.m, state.lam)
    q_dot = pointwise_dot(Q, ev.DpH)
    lhs = grid.integrate(state.m * ma * (ev.H - q_dot))
    rhs = grid.integrate(ma * ev.H + (1.0 - state.m) * V)
    return lhs, rhs, abs(lhs - rhs)


# orders r of the reported inverse moments ||1/m||_{L^r}
INVERSE_MOMENT_ORDERS = (2.0, 4.0, 8.0)
# exponent p of the ||m||_{L^p} that stands in for the Sobolev-conjugate norm
SURROGATE_P = 16.0


def estimate_suite(state: MFGState, models: MFGModels) -> DiagnosticsReport:
    """Evaluate every reported estimate quantity on the state."""
    grid = state.grid
    u, m = state.u, state.m
    Du = grid.gradient4(u)
    lhs, rhs, resid = energy_identity(state, models, Du)  # checks m > 0
    alpha, gamma = models.alpha, models.gamma
    alpha_bar = (gamma - 1.0) * alpha
    delta = 2.0 * alpha_bar / (2.0 - gamma)

    du_mag = np.sqrt(pointwise_dot(Du, Du))
    Dm = grid.gradient4(m)
    dm_mag = np.sqrt(pointwise_dot(Dm, Dm))

    weighted = tuple(
        (float(beta), grid.integrate(du_mag**gamma * m**beta))
        for beta in (-alpha_bar, 0.0, 1.0 - alpha_bar))

    # gradients of the pointwise-powered field, not chain rule on Dm
    g_sob = grid.gradient4(m ** (0.5 * (1.0 + alpha)))
    sobolev = (grid.integrate(m ** (1.0 + alpha)),
               grid.integrate(pointwise_dot(g_sob, g_sob)))
    g_ent = grid.gradient4(np.sqrt(m))
    entropy = (grid.integrate(m * np.log(m)),
               grid.integrate(pointwise_dot(g_ent, g_ent)))

    inv_m = 1.0 / m
    inverse = tuple((float(r), grid.lp_norm(inv_m, r))
                    for r in INVERSE_MOMENT_ORDERS)

    sup_norms = {
        "u": grid.lp_norm(u, math.inf),
        "du": float(np.max(du_mag)),
        "m": grid.lp_norm(m, math.inf),
        "inv_m": grid.lp_norm(inv_m, math.inf),
        "dm": float(np.max(dm_mag)),
    }

    return DiagnosticsReport(
        mass=mass_check(state),
        min_u=float(np.min(u)),
        max_u=float(np.max(u)),
        l1_u=grid.integrate(np.abs(u)),
        energy_identity_lhs=lhs,
        energy_identity_rhs=rhs,
        energy_identity_residual=resid,
        weighted_gradient_norms=weighted,
        sobolev_m=sobolev,
        entropy=entropy,
        inverse_moments=inverse,
        sup_norms=sup_norms,
        delta_exponent=delta,
        alpha_bar=alpha_bar,
        surrogate_high_norm=(float(SURROGATE_P), grid.lp_norm(m, SURROGATE_P)),
    )


MASS_TOL = 1e-10
ENERGY_TOL = 1e-3     # calibrated at n = 128
MIN_DENSITY = 1e-3
BFORM_TOL = 1e-10


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float


def _leaves(obj) -> list:
    """Every scalar in a nest of dicts, lists and tuples."""
    if isinstance(obj, dict):
        obj = tuple(obj.values())
    if not isinstance(obj, (list, tuple)):
        return [obj]
    return [leaf for item in obj for leaf in _leaves(item)]


def certify(report: DiagnosticsReport,
            bform_max: float | None = None) -> list[Verdict]:
    """Per-quantity pass/fail verdicts for a diagnostics report.

    Sharp properties are thresholded by the module constants: mass
    (MASS_TOL), energy identity (ENERGY_TOL), positivity floor
    (MIN_DENSITY), and finiteness of every number in the report.  The
    remaining estimate magnitudes are reported by the suite but carry no
    thresholds, since the continuous bounds are existential.  A spot
    check that the bilinear form is nonpositive (BFORM_TOL) is attached
    when its maximum over sampled perturbations is provided.
    """
    verdicts = [
        Verdict("mass_normalized", abs(report.mass - 1.0) <= MASS_TOL,
                abs(report.mass - 1.0), MASS_TOL),
        Verdict("energy_identity",
                report.energy_identity_residual <= ENERGY_TOL,
                report.energy_identity_residual, ENERGY_TOL),
    ]
    finite = all(math.isfinite(v) for v in _leaves(asdict(report)))
    verdicts.append(Verdict("all_finite", finite, float(not finite), 0.0))
    min_density = 1.0 / report.sup_norms["inv_m"]
    verdicts.append(Verdict("density_bounded_below", min_density >= MIN_DENSITY,
                            min_density, MIN_DENSITY))
    if bform_max is not None:
        verdicts.append(Verdict("monotonicity_form", bform_max <= BFORM_TOL,
                                bform_max, BFORM_TOL))
    return verdicts
