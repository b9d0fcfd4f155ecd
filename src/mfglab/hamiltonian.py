"""Hamiltonian and potential models for the congestion system.

One evaluator, `blend_eval(p, a, gamma, lam)`, covers the three
Hamiltonian kinds: lam = 1 is ``example``, lam = 0 is ``power`` and
0 < lam < 1 is a ``blend``.

- ``example``: the convex dual of the movement cost
  L(x,v) = a(x) (1 + |v|^2)^(gamma'/2), with gamma in (1,2),
  1/gamma + 1/gamma' = 1 and a(x) > 0.  There is no closed form for
  H(x,p); the optimal speed s = |v| solves the scalar monotone equation

      gamma' a s (1 + s^2)^(gamma'/2 - 1) = |p|,

  after which

      v    = -s p/|p|,
      H    = a ((gamma'-1) s^2 - 1) (1 + s^2)^(gamma'/2 - 1),
      DpH  = -v,
      DppH = (D^2_vv L)^{-1}
           = 1/c * (I - (gamma'-2) v v^T / (1 + (gamma'-1) s^2)),
      c    = gamma' a (1 + s^2)^(gamma'/2 - 1),

  where the Hessian inverse is the closed-form rank-one-update inverse
  of D^2_vv L = c (I + (gamma'-2) v v^T / (1 + s^2)).

- ``power``: the homotopy base H(p) = (1 + |p|^2)^(gamma/2) with the
  analytic gradient and Hessian.

- ``blend``: the convex combination
  H_lam = lam * example + (1 - lam) * power, component by component.

The potential blends V(x,m) = b(x) - arctan(m) against a pure arctan(m)
leg: V_lam = lam * V + (1 - lam) * arctan(m).  At lam = 1 it is the
paper's V, which decreases in m; the lam < 1 leg only starts the
homotopy.

Momenta come as (N, d) arrays.  No per-point code broadcasts over a
length-d axis or calls einsum: numpy would then run its inner loops d
or d^2 elements at a time.  Each component DpH[:, i] or DppH[:, i, j]
is computed from length-N vectors instead, in the operation order of
the formulas above, and |p| is the square root of the sum of squares
(`grid.pointwise_dot`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, pointwise_dot, pointwise_form

_EPS = np.finfo(float).eps


def conjugate_exponent(gamma: float) -> float:
    """gamma' with 1/gamma + 1/gamma' = 1; maps (1,2) onto (2,inf)."""
    return gamma / (gamma - 1.0)


# -- optimal-speed inversion -------------------------------------------

SPEED_TOL = 1e-12     # absolute residual of the speed equation
SPEED_MAX_ITER = 200  # safeguarded Newton steps before giving up
SPEED_SQUARE_MAX = 1e154  # s * s stays finite for speeds up to this


def _overflow_safe(s, plain, scaled):
    """plain(s), or scaled(s, 1 / s) where s > SPEED_SQUARE_MAX.

    `scaled` is the same function written in powers of s and of
    1 + s^-2, so it stays finite where s * s would overflow although the
    value does not; every other speed keeps the bits of `plain`.
    """
    if s.max() <= SPEED_SQUARE_MAX:
        return plain(s)
    big = s > SPEED_SQUARE_MAX
    high = np.where(big, s, 1.0)
    return np.where(big, scaled(high, 1.0 / high), plain(np.where(big, 1.0, s)))


def _speed_map(s, a, gp):
    """gamma' a s (1 + s^2)^(gamma'/2 - 1)."""
    return _overflow_safe(
        s, lambda s: gp * a * s * (1.0 + s * s) ** (0.5 * gp - 1.0),
        lambda s, r: gp * a * s ** (gp - 1.0) * (1.0 + r * r) ** (0.5 * gp - 1.0))


def _speed_map_deriv(s, a, gp):
    """gamma' a (1 + s^2)^(gamma'/2 - 2) (1 + (gamma' - 1) s^2)."""
    return _overflow_safe(
        s, lambda s: (gp * a * (1.0 + s * s) ** (0.5 * gp - 2.0)
                      * (1.0 + (gp - 1.0) * s * s)),
        lambda s, r: (gp * a * s ** (gp - 2.0) * (1.0 + r * r) ** (0.5 * gp - 2.0)
                      * (gp - 1.0 + r * r)))


def _speed_start(p, a, gp):
    """Newton start min(x, x^(1/(gp-1))), x = p / (gp a): at or above the root."""
    x = p / (gp * a)
    return np.minimum(x, x ** (1.0 / (gp - 1.0)))


# a bracket lo < hi of adjacent floats has hi - lo <= _EPS * hi where hi
# is normal, so lo >= hi * _CLOSE_FACTOR holds after rounding too
_CLOSE_FACTOR = 1.0 - 4.0 * _EPS
_TINY = np.finfo(float).tiny  # least normal float


def _bracket_may_be_closed(lo, hi):
    """Indices where nextafter(lo, hi) >= hi may hold, and a few more.

    For hi > 0 the test holds where lo >= hi or where hi is the float
    after lo; then lo >= hi * _CLOSE_FACTOR or hi <= _TINY, so the
    indices returned are a superset of those where it holds.  No
    subnormal constant enters the arithmetic, where it would take the
    processor's slow path on every element.
    """
    return np.flatnonzero((lo >= hi * _CLOSE_FACTOR) | (hi <= _TINY))


def solve_optimal_speed(p_mag, a, gamma_prime: float):
    """Invert gamma' a s (1+s^2)^(gamma'/2-1) = |p| for the speed s >= 0.

    The map is strictly increasing in s, so the root is unique.
    Safeguarded Newton with a bisection bracket, started from

        s0 = min(x, x^(1/(gamma'-1))),    x = |p| / (gamma' a).

    Since gamma' > 2, the factor (1 + s^2)^(gamma'/2-1) is at least 1
    and at least s^(gamma'-2), so the map is at least gamma' a s and at
    least gamma' a s^(gamma'-1); both candidates, and so s0, map to at
    least |p| and lie at or above the root.  Newton from above descends
    monotonically on this increasing convex map.  For x >= 1, s0 is the
    large-|p| guess x^(1/(gamma'-1)); for small |p| it is x, which is
    within a relative O(x^2) of the root.

    A point is accepted when its residual is within SPEED_TOL (with a
    relative floor for very large momenta), or, where no float meets
    that (a steep map near its root), when the Newton correction no
    longer changes s or the bracket has closed to adjacent floats.
    Accepts scalars or arrays.
    """
    p = np.asarray(p_mag, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    av = np.broadcast_to(np.asarray(a, dtype=float), p.shape)
    if not np.all(np.isfinite(p)):
        raise ValueError("momentum magnitude must be finite")
    if np.any(p < 0.0):
        raise ValueError("momentum magnitude must be nonnegative")
    if np.any(av <= 0.0):
        raise ValueError("cost coefficient a must be positive")
    if gamma_prime <= 2.0:
        raise ValueError("conjugate exponent must exceed 2")
    gp = float(gamma_prime)

    s = _speed_start(p, av, gp)
    lo = np.zeros_like(p)
    # map(s) / s does not decrease and s0 maps to at least |p| (to
    # rounding), so 2 s0 maps above |p| and brackets the root
    hi = np.maximum(2.0 * s, 1.0)

    # absolute tolerance with a relative floor for very large momenta
    tol_arr = np.maximum(SPEED_TOL, 8.0 * _EPS * p)
    done = np.zeros(p.shape, dtype=bool)
    for _ in range(SPEED_MAX_ITER):
        g = _speed_map(s, av, gp) - p
        done |= np.abs(g) <= tol_arr
        if done.all():
            break
        # lo and hi are this loop's own arrays: moved in place
        active = ~done
        below = (g < 0.0) & active
        if below.any():
            np.copyto(lo, s, where=below)
        above = (g > 0.0) & active
        if above.any():
            np.copyto(hi, s, where=above)
        trial = s - g / _speed_map_deriv(s, av, gp)
        # below the float resolution no step can move s any more
        done |= trial == s
        closed = _bracket_may_be_closed(lo, hi)
        if closed.size:
            done[closed] |= np.nextafter(lo[closed], hi[closed]) >= hi[closed]
        outside = (trial <= lo) | (trial >= hi)
        if outside.any():
            trial = np.where(outside, 0.5 * (lo + hi), trial)
        s = np.where(done, s, trial)
    else:
        raise RuntimeError("optimal-speed iteration failed to converge "
                           "(malformed Hamiltonian model)")
    return float(s[0]) if scalar else s


# -- evaluation bundles ------------------------------------------------


@dataclass
class HamiltonianEval:
    """Pointwise H, DpH and DppH; the optimal velocity is v = -DpH, and at
    lam = 1 the optimal speed is solve_optimal_speed(|p|, a, gamma')."""

    H: np.ndarray        # (N,)
    DpH: np.ndarray      # (N, d)
    DppH: np.ndarray     # (N, d, d)


def _promote(p):
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        return p[None, :], True
    if p.ndim != 2:
        raise ValueError("momentum must have shape (d,) or (N, d)")
    return p, False


def _squeeze(ev: HamiltonianEval, single: bool) -> HamiltonianEval:
    if single:
        return HamiltonianEval(ev.H[0], ev.DpH[0], ev.DppH[0])
    return ev


def example_eval(p, a, gamma: float) -> HamiltonianEval:
    """Evaluate the congestion-cost dual Hamiltonian at momenta p; DpH = s p/|p|."""
    p2, single = _promote(p)
    n, d = p2.shape
    gp = conjugate_exponent(gamma)
    av = np.broadcast_to(np.asarray(a, dtype=float), (n,))

    p_mag = np.sqrt(pointwise_dot(p2, p2))
    s = np.atleast_1d(solve_optimal_speed(p_mag, av, gp))
    still = np.flatnonzero(p_mag == 0.0)  # there phat = 0 and s = 0

    s2 = s * s
    w = (1.0 + s2) ** (0.5 * gp - 1.0)
    H = av * ((gp - 1.0) * s2 - 1.0) * w
    DpH = np.empty((n, d))
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(d):
            phat = p2[:, i] / p_mag
            phat[still] = 0.0
            DpH[:, i] = s * phat

    c = gp * av * w
    # DppH = (I - (gamma' - 2) v v^T / den) / c, v = -DpH
    den = 1.0 + (gp - 1.0) * s2
    DppH = np.empty((n, d, d))
    for i in range(d):
        for j in range(i + 1):
            vv = DpH[:, i] * DpH[:, j]
            DppH[:, i, j] = DppH[:, j, i] = (float(i == j) - (gp - 2.0) * vv / den) / c
    return _squeeze(HamiltonianEval(H, DpH, DppH), single)


def example_lagrangian(v, a, gamma: float):
    """Movement cost L(x,v) = a (1 + |v|^2)^(gamma'/2)."""
    v2, single = _promote(v)
    gp = conjugate_exponent(gamma)
    av = np.broadcast_to(np.asarray(a, dtype=float), (v2.shape[0],))
    L = av * (1.0 + pointwise_dot(v2, v2)) ** (0.5 * gp)
    return float(L[0]) if single else L


def power_eval(p, gamma: float) -> HamiltonianEval:
    """Evaluate the homotopy base H(p) = (1 + |p|^2)^(gamma/2)."""
    p2, single = _promote(p)
    n, d = p2.shape
    q = pointwise_dot(p2, p2)
    w = (1.0 + q) ** (0.5 * gamma - 1.0)
    H = (1.0 + q) ** (0.5 * gamma)
    gw = gamma * w
    DpH = np.empty((n, d))
    for i in range(d):
        DpH[:, i] = gw * p2[:, i]
    # DppH = gamma w I + gamma (gamma - 2) (1 + q)^(gamma/2 - 2) p p^T
    curve = gamma * (gamma - 2.0) * (1.0 + q) ** (0.5 * gamma - 2.0)
    DppH = np.empty((n, d, d))
    for i in range(d):
        for j in range(i + 1):
            pp = curve * (p2[:, i] * p2[:, j])
            # the identity's zero off the diagonal turns -0.0 into 0.0
            DppH[:, i, j] = DppH[:, j, i] = gw + pp if i == j else 0.0 + pp
    return _squeeze(HamiltonianEval(H, DpH, DppH), single)


def blend_eval(p, a, gamma: float, lam: float) -> HamiltonianEval:
    """Convex combination lam * example + (1-lam) * power, per component."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"blend weight must lie in [0,1], got {lam}")
    if lam == 1.0:
        return example_eval(p, a, gamma)
    if lam == 0.0:
        return power_eval(p, gamma)
    ex = example_eval(p, a, gamma)
    pw = power_eval(p, gamma)
    H = lam * ex.H + (1.0 - lam) * pw.H
    DpH = lam * ex.DpH + (1.0 - lam) * pw.DpH
    DppH = lam * ex.DppH + (1.0 - lam) * pw.DppH
    return HamiltonianEval(H, DpH, DppH)


def potential_eval(m, b, lam: float):
    """V_lam(x,m) and its m-derivative.

    V_lam = lam (b(x) - arctan m) + (1 - lam) arctan m, m > 0.
    """
    mv = np.asarray(m, dtype=float)
    if np.any(mv <= 0.0):
        raise ValueError("density must be positive")
    bv = np.asarray(b, dtype=float)
    at = np.arctan(mv)
    V = lam * (bv - at) + (1.0 - lam) * at
    # the two legs' derivatives summed: 1 - 2 lam can round differently
    DmV = (-lam + (1.0 - lam)) / (1.0 + mv * mv)
    return V, DmV


# -- coefficient-field presets ------------------------------------------


# named fields, each an alias of the inline form it equals bit for bit
_PRESETS = {"one": "fourier:1", "sin_bump": "fourier:1,0.5",
            "cos_bump": "fourier:0,0,0.5"}


def coefficient_field(grid: TorusGrid, descriptor: str) -> np.ndarray:
    """Build an inline-Fourier coefficient field on the grid.

    ``fourier:c0,s1,c1[,s2,c2,...]`` means
    c0 + sum_k [ s_k sin(2 pi k x1) + c_k cos(2 pi k x1) ].  The presets
    are aliases: ``one`` is ``fourier:1`` (1), ``sin_bump`` is
    ``fourier:1,0.5`` (1 + 0.5 sin(2 pi x1)) and ``cos_bump`` is
    ``fourier:0,0,0.5`` (0.5 cos(2 pi x1)).
    """
    descriptor = _PRESETS.get(descriptor, descriptor)
    if not descriptor.startswith("fourier:"):
        raise ValueError(f"unknown coefficient field descriptor {descriptor!r}")
    try:
        coeffs = [float(tok) for tok in descriptor[len("fourier:"):].split(",")]
    except ValueError as exc:
        raise ValueError(f"bad Fourier coefficient list in {descriptor!r}") from exc
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"non-finite Fourier coefficient in {descriptor!r}")
    x1 = grid.axis()
    line = np.full(grid.n, coeffs[0])
    pairs = coeffs[1:]
    for k in range(0, len(pairs), 2):
        mode = k // 2 + 1
        line += pairs[k] * np.sin(2.0 * np.pi * mode * x1)
        if k + 1 < len(pairs):
            line += pairs[k + 1] * np.cos(2.0 * np.pi * mode * x1)
    # every field depends on x1 alone, which row-major order holds fixed
    # over each run of n^(d-1) consecutive points
    return np.repeat(line, grid.npoints // grid.n)


# -- parameter admissibility --------------------------------------------


@dataclass(frozen=True)
class Condition:
    name: str
    statement: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class AdmissibilityReport:
    gamma: float
    alpha: float
    d: int
    conditions: tuple[Condition, ...]

    @property
    def admissible(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    def violated(self) -> list[Condition]:
        return [c for c in self.conditions if not c.satisfied]


def _inverse_moment_bound(gamma: float) -> float:
    """Right end of inverse_moment_range: alpha < (2 - gamma)/(2 (gamma - 1))."""
    return (2.0 - gamma) / (2.0 * (gamma - 1.0)) if gamma > 1.0 else float("inf")


def admissible_alpha_max(gamma: float) -> float:
    """Supremum of the admissible congestion exponents alpha at gamma, d <= 2.

    For d <= 2 the dimension and interpolation conditions hold for every
    alpha > 0, and gamma_alpha_coupling, gamma < 1 + 1/(1 + 2 alpha), is
    inverse_moment_range rearranged.  With alpha_range, 0 < alpha < 2, the
    admissible alpha at 1 < gamma < 2 form the open interval
    (0, admissible_alpha_max(gamma)).
    """
    return min(2.0, _inverse_moment_bound(gamma))


def check_parameter_admissibility(gamma: float, alpha: float, d: int) -> AdmissibilityReport:
    """Evaluate every (gamma, alpha, d) inequality with its margin.

    Margins are positive when satisfied; the overall verdict is the
    conjunction.  The second-order interpolation condition is vacuous
    for d <= 2 and reported with infinite margin there.
    """
    conds = []

    m = min(gamma - 1.0, 2.0 - gamma)
    conds.append(Condition("gamma_subquadratic", "1 < gamma < 2", m > 0.0, m))

    m = min(alpha, 2.0 - alpha)
    conds.append(Condition("alpha_range", "0 < alpha < 2", m > 0.0, m))

    if alpha > 0.0:
        m = 4.0 + 2.0 / alpha - d
    else:
        m = float("inf") if d < 4 else float(4 - d)
    conds.append(Condition("dimension_bound", "d < 4 + 2/alpha", m > 0.0, m))

    m = 1.0 + 1.0 / (1.0 + 2.0 * alpha) - gamma if alpha > -0.5 else float("nan")
    conds.append(Condition(
        "gamma_alpha_coupling", "gamma < 1 + 1/(1 + 2 alpha)", m > 0.0, m))

    m = _inverse_moment_bound(gamma) - alpha
    conds.append(Condition(
        "inverse_moment_range", "alpha < (2 - gamma)/(2 (gamma - 1))", m > 0.0, m))

    if d <= 2:
        conds.append(Condition(
            "second_order_interpolation",
            "2 (alpha+1) / ((gamma-1) alpha (d-2)) > 1 (vacuous for d <= 2)",
            True, float("inf")))
    else:
        val = 2.0 * (alpha + 1.0) / ((gamma - 1.0) * alpha * (d - 2.0))
        conds.append(Condition(
            "second_order_interpolation",
            "2 (alpha+1) / ((gamma-1) alpha (d-2)) > 1",
            val > 1.0, val - 1.0))

    return AdmissibilityReport(gamma, alpha, d, tuple(conds))


# -- structural assumption audit -----------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    statement: str
    passed: bool
    constants: dict


@dataclass(frozen=True)
class AssumptionAudit:
    checks: tuple[AssumptionCheck, ...]
    alpha_tilde_inf: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fit_lower_linear(lhs: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """Largest c on a sweep with moderate C such that lhs >= c*h - C."""
    budget = 10.0 * (1.0 + float(np.median(np.abs(h))))
    best = (0.0, float(np.max(-lhs, initial=0.0)))
    for c in np.linspace(0.05, 2.0, 40):
        need = max(0.0, float(np.max(c * h - lhs)))
        if need <= budget:
            best = (float(c), need)
    return best


# momenta p = r e_1 of the sample box: AUDIT_RADII radii in [0, AUDIT_RADIUS]
AUDIT_RADIUS = 50.0
AUDIT_RADII = 48
AUDIT_MAX_X_SAMPLES = 64  # coefficient values a(x) sampled at most


def audit_assumptions(gamma: float, a, alpha: float, d: int) -> AssumptionAudit:
    """Sample-box audit of the structural conditions on the example
    Hamiltonian H_1, the one that `solve` solves.

    Checks, over momenta p = r e_1 with r in [0, AUDIT_RADIUS] and the
    sampled values of the coefficient a(x):

    - H(x,0) <= 0;
    - DpH.p - H >= c H - C with (c, C) fitted by a least-violation sweep;
    - gamma-growth: H / |p|^gamma stays positive with bounded spread at
      large |p| (fitted c, enclosing C reported);
    - |DpH| <= C (|p|^(gamma-1) + 1), with the log-log growth slope at
      large |p| fitted and compared to gamma - 1;
    - DppH > 0 together with the pointwise congestion margin
      DpH.p - H - (alpha/4) p.DppH.p > 0.  The admissible-exponent
      field alpha_tilde = 4 (1/(gamma' s^2) + 1/gamma) is reported with
      its infimum over the sample box.

    Verdicts for the fitted inequalities mean "holds with the fitted
    constants on this sample box", not absolute proofs.  Failures are
    reported, never raised.
    """
    a_all = np.atleast_1d(np.asarray(a, dtype=float)).ravel()
    stride = max(1, a_all.size // AUDIT_MAX_X_SAMPLES)
    a_samples = np.unique(a_all[::stride])

    def evaluate(a_vals, r_vals):
        aa, rr = [x.ravel() for x in np.meshgrid(a_vals, r_vals, indexing="ij")]
        P = np.zeros((rr.size, d))
        P[:, 0] = rr
        return example_eval(P, aa, gamma), P, rr, aa

    # box samples carry the envelope constants and pointwise margins;
    # growth exponents are fitted on a far ladder where the asymptotic
    # power law has set in
    ev, P, rr, aa = evaluate(a_samples, np.linspace(0.0, AUDIT_RADIUS, AUDIT_RADII))
    a_far = np.asarray([np.min(a_samples), np.median(a_samples), np.max(a_samples)])
    r_far = np.geomspace(50.0 * AUDIT_RADIUS, 5000.0 * AUDIT_RADIUS, 12)
    ev_far, _, rr_far, _ = evaluate(a_far, r_far)

    p_dot = pointwise_dot(ev.DpH, P)
    lhs = p_dot - ev.H
    checks = []

    # H at zero momentum
    at_zero = rr == 0.0
    worst = float(np.max(ev.H[at_zero]))
    checks.append(AssumptionCheck(
        "zero_momentum_sign", "H(x,0) <= 0", worst <= 0.0,
        {"max_H_at_zero": worst}))

    # action bounds energy from below
    c_fit, c_need = _fit_lower_linear(lhs, ev.H)
    checks.append(AssumptionCheck(
        "action_controls_energy", "DpH.p - H >= c H - C", c_fit > 0.0,
        {"c": c_fit, "C": c_need}))

    # gamma growth envelope
    ratio = ev_far.H / rr_far**gamma
    if np.all(ratio > 0.0):
        c_geo = float(np.exp(np.mean(np.log(ratio))))
        spread = float(np.max(ratio) / np.min(ratio))
        env = float(np.max(np.abs(ev.H - c_geo * rr**gamma)))
        ok = spread <= 10.0
    else:
        c_geo, spread, env, ok = 0.0, float("inf"), float("inf"), False
    checks.append(AssumptionCheck(
        "gamma_growth", "c |p|^gamma - C <= H <= c |p|^gamma + C", ok,
        {"c": c_geo, "C": env, "spread": spread}))

    # gradient growth
    dp_mag = np.sqrt(pointwise_dot(ev.DpH, ev.DpH))
    c_grad = float(np.max(dp_mag / (1.0 + rr ** (gamma - 1.0))))
    dp_far = np.sqrt(pointwise_dot(ev_far.DpH, ev_far.DpH))
    pos = dp_far > 0.0
    slope = float(np.polyfit(np.log(rr_far[pos]), np.log(dp_far[pos]), 1)[0])
    checks.append(AssumptionCheck(
        "gradient_growth", "|DpH| <= C (|p|^(gamma-1) + 1)",
        slope <= gamma - 1.0 + 0.05, {"C": c_grad, "growth_slope": slope}))

    # Hessian positivity and congestion margin
    eigs = np.linalg.eigvalsh(np.atleast_3d(ev.DppH).reshape(-1, d, d))
    min_eig = float(np.min(eigs))
    quad = pointwise_form(P, ev.DppH)
    margin = lhs - 0.25 * alpha * quad
    min_margin = float(np.min(margin))
    gp = conjugate_exponent(gamma)
    # the speed itself: |DpH| differs from it in the last bits
    s2 = solve_optimal_speed(rr, aa, gp)**2
    with np.errstate(divide="ignore"):
        alpha_tilde = 4.0 * (1.0 / (gp * s2) + 1.0 / gamma)
    alpha_tilde_inf = float(np.min(alpha_tilde))
    checks.append(AssumptionCheck(
        "hessian_and_congestion_margin",
        "DppH > 0 and DpH.p - H > (alpha/4) p.DppH.p",
        min_eig > 0.0 and min_margin > 0.0,
        {"min_eig_DppH": min_eig, "min_margin": min_margin,
         "alpha_tilde_inf": alpha_tilde_inf}))

    return AssumptionAudit(tuple(checks), alpha_tilde_inf)
