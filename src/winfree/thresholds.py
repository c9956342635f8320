"""Closed-form coupling thresholds, probability bounds, and condition checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model
from .errors import CriterionInapplicableError, DomainError
from .model import InteractionSpec, SystemConfig

CONDITION_TOL = 1e-9  # numeric allowance for grid margins that are exactly zero


@dataclass(frozen=True)
class CriterionReport:
    satisfied: bool
    lhs: float
    rhs: float
    margin: float
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class BoundParams:
    """Parameters consumed by probability_bound; set only what the kind needs."""

    epsilon: Optional[float] = None
    delta: Optional[float] = None
    T: Optional[float] = None
    C_mu: Optional[float] = None
    beta: Optional[float] = None
    R_star: Optional[float] = None
    I_star: Optional[float] = None
    t_level: Optional[float] = None
    kappa: Optional[float] = None
    omega_max: Optional[float] = None
    sup_I: Optional[float] = None


def kc_coefficient(r0: float) -> float:
    """Coupling coefficient K_c(R0) of the sharp sinusoidal threshold."""
    if not 0.0 < r0 <= 2.0:
        raise DomainError(f"R0 must lie in (0, 2], got {r0}")
    if r0 <= 1.0:
        return 2.0 / r0**1.5
    return 2.0 * (2.0 - r0) + (4.0 / (3.0 * math.sqrt(3.0))) * (r0 - 1.0)


def sinusoidal_threshold(r0: float, mu: float, omega_max: float) -> float:
    """Coupling threshold omega_max / ((R0-mu) * sqrt(mu*(2-mu)))."""
    if not 0.0 < mu < min(r0, 1.0):
        raise DomainError(f"need 0 < mu < min(R0, 1): mu={mu}, R0={r0}")
    return omega_max / ((r0 - mu) * math.sqrt(mu * (2.0 - mu)))


def general_threshold(spec: InteractionSpec, r0: float, omega_max: float) -> float:
    """Pathwise coupling threshold from the shape conditions (c1)-(c3)."""
    if r0 <= 0.0:
        raise DomainError("R0 must be positive")
    pq = spec.p / spec.q
    branch1 = 2.0 * (2.0 * spec.c2) ** pq / (spec.c1 * spec.c3) * omega_max / r0 ** (1.0 + pq)
    branch2 = 2.0 / (spec.c1 * spec.c3 * (np.pi - spec.alpha0) ** spec.p) * omega_max / r0
    return max(branch1, branch2)


def _golden_min(f, a: float, b: float, tol: float = 1e-11) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_extremum(f, minimize: bool, points: int = 4096) -> float:
    """Extremum of a periodic scalar function over [-pi, pi] via scan + refine."""
    grid = np.linspace(-np.pi, np.pi, points)
    vals = f(grid)
    idx = int(np.argmin(vals) if minimize else np.argmax(vals))
    a = grid[max(idx - 1, 0)]
    b = grid[min(idx + 1, points - 1)]
    g = (lambda x: float(f(np.array([x]))[0])) if minimize else (
        lambda x: -float(f(np.array([x]))[0])
    )
    _, v = _golden_min(g, a, b)
    return v if minimize else -v


def toy_thresholds(
    spec: InteractionSpec, config: SystemConfig, subset: Sequence[int]
) -> tuple[float, Optional[float]]:
    """Elementary death thresholds for the subpopulation indexed by subset.

    Returns (kappa_verytrivial, kappa_trivial); the second is None unless
    min I > 0 over the circle.
    """
    subset = list(subset)
    if not subset:
        raise DomainError("subset must be non-empty")
    omega_b = float(np.max(np.abs(config.omega[subset])))
    min_is = _grid_extremum(lambda th: model.influence(spec, th) * model.sensitivity(spec, th), True)
    max_is = _grid_extremum(lambda th: model.influence(spec, th) * model.sensitivity(spec, th), False)
    min_s = _grid_extremum(lambda th: model.sensitivity(spec, th), True)
    max_s = _grid_extremum(lambda th: model.sensitivity(spec, th), False)
    if min_s >= 0.0 or max_s <= 0.0:
        raise CriterionInapplicableError("sensitivity S must change sign")
    denom_vt = min(-min_is, max_is)
    if denom_vt <= 0.0:
        raise CriterionInapplicableError("I*S must take both signs")
    kappa_vt = config.n * omega_b / denom_vt
    min_i = _grid_extremum(lambda th: model.influence(spec, th), True)
    kappa_tr = None
    if min_i > 0.0:
        kappa_tr = omega_b / (min_i * min(-min_s, max_s))
    return kappa_vt, kappa_tr


def check_partial_death_criterion(
    config: SystemConfig,
    spec: InteractionSpec,
    initial,
    a_set: Sequence[int],
    b_set: Sequence[int],
    rho: float,
) -> CriterionReport:
    """Sufficient criterion for the subpopulation B to exhibit death.

    A indexes the oscillators whose initial influence seeds the bound; all
    sub-criteria must hold with positive margin.
    """
    a_set, b_set = set(a_set), set(b_set)
    if not a_set <= b_set:
        raise DomainError("A must be a subset of B")
    if not b_set <= set(range(config.n)):
        raise DomainError("B must index oscillators 0..N-1")
    if not 0.0 < rho <= spec.sup_I:
        raise DomainError(f"need 0 < rho <= sup I = {spec.sup_I}")
    theta0 = model._phases(initial)
    a_idx = sorted(a_set)
    omega_b = float(np.max(np.abs(config.omega[sorted(b_set)])))
    kappa = config.kappa
    n = config.n
    margins = []
    lines = []
    if spec.family == "sinusoidal":
        m1 = kappa - omega_b / rho
        margins.append(("coupling vs omega_B/rho", kappa, omega_b / rho, m1))
        if kappa * rho > omega_b:
            s = math.sqrt(1.0 - (omega_b / (kappa * rho)) ** 2)
        else:
            s = 0.0
        lhs2 = float(np.sum(1.0 + np.cos(theta0[a_idx])) / n)
        rhs2 = 2.0 * rho / (1.0 + s)
        margins.append(("initial influence of A", lhs2, rhs2, lhs2 - rhs2))
        lhs3 = float(np.min(np.cos(theta0[a_idx])))
        margins.append(("initial phases of A in range", lhs3, -s, lhs3 + s))
    else:
        lhs1 = float(np.sum(model.influence(spec, theta0[a_idx])) / n)
        rhs1 = rho / spec.c3
        margins.append(("initial influence of A", lhs1, rhs1, lhs1 - rhs1))
        rhs2 = omega_b / (rho * spec.c1 * (np.pi - spec.alpha0) ** spec.p)
        margins.append(("coupling vs omega_B bound", kappa, rhs2, kappa - rhs2))
        if kappa * rho > 0:
            half_width = np.pi - (omega_b / (kappa * rho * spec.c1)) ** (1.0 / spec.p)
        else:
            half_width = 0.0
        lhs3 = float(half_width - np.max(np.abs(model.wrap_to_pi(theta0[a_idx]))))
        margins.append(("initial phases of A in range", lhs3, 0.0, lhs3))
    worst = min(margins, key=lambda m: m[3])
    for name, lhs, rhs, mg in margins:
        lines.append(f"{name}: lhs={lhs:.6g} rhs={rhs:.6g} margin={mg:.6g}")
    return CriterionReport(
        satisfied=all(m[3] > 0 for m in margins),
        lhs=worst[1],
        rhs=worst[2],
        margin=worst[3],
        detail="; ".join(lines),
    )


def limit_R_lower_bound(omega_max: float, kappa: float) -> float:
    """Asymptotic order-parameter floor sqrt(1/2 + sqrt(1/4 - omega_max^2/kappa^2))."""
    if kappa <= 2.0 * omega_max:
        raise DomainError("requires kappa > 2*omega_max")
    return math.sqrt(0.5 + math.sqrt(0.25 - (omega_max / kappa) ** 2))


def _crossover_time(n: int, q: float, a: float, b: float) -> float:
    """Time T0 at which the two phases of _two_phase_failure hand over.

    With x = sqrt(q) * exp(-a) and lx = N log x,
    T0 = (lx + log((1 + 2/N) - (2/N) exp(-lx))) / b.
    """
    lx = n * (0.5 * math.log(q) - a)
    return (lx + math.log((1.0 + 2.0 / n) - (2.0 / n) * math.exp(-lx))) / b


def _two_phase_failure(n: int, q: float, a: float, b: float, t: float) -> float:
    """Failure measure shared by the finite-time death and escape bounds.

    q is the reciprocal square of the head's per-oscillator base, a the
    tail's per-oscillator exponent and b the decay rate.  Up to the crossover
    time T0:
    q^(-N/2) / (N/2 + 1) * (1 - exp(-b t)) + exp(-N a - b t);
    after it: (q * (1 + b (t - T0) / N))^(-N/2).
    """
    t0 = _crossover_time(n, q, a, b)
    if t <= t0:
        return q ** (-n / 2.0) / (n / 2.0 + 1.0) * (1.0 - math.exp(-b * t)) + math.exp(-n * a - b * t)
    return (q * (1.0 + b * (t - t0) / n)) ** (-n / 2.0)


def _sincos_time_params(n: int, kappa: float, epsilon: float) -> tuple[float, float, float]:
    """(q, a, b) of the finite-time sinusoidal death bound."""
    return 20.0 / (np.pi * np.e * epsilon), epsilon**2 / 25.0, kappa * n * epsilon * (5.0 - epsilon) / 25.0


def sincos_death_time(n: int, kappa: float, epsilon: float) -> float:
    """Crossover time T0 of the finite-time sinusoidal death bound."""
    if n < 2:
        raise DomainError("requires N >= 2")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must lie in (0, 1]")
    if kappa <= 0.0:
        raise DomainError("kappa must be positive")
    return _crossover_time(n, *_sincos_time_params(n, kappa, epsilon))


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _escape_measure_bound(n: int, kappa: float, delta: float, t_horizon: float) -> float:
    """Upper bound on the measure of initial data keeping R < 1-delta up to T."""
    pi_e = np.pi * np.e
    if delta < 0.25:
        return _two_phase_failure(n, 4.0 / (pi_e * delta), delta**2, kappa * n * delta * (1.0 - delta), t_horizon)
    if delta < 0.5:
        return _two_phase_failure(n, 16.0 / pi_e, delta**2, 3.0 * kappa * n / 16.0, t_horizon)
    if delta < 0.75:
        base = math.exp(2.0 * delta**2) + 4.0 * kappa * delta * t_horizon / pi_e
        return base ** (-n / 2.0)
    base = 4.0 / (pi_e * (1.0 - delta)) + 4.0 * kappa * delta * t_horizon / pi_e
    return base ** (-n / 2.0)


def probability_bound(
    kind: str, n: int, params: BoundParams, spec: Optional[InteractionSpec] = None
) -> float:
    """Evaluate a closed-form probability (or measure) bound.

    Kinds: SincosMain, SincosTime, OrderParamCDF, GeneralMaincor, KappaLarge,
    QuantIS (all success probabilities, lower bounds), and EscapeMeasure (an
    upper bound on the exceptional measure).  Values are clamped to [0, 1].
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    if kind == "SincosMain":
        eps = params.epsilon
        if eps is None or not 0.0 < eps <= 1.0:
            raise DomainError("SincosMain requires epsilon in (0, 1]")
        prob = 1.0 - math.exp(-(eps**2) * n / 25.0)
        if params.kappa is not None and params.omega_max is not None and params.kappa > 0:
            tail_base = math.sqrt(np.pi * np.e / 2.0) * (params.omega_max / params.kappa) ** (1.0 / 3.0)
            if tail_base < 1.0:
                prob = max(prob, 1.0 - tail_base**n)
        return _clamp01(prob)
    if kind == "SincosTime":
        eps, kappa, t_h = params.epsilon, params.kappa, params.T
        if n < 2:
            raise DomainError("SincosTime requires N >= 2")
        if eps is None or not 0.0 < eps <= 1.0:
            raise DomainError("SincosTime requires epsilon in (0, 1]")
        if kappa is None or kappa <= 0 or t_h is None or t_h < 0:
            raise DomainError("SincosTime requires kappa > 0 and T >= 0")
        return _clamp01(1.0 - _two_phase_failure(n, *_sincos_time_params(n, kappa, eps), t_h))
    if kind == "OrderParamCDF":
        t = params.t_level
        if t is None or not 0.0 < t < 1.0:
            raise DomainError("OrderParamCDF requires t_level in (0, 1)")
        return _clamp01(
            min(math.exp(-((1.0 - t) ** 2) * n), (math.sqrt(np.pi * np.e * t) / 2.0) ** n)
        )
    if kind == "GeneralMaincor":
        if params.R_star is None or params.R_star <= 0:
            raise DomainError("GeneralMaincor requires R_star > 0")
        sup_i = params.sup_I if params.sup_I is not None else (spec.sup_I if spec else None)
        if sup_i is None or sup_i <= 0:
            raise DomainError("GeneralMaincor requires sup_I > 0")
        return _clamp01(1.0 - math.exp(-(params.R_star**2) * n / (2.0 * sup_i**2)))
    if kind == "KappaLarge":
        if spec is None:
            raise DomainError("KappaLarge requires an interaction spec")
        if params.C_mu is None or params.C_mu <= 0 or params.beta is None or params.beta <= 0:
            raise DomainError("KappaLarge requires C_mu > 0 and beta > 0")
        if params.kappa is None or params.kappa <= 0 or params.omega_max is None:
            raise DomainError("KappaLarge requires kappa > 0 and omega_max")
        pq = spec.p / spec.q
        ratio = params.omega_max / params.kappa
        m1 = (2.0 / (spec.c1 * spec.c3) * ratio) ** (1.0 / (1.0 + pq)) * (2.0 * spec.c2) ** (
            pq / (1.0 + pq)
        )
        m2 = 2.0 / (spec.c1 * spec.c3 * (np.pi - spec.alpha0) ** spec.p) * ratio
        inner = max(m1, m2)
        # log of C_mu^N * (e/beta)^(beta*N) * inner^(beta*N)
        log_fail = n * math.log(params.C_mu) + params.beta * n * (
            1.0 - math.log(params.beta) + (math.log(inner) if inner > 0 else -math.inf)
        )
        fail = math.exp(log_fail) if log_fail < 0 else math.inf
        return _clamp01(1.0 - fail) if math.isfinite(fail) else 0.0
    if kind == "QuantIS":
        if spec is None:
            raise DomainError("QuantIS requires an interaction spec")
        delta = params.delta if params.delta is not None else 0.0
        if params.kappa is None or params.kappa <= 0 or params.T is None or params.T < 0:
            raise DomainError("QuantIS requires kappa > 0 and T >= 0")
        i_star = params.I_star if params.I_star is not None else spec.I_star
        sup_i = params.sup_I if params.sup_I is not None else spec.sup_I
        r = spec.r_exp
        head = math.exp(r * i_star**2 / (2.0 * sup_i**2))
        coef = spec.c4 * spec.c5 * np.pi**r * r ** (r - 1.0) / (
            math.gamma(1.0 / r) ** r * (1.0 + r / n)
        )
        base = head + coef * params.kappa * n * (i_star - delta) * params.T
        return _clamp01(1.0 - base ** (-n / r))
    if kind == "EscapeMeasure":
        if params.delta is None or not 0.0 < params.delta < 1.0:
            raise DomainError("EscapeMeasure requires delta in (0, 1)")
        if n < 2:
            raise DomainError("EscapeMeasure requires N >= 2")
        if params.kappa is None or params.kappa <= 0 or params.T is None or params.T < 0:
            raise DomainError("EscapeMeasure requires kappa > 0 and T >= 0")
        return _clamp01(_escape_measure_bound(n, params.kappa, params.delta, params.T))
    raise DomainError(f"unknown bound kind: {kind}")


def verify_interaction_conditions(spec: InteractionSpec, grid_size: int) -> list[CriterionReport]:
    """Grid verification of the structural conditions (c1)-(c7).

    Reports carry the worst-case margin; satisfied means margin >= -1e-9
    (several default constants are sharp, with margin exactly 0).
    """
    if grid_size < 64:
        raise DomainError("grid_size must be >= 64")
    th = np.linspace(-np.pi, np.pi, grid_size)
    i_vals = np.asarray(model.influence(spec, th), dtype=float)
    s_vals = np.asarray(model.sensitivity(spec, th), dtype=float)
    ip_vals = np.asarray(model.influence_deriv(spec, th), dtype=float)
    sp_vals = np.asarray(model.sensitivity_deriv(spec, th), dtype=float)
    reports = []

    right = th >= spec.alpha0
    left = th <= -spec.alpha0
    m_right = np.min(-s_vals[right] - spec.c1 * (np.pi - th[right]) ** spec.p)
    m_left = np.min(s_vals[left] - spec.c1 * (th[left] + np.pi) ** spec.p)
    margin = float(min(m_right, m_left))
    reports.append(
        CriterionReport(margin >= -CONDITION_TOL, margin, 0.0, margin,
                        "c1: sensitivity decay near +-pi")
    )

    env = spec.c2 * (np.pi - np.abs(th)) ** spec.q
    margin = float(min(np.min(env - i_vals), np.min(i_vals)))
    reports.append(
        CriterionReport(margin >= -CONDITION_TOL, margin, 0.0, margin,
                        "c2: influence envelope and nonnegativity")
    )

    order = np.argsort(np.abs(th), kind="stable")
    abs_sorted = np.abs(th)[order]
    win_min = np.minimum.accumulate(i_vals[order])
    radii = np.maximum(np.abs(th), spec.alpha0)
    pos = np.clip(np.searchsorted(abs_sorted, radii, side="right") - 1, 0, grid_size - 1)
    margin = float(np.min(win_min[pos] - spec.c3 * i_vals))
    reports.append(
        CriterionReport(margin >= -CONDITION_TOL, margin, 0.0, margin,
                        "c3: windowed influence minimum")
    )

    margin = float(np.min(sp_vals - spec.c4 * (spec.I_star - i_vals)))
    reports.append(
        CriterionReport(margin >= -CONDITION_TOL, margin, 0.0, margin,
                        "c4: sensitivity slope vs influence gap")
    )

    margin = float(np.min(ip_vals * s_vals))
    reports.append(
        CriterionReport(margin >= -CONDITION_TOL, margin, 0.0, margin,
                        "c5: monotone coupling sign I'*S >= 0")
    )

    interior = np.abs(th) < np.pi - 1e-9
    margin = float(np.min(i_vals[interior]))
    reports.append(
        CriterionReport(margin > 0.0, margin, 0.0, margin,
                        "c6: influence positive on the open interval")
    )

    margin = float(np.min(i_vals - spec.c5 * (np.pi - np.abs(th)) ** spec.r_exp))
    reports.append(
        CriterionReport(margin >= -CONDITION_TOL, margin, 0.0, margin,
                        "c7: influence lower envelope")
    )
    return reports


def appendix_mu(r0):
    """The mu(R0) schedule used by the sharp-coefficient inequality."""
    r0 = np.asarray(r0, dtype=float)
    return (3.0 + r0 - np.sqrt(r0**2 - 2.0 * r0 + 9.0)) / 4.0


def appendix_inequality_check(grid) -> tuple[float, float]:
    """Minimum of K_c(R0)^2 * rho^2 * mu*(2-mu) - 1 over the grid, with argmin."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid > 2.0):
        raise DomainError("grid values must lie in (0, 2]")
    mu = appendix_mu(grid)
    rho = grid - mu
    kc = np.where(
        grid <= 1.0,
        2.0 / grid**1.5,
        2.0 * (2.0 - grid) + (4.0 / (3.0 * np.sqrt(3.0))) * (grid - 1.0),
    )
    margins = kc**2 * rho**2 * mu * (2.0 - mu) - 1.0
    idx = int(np.argmin(margins))
    return float(margins[idx]), float(grid[idx])
