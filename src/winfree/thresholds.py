"""Closed-form coupling thresholds, probability bounds, and condition checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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


def kc_coefficient(r0) -> float | np.ndarray:
    """Coupling coefficient K_c(R0) of the sharp sinusoidal threshold; elementwise for an array R0."""
    r = np.asarray(r0, dtype=float)
    if not np.all((0.0 < r) & (r <= 2.0)):
        raise DomainError(f"R0 must lie in (0, 2], got {r0}")
    kc = np.where(r <= 1.0, 2.0 / r**1.5, 2.0 * (2.0 - r) + (4.0 / (3.0 * np.sqrt(3.0))) * (r - 1.0))
    return float(kc) if kc.ndim == 0 else kc


def _trapping_rate(r0: float, mu: float) -> float:
    """(R0-mu) * sqrt(mu*(2-mu)), for 0 < mu < min(R0, 1)."""
    if not 0.0 < mu < min(r0, 1.0):
        raise DomainError(f"need 0 < mu < min(R0, 1): mu={mu}, R0={r0}")
    return (r0 - mu) * math.sqrt(mu * (2.0 - mu))


def sinusoidal_threshold(r0: float, mu: float, omega_max: float) -> float:
    """Coupling threshold omega_max / ((R0-mu) * sqrt(mu*(2-mu)))."""
    return omega_max / _trapping_rate(r0, mu)


def general_threshold(spec: InteractionSpec, r0: float, omega_max: float) -> float:
    """Pathwise coupling threshold from the shape conditions (c1)-(c3)."""
    if r0 <= 0.0:
        raise DomainError("R0 must be positive")
    pq = spec.p / spec.q
    branch1 = 2.0 * (2.0 * spec.c2) ** pq / (spec.c1 * spec.c3) * omega_max / r0 ** (1.0 + pq)
    branch2 = 2.0 / (spec.c1 * spec.c3 * (np.pi - spec.alpha0) ** spec.p) * omega_max / r0
    return max(branch1, branch2)


def _golden_min(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b], to a bracket width of 1e-11."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-11:
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


# Halvings per _bisect_walk subtree round (7 rows at depth 3).  Its one user is
# estimate_pathwise_critical_coupling, whose first batch holds the end points
# and the midpoints of the first _WALK_DEPTH halvings; later rounds follow a
# predicted path, and a subtree round runs only where no prediction lies
# inside the bracket.  On 20 seeded kappa-pc systems (N = 5, horizon 20,
# stride 0.5, tol 1e-9; 2-vCPU x86-64 VM) the median call took 8 batches at
# depth 2, 6 at depth 3 and 5 at depth 4, with the same output.  Depth 4
# integrates 27% more rows, and it was 3% and 18% faster in two runs, no
# more than the runs' own spread.
_WALK_DEPTH = 3


def _subtree(a: float, b: float, levels: int) -> tuple[list[float], list[tuple[int, int]]]:
    """Midpoints that `levels` halvings of [a, b] can reach, in level order; each one's (lower, upper) child."""
    points: list[float] = []
    spans = [(a, b)]
    for _ in range(levels):
        mids = [0.5 * (lo + hi) for lo, hi in spans]
        points += mids
        spans = [half for (lo, hi), mid in zip(spans, mids) for half in ((lo, mid), (mid, hi))]
    return points, [(2 * i + 1, 2 * i + 2) for i in range(len(points))]


def _path(a: float, b: float, target: float, steps: int,
          done: Callable[[float, float], bool]) -> tuple[list[float], list[tuple[int, int]]]:
    """Midpoints that halving [a, b] toward target visits, until done(a, b) or `steps`; each one's children.

    A midpoint's child on target's side is the next midpoint; the other is
    -1, which ends the round.
    """
    points: list[float] = []
    children: list[tuple[int, int]] = []
    while len(points) < steps:
        mid = 0.5 * (a + b)
        points.append(mid)
        if target > mid:
            a = mid
            children.append((-1, len(points)))
        else:
            b = mid
            children.append((len(points), -1))
        if done(a, b):
            break
    return points, children


def _bisect_walk(above: Callable[[list[float]], Sequence[bool]], a: float, b: float, steps: int,
                 done: Callable[[float, float], bool] = lambda a, b: False,
                 guess: Optional[Callable[[float, float], Optional[float]]] = None) -> tuple[float, float]:
    """Bisection of [a, b] that tests the midpoints of several halvings per round as one batch.

    above(points) says for each point whether the sought value lies above it
    (a moves up to it) or not (b moves down to it).  Without a guess, a
    round lists the midpoints that its _WALK_DEPTH halvings can reach, in
    level order (_subtree).  With guess(a, b), a point of [a, b] predicted
    to lie next to the sought value, a round lists the midpoints that
    halving takes toward that point until done or `steps` (_path), and it
    ends at the first verdict that leaves them; the next round asks guess
    again inside the narrowed bracket.  A guess of None (no prediction)
    makes that round a _subtree round.  Either way a round makes one above()
    call and walks down its points by their verdicts, so the bracket is
    bitwise that of halving one midpoint at a time.  Stops after `steps`
    halvings or once done(a, b) holds after one, which can be mid-round.
    """
    taken = 0
    while taken < steps:
        target = None if guess is None else guess(a, b)
        if target is None:
            points, children = _subtree(a, b, min(_WALK_DEPTH, steps - taken))
        else:
            points, children = _path(a, b, target, steps - taken, done)
        verdict = above(points)
        i = 0
        while 0 <= i < len(points):
            if verdict[i]:
                a = points[i]
            else:
                b = points[i]
            i = children[i][verdict[i]]
            taken += 1
            if done(a, b):
                return a, b
    return a, b


def _grid_extrema(f) -> tuple[float, float]:
    """(min, max) of a periodic scalar function over [-pi, pi].

    One 4096-point grid scan, then a golden-section refinement around its argmin and argmax.
    """
    grid = np.linspace(-np.pi, np.pi, 4096)
    vals = f(grid)
    extrema = []
    for idx, sign in ((int(np.argmin(vals)), 1.0), (int(np.argmax(vals)), -1.0)):
        a, b = grid[max(idx - 1, 0)], grid[min(idx + 1, len(grid) - 1)]
        _, v = _golden_min(lambda x: sign * float(f(np.array([x]))[0]), a, b)
        extrema.append(sign * v)
    return extrema[0], extrema[1]


def _index_set(name: str, indices, n: int) -> list[int]:
    """The sorted distinct entries of indices; DomainError unless they are integers in 0..n-1, at least one."""
    indices = list(indices)
    valid = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n for i in indices)
    if not indices or not valid:
        raise DomainError(f"{name} must be a non-empty set of oscillator indices 0..{n - 1}, got {indices}")
    return sorted(set(int(i) for i in indices))


def toy_thresholds(
    spec: InteractionSpec, config: SystemConfig, subset: Sequence[int]
) -> tuple[float, Optional[float]]:
    """Elementary death thresholds for the subpopulation indexed by subset.

    Returns (kappa_verytrivial, kappa_trivial); the second is None unless
    min I > 0 over the circle.
    """
    subset = _index_set("subset", subset, config.n)
    omega_b = float(np.max(np.abs(config.omega[subset])))
    min_is, max_is = _grid_extrema(lambda th: model.influence(spec, th) * model.sensitivity(spec, th))
    min_s, max_s = _grid_extrema(lambda th: model.sensitivity(spec, th))
    if min_s >= 0.0 or max_s <= 0.0:
        raise CriterionInapplicableError("sensitivity S must change sign")
    denom_vt = min(-min_is, max_is)
    if denom_vt <= 0.0:
        raise CriterionInapplicableError("I*S must take both signs")
    kappa_vt = config.n * omega_b / denom_vt
    min_i, _ = _grid_extrema(lambda th: model.influence(spec, th))
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
    a_idx, b_idx = _index_set("A", a_set, config.n), _index_set("B", b_set, config.n)
    if not set(a_idx) <= set(b_idx):
        raise DomainError("A must be a subset of B")
    if not 0.0 < rho <= spec.sup_I:
        raise DomainError(f"need 0 < rho <= sup I = {spec.sup_I}")
    theta0 = model._finite_phases(initial, config.n)
    omega_b = float(np.max(np.abs(config.omega[b_idx])))
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
    T0 = (lx + log((1 + 2/N) - (2/N) exp(-lx))) / b.  A decay rate b that
    underflows to 0 (kappa * N * epsilon or delta below ~1e-308) has no T0.
    """
    _reject_if(b == 0.0, "decay rate underflows to 0: kappa * N * (epsilon or delta) is too small")
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


def _reject_if(bad: bool, message: str) -> None:
    if bad:
        raise DomainError(message)


def _check_sincos_time(what: str, n: int, epsilon, kappa) -> None:
    """Domain of the finite-time sinusoidal death bound: N >= 2, epsilon in (0, 1], kappa > 0."""
    _reject_if(n < 2, f"{what} requires N >= 2")
    _reject_if(epsilon is None or not 0.0 < epsilon <= 1.0, f"{what} requires epsilon in (0, 1]")
    _reject_if(kappa is None or kappa <= 0.0, f"{what} requires kappa > 0")


def _check_horizon(what: str, kappa, t_horizon) -> None:
    """Domain shared by the finite-horizon bounds: kappa > 0 and T >= 0."""
    _reject_if(kappa is None or kappa <= 0 or t_horizon is None or t_horizon < 0,
               f"{what} requires kappa > 0 and T >= 0")


def sincos_death_time(n: int, kappa: float, epsilon: float) -> float:
    """Crossover time T0 of the finite-time sinusoidal death bound."""
    _check_sincos_time("sincos_death_time", n, epsilon, kappa)
    return _crossover_time(n, *_sincos_time_params(n, kappa, epsilon))


def _sincos_main(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    _reject_if(p.epsilon is None or not 0.0 < p.epsilon <= 1.0, "SincosMain requires epsilon in (0, 1]")
    _reject_if(p.omega_max is not None and p.omega_max < 0, "SincosMain requires omega_max >= 0")
    prob = 1.0 - math.exp(-(p.epsilon**2) * n / 25.0)
    if p.kappa is not None and p.omega_max is not None and p.kappa > 0:
        tail_base = math.sqrt(np.pi * np.e / 2.0) * (p.omega_max / p.kappa) ** (1.0 / 3.0)
        if tail_base < 1.0:
            prob = max(prob, 1.0 - tail_base**n)
    return prob


def _sincos_time(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    _check_sincos_time("SincosTime", n, p.epsilon, p.kappa)
    _check_horizon("SincosTime", p.kappa, p.T)
    return 1.0 - _two_phase_failure(n, *_sincos_time_params(n, p.kappa, p.epsilon), p.T)


def _order_param_cdf(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    t = p.t_level
    _reject_if(t is None or not 0.0 < t < 1.0, "OrderParamCDF requires t_level in (0, 1)")
    return min(math.exp(-((1.0 - t) ** 2) * n), (math.sqrt(np.pi * np.e * t) / 2.0) ** n)


def _general_maincor(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    _reject_if(p.R_star is None or p.R_star <= 0, "GeneralMaincor requires R_star > 0")
    sup_i = p.sup_I if p.sup_I is not None else (spec.sup_I if spec else None)
    _reject_if(sup_i is None or sup_i <= 0, "GeneralMaincor requires sup_I > 0")
    _reject_if(p.R_star > sup_i, "GeneralMaincor requires R_star <= sup_I")
    return 1.0 - math.exp(-((p.R_star / sup_i) ** 2) * n / 2.0)  # R_star / sup_I <= 1: no overflow


def _kappa_large(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    _reject_if(spec is None, "KappaLarge requires an interaction spec")
    _reject_if(p.C_mu is None or p.C_mu <= 0 or p.beta is None or p.beta <= 0,
               "KappaLarge requires C_mu > 0 and beta > 0")
    _reject_if(p.kappa is None or p.kappa <= 0 or p.omega_max is None or p.omega_max < 0,
               "KappaLarge requires kappa > 0 and omega_max >= 0")
    pq = spec.p / spec.q
    ratio = p.omega_max / p.kappa
    m1 = (2.0 / (spec.c1 * spec.c3) * ratio) ** (1.0 / (1.0 + pq)) * (2.0 * spec.c2) ** (pq / (1.0 + pq))
    m2 = 2.0 / (spec.c1 * spec.c3 * (np.pi - spec.alpha0) ** spec.p) * ratio
    inner = max(m1, m2)
    # log of C_mu^N * (e/beta)^(beta*N) * inner^(beta*N)
    log_fail = n * math.log(p.C_mu) + p.beta * n * (
        1.0 - math.log(p.beta) + (math.log(inner) if inner > 0 else -math.inf)
    )
    # a failure bound >= 1 guarantees nothing: 1 - inf clamps to 0
    return 1.0 - (math.exp(log_fail) if log_fail < 0 else math.inf)


def _quant_is(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    _reject_if(spec is None, "QuantIS requires an interaction spec")
    _check_horizon("QuantIS", p.kappa, p.T)
    delta = p.delta if p.delta is not None else 0.0
    i_star = p.I_star if p.I_star is not None else spec.I_star
    sup_i = p.sup_I if p.sup_I is not None else spec.sup_I
    _reject_if(not 0.0 <= delta < i_star, "QuantIS requires delta in [0, I_star)")
    _reject_if(not i_star <= sup_i, "QuantIS requires I_star <= sup_I")
    c45 = spec.c4 * spec.c5  # power_cosine's (2/pi^2)^n / n underflows to 0 from n = 463
    _reject_if(not c45 > 0.0, f"QuantIS requires c4 * c5 > 0, got c4 = {spec.c4:.3g}, c5 = {spec.c5:.3g}")
    r = spec.r_exp
    head = math.exp(r * (i_star / sup_i) ** 2 / 2.0)  # I_star / sup_I <= 1: no overflow
    # c4 c5 pi^r r^(r-1) / (Gamma(1/r)^r (1 + r/N)) in logarithms, with Gamma(1/r) = r Gamma(1 + 1/r);
    # the direct product overflows from r = 138 (power_cosine power 69) on
    coef = math.exp(math.log(c45) + r * math.log(math.pi) - math.log(r) - r * math.lgamma(1.0 + 1.0 / r)
                    - math.log1p(r / n))
    return 1.0 - (head + coef * p.kappa * n * (i_star - delta) * p.T) ** (-n / r)


def _escape_measure(n: int, p: BoundParams, spec: Optional[InteractionSpec]) -> float:
    """Measure of initial data keeping R < 1-delta up to T."""
    delta, kappa, t_h = p.delta, p.kappa, p.T
    _reject_if(delta is None or not 0.0 < delta < 1.0, "EscapeMeasure requires delta in (0, 1)")
    _reject_if(n < 2, "EscapeMeasure requires N >= 2")
    _check_horizon("EscapeMeasure", kappa, t_h)
    pi_e = np.pi * np.e
    if delta < 0.25:
        return _two_phase_failure(n, 4.0 / (pi_e * delta), delta**2, kappa * n * delta * (1.0 - delta), t_h)
    if delta < 0.5:
        return _two_phase_failure(n, 16.0 / pi_e, delta**2, 3.0 * kappa * n / 16.0, t_h)
    if delta < 0.75:
        return (math.exp(2.0 * delta**2) + 4.0 * kappa * delta * t_h / pi_e) ** (-n / 2.0)
    return (4.0 / (pi_e * (1.0 - delta)) + 4.0 * kappa * delta * t_h / pi_e) ** (-n / 2.0)


class Bound(NamedTuple):
    """One closed-form bound: its unclamped formula f(N, params, spec), its direction and its families."""

    formula: Callable[[int, BoundParams, Optional[InteractionSpec]], float]
    upper: bool  # True: the probability is at most the bound; False: at least
    families: tuple[str, ...]  # the keys of model.FAMILIES the formula holds for


_SINUSOIDAL, _EVERY_FAMILY = ("sinusoidal",), tuple(model.FAMILIES)
BOUNDS = {
    "SincosMain": Bound(_sincos_main, upper=False, families=_SINUSOIDAL),
    "SincosTime": Bound(_sincos_time, upper=False, families=_SINUSOIDAL),
    "OrderParamCDF": Bound(_order_param_cdf, upper=True, families=_SINUSOIDAL),
    "GeneralMaincor": Bound(_general_maincor, upper=False, families=_EVERY_FAMILY),
    "KappaLarge": Bound(_kappa_large, upper=False, families=_EVERY_FAMILY),
    "QuantIS": Bound(_quant_is, upper=False, families=_EVERY_FAMILY),
    "EscapeMeasure": Bound(_escape_measure, upper=True, families=_SINUSOIDAL),
}


def probability_bound(
    kind: str, n: int, params: BoundParams, spec: Optional[InteractionSpec] = None
) -> float:
    """Evaluate the closed-form probability (or measure) bound BOUNDS[kind], clamped to [0, 1].

    Upper bounds: OrderParamCDF (P(R0 <= t_level)) and EscapeMeasure (the
    measure of initial data keeping R < 1-delta up to T).  Lower bounds, on
    success probabilities: SincosMain, SincosTime, GeneralMaincor, KappaLarge
    and QuantIS.  A spec outside BOUNDS[kind].families raises DomainError;
    SincosMain, SincosTime, OrderParamCDF and EscapeMeasure hold for the
    sinusoidal family only and never read spec.
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    if kind not in BOUNDS:
        raise DomainError(f"unknown bound kind: {kind}")
    if spec is not None and spec.family not in BOUNDS[kind].families:
        raise DomainError(f"{kind} does not hold for the {spec.family} family")
    return min(1.0, max(0.0, BOUNDS[kind].formula(n, params, spec)))


def verify_interaction_conditions(spec: InteractionSpec, grid_size: int) -> list[CriterionReport]:
    """Grid verification of the structural conditions (c1)-(c7).

    Reports carry the worst-case margin; satisfied means margin >= -1e-9
    (several default constants are sharp, with margin exactly 0), except for
    c6, which needs margin > 0.
    """
    if grid_size < 64:
        raise DomainError("grid_size must be >= 64")
    th = np.linspace(-np.pi, np.pi, grid_size)
    i_vals = np.asarray(model.influence(spec, th), dtype=float)
    s_vals = np.asarray(model.sensitivity(spec, th), dtype=float)
    ip_vals = np.asarray(model.influence_deriv(spec, th), dtype=float)
    sp_vals = np.asarray(model.sensitivity_deriv(spec, th), dtype=float)
    right = th >= spec.alpha0
    left = th <= -spec.alpha0
    m_right = np.min(-s_vals[right] - spec.c1 * (np.pi - th[right]) ** spec.p)
    m_left = np.min(s_vals[left] - spec.c1 * (th[left] + np.pi) ** spec.p)

    order = np.argsort(np.abs(th), kind="stable")
    abs_sorted = np.abs(th)[order]
    win_min = np.minimum.accumulate(i_vals[order])
    radii = np.maximum(np.abs(th), spec.alpha0)
    pos = np.clip(np.searchsorted(abs_sorted, radii, side="right") - 1, 0, grid_size - 1)

    interior = np.abs(th) < np.pi - 1e-9
    env = spec.c2 * (np.pi - np.abs(th)) ** spec.q
    margins = [
        (min(m_right, m_left), "c1: sensitivity decay near +-pi"),
        (min(np.min(env - i_vals), np.min(i_vals)), "c2: influence envelope and nonnegativity"),
        (np.min(win_min[pos] - spec.c3 * i_vals), "c3: windowed influence minimum"),
        (np.min(sp_vals - spec.c4 * (spec.I_star - i_vals)), "c4: sensitivity slope vs influence gap"),
        (np.min(ip_vals * s_vals), "c5: monotone coupling sign I'*S >= 0"),
        (np.min(i_vals[interior]), "c6: influence positive on the open interval"),
        (np.min(i_vals - spec.c5 * (np.pi - np.abs(th)) ** spec.r_exp), "c7: influence lower envelope"),
    ]
    reports = []
    for margin, label in margins:
        margin = float(margin)
        # c6 asks for strict positivity, so it gets no tolerance
        satisfied = margin > 0.0 if label.startswith("c6") else margin >= -CONDITION_TOL
        reports.append(CriterionReport(satisfied, margin, 0.0, margin, label))
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
    margins = kc_coefficient(grid)**2 * rho**2 * mu * (2.0 - mu) - 1.0
    idx = int(np.argmin(margins))
    return float(margins[idx]), float(grid[idx])
