"""ODE integration, rotation numbers, death detection, and regime classification."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import model, thresholds
from .errors import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    IntegrationFailure,
    PreconditionError,
)
from .model import InteractionSpec, PhaseState, SystemConfig

# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

_MIN_STEP_FRACTION = 1e-14

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverOptions:
    """Integration method and output sampling control."""

    method: str  # "rk4_fixed" | "dormand_prince45"
    horizon: float
    sample_stride: float
    dt: float = 0.01
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_dt: float = 0.1

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "dormand_prince45"):
            raise ConfigurationError(f"unknown solver method: {self.method}")
        if self.horizon <= 0 or self.sample_stride <= 0:
            raise ConfigurationError("horizon and sample_stride must be positive")
        if self.sample_stride > self.horizon:
            raise ConfigurationError("sample_stride must not exceed horizon")
        if self.method == "rk4_fixed" and self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.method == "dormand_prince45" and (
            self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_dt <= 0
        ):
            raise ConfigurationError("tolerances and max_dt must be positive")

    @property
    def tolerance(self) -> float:
        """Order-of-magnitude local accuracy, used for verification slack."""
        if self.method == "rk4_fixed":
            return self.dt**4
        return max(self.abs_tol, self.rel_tol)


def rk4_options(dt: float, horizon: float, sample_stride: float) -> SolverOptions:
    return SolverOptions(method="rk4_fixed", horizon=horizon, sample_stride=sample_stride, dt=dt)


def dp45_options(
    horizon: float,
    sample_stride: float,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-9,
    max_dt: float = 0.1,
) -> SolverOptions:
    return SolverOptions(
        method="dormand_prince45",
        horizon=horizon,
        sample_stride=sample_stride,
        abs_tol=abs_tol,
        rel_tol=rel_tol,
        max_dt=max_dt,
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: unwrapped states and order-parameter series."""

    times: np.ndarray
    states: np.ndarray  # shape (samples, N), unwrapped phases
    r_series: np.ndarray
    accepted_steps: int
    rejected_steps: int
    solver_tol: float

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path) -> None:
        n = self.states.shape[1]
        header = "t," + ",".join(f"theta_{i + 1}" for i in range(n)) + ",R"
        data = np.column_stack([self.times, self.states, self.r_series])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")

    def to_json_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "r_series": self.r_series.tolist(),
            "accepted_steps": self.accepted_steps,
            "rejected_steps": self.rejected_steps,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)


@dataclass(frozen=True)
class RegimeReport:
    rho: np.ndarray
    regime: str
    death_flags: np.ndarray


def _sample_times(opts: SolverOptions) -> np.ndarray:
    n_strides = int(np.floor(opts.horizon / opts.sample_stride + 1e-9))
    times = opts.sample_stride * np.arange(n_strides + 1)
    if times[-1] < opts.horizon - 1e-12 * opts.horizon:
        times = np.append(times, opts.horizon)
    else:
        times[-1] = opts.horizon
    return times


def _integrate_rows(
    config: SystemConfig,
    spec: InteractionSpec,
    initial: np.ndarray,
    opts: SolverOptions,
    kappa=None,
    stop=None,
) -> list[tuple[Trajectory, Optional[str]]]:
    """The one step loop: integrate each row of initial, shape (B, N), on its own clock.

    Every row keeps its own t, step size, next sample time, step counters and
    failure, so its result does not depend on B: the stage sums are stacked
    matmuls (one gemv per row, as for a single state), means are per-row
    reductions, and step-size control is Python float arithmetic per row.
    kappa is None (config.kappa for every row) or one coupling per row.
    stop(times, thetas) -> one bool per row is evaluated on the rows that
    reach a sample time (and on every row at t=0); a row whose value is true
    ends there.  Rows that end are dropped from the arrays.  Returns, per row,
    its trajectory and its failure message (None when it reached the horizon
    or stopped).
    """
    theta = np.array(initial, dtype=float)
    b, n = theta.shape
    omega = config.omega
    kap = np.empty((b, 1))
    kap[:, 0] = config.kappa if kappa is None else kappa
    influence, sensitivity = model.FAMILIES[spec.family][:2]  # one RHS for every family

    def rhs(y, kap):
        r = np.add.reduce(influence(spec, y), axis=-1, keepdims=True) / n  # row means, bitwise np.mean's
        return omega + kap * r * sensitivity(spec, y)

    targets = _sample_times(opts).tolist()
    last = len(targets) - 1
    tol_t = 1e-12 * opts.horizon
    adaptive = opts.method == "dormand_prince45"
    min_h = _MIN_STEP_FRACTION * opts.horizon
    h_start = min(opts.max_dt, opts.sample_stride) if adaptive else opts.dt

    times = [[0.0] for _ in range(b)]
    states = [[row] for row in theta.copy()]
    accepted = [0] * b
    rejected = [0] * b
    failures: list[Optional[str]] = [None] * b
    # per active row, in array order
    rows = list(range(b))
    t = [0.0] * b
    h = [h_start] * b
    nxt = [1] * b  # index of the next sample time
    k1 = rhs(theta, kap)
    ended = [False] * b if stop is None else [bool(s) for s in stop(np.zeros(b), theta)]

    while True:
        if any(ended):
            keep = [i for i, e in enumerate(ended) if not e]
            theta, k1, kap = theta[keep], k1[keep], kap[keep]
            rows, t, h, nxt = ([lst[i] for i in keep] for lst in (rows, t, h, nxt))
        if not rows:
            break
        steps = [min(hi, targets[ni] - ti) for hi, ni, ti in zip(h, nxt, t)]
        step = np.array(steps)[:, None]
        if adaptive:
            ks = np.empty((len(rows), 7, n))
            ks[:, 0] = k1
            for i in range(1, 7):
                ks[:, i] = rhs(theta + step * (_DP_A[i] @ ks[:, :i]), kap)
            y5 = theta + step * (_DP_B5 @ ks)
            err_vec = step * (_DP_E @ ks)
            scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(theta), np.abs(y5))
            errs = np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=-1) / n).tolist()
            took = []
            for i, (s, err) in enumerate(zip(steps, errs)):
                row = rows[i]
                if err <= 1.0 or s <= min_h:
                    t[i] += s
                    took.append(i)
                    accepted[row] += 1
                else:
                    rejected[row] += 1
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-0.2)))
                h[i] = min(opts.max_dt, max(s * factor, min_h))
                if h[i] <= min_h and err > 1.0:
                    failures[row] = f"step size underflow at t={t[i]:.6g}"
            if len(took) == len(rows):
                theta, k1 = y5, ks[:, 6]  # first-same-as-last
            elif took:
                theta[took] = y5[took]
                k1[took] = ks[took, 6]
        else:
            k_1 = rhs(theta, kap)
            k_2 = rhs(theta + 0.5 * step * k_1, kap)
            k_3 = rhs(theta + 0.5 * step * k_2, kap)
            k_4 = rhs(theta + step * k_3, kap)
            theta = theta + (step / 6.0) * (k_1 + 2.0 * k_2 + 2.0 * k_3 + k_4)
            took = range(len(rows))
            for i, s in enumerate(steps):
                t[i] += s
                accepted[rows[i]] += 1
        finite = np.isfinite(theta).all(axis=1).tolist()
        ended = [False] * len(rows)
        for i, row in enumerate(rows):
            if failures[row] is None and not finite[i]:
                failures[row] = f"non-finite state at t={t[i]:.6g}"
            if failures[row] is not None:
                _log.debug("row %d: %s", row, failures[row])
                ended[i] = True
        due = [i for i in took if not ended[i] and not t[i] < targets[nxt[i]] - tol_t]
        while due:
            snap = theta[due]
            for i, state in zip(due, snap):
                times[rows[i]].append(targets[nxt[i]])
                states[rows[i]].append(state)
            stops = [False] * len(due)
            if stop is not None:
                stops = stop(np.array([targets[nxt[i]] for i in due]), snap)
            for i, stopped in zip(due, stops):
                nxt[i] += 1
                ended[i] = bool(stopped) or nxt[i] > last
            due = [i for i in due if not ended[i] and not t[i] < targets[nxt[i]] - tol_t]

    out = []
    for row in range(b):
        states_arr = np.vstack(states[row])
        traj = Trajectory(
            times=np.asarray(times[row]),
            states=states_arr,
            r_series=np.mean(influence(spec, states_arr), axis=1),
            accepted_steps=accepted[row],
            rejected_steps=rejected[row],
            solver_tol=opts.tolerance,
        )
        out.append((traj, failures[row]))
    return out


def simulate(
    config: SystemConfig,
    spec: InteractionSpec,
    initial,
    opts: SolverOptions,
    stop_condition: Optional[Callable[[float, np.ndarray], bool]] = None,
) -> Trajectory:
    """Integrate the Winfree system and record samples every sample_stride.

    The initial state is preserved exactly at t=0.  On step-size underflow an
    IntegrationFailure is raised carrying the partial trajectory.  An optional
    stop_condition(t, theta) is evaluated at each sample point; when it returns
    True the trajectory is truncated there.  This is the one-row case of the
    ensemble step loop that the Monte Carlo estimators run on blocks of samples.
    """
    theta = np.array(model._phases(initial), dtype=float)
    if theta.shape != (config.n,):
        raise ConfigurationError("initial state length must equal config.n")
    stop = None
    if stop_condition is not None:
        def stop(ts, ys):
            return [stop_condition(t, y) for t, y in zip(ts, ys)]
    traj, failure = _integrate_rows(config, spec, theta[None], opts, stop=stop)[0]
    if failure is not None:
        raise IntegrationFailure(failure, partial_trajectory=traj)
    return traj


def estimate_pathwise_critical_coupling(
    config: SystemConfig, spec: InteractionSpec, initial, opts: SolverOptions
) -> float:
    """Bisection estimate of the smallest coupling whose trajectory dies.

    Horizon-dependent by construction; bracketed above by the elementary
    threshold, 30 bisection iterations.  The end points run as one batch, and
    each round evaluates the 7 midpoints of the next 3 iterations as one batch
    before walking them, so the result is that of the one-at-a-time bisection.
    """
    upper, _ = thresholds.toy_thresholds(spec, config, list(range(config.n)))
    if upper == 0.0:
        return 0.0
    theta = np.array(model._phases(initial), dtype=float)
    if theta.shape != (config.n,):
        raise ConfigurationError("initial state length must equal config.n")

    def dies(kappas: list[float]) -> dict[float, bool]:
        runs = _integrate_rows(config, spec, np.tile(theta, (len(kappas), 1)), opts, kappa=kappas)
        return {
            kappa: failure is None and bool(np.all(detect_death(traj, 0.0)))
            for kappa, (traj, failure) in zip(kappas, runs)
        }

    def midpoints(lo: float, hi: float, depth: int) -> list[float]:
        if depth == 0:
            return []
        mid = 0.5 * (lo + hi)
        return [mid] + midpoints(lo, mid, depth - 1) + midpoints(mid, hi, depth - 1)

    ends = dies([0.0, upper])
    if ends[0.0]:
        return 0.0
    if not ends[upper]:
        return upper
    lo, hi = 0.0, upper
    for _ in range(10):
        verdict = dies(midpoints(lo, hi, 3))
        for _ in range(3):
            mid = 0.5 * (lo + hi)
            if verdict[mid]:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def rotation_numbers(traj: Trajectory) -> np.ndarray:
    """Second-half secant estimate (theta(T) - theta(T/2)) / (T/2)."""
    t_end = traj.times[-1]
    if t_end <= 0:
        raise InsufficientDataError("trajectory horizon must be positive")
    half = int(np.argmin(np.abs(traj.times - 0.5 * t_end)))
    if len(traj.times) - half < 2:
        raise InsufficientDataError("need at least 2 samples in the second half")
    span = t_end - traj.times[half]
    return (traj.states[-1] - traj.states[half]) / span


def detect_death(traj: Trajectory, window_start: float) -> np.ndarray:
    """Per-oscillator flag: max-min of the unwrapped phase < 2*pi on the window."""
    if window_start >= traj.times[-1]:
        raise InsufficientDataError("window_start must precede the trajectory end")
    mask = traj.times >= window_start
    if not np.any(mask):
        raise InsufficientDataError("empty detection window")
    window = traj.states[mask]
    return (window.max(axis=0) - window.min(axis=0)) < 2.0 * np.pi


def default_regime_tol(omega) -> float:
    omega = np.asarray(omega, dtype=float)
    return max(1e-3, 1e-2 * float(np.mean(np.abs(omega))))


def classify_regime(rho, death_flags, tol: float) -> str:
    """Classify rotation-number configuration.

    Priority: CompleteDeath > PartialDeath > CompleteLocking > PartialLocking
    > Incoherence.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.size == 0:
        raise DomainError("empty rotation-number vector")
    if tol <= 0:
        raise DomainError("tol must be positive")
    dead = np.abs(rho) < tol
    if np.all(dead):
        return "CompleteDeath"
    if np.any(dead):
        return "PartialDeath"
    if rho.max() - rho.min() < tol:
        return "CompleteLocking"
    srt = np.sort(rho)
    if rho.size >= 3 and np.any(np.diff(srt) < tol):
        return "PartialLocking"
    return "Incoherence"


def regime_report(
    traj: Trajectory,
    config: SystemConfig,
    window_start: Optional[float] = None,
    tol: Optional[float] = None,
) -> RegimeReport:
    if window_start is None:
        window_start = 0.0
    if tol is None:
        tol = default_regime_tol(config.omega)
    rho = rotation_numbers(traj)
    flags = detect_death(traj, window_start)
    return RegimeReport(rho=rho, regime=classify_regime(rho, flags, tol), death_flags=flags)


@dataclass(frozen=True)
class ConclusionReport:
    """Trajectory-level verification of the large-coupling convergence claims."""

    r_floor_ok: bool
    trapping_ok: bool
    entrance_ok: bool
    ordering_ok: bool
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.r_floor_ok and self.trapping_ok and self.entrance_ok and self.ordering_ok


def verify_theorem_conclusions(traj: Trajectory, config: SystemConfig, mu: float) -> ConclusionReport:
    """Check the three checkable conclusions of the sinusoidal convergence result.

    (a) R(t) >= R0 - mu at all samples; (c) the cos(theta_i) >= -1+mu band is
    forward-invariant and reaches cos >= 1-mu within the entrance time; (e) the
    frequency-ordered gap bounds with exponential envelopes, for co-trapped
    pairs, checked at sample times.  Slack is 10x the solver tolerance.
    """
    r0 = float(traj.r_series[0])
    omega_inf = config.omega_max
    kappa = config.kappa
    if not 0.0 < mu < min(r0, 1.0):
        raise PreconditionError(f"need 0 < mu < min(R0, 1): mu={mu}, R0={r0}")
    rate = (r0 - mu) * np.sqrt(mu * (2.0 - mu))
    threshold = omega_inf / rate
    if kappa <= threshold:
        raise PreconditionError(
            f"hypothesis kappa > omega_max/((R0-mu)*sqrt(mu*(2-mu))) fails: "
            f"kappa={kappa} <= {threshold}"
        )
    slack = 10.0 * traj.solver_tol
    times = traj.times
    cos_states = np.cos(traj.states)
    tau = np.pi / (kappa * rate - omega_inf)
    decay = kappa * (r0 - mu) * (1.0 - mu)

    r_floor_ok = bool(np.min(traj.r_series) >= r0 - mu - slack)

    trapping_ok = True
    entrance_ok = True
    first_trapped = np.full(config.n, -1, dtype=int)
    for i in range(config.n):
        hits = np.nonzero(cos_states[:, i] >= -1.0 + mu)[0]
        if hits.size == 0:
            continue
        k0 = int(hits[0])
        first_trapped[i] = k0
        if np.any(cos_states[k0:, i] < -1.0 + mu - slack):
            trapping_ok = False
        deadline = times[k0] + tau
        late = times >= deadline
        if np.any(cos_states[late, i] < 1.0 - mu - slack):
            entrance_ok = False

    ordering_ok = True
    pair_count = 0
    for i in range(config.n):
        for j in range(i + 1, config.n):
            if first_trapped[i] < 0 or first_trapped[j] < 0:
                continue
            hi, lo = (i, j) if config.omega[i] >= config.omega[j] else (j, i)
            d_omega = config.omega[hi] - config.omega[lo]
            k0 = max(first_trapped[i], first_trapped[j])
            t0 = times[k0]
            shift_hi = 2.0 * np.pi * np.round(traj.states[-1, hi] / (2.0 * np.pi))
            shift_lo = 2.0 * np.pi * np.round(traj.states[-1, lo] / (2.0 * np.pi))
            gap = (traj.states[:, hi] - shift_hi) - (traj.states[:, lo] - shift_lo)
            pair_count += 1
            late = times >= t0 + tau
            if d_omega < 1e-15:
                env = np.pi * np.exp(-decay * (times[late] - t0 - tau))
                if np.any(np.abs(gap[late]) > env + slack):
                    ordering_ok = False
                continue
            env_hi = d_omega / decay + np.pi * np.exp(-decay * (times[late] - t0 - tau))
            if np.any(gap[late] > env_hi + slack):
                ordering_ok = False
            t_low = t0 + tau + np.pi / d_omega
            very_late = times >= t_low
            env_lo = (d_omega / (2.0 * kappa)) * (1.0 - np.exp(-2.0 * kappa * (times[very_late] - t_low)))
            if np.any(gap[very_late] < env_lo - slack):
                ordering_ok = False

    return ConclusionReport(
        r_floor_ok=r_floor_ok,
        trapping_ok=trapping_ok,
        entrance_ok=entrance_ok,
        ordering_ok=ordering_ok,
        details={
            "R0": r0,
            "mu": mu,
            "threshold": threshold,
            "entrance_time": tau,
            "slack": slack,
            "co_trapped_pairs": pair_count,
        },
    )
