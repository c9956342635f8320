"""ODE integration, rotation numbers, death detection, and regime classification."""

from __future__ import annotations

import json
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
    True the trajectory is truncated there (used by Monte Carlo estimators).
    """
    theta = np.array(model._phases(initial), dtype=float)
    if theta.shape != (config.n,):
        raise ConfigurationError("initial state length must equal config.n")
    omega = config.omega
    kappa = config.kappa
    influence, sensitivity = model.FAMILIES[spec.family][:2]  # one RHS for every family

    def rhs(y):
        return omega + kappa * np.mean(influence(spec, y)) * sensitivity(spec, y)

    targets = _sample_times(opts)
    times = [0.0]
    states = [theta.copy()]
    accepted = 0
    rejected = 0

    adaptive = opts.method == "dormand_prince45"
    h = min(opts.max_dt, opts.sample_stride) if adaptive else opts.dt
    min_h = _MIN_STEP_FRACTION * opts.horizon
    t = 0.0
    k1 = rhs(theta)
    failure = None

    if not (stop_condition is not None and stop_condition(0.0, theta)):
        for target in targets[1:]:
            while t < target - 1e-12 * opts.horizon:
                step = min(h, target - t)
                if adaptive:
                    ks = np.empty((7, config.n))
                    ks[0] = k1
                    for i in range(1, 7):
                        ks[i] = rhs(theta + step * (_DP_A[i] @ ks[:i]))
                    y5 = theta + step * (_DP_B5 @ ks)
                    err_vec = step * (_DP_E @ ks)
                    scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(theta), np.abs(y5))
                    err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
                    if err <= 1.0 or step <= min_h:
                        t += step
                        theta = y5
                        k1 = ks[6]  # first-same-as-last
                        accepted += 1
                    else:
                        rejected += 1
                    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-0.2)))
                    h = min(opts.max_dt, max(step * factor, min_h))
                    if h <= min_h and err > 1.0:
                        failure = f"step size underflow at t={t:.6g}"
                        break
                else:
                    k_1 = rhs(theta)
                    k_2 = rhs(theta + 0.5 * step * k_1)
                    k_3 = rhs(theta + 0.5 * step * k_2)
                    k_4 = rhs(theta + step * k_3)
                    theta = theta + (step / 6.0) * (k_1 + 2.0 * k_2 + 2.0 * k_3 + k_4)
                    t += step
                    accepted += 1
                if not np.all(np.isfinite(theta)):
                    failure = f"non-finite state at t={t:.6g}"
                    break
            if failure is not None:
                break
            times.append(target)
            states.append(theta.copy())
            if stop_condition is not None and stop_condition(target, theta):
                break

    times_arr = np.asarray(times)
    states_arr = np.vstack(states)
    r_series = np.mean(influence(spec, states_arr), axis=1)
    traj = Trajectory(
        times=times_arr,
        states=states_arr,
        r_series=r_series,
        accepted_steps=accepted,
        rejected_steps=rejected,
        solver_tol=opts.tolerance,
    )
    if failure is not None:
        raise IntegrationFailure(failure, partial_trajectory=traj)
    return traj


def estimate_pathwise_critical_coupling(
    config: SystemConfig, spec: InteractionSpec, initial, opts: SolverOptions
) -> float:
    """Bisection estimate of the smallest coupling whose trajectory dies.

    Horizon-dependent by construction; bracketed above by the elementary
    threshold, 30 bisection iterations.
    """
    upper, _ = thresholds.toy_thresholds(spec, config, list(range(config.n)))
    if upper == 0.0:
        return 0.0

    def dies(kappa: float) -> bool:
        cfg = SystemConfig(n=config.n, omega=config.omega, kappa=kappa)
        try:
            traj = simulate(cfg, spec, initial, opts)
        except IntegrationFailure:
            return False
        return bool(np.all(detect_death(traj, 0.0)))

    if dies(0.0):
        return 0.0
    lo, hi = 0.0, upper
    if not dies(hi):
        return hi
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if dies(mid):
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
