"""ODE integration, rotation numbers, death detection, and regime classification."""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import equilibria, model, thresholds
from .errors import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    IntegrationFailure,
    PreconditionError,
    SizeLimitError,
)
from .model import InteractionSpec, SystemConfig

# Dormand-Prince 5(4) tableau.
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
# Solver-error allowance of the contraction ball, in units of sqrt(N) * opts.tolerance (see _Ball).
_SLACK_TOLERANCES = 100.0
# Between samples _integrate_rows calls its between hook once for each of these
# times, in sample strides.  A check costs about one step of the block, and a
# row decided in a later stride has already run a stride or more, so the checks
# go where the sample grid costs most: the first stride, where the criterion-5
# death rows are decided at t = 1.4-4.7 of a stride of 5.  Checking every
# eighth of a stride throughout made 16-row death blocks near kappa_c (N = 20
# and 50, 1.05 kappa_c, whose rows converge after t = 6) 5-9% slower on a
# 2-vCPU x86-64 VM; these three checks cost them about 2%.
_CHECK_TIMES = (0.125, 0.375, 0.875)
# horizon / sample_stride cap: an N=3 simulate of 10^6 samples (horizon 1,
# stride 1e-6) takes 164 s and 592 MB RSS on a 2-vCPU machine
MAX_SAMPLES = 10**6

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
        nan = [f.name for f in fields(self) if f.name != "method" and np.isnan(getattr(self, f.name))]
        if nan:
            raise ConfigurationError(f"solver settings must not be NaN: {', '.join(nan)}")
        if not 0 < self.horizon < np.inf or self.sample_stride <= 0:
            raise ConfigurationError("horizon must be positive and finite, and sample_stride positive")
        if self.sample_stride > self.horizon:
            raise ConfigurationError("sample_stride must not exceed horizon")
        if self.horizon > MAX_SAMPLES * self.sample_stride:  # the quotient can overflow
            raise SizeLimitError(f"horizon / sample_stride must not exceed {MAX_SAMPLES} samples")
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
            try:
                return self.dt**4
            except OverflowError:  # dt beyond about 1e77: the fourth power exceeds the float range
                return math.inf
        return max(self.abs_tol, self.rel_tol)


def rk4_options(dt: float, horizon: float, sample_stride: float) -> SolverOptions:
    return SolverOptions(method="rk4_fixed", horizon=horizon, sample_stride=sample_stride, dt=dt)


def dp45_options(
    horizon: float,
    sample_stride: float,
    abs_tol: float = SolverOptions.abs_tol,
    rel_tol: float = SolverOptions.rel_tol,
    max_dt: float = SolverOptions.max_dt,
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


@dataclass(frozen=True)
class RegimeReport:
    rho: np.ndarray
    regime: str
    death_flags: np.ndarray


@dataclass(frozen=True, eq=False)
class _Rows(Sequence):
    """The rows of one _integrate_rows call, as columns.

    times, states and r_series hold every sample, ordered by row: row i owns
    samples ends[i-1] .. ends[i]-1 (from 0 for row 0).  Item i is row i's
    (Trajectory, failure) pair, built when it is read from contiguous slices
    of those arrays, so a caller that reads only the columns (final_r,
    failures) builds no Trajectory.
    """

    times: np.ndarray
    states: np.ndarray
    r_series: np.ndarray
    ends: np.ndarray
    accepted: tuple[int, ...]
    rejected: tuple[int, ...]
    failures: tuple[Optional[str], ...]
    solver_tol: float

    def __len__(self) -> int:
        return len(self.failures)

    def __getitem__(self, row: int) -> tuple[Trajectory, Optional[str]]:
        row = range(len(self))[row]  # a negative row counts from the end
        lo = int(self.ends[row - 1]) if row else 0
        hi = int(self.ends[row])
        traj = Trajectory(
            times=self.times[lo:hi],
            states=self.states[lo:hi],
            r_series=self.r_series[lo:hi],
            accepted_steps=self.accepted[row],
            rejected_steps=self.rejected[row],
            solver_tol=self.solver_tol,
        )
        return traj, self.failures[row]

    @property
    def final_r(self) -> np.ndarray:
        """Each row's last R, r_series[-1] of its trajectory."""
        return self.r_series[self.ends - 1]


def _sample_times(opts: SolverOptions) -> np.ndarray:
    n_strides = int(np.floor(opts.horizon / opts.sample_stride + 1e-9))
    times = opts.sample_stride * np.arange(n_strides + 1)
    if times[-1] < opts.horizon - 1e-12 * opts.horizon:
        times = np.append(times, opts.horizon)
    else:
        times[-1] = opts.horizon
    return times


@np.errstate(over="ignore", invalid="ignore")  # a row that overflows ends as non-finite or underflowing, or runs on
def _integrate_rows(
    config: SystemConfig,
    spec: InteractionSpec,
    initial: np.ndarray,
    opts: SolverOptions,
    kappa=None,
    stop=None,
    between=None,
) -> _Rows:
    """The one step loop: integrate each row of initial, shape (B, N), on its own clock.

    Every row keeps its own t, step size, next sample time, step counters and
    failure, so its result does not depend on B: the stage sums are stacked
    matmuls (one gemv per row, as for a single state), the stages are
    model.vector_field of the stack, and step-size control is Python float
    arithmetic per row.  kappa is None (config.kappa) or one coupling per row.
    stop(times, thetas, rows) -> one bool per row is evaluated on the rows
    that reach a sample time (on every row at t=0), rows being their indices
    in initial; a row whose value is true ends there.  between, of the same
    shape, is evaluated once per check time sample_stride * _CHECK_TIMES[k],
    in turn: after the first step at which the rows that took it, did not
    end and are not at a sample time (the rows it is evaluated on) have a
    max t at or past that time.  A row whose value is true ends there, and
    its state at that time is recorded as its last sample.  Neither hook
    changes a step size, nor a sample of a row it does not end.  Rows that
    end are dropped from the arrays.  Each sample event is recorded as one
    block (the rows due, their sample time, their states); at the end the
    blocks are ordered by row and every R comes from one
    model.order_parameter call.  Returns those columns as a _Rows, whose
    items are, per row, its trajectory and failure message (None when it
    reached the horizon or stopped).
    """
    theta = model._finite_phases(initial, config.n, ndim=2)
    b, n = theta.shape
    kap = None if kappa is None else np.array(kappa, dtype=float)
    targets = _sample_times(opts).tolist()
    last = len(targets) - 1
    tol_t = 1e-12 * opts.horizon
    adaptive = opts.method == "dormand_prince45"
    min_h = _MIN_STEP_FRACTION * opts.horizon
    h_start = min(opts.max_dt, opts.sample_stride) if adaptive else opts.dt

    # sample blocks (rows, times, states) in the order they were taken
    blocks = [(range(b), [0.0] * b, theta.copy())]
    accepted = [0] * b
    rejected = [0] * b
    failures: list[Optional[str]] = [None] * b
    # per active row, in array order
    rows = list(range(b))
    t = [0.0] * b
    h = [h_start] * b
    nxt = [1] * b  # index of the next sample time
    wakes = [] if between is None else [opts.sample_stride * c for c in _CHECK_TIMES]  # checks not yet made
    k1 = model.vector_field(config, spec, theta, kap)
    ended = [False] * b if stop is None else [bool(s) for s in stop(np.zeros(b), theta, np.arange(b))]

    while True:
        if any(ended):
            keep = [i for i, e in enumerate(ended) if not e]
            theta, k1, kap = theta[keep], k1[keep], None if kap is None else kap[keep]
            rows, t, h, nxt = ([lst[i] for i in keep] for lst in (rows, t, h, nxt))
        if not rows:
            break
        steps = [min(hi, targets[ni] - ti) for hi, ni, ti in zip(h, nxt, t)]
        step = np.array(steps)[:, None]
        if adaptive:
            ks = np.empty((len(rows), 7, n))
            ks[:, 0] = k1
            for i in range(1, 7):
                stage = theta + step * (_DP_A[i] @ ks[:, :i])
                ks[:, i] = model.vector_field(config, spec, stage, kap)
            y5 = stage  # _DP_A[6] is _DP_B5 without its zero last weight (first-same-as-last)
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
            k_1 = model.vector_field(config, spec, theta, kap)
            k_2 = model.vector_field(config, spec, theta + 0.5 * step * k_1, kap)
            k_3 = model.vector_field(config, spec, theta + 0.5 * step * k_2, kap)
            k_4 = model.vector_field(config, spec, theta + step * k_3, kap)
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
        if wakes and max(t) >= wakes[0]:  # a cheap bound first: no t in mid exceeds max(t)
            mid = [i for i in took if not ended[i] and t[i] < targets[nxt[i]] - tol_t]
            if mid and max(t[i] for i in mid) >= wakes[0]:
                del wakes[0]
                snap = theta[mid]
                stops = between(np.array([t[i] for i in mid]), snap, np.array([rows[i] for i in mid]))
                gone = np.flatnonzero(stops).tolist()
                if gone:
                    blocks.append(([rows[mid[j]] for j in gone], [t[mid[j]] for j in gone], snap[gone]))
                    for j in gone:
                        ended[mid[j]] = True
        due = [i for i in took if not ended[i] and not t[i] < targets[nxt[i]] - tol_t]
        while due:
            snap = theta[due]
            due_t = [targets[nxt[i]] for i in due]
            due_rows = [rows[i] for i in due]
            blocks.append((due_rows, due_t, snap))
            stops = [False] * len(due)
            if stop is not None:
                stops = stop(np.array(due_t), snap, np.array(due_rows))
            for i, stopped in zip(due, stops):
                nxt[i] += 1
                ended[i] = bool(stopped) or nxt[i] > last
            due = [i for i in due if not ended[i] and not t[i] < targets[nxt[i]] - tol_t]

    owner = np.array([row for block in blocks for row in block[0]], dtype=int)
    times = np.array([when for block in blocks for when in block[1]])
    states = np.concatenate([block[2] for block in blocks])
    del blocks  # at most one extra copy of the samples while they are reordered
    order = np.argsort(owner, kind="stable")
    times, states = times[order], states[order]
    r_series = model.order_parameter(spec, states)
    return _Rows(times, states, r_series, np.cumsum(np.bincount(owner)), tuple(accepted), tuple(rejected),
                 tuple(failures), opts.tolerance)


@dataclass(frozen=True)
class _Ball:
    """Sup-norm balls about an equilibrium theta_star of the sinusoidal family at kappa > 0.

    A phase vector at sup distance e from theta_star (mod 2 pi) lies in the
    ball of radius rho = e + slack.  With a_i = |theta*_i| + rho < pi/2, every
    phase of that ball has cos >= cos a_i and |sin| <= sin a_i, so
    R >= R_min = 1 + mean cos a, and the row-sum log-norm of the Jacobian
    J_ij = (kappa/N) sin theta_i sin theta_j - delta_ij kappa R cos theta_i
    is at most log_norm_bound(rho).  When that bound mu satisfies
    mu * rho + ||f(theta_star)||_inf < 0 the ball is forward-invariant for the
    exact flow (contraction analysis): every later phase stays within rho of
    the lift of theta*_i nearest it, and R stays in [R_min, R_max].

    slack covers the solver's error, which the exact flow's ball does not:
    _integrate_rows accepts a DP45 step when the RMS over the N components of
    err_i / (abs_tol + rel_tol |theta_i|) is <= 1, so one component's local
    error can reach sqrt(N) * tolerance * (1 + |theta_i|), with |theta_i| < 3 pi
    while the row's band stays below 2 pi; inside the ball the flow contracts,
    so these errors are damped, not summed.  slack = 100 sqrt(N) tolerance
    allows about nine such steps undamped.
    """

    theta: np.ndarray  # theta_star, each entry in (-pi/2, pi/2)
    kappa: float
    slack: float
    residual: float  # ||f(theta_star)||_inf, which the root solve leaves

    def nearest(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of states (..., N): the lifts of theta_star nearest it, and its sup distance e."""
        offset = model.wrap_to_pi(states - self.theta)
        return states - offset, np.max(np.abs(offset), axis=-1)

    def log_norm_bound(self, rho) -> np.ndarray:
        """max_i [-kappa R_min cos a_i + (kappa/N) sin a_i sum_j sin a_j] per radius rho, a = |theta*| + rho.

        A bound on the row-sum log-norm of the Jacobian over the ball of
        radius rho; it holds while every a_i < pi/2.
        """
        a = np.abs(self.theta) + np.asarray(rho)[..., None]
        cos_a, sin_a = np.cos(a), np.sin(a)
        r_min = 1.0 + np.mean(cos_a, axis=-1, keepdims=True)  # R_min of r_range
        off = self.kappa / self.theta.size * sin_a * np.sum(sin_a, axis=-1, keepdims=True)
        return np.max(-self.kappa * r_min * cos_a + off, axis=-1)

    def r_range(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """(R_min, R_max) of the order parameter over the ball of radius rho."""
        rho = np.asarray(rho)[..., None]
        r_min = 1.0 + np.mean(np.cos(np.abs(self.theta) + rho), axis=-1)
        r_max = 1.0 + np.mean(np.cos(np.maximum(np.abs(self.theta) - rho, 0.0)), axis=-1)
        return r_min, r_max

    def certified(self, rho) -> np.ndarray:
        """Whether the ball of radius rho is forward-invariant, per radius."""
        rho = np.asarray(rho)
        inside = np.all(np.abs(self.theta) + rho[..., None] < 0.5 * np.pi, axis=-1)
        return inside & (self.log_norm_bound(rho) * rho + self.residual < 0.0)


@np.errstate(over="ignore", invalid="ignore")  # kappa * R can overflow near 1e308: a nan bound certifies no ball
def _contraction_ball(
    config: SystemConfig, spec: InteractionSpec, opts: SolverOptions
) -> tuple[Optional[_Ball], str]:
    """The contraction ball about the stable equilibrium and how theta_star was found; or None and why not.

    theta_star comes from the largest all-plus root R* of the R equation
    (for kappa > 0 only that signature can give a stable equilibrium), found
    by Newton's method on the concave all-plus branch (equilibria._stable_root,
    R* = 2 at omega = 0).  The note gives R*, the Newton steps and f'(R*), the
    fold margin: it tends to 0 as kappa falls to kappa_c.  The slack rests on
    the DP45 error test of _integrate_rows, so rk4_fixed gets no ball, nor
    does a system whose ball is not certified even at e = 0 (kappa just above
    kappa_c, where the stable and the saddle equilibrium are about to merge).
    """
    if spec.family != "sinusoidal":
        return None, f"family {spec.family}"
    if config.kappa <= 0.0:
        return None, "kappa <= 0"
    if opts.method != "dormand_prince45":
        return None, f"method {opts.method}"
    slack = _SLACK_TOLERANCES * math.sqrt(config.n) * opts.tolerance
    if not slack < 0.5 * np.pi:  # no ball this wide is certified; an infinite tolerance stops here
        return None, "no certified ball at e = 0"
    root = equilibria._stable_root(config)
    if root is None:
        return None, "no all-plus root"
    r_star, steps, slope = root
    theta = equilibria._equilibrium_theta(config, np.ones(config.n, dtype=int), r_star)
    residual = float(np.max(np.abs(model.vector_field(config, spec, theta))))
    ball = _Ball(theta, config.kappa, slack, residual)
    if not ball.certified(slack):  # the smallest ball any row can have
        return None, "no certified ball at e = 0"
    return ball, f"R* {r_star:.17g} after {steps} Newton steps, f'(R*) {slope:.3g}"


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
    stop = None
    if stop_condition is not None:
        def stop(ts, ys, rows):
            return [stop_condition(t, y) for t, y in zip(ts, ys)]
    traj, failure = _integrate_rows(config, spec, model._phases(initial)[None], opts, stop=stop)[0]
    if failure is not None:
        raise IntegrationFailure(failure, partial_trajectory=traj)
    return traj


def estimate_pathwise_critical_coupling(
    config: SystemConfig, spec: InteractionSpec, initial, opts: SolverOptions
) -> float:
    """Bisection estimate of the smallest coupling whose trajectory dies.

    Horizon-dependent by construction; bracketed above by the elementary
    threshold, 30 bisection iterations, each midpoint's verdict that of its
    own trajectory: detect_death's band rule over the whole run, read from
    the batch's columns (every phase's max - min below 2 pi), False when the
    row fails.  The first batch integrates the end points together with the
    midpoints of the first _WALK_DEPTH halvings, which are then walked from
    their stored verdicts.  The remaining halvings are rounds of
    thresholds._bisect_walk guided by the margin m = max_i (max_t theta_i -
    min_t theta_i) - 2 pi of each run, continuous in the coupling and
    negative exactly where the run dies: a round integrates, as one batch,
    the midpoints that halving takes toward the zero of the inverse cubic
    through the four couplings of smallest |m|, or, when that point does not
    lie inside the bracket, the midpoints of the next _WALK_DEPTH halvings.
    A coupling is integrated at most once.  The guess only chooses which
    points share a batch, so the result is bitwise that of the one-at-a-time
    bisection.  Each call logs its batches, rows integrated, guided rounds
    and guided rounds a verdict left at DEBUG level.
    """
    upper, _ = thresholds.toy_thresholds(spec, config, list(range(config.n)))
    theta = model._phases(initial)
    seen: dict[float, tuple[bool, Optional[float]]] = {}  # coupling -> (dies, margin or None on failure)
    counts = {"batches": 0, "rows": 0, "guided": 0, "mismatches": 0}
    predicted: Optional[float] = None

    def lives(kappas: list[float]) -> list[bool]:
        new = list(dict.fromkeys(k for k in kappas if k not in seen))
        if new:
            runs = _integrate_rows(config, spec, np.repeat(theta[None], len(new), axis=0), opts, kappa=new)
            counts["batches"] += 1
            counts["rows"] += len(new)
            starts = np.concatenate([[0], runs.ends[:-1]])
            band = np.maximum.reduceat(runs.states, starts) - np.minimum.reduceat(runs.states, starts)
            for k, m, failure in zip(new, (band.max(axis=1) - 2.0 * np.pi).tolist(), runs.failures):
                seen[k] = (m < 0.0, m) if failure is None else (False, None)
        verdict = [not seen[k][0] for k in kappas]
        if predicted is not None:
            counts["mismatches"] += any(v != (predicted > k) for k, v in zip(kappas, verdict))
        return verdict

    def guess(a: float, b: float) -> Optional[float]:
        nonlocal predicted
        near = sorted((abs(m), m, k) for k, (_, m) in seen.items() if m is not None)[:4]
        ms = [m for _, m, _ in near]
        predicted = None
        if len(set(ms)) == len(ms) >= 2:  # Lagrange interpolation of the coupling in m, at m = 0
            x = sum(k * math.prod(mj / (mj - mi) for mj in ms if mj != mi) for _, mi, k in near)
            if a < x < b:
                predicted = x
                counts["guided"] += 1
        return predicted

    ends = lives([0.0, upper, *thresholds._subtree(0.0, upper, thresholds._WALK_DEPTH)[0]])
    if not ends[0]:
        value = 0.0
    elif ends[1]:
        value = upper
    else:
        a, b = thresholds._bisect_walk(lives, 0.0, upper, thresholds._WALK_DEPTH)
        a, b = thresholds._bisect_walk(lives, a, b, 30 - thresholds._WALK_DEPTH, guess=guess)
        value = 0.5 * (a + b)
    _log.debug("kappa_pc n=%d: %d batches, %d rows, %d guided rounds, %d mismatches", config.n, *counts.values())
    return value


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


def classify_regime(rho, tol: float) -> str:
    """Classify rotation-number configuration.

    Priority: CompleteDeath > PartialDeath > CompleteLocking > PartialLocking
    > Incoherence.  Death is |rho_i| < tol, so CompleteDeath can stand beside
    a False flag from detect_death, whose phase band also counts a slip during
    the transient.
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


def regime_report(traj: Trajectory, config: SystemConfig) -> RegimeReport:
    """Rotation numbers, death flags over the whole run and regime at default_regime_tol.

    The regime reads rho alone (see classify_regime).
    """
    rho = rotation_numbers(traj)
    regime = classify_regime(rho, default_regime_tol(config.omega))
    return RegimeReport(rho=rho, regime=regime, death_flags=detect_death(traj, 0.0))


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
    pairs, checked at sample times.  Slack is 10x the solver tolerance, and
    must be finite.  The domain of mu, the threshold kappa must exceed and the
    trapping rate come from thresholds (sinusoidal_threshold, _trapping_rate),
    and kappa*rate - omega_max must stay positive after rounding.  Each check
    is one masked array reduction, (e) one per trapped oscillator over its
    later trapped partners; times outside a mask reach exp as 0, so none
    overflows.  The entrance time pi / (kappa*rate - omega_max) is reported as
    None where it overflows (no finite time; the conclusion then asks nothing).
    """
    r0 = float(traj.r_series[0])
    omega_inf = config.omega_max
    kappa = config.kappa
    threshold = thresholds.sinusoidal_threshold(r0, mu, omega_inf)
    rate = thresholds._trapping_rate(r0, mu)  # conclusion (c)'s rate, the threshold's denominator
    speed = kappa * rate - omega_inf
    if kappa <= threshold or speed <= 0.0:
        why = f"kappa={kappa} <= {threshold}" if kappa <= threshold else \
            f"kappa={kappa} > {threshold}, but kappa*rate - omega_max rounds to {speed}"
        raise PreconditionError(f"hypothesis kappa > omega_max/((R0-mu)*sqrt(mu*(2-mu))) fails: {why}")
    slack = 10.0 * traj.solver_tol
    if not slack < math.inf:  # every check would pass whatever the trajectory
        raise PreconditionError(f"slack 10 x solver tolerance must be finite, got {slack}")
    times = traj.times
    column = times[:, None]
    cos_states = np.cos(traj.states)
    tau = np.pi / speed
    decay = kappa * (r0 - mu) * (1.0 - mu)

    r_floor_ok = bool(np.min(traj.r_series) >= r0 - mu - slack)

    in_band = cos_states >= -1.0 + mu
    trapped = in_band.any(axis=0)
    first = in_band.argmax(axis=0)  # each trapped oscillator's first sample in the band
    since = np.arange(len(times))[:, None] >= first
    trapping_ok = not np.any(trapped & since & (cos_states < -1.0 + mu - slack))
    entrance_ok = not np.any(trapped & (column >= times[first] + tau) & (cos_states < 1.0 - mu - slack))

    # gaps of phases unwrapped to the 2*pi turn of their last sample
    unwrapped = traj.states - 2.0 * np.pi * np.round(traj.states[-1] / (2.0 * np.pi))
    ordering_ok = True
    order = np.flatnonzero(trapped)
    for a, i in enumerate(order):
        js = order[a + 1:]
        d_omega = np.abs(config.omega[i] - config.omega[js])  # omega_hi - omega_lo, bit for bit
        gap = np.where(config.omega[i] >= config.omega[js], 1.0, -1.0) * (unwrapped[:, i, None] - unwrapped[:, js])
        t0 = times[np.maximum(first[i], first[js])]
        late = column >= t0 + tau
        wave = np.pi * np.exp(-decay * np.where(late, column - t0 - tau, 0.0))
        equal = d_omega < 1e-15
        lift = np.divide(d_omega, decay, out=np.zeros_like(d_omega), where=~equal)
        above = np.where(equal, np.abs(gap) > wave + slack, gap > lift + wave + slack)
        t_low = t0 + tau + np.pi / np.where(equal, np.inf, d_omega)
        very_late = ~equal & (column >= t_low)
        env_lo = (d_omega / (2.0 * kappa)) * (1.0 - np.exp(-2.0 * kappa * np.where(very_late, column - t_low, 0.0)))
        if np.any(late & above) or np.any(very_late & (gap < env_lo - slack)):
            ordering_ok = False
            break
    pair_count = len(order) * (len(order) - 1) // 2

    return ConclusionReport(
        r_floor_ok=r_floor_ok,
        trapping_ok=trapping_ok,
        entrance_ok=entrance_ok,
        ordering_ok=ordering_ok,
        details={
            "R0": r0,
            "mu": mu,
            "threshold": threshold,
            "entrance_time": tau if tau < math.inf else None,
            "slack": slack,
            "co_trapped_pairs": pair_count,
        },
    )
