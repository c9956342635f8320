"""Seeded Monte Carlo estimators for the probabilities bounded in closed form.

Each seed gives one PCG64 stream, and sample k is always doubles
k*N .. k*N+N-1 of it: a chunk of samples jumps to its first sample with
PCG64.advance once and draws its blocks of rows in order.  The death and escape
estimators integrate each block of samples as one batch whose rows do not
depend on each other, so estimates are bit-identical regardless of worker
count, block size or scheduling.  Result records name this layout in their
"rng_stream" key (RNG_STREAM).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import integrate, model, thresholds
from .errors import ConfigurationError, DomainError
from .integrate import SolverOptions
from .model import InteractionSpec, SystemConfig

# A block of samples (see _run_chunk) takes as many rows as record at most
# BLOCK_PHASES phases: rows x N x sample times for the death and escape blocks,
# rows x N for the CDF block, which records only its draws.  The row count is
# clamped to [1, BLOCK_SAMPLES], so a row that alone records more integrates
# alone, as in one simulate call.  2**20 float64 phases are 8 MB; the step loop
# holds them and reorders them by row (a full block at N=200, T=100, stride 1
# raised peak RSS by 27 MB).  Each block pays the step loop's fixed cost, about
# 70 us a step: at N=10, T=10, stride 0.25 the escape estimator ran 2000
# samples in 2.6 ms in one block against 5.7 ms in blocks of 64, and no faster
# at a cap of 4096 or 10000.  Wide rows gain nothing from larger blocks: at
# N=50-800 the death estimator ran as fast in blocks of 12-207 rows as in
# blocks four times larger.
BLOCK_PHASES = 2**20
BLOCK_SAMPLES = 2048

_Z95 = 1.959963984540054  # standard normal 97.5% quantile

# Version of the sample stream layout, written into every result record; bump
# it whenever the draws of a (seed, sample) pair change.
RNG_STREAM = "pcg64-advance/1"

_log = logging.getLogger(__name__)

# The closed-form bound (a key of thresholds.BOUNDS) each estimator is checked against.
BOUND_KINDS = {"order-param-cdf": "OrderParamCDF", "death": "SincosMain", "escape": "EscapeMeasure"}


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigurationError("samples must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class EstimateCI:
    estimate: float
    std_error: float
    count: int

    @property
    def wilson_95(self) -> tuple[float, float]:
        """Wilson score 95% interval; unlike estimate +- k*SE it keeps its width at 0 and 1."""
        n, p, z2 = self.count, self.estimate, _Z95**2
        centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n)
        half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / (1.0 + z2 / n)
        return max(0.0, min(p, centre - half)), min(1.0, max(p, centre + half))  # rounding may not reach p


def _estimate(successes: int, count: int) -> EstimateCI:
    est = successes / count
    return EstimateCI(
        estimate=est, std_error=math.sqrt(est * (1.0 - est) / count), count=count
    )


def _stream(seed: int, n: int, start: int) -> np.random.Generator:
    """seed's stream positioned at sample start; each _rows call draws the samples that follow.  Checks n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    bits.advance(start * n)  # one double per 64-bit output
    return np.random.Generator(bits)


def _rows(stream: np.random.Generator, count: int, n: int) -> np.ndarray:
    return stream.uniform(-np.pi, np.pi, (count, n))


def _draws(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """Samples start..stop-1 as rows; sample k is doubles k*n .. k*n+n-1 of seed's stream."""
    return _rows(_stream(seed, n, start), stop - start, n)


def sample_uniform_initial(n: int, mc: McConfig) -> np.ndarray:
    """Deterministic uniform draws on [-pi, pi)^n, one row per sample.

    Row k is sample k of every estimator run with the same seed and n: doubles
    k*n .. k*n+n-1 of the seed's one PCG64 stream (layout RNG_STREAM).
    """
    return _draws(mc.seed, n, 0, mc.samples)


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, -(-total // workers))
    return [(a, min(a + size, total)) for a in range(0, total, size)]


def _block_rows(phases_per_row: int) -> int:
    """Rows per block when each row records phases_per_row phases (see BLOCK_PHASES).

    n < 1 gives phases_per_row < 1; _stream refuses it before the first draw.
    """
    return max(1, min(BLOCK_SAMPLES, BLOCK_PHASES // max(1, phases_per_row)))


def _run_chunk(fn, args, n: int, seed: int, rows: int, chunk) -> list[bool]:
    """fn(*args, draws) over the chunk's consecutive blocks of `rows` samples.

    One stream positioned at the chunk's first sample draws the blocks in order.
    """
    start, stop = chunk
    stream = _stream(seed, n, start)
    hits: list[bool] = []
    for a in range(start, stop, rows):
        hits.extend(fn(*args, _rows(stream, min(rows, stop - a), n)))
    return hits


def _map_samples(fn, args, n: int, recorded: int, mc: McConfig) -> list[bool]:
    """One hit per sample of n phases, in sample order; fn is a module-level block function.

    Each sample records `recorded` vectors of n phases, which sets the block
    size (_block_rows).  Sample k reads only its own slice of the stream and
    each row of a block integrates on its own, so the hits do not depend on
    the worker count or block size.
    """
    chunks = _chunks(mc.samples, mc.workers)
    rows = _block_rows(n * recorded)
    per_chunk = chunks[0][1] - chunks[0][0]  # the first chunk is the largest
    _log.debug(
        "%s: %d samples, %d per chunk, %d rows per block, %d blocks per chunk, %d recorded phases per row",
        fn.__name__, mc.samples, per_chunk, rows, -(-per_chunk // rows), n * recorded,
    )
    if len(chunks) == 1:
        return _run_chunk(fn, args, n, mc.seed, rows, chunks[0])
    from concurrent.futures import ProcessPoolExecutor  # not loaded by a one-chunk run

    # a fork pool starts all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_run_chunk, fn, args, n, mc.seed, rows, ch) for ch in chunks]
        return [hit for f in futures for hit in f.result()]


def _cdf_block(spec: InteractionSpec, t_level: float, draws: np.ndarray) -> list[bool]:
    return (model.order_parameter(spec, draws) <= t_level).tolist()


def empirical_order_param_cdf(
    n: int, t_level: float, mc: McConfig, spec: InteractionSpec = model.sinusoidal()
) -> EstimateCI:
    """Fraction of uniform initial states whose R0 under spec's influence is <= t_level."""
    if not 0.0 < t_level <= spec.sup_I:
        raise DomainError(f"t_level must lie in (0, {spec.sup_I:g}]")
    hits = _map_samples(_cdf_block, (spec, t_level), n, 1, mc)
    return _estimate(sum(hits), mc.samples)


def _death_block(
    config: SystemConfig,
    spec: InteractionSpec,
    opts: SolverOptions,
    r_floor: float,
    draws: np.ndarray,
) -> list[bool]:
    """Death hits of a block from one integration, each row stopped once its hit is decided.

    The stop hook keeps each row's phase bands [lo, hi] over its samples.  With
    a ball (integrate._contraction_ball) a row stops where the ball is
    certified and its hit is already fixed: no hit when a band is >= 2 pi or
    R_max < r_floor; a hit when R_min >= r_floor and every band widened by the
    ball, [min(lo, lift - rho), max(hi, lift + rho)], stays below 2 pi.  The
    ball is tried on each row at every sample, and, through the between hook
    that the step loop calls once per check time (integrate._CHECK_TIMES),
    on the rows between samples with rho < pi/2 - max|theta*|, without which
    no ball is certified; ball.certified decides every stop.  A state
    between samples is not a sample: it widens the bands through its ball
    only, so the bands, and the hit, read the samples alone.  Any other row runs on, and a row
    that reaches the horizon is judged from its bands, its final R and its
    failure: the block reads columns and builds no Trajectory.
    """
    ball, note = integrate._contraction_ball(config, spec, opts)
    lo, hi = draws.copy(), draws.copy()
    stopped = np.zeros(len(draws), dtype=bool)
    midway = np.zeros(len(draws), dtype=bool)  # stopped between samples
    verdict = np.zeros(len(draws), dtype=bool)
    stop_t, stop_e, band_margin, r_margin = [], [], [], []

    def decide(times, lift, e, rows):
        stops = np.zeros(len(rows), dtype=bool)
        rho = e + ball.slack
        ok = np.flatnonzero(ball.certified(rho))
        if not ok.size:
            return stops
        row, rho = rows[ok], rho[ok]
        r_min, r_max = ball.r_range(rho)
        widened = np.maximum(hi[row], lift[ok] + rho[:, None]) - np.minimum(lo[row], lift[ok] - rho[:, None])
        miss = np.any(hi[row] - lo[row] >= 2.0 * np.pi, axis=1) | (r_max < r_floor)
        hit = np.all(widened < 2.0 * np.pi, axis=1) & (r_min >= r_floor)
        decided = miss | hit
        stops[ok] = decided
        stopped[row] = decided
        verdict[row] = hit
        stop_t.extend(times[ok][decided].tolist())
        stop_e.extend(e[ok][decided].tolist())
        band_margin.extend((2.0 * np.pi - np.max(widened[hit], axis=1)).tolist())
        r_margin.extend((r_min[hit] - r_floor).tolist())
        return stops

    def settled(times, thetas, rows):
        lo[rows] = np.minimum(lo[rows], thetas)
        hi[rows] = np.maximum(hi[rows], thetas)
        if ball is None:
            return np.zeros(len(rows), dtype=bool)
        return decide(times, *ball.nearest(thetas), rows)

    if ball is not None:
        room = 0.5 * np.pi - np.max(np.abs(ball.theta)) - ball.slack  # e beyond it is certified at no radius

    def between(times, thetas, rows):
        stops = np.zeros(len(rows), dtype=bool)
        lift, e = ball.nearest(thetas)
        near = np.flatnonzero(e < room)
        if near.size:
            stops[near] = decide(times[near], lift[near], e[near], rows[near])
            midway[rows[near]] = stops[near]
        return stops

    runs = integrate._integrate_rows(config, spec, draws, opts, stop=settled,
                                     between=None if ball is None else between)
    ran = np.array([failure is None for failure in runs.failures])
    hits = np.where(stopped, verdict, ran & np.all(hi - lo < 2.0 * np.pi, axis=1) & (runs.final_r >= r_floor))
    _log.debug(
        "death block: %d rows, %d stopped with a hit, %d without, %d to the horizon; %d stopped between samples, "
        "%d accepted steps; stops at t=%g..%g, max e %.3g; min margins 2pi-band %.3g, R_min-r_floor %.3g; %s",
        len(hits), len(band_margin), len(stop_t) - len(band_margin), len(hits) - len(stop_t),
        np.count_nonzero(midway), sum(runs.accepted),
        min(stop_t, default=math.nan), max(stop_t, default=math.nan), max(stop_e, default=math.nan),
        min(band_margin, default=math.nan), min(r_margin, default=math.nan),
        note if ball is not None else f"no early exit ({note})",
    )
    return hits.tolist()


def empirical_death_probability(
    config: SystemConfig,
    spec: InteractionSpec,
    opts: SolverOptions,
    mc: McConfig,
    r_floor: float = 0.0,
) -> EstimateCI:
    """Fraction of seeded uniform initial data exhibiting all-oscillator death.

    A sample counts when every unwrapped phase stays within a 2*pi band over
    the whole run and the final order parameter clears r_floor.  Integration
    failures count as non-death (conservative).

    A sample stops early once the rest of its run cannot change its count:
    at a sample time, or at one of the step loop's three checks between
    samples in the first stride (integrate._CHECK_TIMES), where it lies
    inside a sup-norm ball about the stable equilibrium theta* on which the
    flow contracts (a closed-form bound on the Jacobian's log-norm is < 0),
    widened by a solver-error slack of 100*sqrt(N)*opts.tolerance, and its
    phase bands so far and that ball already fix its count.  theta* comes from the largest all-plus root of
    the R equation, which Newton's method finds on the concave all-plus
    branch once per block of samples.  A sample the ball cannot decide yet
    integrates on, in the same run; a state between samples only widens its
    bands through the ball, so the count reads the samples alone.  On the
    criterion-5 system every sample stops between t = 1.4 and 4.7, before its
    first sample at t = 5.  The early exit applies to the sinusoidal
    family with kappa > 0 and DP45; other families, kappa <= 0, rk4_fixed,
    kappa below kappa_c (no theta*) and a ball not certified even at zero
    distance run every sample to the horizon.  Either way the counts are
    those of the full runs (see _death_block and integrate._Ball).
    """
    recorded = len(integrate._sample_times(opts))
    hits = _map_samples(_death_block, (config, spec, opts, r_floor), config.n, recorded, mc)
    return _estimate(sum(hits), mc.samples)


def _escape_block(
    config: SystemConfig,
    spec: InteractionSpec,
    opts: SolverOptions,
    delta: float,
    draws: np.ndarray,
) -> list[bool]:
    """A row escapes when it neither failed nor was stopped at a sample with R >= 1-delta.

    Every earlier sample of a stopped row had R < 1-delta, and a row that did
    neither reached the horizon, so its last R decides: the block reads the
    final-R and failure columns and builds no Trajectory.
    """
    level = 1.0 - delta

    def reached(times, thetas, rows):
        return model.order_parameter(spec, thetas) >= level

    runs = integrate._integrate_rows(config, spec, draws, opts, stop=reached)
    return [failure is None and r < level for r, failure in zip(runs.final_r.tolist(), runs.failures)]


def estimate_escape_measure(
    config: SystemConfig,
    spec: InteractionSpec,
    delta: float,
    t_horizon: float,
    opts: SolverOptions,
    mc: McConfig,
) -> EstimateCI:
    """Fraction of samples with R(t) < 1-delta at every sample time in [0, T].

    The continuous-time event is approximated at the solver output stride.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if config.n < 2:
        raise DomainError("requires N >= 2")
    if config.kappa <= 0:
        raise DomainError("requires kappa > 0")
    run_opts = replace(opts, horizon=t_horizon, sample_stride=min(opts.sample_stride, t_horizon))
    recorded = len(integrate._sample_times(run_opts))
    hits = _map_samples(_escape_block, (config, spec, run_opts, delta), config.n, recorded, mc)
    return _estimate(sum(hits), mc.samples)


def result_json_dict(kind: str, params: dict, est: EstimateCI, bound: Optional[float]) -> dict:
    """Serializable record comparing an estimate against its closed-form bound.

    The verdict follows the direction of the bound BOUND_KINDS[kind]: an upper
    bound sets `dominated` (estimate <= bound + 3 SE), a lower bound sets
    `dominates` (estimate >= bound - 3 SE).  The other key, and both when
    there is no bound, is None; pass bound=None for a family outside the
    bound's families.  "rng_stream" names the sample stream layout.
    """
    dominated = dominates = None
    if bound is not None:
        if thresholds.BOUNDS[BOUND_KINDS[kind]].upper:
            dominated = bool(est.estimate <= bound + 3.0 * est.std_error)
        else:
            dominates = bool(est.estimate >= bound - 3.0 * est.std_error)
    return {
        "kind": kind,
        "params": params,
        "estimate": est.estimate,
        "std_error": est.std_error,
        "wilson_95": list(est.wilson_95),
        "bound": bound,
        "dominated": dominated,
        "dominates": dominates,
        "rng_stream": RNG_STREAM,
    }
