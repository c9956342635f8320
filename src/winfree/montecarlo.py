"""Seeded Monte Carlo estimators for the probabilities bounded in closed form.

Each seed gives one PCG64 stream, and sample k is always doubles
k*N .. k*N+N-1 of it: a block of samples jumps to its first sample with
PCG64.advance and draws its rows in one call.  The death and escape
estimators integrate each block of samples as one batch whose rows do not
depend on each other, so estimates are bit-identical regardless of worker
count, block size or scheduling.  Result records name this layout in their
"rng_stream" key (RNG_STREAM).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import integrate, model, thresholds
from .errors import ConfigurationError, DomainError
from .integrate import SolverOptions
from .model import InteractionSpec, SystemConfig

# Samples integrated together by the death and escape estimators (see _run_chunk).
BLOCK_SAMPLES = 64

_Z95 = 1.959963984540054  # standard normal 97.5% quantile

# Version of the sample stream layout, written into every result record; bump
# it whenever the draws of a (seed, sample) pair change.
RNG_STREAM = "pcg64-advance/1"

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


def _draws(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """Samples start..stop-1 as rows; sample k is doubles k*n .. k*n+n-1 of seed's stream."""
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    bits.advance(start * n)  # one double per 64-bit output
    return np.random.Generator(bits).uniform(-np.pi, np.pi, (stop - start, n))


def sample_uniform_initial(n: int, mc: McConfig) -> np.ndarray:
    """Deterministic uniform draws on [-pi, pi)^n, one row per sample.

    Row k is sample k of every estimator run with the same seed and n: doubles
    k*n .. k*n+n-1 of the seed's one PCG64 stream (layout RNG_STREAM).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return _draws(mc.seed, n, 0, mc.samples)


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, -(-total // workers))
    return [(a, min(a + size, total)) for a in range(0, total, size)]


def _run_chunk(fn, args, chunk) -> list[bool]:
    """fn(*args, start, stop) over the chunk's consecutive blocks of BLOCK_SAMPLES samples."""
    start, stop = chunk
    hits: list[bool] = []
    for a in range(start, stop, BLOCK_SAMPLES):
        hits.extend(fn(*args, a, min(a + BLOCK_SAMPLES, stop)))
    return hits


def _map_samples(fn, args, mc: McConfig) -> list[bool]:
    """One hit per sample, in sample order; fn is a module-level block function.

    Sample k reads only its own slice of the stream and each row of a block
    integrates on its own, so the hits do not depend on the worker count or
    block size.
    """
    if mc.workers == 1:
        return _run_chunk(fn, args, (0, mc.samples))
    with ProcessPoolExecutor(max_workers=mc.workers) as pool:
        futures = [pool.submit(_run_chunk, fn, args, ch) for ch in _chunks(mc.samples, mc.workers)]
        return [hit for f in futures for hit in f.result()]


def _cdf_block(
    spec: InteractionSpec, n: int, t_level: float, seed: int, start: int, stop: int
) -> list[bool]:
    r0 = np.mean(model.influence(spec, _draws(seed, n, start, stop)), axis=1)
    return (r0 <= t_level).tolist()


def empirical_order_param_cdf(n: int, t_level: float, mc: McConfig) -> EstimateCI:
    """Fraction of uniform initial states with R0 <= t_level (sinusoidal)."""
    if not 0.0 < t_level <= 2.0:
        raise DomainError("t_level must lie in (0, 2]")
    spec = model.sinusoidal()
    hits = _map_samples(_cdf_block, (spec, n, t_level, mc.seed), mc)
    return _estimate(sum(hits), mc.samples)


def _death_block(
    config: SystemConfig,
    spec: InteractionSpec,
    opts: SolverOptions,
    r_floor: float,
    window_start: float,
    seed: int,
    start: int,
    stop: int,
) -> list[bool]:
    runs = integrate._integrate_rows(config, spec, _draws(seed, config.n, start, stop), opts)
    return [
        failure is None
        and bool(np.all(integrate.detect_death(traj, window_start)))
        and float(traj.r_series[-1]) >= r_floor
        for traj, failure in runs
    ]


def empirical_death_probability(
    config: SystemConfig,
    spec: InteractionSpec,
    opts: SolverOptions,
    mc: McConfig,
    r_floor: float = 0.0,
    window_start: float = 0.0,
) -> EstimateCI:
    """Fraction of seeded uniform initial data exhibiting all-oscillator death.

    A sample counts when every unwrapped phase stays within a 2*pi band over
    the window and the final order parameter clears r_floor.  Integration
    failures count as non-death (conservative).
    """
    hits = _map_samples(
        _death_block, (config, spec, opts, r_floor, window_start, mc.seed), mc
    )
    return _estimate(sum(hits), mc.samples)


def _escape_block(
    config: SystemConfig,
    spec: InteractionSpec,
    opts: SolverOptions,
    delta: float,
    seed: int,
    start: int,
    stop: int,
) -> list[bool]:
    level = 1.0 - delta

    def reached(times, thetas):
        return np.mean(model.influence(spec, thetas), axis=1) >= level

    runs = integrate._integrate_rows(config, spec, _draws(seed, config.n, start, stop), opts, stop=reached)
    return [
        failure is None and bool(np.all(traj.r_series < level)) and traj.times[-1] >= opts.horizon - 1e-9
        for traj, failure in runs
    ]


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
    hits = _map_samples(_escape_block, (config, spec, run_opts, delta, mc.seed), mc)
    return _estimate(sum(hits), mc.samples)


def result_json_dict(kind: str, params: dict, est: EstimateCI, bound: Optional[float]) -> dict:
    """Serializable record comparing an estimate against its closed-form bound.

    The verdict follows the direction of the bound BOUND_KINDS[kind]: an upper
    bound sets `dominated` (estimate <= bound + 3 SE), a lower bound sets
    `dominates` (estimate >= bound - 3 SE).  The other key, and both when
    there is no bound, is None.  "rng_stream" names the sample stream layout.
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
