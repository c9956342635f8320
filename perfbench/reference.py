"""Independent references the oracles compare winfree's outputs against.

Nothing here calls winfree: each reference recomputes a quantity from the
model's formulas with plain numpy, so a defect in the program cannot hide by
also being present in its own check.  Memory is kept small (chunked draws
and scans) so that the benchmark's own arrays do not dominate peak_rss_mb.
"""

from __future__ import annotations

import math

import numpy as np


def sinusoidal_field(omega, kappa, theta):
    """omega_i - kappa * R * sin(theta_i) with R = mean(1 + cos(theta)); rows are states."""
    theta = np.asarray(theta, dtype=float)
    r = np.mean(1.0 + np.cos(theta), axis=-1, keepdims=True)
    return omega - np.asarray(kappa)[..., None] * r * np.sin(theta)


def rk4_samples(omega, kappas, theta0, horizon: float, stride: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 for one initial state at several couplings at once.

    Returns the states at t = 0, stride, ..., horizon with shape
    (samples, len(kappas), N).
    """
    kappas = np.asarray(kappas, dtype=float)
    y = np.tile(np.asarray(theta0, dtype=float), (kappas.size, 1))
    per_stride = int(round(stride / dt))
    h = stride / per_stride
    strides = int(round(horizon / stride))
    out = np.empty((strides + 1,) + y.shape)
    out[0] = y
    for s in range(1, strides + 1):
        for _ in range(per_stride):
            k1 = sinusoidal_field(omega, kappas, y)
            k2 = sinusoidal_field(omega, kappas, y + 0.5 * h * k1)
            k3 = sinusoidal_field(omega, kappas, y + 0.5 * h * k2)
            k4 = sinusoidal_field(omega, kappas, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[s] = y
    return out


def all_dead(samples: np.ndarray) -> np.ndarray:
    """Per coupling: every unwrapped phase stays within a 2*pi band at the samples."""
    return np.all(np.ptp(samples, axis=0) < 2.0 * np.pi, axis=-1)


def order_param_cdf(n: int, t_levels, rng: np.random.Generator, draws: int) -> np.ndarray:
    """P(R0 <= t) for uniform phases on [-pi, pi)^n, by a vectorised draw."""
    t_levels = np.asarray(t_levels, dtype=float)
    hits = np.zeros(t_levels.size)
    chunk = 10_000
    for start in range(0, draws, chunk):
        rows = min(chunk, draws - start)
        r0 = np.mean(1.0 + np.cos(rng.uniform(-np.pi, np.pi, (rows, n))), axis=1)
        hits += np.sum(r0[:, None] <= t_levels, axis=0)
    return hits / draws


def order_param_cdf_bound(n: int, t: float) -> float:
    """min(exp(-(1-t)^2 n), (sqrt(pi e t)/2)^n), the concentration bound on P(R0 <= t)."""
    return min(1.0, math.exp(-((1.0 - t) ** 2) * n), (math.sqrt(math.pi * math.e * t) / 2.0) ** n)


def escape_measure_bound(n: int, kappa: float, delta: float, horizon: float) -> float:
    """Escape-measure bound (exp(2 delta^2) + 4 kappa delta T/(pi e))^(-n/2), for 1/2 <= delta < 3/4."""
    if not 0.5 <= delta < 0.75:
        raise ValueError("reference covers 1/2 <= delta < 3/4 only")
    base = math.exp(2.0 * delta**2) + 4.0 * kappa * delta * horizon / (math.pi * math.e)
    return min(1.0, base ** (-n / 2.0))


def r_equation_roots(omega, kappa: float, grid: int = 8192, r_upper: float = 2.0 + 1e-9) -> np.ndarray:
    """Sorted roots R of R = 1 + (1/N) sum_j sigma_j sqrt(1 - omega_j^2/(kappa R)^2), all signatures.

    Scans every signature on a uniform grid over [max|omega|/|kappa|, r_upper]
    and bisects every bracket at once.  Only sign changes are found, which is
    all a system with well separated simple roots has.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.size
    w = (omega / kappa) ** 2
    r = np.linspace(np.sqrt(np.max(w)), r_upper, grid)
    radicals = np.sqrt(np.clip(1.0 - w / np.square(r)[:, None], 0.0, None))
    brackets = []
    block = 64
    for first in range(0, 2**n, block):
        bits = np.arange(first, min(first + block, 2**n))[:, None] >> np.arange(n) & 1
        sigma = 1.0 - 2.0 * bits
        # einsum rather than a BLAS product: multithreaded BLAS leaves worker
        # threads spinning after the call, which would bill CPU time to the next op
        f = 1.0 + np.einsum("gn,sn->gs", radicals, sigma) / n - r[:, None]
        cell, sig = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
        brackets.append((r[cell], r[cell + 1], sigma[sig]))
    a = np.concatenate([b[0] for b in brackets])
    b = np.concatenate([b[1] for b in brackets])
    sigma = np.concatenate([b[2] for b in brackets])

    def f(x):
        rad = np.sqrt(np.clip(1.0 - w / np.square(x)[:, None], 0.0, None))
        return 1.0 + np.sum(sigma * rad, axis=1) / n - x

    fa = f(a)
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = f(mid)
        left = fa * fm <= 0.0
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    return np.sort(0.5 * (a + b))


def critical_coupling_bounds(n: int) -> tuple[float, float]:
    """[2n/(4n-1), 4/(3 sqrt 3)], the range of kappa_c / max|omega|."""
    return 2.0 * n / (4.0 * n - 1.0), 4.0 / (3.0 * math.sqrt(3.0))
