"""Equilibria of the sinusoidal Winfree model.

Equilibrium phases satisfy sin(theta_i) = omega_i / (kappa * R) with a branch
sign sigma_i per oscillator, and the order parameter R solves the scalar
fixed-point equation R = 1 + (1/N) sum_j sigma_j sqrt(1 - omega_j^2/(kappa R)^2).
Multiplying the branch functions over all 2^N signatures and clearing
denominators yields a polynomial W(r) of degree 2^(N+1) whose positive roots
bound the possible equilibrium order parameters.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model
from .errors import DegenerateFrequenciesError, DomainError, SizeLimitError
from .model import SystemConfig
from .thresholds import _golden_min

SCAN_POINTS = 4096
ROOT_TOL = 1e-12
TANGENT_TOL = 1e-10
DEDUP_TOL = 1e-8
R_UPPER = 2.0 + 1e-9
BLOCK_SIGNATURES = 64  # signatures per grid evaluation; bounds scan memory independently of 2^N

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Signature:
    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=int)
        object.__setattr__(self, "sigma", sigma)
        if not np.all(np.abs(sigma) == 1):
            raise DomainError("signature entries must be -1 or +1")


@dataclass(frozen=True)
class EquilibriumRecord:
    R: float
    theta: np.ndarray  # canonical representatives in (-pi, pi]
    signature: Signature
    divergence: float
    stability: str  # "Stable" | "Unstable" | "Indeterminate"
    max_eig_real: float

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "theta": self.theta.tolist(),
            "signature": self.signature.sigma.tolist(),
            "divergence": self.divergence,
            "stability": self.stability,
            "max_eig_real": self.max_eig_real,
        }


@dataclass(frozen=True)
class WPolynomial:
    # ascending degree, length 2^(N+1) + 1; float64, or Fractions (object dtype) from the exact build
    coeffs: np.ndarray
    degree: int
    # squared frequency-to-coupling ratios (omega_j/kappa)^2; carried so the
    # polynomial can be evaluated through its well-conditioned product form
    branch_w: np.ndarray

    def roots_in(self, lo: float, hi: float) -> np.ndarray:
        """Real roots in [lo, hi], sorted, with roots closer than DEDUP_TOL merged.

        Expanded coefficients of the high-degree polynomial are hopeless for
        root finding (the companion matrix and Horner evaluation both lose all
        accuracy to cancellation), so roots are located factor by factor.  For
        r > 0 each signature's factor r - r^2 + (1/N) sum_j sigma_j
        sqrt(r^2 - w_j) is r times the branch function of the fixed-point
        equation, so one call of the signature-batched branch solver finds
        them all on [max(lo, branch point), hi].
        """
        w = self.branch_w
        a = max(lo, float(np.sqrt(np.max(w))))
        if hi <= a:
            return np.asarray([])
        roots = _branch_roots(w, 1.0, _signatures(w.size), a, hi)  # w_j = (omega_j/kappa)^2
        return np.asarray(_merge_close(itertools.chain.from_iterable(roots), DEDUP_TOL))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"degree": self.degree, "coeffs": [float(c) for c in self.coeffs]}, fh, sort_keys=True)


def _frequencies_vanish(config: SystemConfig) -> bool:
    """True when every (omega_j/kappa)^2 is 0, also when it underflows: those systems are omega = 0."""
    with np.errstate(under="ignore"):
        return not np.any((config.omega / config.kappa) ** 2)


def _scaled_squares(config: SystemConfig) -> tuple[np.ndarray, float]:
    """omega^2 and kappa^2 after scaling omega and kappa by one power of two.

    The exponent lies midway between those of max|omega| and |kappa|, so every
    omega_j^2 / (kappa r)^2 is unchanged to the last bit while kappa^2 and
    max omega^2 stay normal for every system whose (omega/kappa)^2 does not
    vanish, even where kappa^2 itself would underflow (kappa = 1e-170) or
    overflow (kappa = 2^520).
    """
    e = (math.frexp(config.omega_max)[1] + math.frexp(abs(config.kappa))[1]) // 2
    return np.ldexp(config.omega, -e) ** 2, math.ldexp(config.kappa, -e) ** 2


def _radicals(omega2: np.ndarray, kappa2: float, r: np.ndarray) -> np.ndarray:
    """sqrt(1 - omega_j^2 / (kappa r)^2), clipped at the branch point; shape r.shape + (N,)."""
    return np.sqrt(np.clip(1.0 - omega2 / (kappa2 * np.square(r)[..., None]), 0.0, None))


def _branch_values(omega2: np.ndarray, kappa2: float, sigma: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Branch function at r_k for signature row sigma_k (see _branch_roots)."""
    return 1.0 + np.sum(sigma * _radicals(omega2, kappa2, r), axis=-1) / omega2.size - r


def _signatures(n: int) -> np.ndarray:
    """All 2^n signatures as rows; in row `bits`, sigma_j = -1 where bit j is set."""
    return 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)


def _bisect_brackets(omega2: np.ndarray, kappa2: float, sigma: np.ndarray, a: np.ndarray,
                     b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Root of f for signature row sigma_k in each bracket [a_k, b_k], f(a_k) = fa_k.

    All brackets are halved together.  Bracket k stops once |f(mid)| < ROOT_TOL or
    b_k - a_k < 1e-16, after at most 200 halvings; its root is the midpoint.
    """
    a, b, fa = np.array(a, dtype=float), np.array(b, dtype=float), np.array(fa, dtype=float)
    live = np.arange(a.size)
    for _ in range(200):
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        fm = _branch_values(omega2, kappa2, sigma[live], mid)
        go = ~((np.abs(fm) < ROOT_TOL) | (b[live] - a[live] < 1e-16))
        live, mid, fm = live[go], mid[go], fm[go]
        left = fa[live] * fm < 0
        b[live[left]] = mid[left]
        a[live[~left]] = mid[~left]
        fa[live[~left]] = fm[~left]
    return 0.5 * (a + b)


def _branch_roots(omega2: np.ndarray, kappa2: float, sigmas: np.ndarray, lo: float,
                  hi: float) -> list[list[float]]:
    """Roots on [lo, hi] of the branch function of every signature row in sigmas.

    The branch function f(r) = 1 + (1/N) sum_j sigma_j sqrt(1 - omega_j^2/(kappa r)^2) - r
    is evaluated on SCAN_POINTS subintervals for BLOCK_SIGNATURES signatures at
    a time.  Its roots are the left end point when |f| < ROOT_TOL there, the
    bisected sign changes (_bisect_brackets), and tangential (double) roots:
    grid minima of |f| below 1e-6 with no sign change around them, refined by
    golden section and kept when |f| < TANGENT_TOL.  Each row's roots come
    unsorted.
    """
    grid = np.linspace(lo, hi, SCAN_POINTS + 1)
    radicals = _radicals(omega2, kappa2, grid)
    roots: list[list[float]] = [[] for _ in range(len(sigmas))]
    for start in range(0, len(sigmas), BLOCK_SIGNATURES):
        block = np.asarray(sigmas[start:start + BLOCK_SIGNATURES], dtype=float)
        found = roots[start:start + BLOCK_SIGNATURES]
        vals = np.einsum("gn,sn->sg", radicals, block)
        vals /= omega2.size  # in place, 1 + sum/N - r as in _branch_values
        vals += 1.0
        vals -= grid
        for s in np.nonzero(np.abs(vals[:, 0]) < ROOT_TOL)[0]:
            found[s].append(float(grid[0]))
        neg, pos = vals < 0, vals > 0
        s, k = np.nonzero((neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:]))
        bisected = _bisect_brackets(omega2, kappa2, block[s], grid[k], grid[k + 1], vals[s, k])
        for row, r in zip(s.tolist(), bisected.tolist()):
            found[row].append(r)
        s, k = np.nonzero(np.abs(vals[:, 1:-1]) < 1e-6)
        k = k + 1
        here, before, after = np.abs(vals[s, k]), np.abs(vals[s, k - 1]), np.abs(vals[s, k + 1])
        same_side = (pos[s, k - 1] & pos[s, k + 1]) | (neg[s, k - 1] & neg[s, k + 1])  # else bisected
        dip = (here <= before) & (here <= after) & same_side
        for row, k in zip(s[dip].tolist(), k[dip].tolist()):
            def abs_f(r, sigma=block[row:row + 1]):
                return abs(float(_branch_values(omega2, kappa2, sigma, np.array([r]))[0]))

            x, v = _golden_min(abs_f, grid[k - 1], grid[k + 1])
            accepted = v < TANGENT_TOL
            _log.debug("tangent candidate r=%.17g min|f|=%.3g %s",
                       x, v, "accepted" if accepted else "rejected")
            if accepted:
                found[row].append(x)
    return roots


def _merge_close(roots, tol: float) -> list[float]:
    """Sorted roots, dropping each one within tol of the last one kept."""
    keep: list[float] = []
    for r in sorted(roots):
        if not keep or r - keep[-1] > tol:
            keep.append(r)
    return keep


def _fixed_point_roots(config: SystemConfig, sigmas: np.ndarray) -> list[list[float]]:
    """Per signature row, the sorted roots of the fixed-point equation on [max|omega|/|kappa|, R_UPPER]."""
    r_lo = config.omega_max / abs(config.kappa)
    if r_lo > R_UPPER:
        return [[] for _ in range(len(sigmas))]
    roots = _branch_roots(*_scaled_squares(config), sigmas, r_lo, R_UPPER)
    return [_merge_close(r, 1e-10) for r in roots]


def solve_R_equation(config: SystemConfig, signature: Signature) -> list[float]:
    """All roots of the order-parameter fixed-point equation for one signature.

    The one-row case of the signature-batched branch solver: scans
    [max|omega|/|kappa|, 2 + 1e-9] on 4096 subintervals, bisects sign changes
    to |f| < 1e-12, and accepts tangential roots when a local minimum of |f|
    dips below 1e-10.  Roots closer than 1e-10 are merged.
    """
    if config.kappa == 0.0:
        raise DomainError("kappa must be nonzero")
    if _frequencies_vanish(config):
        raise DegenerateFrequenciesError("all frequencies vanish; use the bipolar enumeration")
    sigma = signature.sigma
    if sigma.shape != (config.n,):
        raise DomainError("signature length must equal N")
    return _fixed_point_roots(config, sigma[None])[0]


def _canonical(theta: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    wrapped = np.mod(-theta + np.pi, 2.0 * np.pi)
    return np.pi - wrapped


def _equilibrium_theta(config: SystemConfig, sigma: np.ndarray, r: float) -> np.ndarray:
    ratio = np.clip(config.omega / (config.kappa * r), -1.0, 1.0)
    base = np.arcsin(ratio)
    theta = np.where(sigma > 0, base, np.pi - base)
    return _canonical(theta)


def _stability(config: SystemConfig, r: float, theta: np.ndarray) -> tuple[str, float]:
    """(label, max real eigenvalue part) of the Jacobian, thresholds +-1e-8.

    Indeterminate without eigenvalues on the boundary |kappa|*R = max|omega|.
    """
    if abs(abs(config.kappa) * r - config.omega_max) < 1e-12:
        return "Indeterminate", float("nan")
    max_eig = float(np.max(np.linalg.eigvals(model.jacobian(config, theta)).real))
    if max_eig > 1e-8:
        return "Unstable", max_eig
    if max_eig < -1e-8:
        return "Stable", max_eig
    return "Indeterminate", max_eig


def _record(config: SystemConfig, sigma: np.ndarray, r: float, theta: np.ndarray) -> EquilibriumRecord:
    stability, max_eig = _stability(config, r, theta)
    return EquilibriumRecord(
        R=float(r),
        theta=theta,
        signature=Signature(sigma),
        divergence=model.divergence(config, model.sinusoidal(), theta),
        stability=stability,
        max_eig_real=max_eig,
    )


def enumerate_equilibria(config: SystemConfig) -> list[EquilibriumRecord]:
    """All equilibria (mod 2*pi), via signature enumeration; at most 2^(N+1)."""
    if config.kappa == 0.0:
        raise DomainError("kappa must be nonzero")
    if config.n > 20:
        raise SizeLimitError("signature enumeration limited to N <= 20")
    sigmas = _signatures(config.n)
    if _frequencies_vanish(config):
        records = []
        for sigma in sigmas:
            theta = np.where(sigma < 0, np.pi, 0.0)
            r = float(np.mean(1.0 + np.cos(theta)))
            records.append(_record(config, sigma, r, theta))
        return records
    # Greedy dedup, first record wins.  |cos a - cos b| <= |wrap(a - b)|, so a
    # theta within DEDUP_TOL of a kept one has mean(cos theta) within DEDUP_TOL
    # of that one's: only kept records in that key window (doubled for
    # rounding) are compared.
    records = []
    keys: list[float] = []  # sorted mean(cos theta) of the kept records
    kept: list[np.ndarray] = []  # their thetas, in key order
    for sigma, roots in zip(sigmas, _fixed_point_roots(config, sigmas)):
        for r in roots:
            theta = _equilibrium_theta(config, sigma, r)
            key = float(np.mean(np.cos(theta)))
            lo = bisect.bisect_left(keys, key - 2 * DEDUP_TOL)
            hi = bisect.bisect_right(keys, key + 2 * DEDUP_TOL)
            if any(np.max(np.abs(model.wrap_to_pi(theta - prev))) < DEDUP_TOL for prev in kept[lo:hi]):
                continue
            at = bisect.bisect_right(keys, key, lo, hi)
            keys.insert(at, key)
            kept.insert(at, theta)
            records.append(_record(config, sigma, r, theta))
    return records


def critical_coupling(omega) -> float:
    """Smallest coupling strength admitting an equilibrium.

    Solves the scalar balance equation for the auxiliary level u in
    [1, 2/sqrt(3)] for omega/max|omega| by bisection and scales the result by
    max|omega|, so tiny frequencies cannot underflow; returns 0 for omega = 0
    (degenerate: every positive coupling admits equilibria).
    """
    omega = np.asarray(omega, dtype=float)
    omega_inf = float(np.max(np.abs(omega)))
    if omega_inf == 0.0:
        return 0.0
    n = omega.size
    omega2 = (omega / omega_inf) ** 2

    def h(u):
        s = np.sqrt(np.clip(1.0 - omega2 / u**2, 1e-300, None))
        return -1.0 - 2.0 / n * np.sum(s) + 1.0 / n * np.sum(1.0 / s)

    a = 1.0 + 1e-12
    b = 2.0 / math.sqrt(3.0)
    if h(b) >= 0.0:
        u_star = b
    else:
        for _ in range(200):
            mid = 0.5 * (a + b)
            if h(mid) > 0.0:
                a = mid
            else:
                b = mid
            if (b - a) <= 1e-12 * b:
                break
        u_star = 0.5 * (a + b)
    s = np.sqrt(np.clip(1.0 - omega2 / u_star**2, 0.0, None))
    return float(n * u_star / (n + np.sum(s))) * omega_inf


def construct_prescribed_equilibrium(
    rho: float, config: SystemConfig
) -> tuple[EquilibriumRecord, int]:
    """Equilibrium whose order parameter is within [rho/4, 3*rho/2].

    Uses m leading oscillators on the principal branch and N-m on the mirrored
    branch, with 2m/N <= rho < (2m+2)/N, then solves the fixed-point equation
    on [rho0/2, 3*rho0/2].
    """
    if not 0.0 < rho <= 2.0:
        raise DomainError("rho must lie in (0, 2]")
    if config.n < 2.0 / rho:
        raise DomainError(f"requires N >= 2/rho: N={config.n}, 2/rho={2.0 / rho}")
    if config.kappa == 0.0:
        raise DomainError("kappa must be nonzero")
    ratio = config.omega_max / abs(config.kappa)
    if ratio >= rho**1.5 / 16.0:
        raise DomainError(
            f"requires max|omega|/|kappa| < rho^1.5/16: {ratio} >= {rho**1.5 / 16.0}"
        )
    m = min(int(math.floor(config.n * rho / 2.0 + 1e-12)), config.n)
    m = max(m, 1)
    rho0 = 2.0 * m / config.n
    sigma = np.where(np.arange(config.n) < m, 1, -1)
    if _frequencies_vanish(config):
        theta = np.where(sigma > 0, 0.0, np.pi)
        record = _record(config, sigma, rho0, theta)
        return record, m
    omega2, kappa2 = _scaled_squares(config)
    lo = max(0.5 * rho0, config.omega_max / abs(config.kappa))
    hi = 1.5 * rho0
    grid = np.linspace(lo, hi, SCAN_POINTS + 1)
    vals = _branch_values(omega2, kappa2, np.broadcast_to(sigma, (grid.size, config.n)), grid)
    signs = np.sign(vals)
    change = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
    if change.size == 0:
        raise DomainError("no fixed-point root in the prescribed interval")
    k = int(change[np.argmin(np.abs(grid[change] - rho0))])
    r = float(_bisect_brackets(omega2, kappa2, sigma[None], grid[k:k + 1], grid[k + 1:k + 2],
                               vals[k:k + 1])[0])
    theta = _equilibrium_theta(config, sigma, r)
    record = _record(config, sigma, r, theta)
    # per-oscillator bracket bounds around the branch centers
    center = np.where(sigma > 0, 0.0, np.pi)
    dist = np.abs(model.wrap_to_pi(theta - center))
    lo_bound = 2.0 * np.abs(config.omega) / (3.0 * rho * abs(config.kappa))
    hi_bound = 2.0 * np.pi * np.abs(config.omega) / (rho * abs(config.kappa))
    if np.any(dist < lo_bound - 1e-9) or np.any(dist > hi_bound + 1e-9):
        raise DomainError("constructed equilibrium violates the phase bracket bounds")
    return record, m


def _accumulate(element: dict, mask: int, poly: np.ndarray) -> None:
    """element[mask] += poly (an absent mask is 0), zero-padding the shorter polynomial.

    Every polynomial passed in is a fresh array owned by element, so the sum
    is formed in place.
    """
    prev = element.get(mask)
    if prev is None:
        element[mask] = poly
        return
    if len(prev) < len(poly):
        prev, poly = poly, prev
    prev[: len(poly)] += poly
    element[mask] = prev


def _group_multiply(e1: dict, e2: dict, poly_w: list) -> dict:
    """Multiply two elements of the radical group algebra.

    Elements map bitmasks of active radicals p_j to coefficient polynomials in
    r (ascending).  p_j^2 collapses to the polynomial poly_w[j] = r^2 - w_j.
    """
    out: dict = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            poly = np.convolve(c1, c2)
            both = m1 & m2
            j = 0
            while both:
                if both & 1:
                    poly = np.convolve(poly, poly_w[j])
                both >>= 1
                j += 1
            _accumulate(out, m1 ^ m2, poly)
    return out


def build_W_polynomial(config: SystemConfig, exact: bool = False) -> WPolynomial:
    """Degree-2^(N+1) polynomial whose roots bound equilibrium order parameters.

    Starts from r*(branch function) = r - r^2 + (1/N) sum_j sigma_j p_j with
    p_j = sqrt(r^2 - (omega_j/kappa)^2), then folds the product over all
    signatures by repeated norms (A + p_j B)(A - p_j B) = A^2 - (r^2 - w_j) B^2,
    which eliminates each radical in turn and leaves exact polynomial
    coefficients.  One elimination serves both builds: the float build
    (float64 coefficients) and the exact build (N <= 4), which rounds omega and
    kappa to nearby rationals and returns the coefficients as Fractions in an
    object array.
    """
    if config.kappa == 0.0:
        raise DomainError("kappa must be nonzero")
    if _frequencies_vanish(config):
        raise DegenerateFrequenciesError("all frequencies vanish")
    n = config.n
    if n > 8:
        raise SizeLimitError("W polynomial limited to N <= 8")
    branch_w = (config.omega / config.kappa) ** 2
    if exact:
        if n > 4:
            raise SizeLimitError("exact-rational W path limited to N <= 4")
        one = Fraction(1)
        kappa = Fraction(config.kappa).limit_denominator(10**12)
        w = [(Fraction(om).limit_denominator(10**12) / kappa) ** 2 for om in config.omega.tolist()]
    else:
        one, w = 1.0, branch_w
    poly_w = [np.array([-wj, 0 * one, one]) for wj in w]
    element = {0: np.array([0 * one, one, -one])}  # r - r^2; mask 0 first fixes the float summation order
    for j in range(n):
        element[1 << j] = np.array([one / n])
    for j in range(n):
        bit = 1 << j
        a_part = {m: c for m, c in element.items() if not m & bit}
        b_part = {m ^ bit: c for m, c in element.items() if m & bit}
        element = _group_multiply(a_part, a_part, poly_w)
        for m, c in _group_multiply(b_part, b_part, poly_w).items():
            _accumulate(element, m, -np.convolve(c, poly_w[j]))  # minus (r^2 - w_j) * B^2
    (mask, coeffs), = element.items()
    assert mask == 0
    return WPolynomial(coeffs=coeffs, degree=2 ** (n + 1), branch_w=branch_w)


def classify_stability(config: SystemConfig, eq: EquilibriumRecord) -> str:
    """Linear stability from Jacobian eigenvalues (thresholds +-1e-8)."""
    return _stability(config, eq.R, eq.theta)[0]


def equilibria_to_json(records: list[EquilibriumRecord], path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_json_dict() for r in records], fh, sort_keys=True)
