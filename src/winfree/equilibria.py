"""Equilibria of the sinusoidal Winfree model.

Equilibrium phases satisfy sin(theta_i) = omega_i / (kappa * R) with a branch
sign sigma_i per oscillator, and the order parameter R solves the scalar
fixed-point equation R = 1 + (1/N) sum_j sigma_j sqrt(1 - omega_j^2/(kappa R)^2).
Multiplying the branch functions over all 2^N signatures and clearing
denominators yields a polynomial W(r) of degree 2^(N+1) whose positive roots
bound the possible equilibrium order parameters.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model
from .errors import DegenerateFrequenciesError, DomainError, SizeLimitError
from .model import SystemConfig
from .thresholds import _bisect_walk

COARSE_CELLS = 16  # cells of the grid shared by every signature's root isolation
MIN_WIDTH = 1e-12  # a cell this narrow that its bounds still leave undecided holds a tangent (double) root
ROUNDING_ULPS = 8  # allowance of the cell bounds on f, in ulps of sum |terms of f| <= 2 + r
ROOT_TOL = 1e-12
DEDUP_TOL = 1e-8
R_UPPER = 2.0 + 1e-9
BLOCK_SIGNATURES = 64  # rows per isolation block and per Jacobian stack; bounds the cell and (block, N, N) arrays
NEWTON_BRACKETS = 16384  # brackets per _newton_brackets call; bounds its (brackets, N) arrays, one call up to N = 8
_COUNTS = ("levels", "cells", "tangent", "brackets", "steps")  # _branch_roots' counts

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Signature:
    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=int)
        object.__setattr__(self, "sigma", sigma)
        if not set(sigma.ravel().tolist()) <= {-1, 1}:
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
        """Real roots in [lo, hi], sorted, with roots that the branch solver cannot tell apart merged.

        Expanded coefficients of the high-degree polynomial are hopeless for
        root finding (the companion matrix and Horner evaluation both lose all
        accuracy to cancellation), so roots are located factor by factor.  For
        r > 0 each signature's factor r - r^2 + (1/N) sum_j sigma_j
        sqrt(r^2 - w_j) is r times the branch function of the fixed-point
        equation, so one call of the signature-batched branch solver
        (_branch_roots: certified isolation, then Newton steps inside each
        one-root cell) finds them all on [max(lo, branch point), hi], each
        simple root to |f| < ROOT_TOL and a double root as one tangent cell.
        A simple root lies within ROOT_TOL/|f'| of the exact one, so a root is
        dropped when it lies within that radius plus the radius of the last
        root kept (_merge_roots: one group, sorted by r, ties by signature
        row).  Each radius is at most DEDUP_TOL/2, which a tangent root,
        or one at the branch point where f' is undefined, gets: roots that
        signatures share, as equal frequencies make them, come back once, and
        distinct roots of different signatures stay apart down to about
        2 ROOT_TOL.
        """
        w = self.branch_w
        a = max(lo, float(np.sqrt(np.max(w))))
        if hi <= a:
            return np.asarray([])
        sigmas = _signatures(w.size)
        rows, r, _ = _branch_roots(w, 1.0, sigmas, a, hi)  # w_j = (omega_j/kappa)^2
        _, _, _, slope_plus, slope_minus = _ends(w, 1.0, sigmas[rows].astype(float), r)
        with np.errstate(divide="ignore", invalid="ignore"):
            radius = np.fmin(ROOT_TOL / np.abs((slope_plus - slope_minus) / w.size - 1.0), 0.5 * DEDUP_TOL)
        return r[_merge_roots(np.lexsort((rows, r)), np.zeros_like(rows), r, radius)]

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"degree": self.degree, "coeffs": [float(c) for c in self.coeffs]}, fh, sort_keys=True)


def _require_coupling(config: SystemConfig) -> None:
    """DomainError at kappa = 0, where no equilibrium equation of this module is defined."""
    if config.kappa == 0.0:
        raise DomainError("kappa must be nonzero")


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
    """sqrt(1 - omega_j^2 / (kappa r)^2), clipped at the branch point; shape r.shape + (N,).

    Computed in one array, so a scan grid costs one (points, N) array at a time.
    """
    x = omega2 / (kappa2 * np.square(r)[..., None])
    np.subtract(1.0, x, out=x)
    return np.sqrt(np.clip(x, 0.0, None, out=x), out=x)


def _branch_values(omega2: np.ndarray, kappa2: float, sigma: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Branch function at r_k for signature row sigma_k (see _branch_roots)."""
    return 1.0 + np.sum(sigma * _radicals(omega2, kappa2, r), axis=-1) / omega2.size - r


def _signatures(n: int) -> np.ndarray:
    """All 2^n signatures as int8 rows; in row `bits`, sigma_j = -1 where bit j is set."""
    sigmas = np.ones((2**n, n), dtype=np.int8)
    for j in range(n):  # row = (high bits, bit j, low bits)
        sigmas.reshape(-1, 2, 2**j, n)[:, 1, :, j] = -1
    return sigmas


def _newton_brackets(omega2: np.ndarray, kappa2: float, sigma: np.ndarray, a: np.ndarray,
                     b: np.ndarray, fa: np.ndarray) -> tuple[np.ndarray, int]:
    """Root of f for signature row sigma_k in each bracket [a_k, b_k], f(a_k) = fa_k; and the Newton steps made.

    Each bracket holds one sign change of f and a slope of one sign (certified
    by _branch_roots); all are solved together, each independently of the
    others.  Bracket k starts at its midpoint.  At each iterate r it takes f
    and f' = -1 + (G+' - G-')/N from _ends and narrows [a_k, b_k] to the
    side on which f changes sign.  It stops once |f(r)| < ROOT_TOL or
    b_k - a_k < 1e-16, after at most 200 steps.  The Newton step r - f/f'
    is kept only when it lies strictly inside the narrowed bracket: it is
    the next iterate or, once the bracket stops, its root (that last step
    needs no evaluation).  Otherwise the next iterate is the midpoint, and a
    stopped bracket's root is r.  The steps counted are the iterates after
    the midpoint.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    sign_a, r = np.sign(fa), 0.5 * (a + b)
    roots, live = r.copy(), np.arange(a.size)  # live: the brackets not yet stopped, whose values the arrays hold
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # f' is inf or nan within rounding of a branch point
        for _ in range(200):
            if live.size == 0:
                break
            f, _, _, slope_plus, slope_minus = _ends(omega2, kappa2, sigma, r)
            left = np.sign(f) == sign_a
            a, b = np.where(left, r, a), np.where(left, b, r)
            step = r - f / ((slope_plus - slope_minus) / omega2.size - 1.0)
            go = (np.abs(f) >= ROOT_TOL) & (b - a >= 1e-16)
            r = np.where((a < step) & (step < b), step, np.where(go, 0.5 * (a + b), r))
            roots[live] = r
            live, sigma, a, b, r, sign_a = live[go], sigma[go], a[go], b[go], r[go], sign_a[go]
            steps += live.size
    return roots, steps


def _slopes(omega2: np.ndarray, kappa2: float, r: np.ndarray, radicals: np.ndarray) -> np.ndarray:
    """d/dr sqrt(1 - x_j) = x_j / (r sqrt(1 - x_j)) for radicals = _radicals(.., r); inf at a branch point."""
    x = omega2 / (kappa2 * np.square(r)[..., None])
    with np.errstate(divide="ignore"):
        return x / (r[..., None] * radicals)


def _ends(omega2: np.ndarray, kappa2: float, sigma: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(f, G+, G-, G+', G-') of signature rows sigma (M, N) at r (M,), as one (5, M) stack.

    f is _branch_values; G+ and G- sum sqrt(1 - x_j) over sigma_j = +1 and
    sigma_j = -1, so f = 1 - r + (G+ - G-)/N.
    """
    g = _radicals(omega2, kappa2, r)
    slope = _slopes(omega2, kappa2, r, g)
    plus = sigma > 0
    return np.stack([1.0 + np.sum(sigma * g, axis=-1) / omega2.size - r,
                     np.sum(g, axis=-1, where=plus), np.sum(g, axis=-1, where=~plus),
                     np.sum(slope, axis=-1, where=plus), np.sum(slope, axis=-1, where=~plus)])


def _grid_ends(omega2: np.ndarray, kappa2: float, sigmas: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """_ends of every signature row at every grid point, as one (5, M, points) stack, from two matrix products.

    values holds sqrt(1 - x_j), its finite slopes and the branch-point flags
    as one (N, 3 points) matrix, so (sigmas > 0) @ values and
    (sigmas < 0) @ values give each row's sums over sigma_j = +1 and over
    sigma_j = -1 of all three.  A slope that is infinite (at a branch point)
    enters the products as 0, and G+' or G-' is inf where the flags of those
    oscillators count one.
    """
    n, points = omega2.size, grid.size
    g = _radicals(omega2, kappa2, grid)
    slope = _slopes(omega2, kappa2, grid, g)
    branch = np.isinf(slope)
    values = np.concatenate([g, np.where(branch, 0.0, slope), branch]).T  # (N, 3 points)
    plus, minus = (sigmas > 0) @ values, (sigmas < 0) @ values
    f = 1.0 + (plus[:, :points] - minus[:, :points]) / n - grid
    slope_plus = np.where(plus[:, 2 * points:] > 0.0, np.inf, plus[:, points:2 * points])
    slope_minus = np.where(minus[:, 2 * points:] > 0.0, np.inf, minus[:, points:2 * points])
    return np.stack([f, plus[:, :points], minus[:, :points], slope_plus, slope_minus])


def _cell_bounds(n: int, a: np.ndarray, b: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounds (lower f, upper f, lower f', upper f') of f on each cell [a, b] from _ends at a (left) and b (right).

    Each sqrt(1 - x_j) is concave, so G+ and G- are, and a concave G lies
    between its chord and the chord plus min(h G'(a) - dG, dG - h G'(b))
    (h = b - a, dG = G(b) - G(a); its tangents at a and b).  With
    f = 1 - r + (G+ - G-)/N, f lies within max(f(a), f(b)) + gap(G+)/N and
    min(f(a), f(b)) - gap(G-)/N.  G+' falls and G-' rises, so
    f' lies in [-1 + (G+'(b) - G-'(a))/N, -1 + (G+'(a) - G-'(b))/N].  An
    infinite slope at a branch point leaves only the tangent at b.
    """
    h = b - a

    def gap(i):
        rise = right[i] - left[i]
        return np.maximum(np.minimum(h * left[i + 2] - rise, rise - h * right[i + 2]), 0.0)

    return (np.minimum(left[0], right[0]) - gap(2) / n, np.maximum(left[0], right[0]) + gap(1) / n,
            (right[3] - left[4]) / n - 1.0, (left[3] - right[4]) / n - 1.0)


def _allowance(r: np.ndarray) -> np.ndarray:
    """Rounding allowance of f and its cell bounds at r: ROUNDING_ULPS ulps of 2 + r >= sum |terms of f|."""
    return ROUNDING_ULPS * np.finfo(float).eps * (2.0 + r)


def _branch_roots(omega2: np.ndarray, kappa2: float, sigmas: np.ndarray, lo: float,
                  hi: float) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Roots on [lo, hi] of the branch function of every signature row in sigmas, as columns; the solver's counts.

    The branch function f(r) = 1 + (1/N) sum_j sigma_j sqrt(1 - omega_j^2/(kappa r)^2) - r
    is a concave part plus a convex part, so tangents and chords bound it on
    a cell (_cell_bounds).  Its roots are isolated BLOCK_SIGNATURES rows at
    a time, from the COARSE_CELLS cells of one grid on [lo, hi] whose end
    values come from matrix products (_grid_ends).  Every undecided cell of a
    block is tested at once per level, and a halved cell's midpoint is
    evaluated row by row (_ends).  A value within the rounding allowance
    (_allowance) of 0 counts as 0.  A cell has no root when its bounds on f
    leave out 0 by more than the allowance.  A cell whose slope bounds have
    one sign has one root when f changes sign across it, and none when f
    keeps its sign or is 0 at its left end (that root belongs to the cell on
    its left, or is lo).  Every other cell, and a one-signed cell whose f is
    0 only at its right end, is halved; once narrower than MIN_WIDTH it is a
    tangent (double) root at its end of smaller |f|, logged at DEBUG as a
    close call.  lo itself is a root when |f(lo)| < ROOT_TOL.  The one-root
    cells of all blocks are solved NEWTON_BRACKETS at a time by
    _newton_brackets: Newton steps kept inside the cell, 2 or 3 per cell on
    most systems; each cell is solved independently of the others.
    The roots come unsorted as two columns, the signature row (an index into
    sigmas) and r.  The counts are the deepest level, the cells tested, the
    tangent cells, the brackets solved and their Newton steps.
    """
    n = omega2.size
    grid = np.linspace(lo, hi, COARSE_CELLS + 1)
    found_rows, found = [], []  # the roots at lo and the tangent roots
    counts = dict.fromkeys(_COUNTS, 0)
    rows, a, b, fa = [], [], [], []  # the one-root brackets
    for start in range(0, len(sigmas), BLOCK_SIGNATURES):
        block = sigmas[start:start + BLOCK_SIGNATURES].astype(float)
        ends = _grid_ends(omega2, kappa2, block, grid)
        at_lo = np.abs(ends[0, :, 0]) < ROOT_TOL
        found_rows += (start + np.flatnonzero(at_lo)).tolist()
        found += [float(grid[0])] * int(np.count_nonzero(at_lo))
        row = np.repeat(np.arange(len(block)), COARSE_CELLS)
        left, right = ends[:, :, :-1].reshape(5, -1), ends[:, :, 1:].reshape(5, -1)
        cell_a, cell_b = np.tile(grid[:-1], len(block)), np.tile(grid[1:], len(block))
        level = 0
        while row.size:
            level += 1
            counts["cells"] += row.size
            lower, upper, slope_lower, slope_upper = _cell_bounds(n, cell_a, cell_b, left, right)
            allowance = _allowance(cell_b)
            empty = (lower > allowance) | (upper < -allowance)
            monotone = ~empty & ((slope_lower > 0.0) | (slope_upper < 0.0))
            sign_a = np.where((np.abs(left[0]) <= _allowance(cell_a)) | ((cell_a == lo) & at_lo[row]), 0.0,
                              np.sign(left[0]))
            sign_b = np.where(np.abs(right[0]) <= allowance, 0.0, np.sign(right[0]))
            one = monotone & (sign_a * sign_b < 0.0)
            rows.append(start + row[one])
            a.append(cell_a[one])
            b.append(cell_b[one])
            fa.append(left[0, one])
            undecided = ~empty & (~monotone | ((sign_a != 0.0) & (sign_b == 0.0)))
            narrow = undecided & (cell_b - cell_a < MIN_WIDTH)
            for k in np.flatnonzero(narrow & (sign_a != 0.0)).tolist():
                x = float(cell_a[k] if abs(left[0, k]) <= abs(right[0, k]) else cell_b[k])
                _log.debug("tangent cell r=%.17g width %.3g: f in [%.3g, %.3g]", x, cell_b[k] - cell_a[k],
                           lower[k], upper[k])
                counts["tangent"] += 1
                found_rows.append(start + int(row[k]))
                found.append(x)
            split = undecided & ~narrow
            row, cell_a, cell_b, left, right = row[split], cell_a[split], cell_b[split], left[:, split], right[:, split]
            mid = 0.5 * (cell_a + cell_b)
            at_mid = _ends(omega2, kappa2, block[row], mid)
            row = np.concatenate([row, row])
            cell_a, cell_b = np.concatenate([cell_a, mid]), np.concatenate([mid, cell_b])
            left, right = np.concatenate([left, at_mid], axis=1), np.concatenate([at_mid, right], axis=1)
        counts["levels"] = max(counts["levels"], level)
    rows, a, b, fa = (np.concatenate(x) for x in (rows, a, b, fa))
    solved = np.empty(rows.size)
    for start in range(0, max(rows.size, 1), NEWTON_BRACKETS):  # one call, empty or not, up to NEWTON_BRACKETS
        part = slice(start, start + NEWTON_BRACKETS)
        solved[part], steps = _newton_brackets(omega2, kappa2, sigmas[rows[part]].astype(float), a[part], b[part],
                                                  fa[part])
        counts["steps"] += steps
    counts["brackets"] = rows.size
    return (np.concatenate([np.array(found_rows, dtype=int), rows]),
            np.concatenate([np.array(found, dtype=float), solved]), counts)


def _merge_roots(order: np.ndarray, group: np.ndarray, r: np.ndarray, radius: np.ndarray) -> list[int]:
    """The indices of the roots kept, walked in order, which sorts them by group, then r.

    A root is dropped when it lies within its own radius plus that of the last root kept in its group.
    """
    group, r, radius = group.tolist(), r.tolist(), radius.tolist()
    keep: list[int] = []
    for k in order.tolist():
        if not keep or group[k] != group[keep[-1]] or r[k] - r[keep[-1]] > radius[k] + radius[keep[-1]]:
            keep.append(k)
    return keep


def _fixed_point_roots(config: SystemConfig, sigmas: np.ndarray, lo: float,
                       hi: float) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """(row, r) columns of the fixed-point roots on [max(lo, max|omega|/|kappa|), hi]; the counts of _branch_roots.

    Sorted by row, then r; a row's roots within 1e-10 are merged (_merge_roots).  The counts are 0 on an empty interval.
    """
    lo = max(lo, config.omega_max / abs(config.kappa))
    if lo > hi:
        return np.empty(0, dtype=int), np.empty(0), dict.fromkeys(_COUNTS, 0)
    rows, r, counts = _branch_roots(*_scaled_squares(config), sigmas, lo, hi)
    keep = _merge_roots(np.lexsort((r, rows)), rows, r, np.full(r.size, 0.5e-10))
    return rows[keep], r[keep], counts


def solve_R_equation(config: SystemConfig, signature: Signature) -> list[float]:
    """All roots of the order-parameter fixed-point equation for one signature.

    The one-row case of the signature-batched branch solver (_branch_roots)
    on [max|omega|/|kappa|, 2 + 1e-9]; roots closer than 1e-10 are merged.
    Its cell bounds isolate every simple root, so the two roots just above a
    saddle-node come back as two however close they are, down to the
    tangent-cell width 1e-12; a double root comes back once.  Each simple
    root is refined by Newton steps inside its cell to |f| < ROOT_TOL, so it
    lies within about ROOT_TOL/|f'| of the exact root.
    """
    _require_coupling(config)
    if _frequencies_vanish(config):
        raise DegenerateFrequenciesError("all frequencies vanish; use the bipolar enumeration")
    sigma = signature.sigma
    if sigma.shape != (config.n,):
        raise DomainError("signature length must equal N")
    _, roots, _ = _fixed_point_roots(config, sigma[None], 0.0, R_UPPER)
    return roots.tolist()


def _stable_root(config: SystemConfig) -> tuple[float, int, float] | None:
    """Largest root R* of the all-plus branch function, the Newton steps taken and f'(R*); None below kappa_c.

    f(r) = 1 + (1/N) sum_j sqrt(1 - omega_j^2/(kappa r)^2) - r is concave on
    (max|omega|/|kappa|, 2] and f(2) <= 0, so Newton's method from r = 2
    moves left and approaches the largest root from the right without passing
    it.  It stops at f >= 0 or once a step no longer moves r left.  A step
    that meets f' >= 0 while f < 0 has passed the maximum of f, and one that
    reaches the branch point max|omega|/|kappa| has left the branch: either
    way f < 0 on the whole branch, which has no root (kappa < kappa_c).  For
    kappa > 0 the root's equilibrium is the only one that can be stable.
    Frequencies must not vanish (as for solve_R_equation).
    """
    omega2, kappa2 = _scaled_squares(config)
    branch = config.omega_max / abs(config.kappa)
    r = 2.0
    if branch >= r:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):  # x >= 1 within rounding of the branch point: nan or inf
        for steps in range(100):  # at most 6 steps from 1.05 kappa_c up, about 25 at kappa_c
            x = omega2 / (kappa2 * r * r)
            s = np.sqrt(1.0 - x)
            f = 1.0 + float(np.sum(s)) / omega2.size - r
            slope = float(np.sum(x / s)) / (omega2.size * r) - 1.0  # d/dr sqrt(1 - x) = x / (r sqrt(1 - x))
            if f >= 0.0:
                break
            if not slope < 0.0:
                return None
            r_next = r - f / slope
            if r_next >= r:
                break
            if r_next <= branch:
                return None
            r = r_next
    return r, steps, slope


def _canonical(theta: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    wrapped = np.mod(-theta + np.pi, 2.0 * np.pi)
    return np.pi - wrapped


def _equilibrium_theta(config: SystemConfig, sigma: np.ndarray, r) -> np.ndarray:
    """Canonical equilibrium phases of signature rows sigma (..., N) at order parameters r (...)."""
    ratio = np.clip(config.omega / (config.kappa * np.asarray(r, dtype=float)[..., None]), -1.0, 1.0)
    base = np.arcsin(ratio)
    theta = np.where(sigma > 0, base, np.pi - base)
    return _canonical(theta)


def _stability(config: SystemConfig, r: np.ndarray, theta: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Per row: (label, largest eigenvalue) of the Jacobian, thresholds +-1e-8.

    Rows are order parameters r (M,) and phases theta (M, N).  The Jacobian
    D + (kappa/N) s s^T (s = sin theta) is minus the Hessian of the potential
    V, so it is symmetric and eigvalsh gives its spectrum.  A row on the
    boundary |kappa|*R = max|omega| is Indeterminate with nan, and its
    eigenvalues are not computed.  The other rows go BLOCK_SIGNATURES at a
    time into one Jacobian stack and one eigvalsh call, so memory stays
    bounded in M; a stack beyond the float range (|kappa| R near 1e308) raises DomainError.
    """
    max_eig = np.full(r.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # kappa * R beyond the float range is refused below
        inner = np.flatnonzero(~(np.abs(abs(config.kappa) * r - config.omega_max) < 1e-12))
        for start in range(0, inner.size, BLOCK_SIGNATURES):
            rows = inner[start:start + BLOCK_SIGNATURES]
            jac = model.jacobian(config, theta[rows])
            if not np.isfinite(jac).all():
                raise DomainError(f"the Jacobian overflows the float range at kappa={config.kappa:g}")
            max_eig[rows] = np.linalg.eigvalsh(jac)[..., -1]
    labels = np.where(max_eig > 1e-8, "Unstable", np.where(max_eig < -1e-8, "Stable", "Indeterminate"))
    return labels.tolist(), max_eig


def _records(config: SystemConfig, sigmas: np.ndarray, r: np.ndarray,
             theta: np.ndarray) -> list[EquilibriumRecord]:
    """Records of the rows sigmas (M, N), r (M,), theta (M, N), built as one stack."""
    sigmas = np.asarray(sigmas, dtype=int)  # each Signature then keeps its row as is
    labels, max_eig = _stability(config, r, theta)
    divergence = model.divergence(config, model.sinusoidal(), theta)
    return [
        EquilibriumRecord(R=rk, theta=th, signature=Signature(sigma), divergence=div, stability=label,
                          max_eig_real=eig)
        for rk, th, sigma, div, label, eig in zip(r.tolist(), theta, sigmas, divergence.tolist(), labels,
                                                   max_eig.tolist())
    ]


def _dedup(theta: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of theta (M, N) not within DEDUP_TOL of an earlier kept row, in order; and the rows compared.

    Greedy, first row wins.  Each row has the key cell
    floor(mean(cos theta) / (2 DEDUP_TOL)).  |cos a - cos b| <= |wrap(a - b)|,
    so a theta within DEDUP_TOL of another has its key within DEDUP_TOL of
    that one's: a row is compared only with the kept rows in its cell and its
    two neighbours (a key window of at least +-2 DEDUP_TOL).  A pre-pass over
    the sorted cells finds the rows with no other row in those three cells;
    such a row can neither be dropped nor drop another, so it is kept without
    a comparison.  The rest are compared in order, and are the count returned.
    """
    cells = np.floor(np.mean(np.cos(theta), axis=-1) / (2 * DEDUP_TOL)).astype(np.int64)
    ordered = np.sort(cells)
    near = np.searchsorted(ordered, cells + 2) - np.searchsorted(ordered, cells - 1) > 1
    keep = ~near  # the rows kept unseen, then those the loop keeps
    kept: dict[int, list[np.ndarray]] = {}
    compared = np.flatnonzero(near)
    for i, cell in zip(compared.tolist(), cells[compared].tolist()):
        row = theta[i]
        if any(np.max(np.abs(model.wrap_to_pi(row - prev))) < DEDUP_TOL
               for near_cell in (cell - 1, cell, cell + 1) for prev in kept.get(near_cell, ())):
            continue
        kept.setdefault(cell, []).append(row)
        keep[i] = True
    return np.flatnonzero(keep), compared.size


def _bipolar(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phases and order parameters of signature rows sigmas (M, N) at omega = 0: theta_j in {0, pi}."""
    theta = np.where(sigmas < 0, np.pi, 0.0)
    return theta, model.order_parameter(model.sinusoidal(), theta)


def enumerate_equilibria(config: SystemConfig) -> list[EquilibriumRecord]:
    """All equilibria (mod 2*pi), via signature enumeration; at most 2^(N+1).

    One pass: the (row, r) columns of every signature's roots
    (_fixed_point_roots), their phases as one stack, one _dedup call over
    them, and one _records call over the rows kept (_stability bounds its
    Jacobian stacks).  Counts (the branch solver's, and the rows _dedup
    compared) and the times of the scan, dedup (phases and dedup) and record
    phases go to the DEBUG log.
    """
    _require_coupling(config)
    if config.n > 18:  # 2^18 records take about 10 s and 300 MB max RSS on a 2-vCPU machine
        raise SizeLimitError("signature enumeration limited to N <= 18")
    clock = time.perf_counter()
    sigmas = _signatures(config.n)
    bipolar = _frequencies_vanish(config)
    if bipolar:  # all distinct
        (theta, r), rows, counts = _bipolar(sigmas), np.arange(len(sigmas)), dict.fromkeys(_COUNTS, 0)
        compared = 0
    else:
        rows, r, counts = _fixed_point_roots(config, sigmas, 0.0, R_UPPER)
    scan_s, clock = time.perf_counter() - clock, time.perf_counter()
    if not bipolar:
        theta = _equilibrium_theta(config, sigmas[rows], r)
        new, compared = _dedup(theta)
        sigmas, r, theta = sigmas[rows[new]], r[new], theta[new]  # frees the 2^N table before the records
    dedup_s, clock = time.perf_counter() - clock, time.perf_counter()
    records = _records(config, sigmas, r, theta)
    record_s = time.perf_counter() - clock
    _log.debug("enumerate N=%d: %d signatures, %d roots, %d records; "
               "%d levels, %d cells tested, %d tangent cells, %d brackets, %d Newton steps; "
               "%d rows compared in dedup; scan %.6f s, dedup %.6f s, records %.6f s",
               config.n, 2**config.n, rows.size, len(records), *counts.values(), compared, scan_s, dedup_s,
               record_s)
    return records


def _critical_level(omega2: np.ndarray, a: float, b: float) -> tuple[float, int]:
    """Predicted root in [a, b] of the balance function h of critical_coupling; and the Newton steps made.

    h(b) <= 0 must hold.  In z = sqrt(1 - 1/u^2) the root is that of
    H(z) = z h = -z - (2/N) z sum_j s_j + (1/N) sum_j z/s_j with
    s_j = sqrt(1 - c_j + c_j z^2), c_j = omega2_j (max 1), so the singular
    1/s term of a c_j = 1 oscillator is the constant 1.  Each term is concave
    in z and H(0+) > 0, so H is concave with one root on (0, 1/2], and
    Newton's method from a point right of the root moves left without
    passing it (as in _stable_root).  It starts at the zero of H's tangent
    at 0+ when that zero lies below z(b) (the tangent lies above H, so its
    zero lies right of the root), else at z(b); either is raised to z(a).
    It stops at H >= 0, once a step no longer moves z left, or after a step
    shorter than 1e-8 z, which leaves an error of order 1e-16 z; a step that
    reaches z(a) predicts a.  With no step taken from z(b) (N = 1 or equal
    frequencies put the root at b within rounding) the prediction is b
    itself.  A step's four sums (of s_j, z/s_j, c_j z/s_j and
    (1 - c_j)/s_j^3, for H and H') are the rows of one (4, N) array, taken
    by one np.add.reduce.
    """
    n = omega2.size
    floor = 1.0 - omega2
    inner = floor > 0.0
    q = np.sqrt(floor[inner])
    slope = -1.0 - 2.0 / n * float(np.sum(q)) + float(np.sum(1.0 / q)) / n  # H'(0+); H(0+) = (N - inner)/N
    za, zb = math.sqrt(1.0 - 1.0 / (a * a)), math.sqrt(1.0 - 1.0 / (b * b))
    z = max(za, min(zb, (n - np.count_nonzero(inner)) / n / -slope)) if slope < 0.0 else zb
    terms = np.empty((4, n))
    s, ratio, weighted, curve = terms
    for steps in range(1, 101):
        np.sqrt(np.add(floor, np.multiply(omega2, z * z, out=s), out=s), out=s)
        np.divide(z, s, out=ratio)
        np.multiply(omega2, ratio, out=weighted)
        np.divide(floor, np.power(s, 3, out=curve), out=curve)
        sum_s, sum_ratio, sum_weighted, sum_curve = np.add.reduce(terms, axis=1).tolist()
        value = -z - 2.0 / n * z * sum_s + sum_ratio / n
        slope = -1.0 - 2.0 / n * (sum_s + z * sum_weighted) + sum_curve / n
        if value >= 0.0 or not slope < 0.0:
            break
        z_next = z - value / slope
        if z_next >= z:
            break
        if z_next <= za:
            return a, steps
        close, z = z - z_next <= 1e-8 * z, z_next
        if close:
            break
    return (b if z == zb else 1.0 / math.sqrt(1.0 - z * z)), steps


def critical_coupling(omega) -> float:
    """Smallest coupling strength admitting an equilibrium.

    Solves the scalar balance equation h(u) = 0 for the auxiliary level u in
    [1, 2/sqrt(3)] for omega/max|omega| by bisection and scales the result by
    max|omega|, so tiny frequencies cannot underflow; returns 0 for omega = 0
    (degenerate: every positive coupling admits equilibria).  Newton's method
    predicts the root first (_critical_level); each round of the bisection
    (thresholds._bisect_walk) evaluates h at the midpoints that halving takes
    toward the prediction, about 37 of them, as one (points, n) array, and
    walks them by their actual verdicts, predicting again inside the bracket
    at the first verdict that leaves the path.  The answer is that of the
    one-step-at-a-time bisection whatever the prediction, which only chooses
    the points of a batch; one path batch after the h(b) check is the rule.
    Its Newton steps, path batches and mismatched verdicts go to the DEBUG
    log.  omega must pass model.frequencies.
    """
    omega = model.frequencies(omega)
    omega_inf = float(np.max(np.abs(omega)))
    if omega_inf == 0.0:
        return 0.0
    n = omega.size
    omega2 = (omega / omega_inf) ** 2
    counts = {"steps": 0, "batches": 0, "mismatches": 0}
    predicted = 0.0

    def h(us):  # at the points us, as one (len(us), n) array; each u**2 a Python float
        u2 = np.array([u**2 for u in us])
        s = np.sqrt(np.maximum(1.0 - omega2 / u2[:, None], 1e-300))
        return -1.0 - 2.0 / n * s.sum(axis=-1) + 1.0 / n * (1.0 / s).sum(axis=-1)

    def above(us):
        verdict = (h(us) > 0.0).tolist()
        counts["batches"] += 1
        counts["mismatches"] += any(v != (predicted > u) for u, v in zip(us, verdict))
        return verdict

    def guess(a, b):
        nonlocal predicted
        predicted, steps = _critical_level(omega2, a, b)
        counts["steps"] += steps
        return predicted

    a = 1.0 + 1e-12
    b = 2.0 / math.sqrt(3.0)
    if h([b])[0] >= 0.0:
        u_star = b
    else:
        a, b = _bisect_walk(above, a, b, 200, lambda a, b: (b - a) <= 1e-12 * b, guess)
        u_star = 0.5 * (a + b)
    _log.debug("critical_coupling n=%d: %d Newton steps, %d path batches, %d mismatches", n, *counts.values())
    s = np.sqrt(np.clip(1.0 - omega2 / u_star**2, 0.0, None))
    return float(n * u_star / (n + np.sum(s))) * omega_inf


def construct_prescribed_equilibrium(
    rho: float, config: SystemConfig
) -> tuple[EquilibriumRecord, int]:
    """Equilibrium whose order parameter is within [rho/4, 3*rho/2].

    Uses m leading oscillators on the principal branch and N-m on the mirrored
    branch, with rho0 = 2m/N <= rho < (2m+2)/N, and takes the root nearest rho0
    of the fixed-point equation on [rho0/2, 3*rho0/2] (_fixed_point_roots, as
    enumerate_equilibria), or raises DomainError.  At omega = 0, R = rho0.
    """
    if not 0.0 < rho <= 2.0:
        raise DomainError("rho must lie in (0, 2]")
    if config.n < 2.0 / rho:
        raise DomainError(f"requires N >= 2/rho: N={config.n}, 2/rho={2.0 / rho}")
    _require_coupling(config)
    ratio = config.omega_max / abs(config.kappa)
    if ratio >= rho**1.5 / 16.0:
        raise DomainError(
            f"requires max|omega|/|kappa| < rho^1.5/16: {ratio} >= {rho**1.5 / 16.0}"
        )
    m = min(int(math.floor(config.n * rho / 2.0 + 1e-12)), config.n)
    m = max(m, 1)
    rho0 = 2.0 * m / config.n
    sigma = np.where(np.arange(config.n) < m, 1, -1)[None]
    if _frequencies_vanish(config):
        theta, r = _bipolar(sigma)
        return _records(config, sigma, r, theta)[0], m
    _, roots, _ = _fixed_point_roots(config, sigma, 0.5 * rho0, 1.5 * rho0)
    if not roots.size:
        raise DomainError("no fixed-point root in the prescribed interval")
    r = roots[[np.argmin(np.abs(roots - rho0))]]
    theta = _equilibrium_theta(config, sigma, r)
    record = _records(config, sigma, r, theta)[0]
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


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.convolve(a, b) of two non-empty 1-D arrays, bit for bit, without its wrapper's per-call checks."""
    if len(a) < len(b):
        a, b = b, a
    return np.correlate(a, b[::-1], "full")


def _group_multiply(e1: dict, e2: dict, poly_w: list) -> dict:
    """Multiply two elements of the radical group algebra.

    Elements map bitmasks of active radicals p_j to coefficient polynomials in
    r (ascending).  p_j^2 collapses to the polynomial poly_w[j] = r^2 - w_j.
    """
    out: dict = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            poly = _convolve(c1, c2)
            both = m1 & m2
            j = 0
            while both:
                if both & 1:
                    poly = _convolve(poly, poly_w[j])
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
    _require_coupling(config)
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
            _accumulate(element, m, -_convolve(c, poly_w[j]))  # minus (r^2 - w_j) * B^2
    (mask, coeffs), = element.items()
    assert mask == 0
    return WPolynomial(coeffs=coeffs, degree=2 ** (n + 1), branch_w=branch_w)


def classify_stability(config: SystemConfig, eq: EquilibriumRecord) -> str:
    """Linear stability from the Jacobian's largest eigenvalue (thresholds +-1e-8)."""
    return _stability(config, np.array([eq.R], dtype=float), eq.theta[None])[0][0]


def equilibria_to_json(records: list[EquilibriumRecord], path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_json_dict() for r in records], fh, sort_keys=True)
