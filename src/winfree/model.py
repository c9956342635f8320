"""Interaction functions, the Winfree vector field, and its derived quantities.

The model is the mean-field system

    dtheta_i/dt = omega_i + (kappa/N) * sum_j I(theta_j) * S(theta_i)

with influence I and sensitivity S.  The prototypical (sinusoidal) choice is
S(theta) = -sin(theta), I(theta) = 1 + cos(theta), for which the average
influence R = (1/N) sum_j I(theta_j) lies in [0, 2].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedOperationError

TABLE_SIZE = 4096
FD_STEP = 1e-6

_TWO_PI = 2.0 * np.pi


def wrap_to_pi(theta):
    """Reduce angles to [-pi, pi) (evaluation only; states stay unwrapped)."""
    return np.mod(np.asarray(theta, dtype=float) + np.pi, _TWO_PI) - np.pi


_GRID = np.linspace(-np.pi, np.pi, TABLE_SIZE)


class Family(NamedTuple):
    """Elementwise I, S, I' and S' of one interaction family, each f(spec, theta).

    Closed forms take any real theta; tables wrap it to [-pi, pi) for np.interp.
    """

    influence: Callable
    sensitivity: Callable
    influence_deriv: Callable
    sensitivity_deriv: Callable


def _minus_sin(spec, th):
    return -np.sin(th)


def _minus_cos(spec, th):
    return -np.cos(th)


def _poisson_influence(spec, th):
    r = spec.r_pk
    return (1.0 - r) * (1.0 + np.cos(th)) / (1.0 - 2.0 * r * np.cos(th) + r * r)


def _poisson_influence_deriv(spec, th):
    r = spec.r_pk
    return -np.sin(th) * (1.0 - r) * (1.0 + r) ** 2 / (1.0 - 2.0 * r * np.cos(th) + r * r) ** 2


def _tabulated(table: str) -> Callable:
    return lambda spec, th: np.interp(wrap_to_pi(th), _GRID, getattr(spec, table))


def _centred_difference(f: Callable) -> Callable:
    return lambda spec, th: (f(spec, th + FD_STEP) - f(spec, th - FD_STEP)) / (2.0 * FD_STEP)


_CUSTOM_I, _CUSTOM_S = _tabulated("i_table"), _tabulated("s_table")

FAMILIES = {
    "sinusoidal": Family(lambda spec, th: 1.0 + np.cos(th), _minus_sin, _minus_sin, _minus_cos),
    "power_cosine": Family(
        lambda spec, th: (1.0 + np.cos(th)) ** spec.n,
        _minus_sin,
        lambda spec, th: -spec.n * np.sin(th) * (1.0 + np.cos(th)) ** (spec.n - 1),
        _minus_cos,
    ),
    "rectified_poisson": Family(_poisson_influence, _minus_sin, _poisson_influence_deriv, _minus_cos),
    "custom": Family(_CUSTOM_I, _CUSTOM_S, _centred_difference(_CUSTOM_I), _centred_difference(_CUSTOM_S)),
}


@dataclass(frozen=True)
class InteractionSpec:
    """Influence/sensitivity pair plus the structural constants.

    The constants c1..c5, p, q, r_exp, alpha0, I_star describe the shape
    conditions used by the coupling thresholds:
      (c1) S(theta) <= -c1*(pi-theta)^p on [alpha0, pi] (and the odd mirror),
      (c2) 0 <= I(theta) <= c2*(pi-|theta|)^q,
      (c3) min_{|phi| <= max(|theta|, alpha0)} I(phi) >= c3*I(theta),
      (c4) S'(theta) >= c4*(I_star - I(theta)),
      (c5) I'(theta)*S(theta) >= 0,
      (c7) I(theta) >= c5*(pi-|theta|)^r_exp.
    """

    family: str  # a key of FAMILIES
    n: int = 1
    r_pk: float = 0.0
    i_table: Optional[np.ndarray] = field(default=None, repr=False)
    s_table: Optional[np.ndarray] = field(default=None, repr=False)
    c1: float = 2.0 / np.pi
    c2: float = 0.5
    c3: float = 0.5
    c4: float = 1.0
    c5: float = 1.0 / np.pi**2
    p: float = 1.0
    q: float = 2.0
    r_exp: float = 2.0
    alpha0: float = np.pi / 2.0
    I_star: float = 1.0
    sup_I: float = 2.0

    def __post_init__(self):
        """The one check of each family parameter; a value outside its domain is a DomainError."""
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown interaction family: {self.family}")
        if self.family == "power_cosine" and not 1 <= self.n <= 1023:  # sup I = 2^n must be a finite float
            raise DomainError(f"power_cosine power n must lie in [1, 1023], got {self.n}")
        if self.family == "rectified_poisson" and not -1.0 < self.r_pk < 1.0:
            raise DomainError(f"rectified_poisson r_pk must lie in (-1, 1), got {self.r_pk}")
        if self.family == "custom":
            if self.i_table is None or self.s_table is None or len(self.i_table) == 0:
                raise DomainError("custom interaction requires non-empty I and S tables")


def sinusoidal() -> InteractionSpec:
    """S = -sin, I = 1 + cos, with validated default structural constants."""
    return InteractionSpec(family="sinusoidal")


def power_cosine(n: int) -> InteractionSpec:
    """S = -sin, I = (1 + cos)^n."""
    spec = InteractionSpec(family="power_cosine", n=n)
    return replace(spec, c2=1.0, c3=2.0 ** (-n), c4=1.0 / n, c5=(2.0 / np.pi**2) ** n, q=2.0 * n,
                   r_exp=2.0 * n, sup_I=2.0**n)


def rectified_poisson(r_pk: float) -> InteractionSpec:
    """S = -sin, I = (1-r)(1+cos) / (1 - 2r cos + r^2)."""
    spec = InteractionSpec(family="rectified_poisson", r_pk=r_pk)
    one_minus = 1.0 - r_pk
    denom_min = (1.0 - abs(r_pk)) ** 2
    denom_max = (1.0 + abs(r_pk)) ** 2
    i_star = one_minus / (1.0 + r_pk**2)  # I at alpha0 = pi/2
    # c4 has no simple closed form here; take the grid infimum of
    # S'(theta) / (I_star - I(theta)) away from the sign-change point.
    gap = i_star - influence(spec, _GRID)
    sp = sensitivity_deriv(spec, _GRID)
    mask = np.abs(gap) > 1e-6
    ratios = sp[mask] / gap[mask]
    return replace(
        spec,
        c2=one_minus / (2.0 * denom_min),
        c3=one_minus**2 / (2.0 * (1.0 + r_pk**2)),
        c4=max(float(np.min(ratios)), 0.0) * (1.0 - 1e-6),
        c5=2.0 * one_minus / (np.pi**2 * denom_max),
        I_star=i_star,
        sup_I=2.0 / one_minus,
    )


def custom_interaction(i_table, s_table, **constants) -> InteractionSpec:
    """Tabulated I and S on a uniform grid over [-pi, pi], linear interpolation.

    Tables are resampled to TABLE_SIZE points.  Structural constants default to
    the sinusoidal values and should be overridden (and then validated with
    verify_interaction_conditions) for anything else.
    """
    i_table = _resample(np.asarray(i_table, dtype=float))
    s_table = _resample(np.asarray(s_table, dtype=float))
    return InteractionSpec(family="custom", i_table=i_table, s_table=s_table, **constants)


def load_custom_table(path) -> np.ndarray:
    """Load a (theta, value) two-column CSV with a header row.

    Returns the values resampled onto the uniform TABLE_SIZE grid over [-pi, pi].
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ConfigurationError(f"empty CSV table: {path}")
        rows = [row[:2] for row in reader if row]
    if not rows:
        raise ConfigurationError(f"CSV table has no data rows: {path}")
    try:
        th, val = np.array(rows, dtype=float).T
    except ValueError:
        raise ConfigurationError(f"CSV table rows must be numeric theta,value pairs: {path}") from None
    order = np.argsort(th)
    return np.interp(_GRID, th[order], val[order])


def _resample(values: np.ndarray) -> np.ndarray:
    if values.ndim != 1 or len(values) < 2:
        raise ConfigurationError("interaction table must be a 1-D array with >= 2 points")
    if len(values) == TABLE_SIZE:
        return values
    src = np.linspace(-np.pi, np.pi, len(values))
    return np.interp(_GRID, src, values)


def frequencies(omega) -> np.ndarray:
    """omega as a float vector; ConfigurationError unless it is finite, one-dimensional and non-empty."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1 or omega.size == 0 or not np.all(np.isfinite(omega)):
        raise ConfigurationError(f"omega must be a non-empty 1-D vector of finite numbers, got shape {omega.shape}")
    return omega


@dataclass(frozen=True)
class SystemConfig:
    """Oscillator count, intrinsic frequencies, and coupling strength."""

    n: int
    omega: np.ndarray
    kappa: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        omega = frequencies(self.omega)
        object.__setattr__(self, "omega", omega)
        if omega.shape != (self.n,):
            raise ConfigurationError(f"omega must have length n={self.n}, got shape {omega.shape}")
        if not np.isfinite(self.kappa):
            raise ConfigurationError(f"kappa must be finite, got {self.kappa}")

    @property
    def omega_max(self) -> float:
        """Sup norm of the frequency vector."""
        return float(np.max(np.abs(self.omega)))


@dataclass(frozen=True)
class PhaseState:
    """Unwrapped phase vector (real line, not reduced mod 2*pi)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1:
            raise ConfigurationError("theta must be a 1-D vector")
        if not np.all(np.isfinite(theta)):
            raise ConfigurationError("theta entries must be finite")


def _phases(state) -> np.ndarray:
    if isinstance(state, PhaseState):
        return state.theta
    return np.asarray(state, dtype=float)


def _finite_phases(state, n: int, ndim: int = 1) -> np.ndarray:
    """A float copy of state with ndim axes, the last of length n; ConfigurationError otherwise or if not finite."""
    theta = np.array(_phases(state), dtype=float)
    if theta.ndim != ndim or theta.shape[-1] != n:
        raise ConfigurationError("initial state length must equal config.n")
    if not np.isfinite(theta).all():
        raise ConfigurationError("initial state must be finite")
    return theta


def influence(spec: InteractionSpec, theta):
    """Evaluate I(theta); 2*pi periodic, vectorized."""
    return FAMILIES[spec.family].influence(spec, theta)


def sensitivity(spec: InteractionSpec, theta):
    """Evaluate S(theta); 2*pi periodic, vectorized."""
    return FAMILIES[spec.family].sensitivity(spec, theta)


def influence_deriv(spec: InteractionSpec, theta):
    """dI/dtheta (closed form for built-ins, centered differences for custom)."""
    return FAMILIES[spec.family].influence_deriv(spec, theta)


def sensitivity_deriv(spec: InteractionSpec, theta):
    """dS/dtheta (closed form for built-ins, centered differences for custom)."""
    return FAMILIES[spec.family].sensitivity_deriv(spec, theta)


def order_parameter(spec: InteractionSpec, state):
    """Average influence R = (1/N) sum_j I(theta_j): a float, or per row of a stack as in divergence."""
    theta = _phases(state)
    r = np.add.reduce(FAMILIES[spec.family].influence(spec, theta), axis=-1) / theta.shape[-1]
    return float(r) if theta.ndim == 1 else r


def vector_field(config: SystemConfig, spec: InteractionSpec, state, kappa=None) -> np.ndarray:
    """Right-hand side omega_i + kappa * R * S(theta_i), per row of a stack as in divergence.

    kappa is None (config.kappa) or one coupling per row.
    """
    family = FAMILIES[spec.family]
    theta = _phases(state)
    r = np.add.reduce(family.influence(spec, theta), axis=-1, keepdims=True) / theta.shape[-1]
    kap = config.kappa if kappa is None else np.asarray(kappa, dtype=float)[..., None]
    return config.omega + kap * r * family.sensitivity(spec, theta)


def divergence(config: SystemConfig, spec: InteractionSpec, state):
    """Divergence (kappa/N) * (sum_j I * sum_i S' + sum_i I' * S) of the vector field.

    For the sinusoidal family this is
    kappa * (N*R*(1-R) + (1/N) sum_i sin^2 theta_i).  A state is one phase
    vector (returns a float) or a stack of them, one per row on the leading
    axes (returns an array of the rows' divergences, each bitwise its 1-D call).
    """
    theta = _phases(state)
    sum_i = np.sum(influence(spec, theta), axis=-1)
    sum_sp = np.sum(sensitivity_deriv(spec, theta), axis=-1)
    sum_is = np.sum(influence_deriv(spec, theta) * sensitivity(spec, theta), axis=-1)
    div = config.kappa / config.n * (sum_i * sum_sp + sum_is)
    return float(div) if theta.ndim == 1 else div


def divergence_lower_bound(config: SystemConfig, spec: InteractionSpec, state):
    """Shape-condition lower bound c4 * kappa * N * R * (I_star - R); stacks as in divergence."""
    r = order_parameter(spec, state)
    bound = spec.c4 * config.kappa * config.n * r * (spec.I_star - r)
    return float(bound) if np.ndim(r) == 0 else bound


def jacobian(config: SystemConfig, state, spec: InteractionSpec = sinusoidal()) -> np.ndarray:
    """Jacobian of the vector field of spec's family; its trace is the divergence.

    Entry (i, j) is (kappa/N) * S(theta_i) * I'(theta_j), plus kappa * R * S'(theta_i)
    on the diagonal.  A state is one phase vector (returns the (N, N) matrix)
    or a stack of them with rows on the leading axes (returns one matrix per
    row, each bitwise its 1-D call).
    """
    family = FAMILIES[spec.family]
    theta = _phases(state)
    n = config.n
    kappa = config.kappa
    s, ip = family.sensitivity(spec, theta), family.influence_deriv(spec, theta)
    r = order_parameter(spec, theta)
    jac = (kappa / n) * (s[..., :, None] * ip[..., None, :])
    diag = np.arange(n)
    sp = family.sensitivity_deriv(spec, theta)
    jac[..., diag, diag] = kappa * np.asarray(r)[..., None] * sp + (kappa / n) * s * ip
    return jac


def is_gradient_spec(spec: InteractionSpec) -> bool:
    """True when S = I' holds to 1e-8 on a 2048-point grid, i.e. gradient flow."""
    th = np.linspace(-np.pi, np.pi, 2048)
    return bool(np.max(np.abs(sensitivity(spec, th) - influence_deriv(spec, th))) < 1e-8)


def potential(config: SystemConfig, spec: InteractionSpec, state) -> float:
    """Gradient-flow potential V; defined only when S = I'.

    V(Theta) = -sum_i omega_i*theta_i - (kappa / 2N) * (sum_i I(theta_i))^2,
    whose negative gradient is the vector field.
    """
    if not is_gradient_spec(spec):
        raise UnsupportedOperationError("potential requires S = I' (gradient-flow interaction)")
    theta = _phases(state)
    total_influence = np.sum(influence(spec, theta))
    return float(-np.dot(config.omega, theta) - config.kappa / (2.0 * config.n) * total_influence**2)
