"""Command-line orchestration: simulations, sweeps, bounds, and verification.

Configuration comes from a single JSON document (--config) with snake_case
keys; kebab-case flags override individual fields.  The WINFREE_SEED
environment variable overrides the configured seed.  Exit codes: 0 success,
2 configuration error, 3 numeric/integration failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import equilibria, integrate, model, montecarlo, thresholds
from .errors import (
    ConfigurationError,
    CriterionInapplicableError,
    DegenerateFrequenciesError,
    DomainError,
    InsufficientDataError,
    IntegrationFailure,
    PreconditionError,
    SizeLimitError,
    UnsupportedOperationError,
)
from .integrate import SolverOptions
from .model import InteractionSpec, SystemConfig
from .montecarlo import McConfig
from .thresholds import BoundParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The package's own input errors; any other exception is a bug and propagates.
_CONFIG_ERRORS = (
    ConfigurationError,
    CriterionInapplicableError,
    DegenerateFrequenciesError,
    DomainError,
    InsufficientDataError,
    PreconditionError,
    SizeLimitError,
    UnsupportedOperationError,
)


def _setting(cfg, key: str, default=None, cast=float):
    """cfg[key] (or default) converted by cast; ConfigurationError names a missing or bad key."""
    value = cfg.get(key, default)
    if value is None:
        raise ConfigurationError(f"missing required setting: {key}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"bad value for {key}: {value!r}") from None


def _optional_float(cfg: dict, key: str) -> Optional[float]:
    """cfg[key] as a float, or None when unset."""
    return None if cfg.get(key) is None else _setting(cfg, key)


def _floats(cfg: dict, key: str) -> np.ndarray:
    """cfg[key] as a float vector, from a JSON list or a comma-separated string."""
    value = cfg.get(key, "")
    items = [x for x in value.split(",") if x.strip() != ""] if isinstance(value, str) else value
    try:
        return np.array([float(x) for x in items])
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key}: expected comma-separated numbers, got {value!r}") from None


def _load_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigurationError("config JSON must be an object")
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        cfg[key] = value
    if "WINFREE_SEED" in os.environ:
        cfg["seed"] = _setting(os.environ, "WINFREE_SEED", cast=int)
    cfg["seed"] = _setting(cfg, "seed", 0, int)
    if cfg["seed"] < 0:
        raise ConfigurationError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def _quantile_frequencies(n: int, gamma: float) -> np.ndarray:
    """Deterministic equal-mass quantile sample of uniform[1-gamma, 1+gamma]."""
    return 1.0 - gamma + 2.0 * gamma * (np.arange(1, n + 1) - 0.5) / n


def _system_config(cfg: dict) -> SystemConfig:
    if "omega" in cfg:
        omega = _floats(cfg, "omega")
        n = _setting(cfg, "n", len(omega), int)
    else:
        n = _setting(cfg, "n", 100, int)
        omega = _quantile_frequencies(n, _setting(cfg, "gamma", 1.0))
    return SystemConfig(n=n, omega=omega, kappa=_setting(cfg, "kappa", 1.0))


def _interaction_spec(cfg: dict) -> InteractionSpec:
    family = cfg.get("family", "sinusoidal")
    if family == "sinusoidal":
        return model.sinusoidal()
    if family == "power_cosine":
        return model.power_cosine(_setting(cfg, "power", 1, int))
    if family == "rectified_poisson":
        return model.rectified_poisson(_setting(cfg, "r_pk", 0.0))
    if family == "custom":
        i_table = model.load_custom_table(_setting(cfg, "influence_table", cast=str))
        s_table = model.load_custom_table(_setting(cfg, "sensitivity_table", cast=str))
        return model.custom_interaction(i_table, s_table)
    raise ConfigurationError(f"unknown interaction family: {family}")


def _solver_options(cfg: dict) -> SolverOptions:
    horizon = _setting(cfg, "horizon", 500.0)
    stride = _setting(cfg, "sample_stride", 1.0)
    method = cfg.get("method", "dormand_prince45")
    if method == "rk4_fixed":
        return integrate.rk4_options(_setting(cfg, "dt", 0.01), horizon, stride)
    return integrate.dp45_options(
        horizon,
        stride,
        abs_tol=_setting(cfg, "abs_tol", 1e-9),
        rel_tol=_setting(cfg, "rel_tol", 1e-9),
        max_dt=_setting(cfg, "max_dt", 0.1),
    )


def _mc_config(cfg: dict) -> McConfig:
    return McConfig(
        samples=_setting(cfg, "samples", 1000, int),
        seed=cfg["seed"],
        workers=_setting(cfg, "workers", 1, int),
    )


def _initial_state(cfg: dict, n: int) -> np.ndarray:
    if "initial" in cfg:
        theta = _floats(cfg, "initial")
        if theta.shape != (n,):
            raise ConfigurationError("initial state length must equal n")
        return theta
    return np.random.default_rng((cfg["seed"], 0)).uniform(-np.pi, np.pi, n)


def _write_json(cfg: dict, payload: dict, default_path: str) -> None:
    path = cfg.get("output", default_path)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(text)


def cmd_simulate(cfg: dict) -> int:
    config = _system_config(cfg)
    spec = _interaction_spec(cfg)
    opts = _solver_options(cfg)
    initial = _initial_state(cfg, config.n)
    traj_path = cfg.get("trajectory_output", "trajectory.csv")
    try:
        traj = integrate.simulate(config, spec, initial, opts)
    except IntegrationFailure as exc:
        if exc.partial_trajectory is not None:
            exc.partial_trajectory.to_csv(traj_path)
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    traj.to_csv(traj_path)
    report = integrate.regime_report(traj, config)
    summary = {
        "final_R": float(traj.r_series[-1]),
        "rotation_numbers": report.rho.tolist(),
        "death_flags": report.death_flags.tolist(),
        "regime": report.regime,
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
    }
    _write_json(cfg, summary, "summary.json")
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    n = 800 if cfg.get("full") else _setting(cfg, "n", 100, int)
    kappa_grid = _floats(cfg, "kappa_grid")
    gamma_grid = _floats(cfg, "gamma_grid")
    if kappa_grid.size == 0 or gamma_grid.size == 0:
        raise ConfigurationError("sweep requires non-empty kappa_grid and gamma_grid")
    opts = _solver_options(cfg)
    spec = _interaction_spec(cfg)
    seed = cfg["seed"]
    rows = ["kappa,gamma,regime,death_fraction,mean_R_final"]
    cell = 0
    for gamma in gamma_grid:
        # the cells of one gamma share omega: integrate them as one batch with
        # per-row kappa (each row is bitwise its own simulate call)
        omega = _quantile_frequencies(n, float(gamma))
        configs = [SystemConfig(n=n, omega=omega, kappa=float(kappa)) for kappa in kappa_grid]
        initial = np.array([
            np.random.default_rng((seed, cell + i)).uniform(-np.pi, np.pi, n) for i in range(len(configs))
        ])
        runs = integrate._integrate_rows(configs[0], spec, initial, opts, kappa=[c.kappa for c in configs])
        for config, (traj, failure) in zip(configs, runs):
            if failure is not None:
                raise IntegrationFailure(failure, partial_trajectory=traj)
            report = integrate.regime_report(traj, config)
            tail = traj.r_series[traj.times >= 0.9 * opts.horizon]
            rows.append(
                f"{config.kappa:.17g},{gamma:.17g},{report.regime},"
                f"{float(np.mean(report.death_flags)):.17g},{float(np.mean(tail)):.17g}"
            )
            cell += 1
    path = cfg.get("output", "sweep.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path} ({cell} cells)")
    return EXIT_OK


def cmd_equilibria(cfg: dict) -> int:
    config = _system_config(cfg)
    records = equilibria.enumerate_equilibria(config)
    payload = {"count": len(records), "equilibria": [r.to_json_dict() for r in records]}
    _write_json(cfg, payload, "-")
    return EXIT_OK


def cmd_critical_coupling(cfg: dict) -> int:
    config = _system_config(cfg)
    kc = equilibria.critical_coupling(config.omega)
    print(f"{kc:.10g}")
    if cfg.get("output"):
        _write_json(cfg, {"kappa_c": kc, "degenerate": bool(np.all(config.omega == 0.0))}, "-")
    return EXIT_OK


def cmd_bounds(cfg: dict) -> int:
    kind = cfg.get("kind")
    if not kind:
        raise ConfigurationError("bounds requires --kind")
    n = _setting(cfg, "n", 100, int)
    params = BoundParams(
        epsilon=_optional_float(cfg, "epsilon"),
        delta=_optional_float(cfg, "delta"),
        T=_optional_float(cfg, "t_horizon"),
        C_mu=_optional_float(cfg, "c_mu"),
        beta=_optional_float(cfg, "beta"),
        R_star=_optional_float(cfg, "r_star"),
        I_star=_optional_float(cfg, "i_star"),
        t_level=_optional_float(cfg, "t_level"),
        kappa=_optional_float(cfg, "kappa"),
        omega_max=_optional_float(cfg, "omega_max"),
        sup_I=_optional_float(cfg, "sup_i"),
    )
    spec = _interaction_spec(cfg)
    payload: dict = {"kind": kind, "n": n}
    if kind == "SincosTime":
        t0 = thresholds.sincos_death_time(n, _setting(cfg, "kappa"), _setting(cfg, "epsilon"))
        payload["T0"] = t0
        if params.T is None:
            params = BoundParams(epsilon=params.epsilon, kappa=params.kappa, T=t0 + 1.0)
    value = thresholds.probability_bound(kind, n, params, spec=spec)
    payload["value"] = value
    _write_json(cfg, payload, "-")
    return EXIT_OK


def cmd_montecarlo(cfg: dict) -> int:
    kind = cfg.get("kind", "order-param-cdf")
    mc = _mc_config(cfg)
    spec = _interaction_spec(cfg)
    bound_params: Optional[BoundParams] = None
    if kind == "order-param-cdf":
        n = _setting(cfg, "n", 10, int)
        t_level = _setting(cfg, "t_level", 0.5)
        est = montecarlo.empirical_order_param_cdf(n, t_level, mc)
        params = {"n": n, "t_level": t_level}
        bound_params = BoundParams(t_level=t_level)
    elif kind == "death":
        config = _system_config(cfg)
        est = montecarlo.empirical_death_probability(config, spec, _solver_options(cfg), mc)
        n, params = config.n, {"n": config.n, "kappa": config.kappa}
        eps = config.kappa / config.omega_max - 2.0 if config.omega_max > 0 else 1.0
        if 0.0 < eps:
            bound_params = BoundParams(epsilon=min(eps, 1.0))
    elif kind == "escape":
        config, opts = _system_config(cfg), _solver_options(cfg)
        delta = _setting(cfg, "delta", 0.5)
        t_horizon = _setting(cfg, "t_horizon", 10.0)
        est = montecarlo.estimate_escape_measure(config, spec, delta, t_horizon, opts, mc)
        n, params = config.n, {"n": config.n, "kappa": config.kappa, "delta": delta, "T": t_horizon}
        bound_params = BoundParams(delta=delta, T=t_horizon, kappa=config.kappa)
    else:
        raise ConfigurationError(f"unknown montecarlo kind: {kind}")
    bound = None
    if bound_params is not None:
        bound = thresholds.probability_bound(montecarlo.BOUND_KINDS[kind], n, bound_params)
    _write_json(cfg, montecarlo.result_json_dict(kind, params, est, bound), "-")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    config = _system_config(cfg)
    spec = _interaction_spec(cfg)
    opts = _solver_options(cfg)
    initial = _initial_state(cfg, config.n)
    mu = _setting(cfg, "mu", 0.5)
    traj = integrate.simulate(config, spec, initial, opts)
    report = integrate.verify_theorem_conclusions(traj, config, mu)
    payload = {
        "r_floor_ok": report.r_floor_ok,
        "trapping_ok": report.trapping_ok,
        "entrance_ok": report.entrance_ok,
        "ordering_ok": report.ordering_ok,
        "all_ok": report.all_ok,
        "details": report.details,
    }
    _write_json(cfg, payload, "-")
    return EXIT_OK


def cmd_kappa_pc(cfg: dict) -> int:
    config = _system_config(cfg)
    spec = _interaction_spec(cfg)
    opts = _solver_options(cfg)
    initial = _initial_state(cfg, config.n)
    value = integrate.estimate_pathwise_critical_coupling(config, spec, initial, opts)
    _write_json(cfg, {"kappa_pc": value, "horizon_dependent": True}, "-")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--omega", help="comma-separated frequencies")
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--family")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--sample-stride", dest="sample_stride", type=float)
    parser.add_argument("--method")
    parser.add_argument("--dt", type=float)
    parser.add_argument("--abs-tol", dest="abs_tol", type=float)
    parser.add_argument("--rel-tol", dest="rel_tol", type=float)
    parser.add_argument("--max-dt", dest="max_dt", type=float)
    parser.add_argument("--initial", help="comma-separated initial phases")
    parser.add_argument("--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="winfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "equilibria": cmd_equilibria,
        "critical-coupling": cmd_critical_coupling,
        "bounds": cmd_bounds,
        "montecarlo": cmd_montecarlo,
        "verify": cmd_verify,
        "kappa-pc": cmd_kappa_pc,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)
        if name == "simulate":
            p.add_argument("--trajectory-output", dest="trajectory_output")
        if name == "sweep":
            p.add_argument("--kappa-grid", dest="kappa_grid")
            p.add_argument("--gamma-grid", dest="gamma_grid")
            p.add_argument("--full", action="store_true", default=None)
        if name in ("bounds", "montecarlo"):
            p.add_argument("--kind")
            p.add_argument("--epsilon", type=float)
            p.add_argument("--delta", type=float)
            p.add_argument("--t-level", dest="t_level", type=float)
            p.add_argument("--t-horizon", dest="t_horizon", type=float)
            p.add_argument("--omega-max", dest="omega_max", type=float)
            p.add_argument("--c-mu", dest="c_mu", type=float)
            p.add_argument("--beta", type=float)
            p.add_argument("--r-star", dest="r_star", type=float)
            p.add_argument("--i-star", dest="i_star", type=float)
            p.add_argument("--sup-i", dest="sup_i", type=float)
        if name == "verify":
            p.add_argument("--mu", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(cfg)
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"configuration error: malformed JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
