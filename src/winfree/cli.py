"""Command-line orchestration: simulations, sweeps, bounds, and verification.

Configuration comes from a single JSON document (--config) with snake_case
keys; kebab-case flags override individual fields.  Each subcommand takes
only the settings it reads, and a flag and its JSON key convert alike.  The
WINFREE_SEED environment variable overrides the configured seed.  Exit codes:
0 success, 2 configuration error, 3 numeric/integration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import Optional

import numpy as np

from . import equilibria, integrate, model, montecarlo, thresholds
from .errors import ConfigurationError, InputError, IntegrationFailure
from .integrate import SolverOptions
from .model import InteractionSpec, SystemConfig
from .montecarlo import McConfig
from .thresholds import BoundParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# BoundParams field -> setting name
_BOUND_KEYS = {f.name: "t_horizon" if f.name == "T" else f.name.lower() for f in dataclasses.fields(BoundParams)}


def _floats(value) -> np.ndarray:
    """A float vector from a JSON list or a comma-separated string."""
    items = [x for x in value.split(",") if x.strip() != ""] if isinstance(value, str) else value
    return np.array([float(x) for x in items])


# setting -> converter; the flag is the kebab-cased name and the --config key the name itself
_SETTINGS = {
    **{key: float for key in _BOUND_KEYS.values()},
    "n": int, "omega": _floats, "gamma": float,
    "family": str, "power": int, "r_pk": float, "influence_table": str, "sensitivity_table": str,
    "horizon": float, "sample_stride": float, "method": str, "dt": float,
    "abs_tol": float, "rel_tol": float, "max_dt": float,
    "seed": int, "output": str, "kind": str, "samples": int, "workers": int,
    "initial": _floats, "trajectory_output": str, "kappa_grid": _floats, "gamma_grid": _floats,
    "full": bool, "mu": float,
}

_FREQUENCIES = ("n", "omega", "gamma")
_SYSTEM = (*_FREQUENCIES, "kappa")
# family parameter -> the family that reads it
_FAMILY_OF = {"power": "power_cosine", "r_pk": "rectified_poisson",
              "influence_table": "custom", "sensitivity_table": "custom"}
_FAMILY = ("family", *_FAMILY_OF)
_SOLVER = ("horizon", "sample_stride", "method", "dt", "abs_tol", "rel_tol", "max_dt")
_EVERY = ("seed", "output")  # besides --config
_MC_EVERY = ("kind", "samples", "workers")
# montecarlo kind -> the settings it reads besides _MC_EVERY; the escape
# estimator integrates up to t_horizon, so it does not read horizon
_MC_KINDS = {
    "order-param-cdf": ("n", *_FAMILY, "t_level"),
    "death": (*_SYSTEM, *_FAMILY, *_SOLVER),
    "escape": (*_SYSTEM, *_FAMILY, *(key for key in _SOLVER if key != "horizon"), "delta", "t_horizon"),
}

# subcommand -> the settings it reads; its function is cmd_<name>, looked up
# when the parser is built so that a wrapped cmd_* function is the one that runs
_COMMANDS = {
    "simulate": (*_SYSTEM, *_FAMILY, *_SOLVER, "initial", "trajectory_output"),
    "sweep": ("n", "kappa_grid", "gamma_grid", "full", *_FAMILY, *_SOLVER),
    "equilibria": _SYSTEM,
    "critical-coupling": _FREQUENCIES,
    "bounds": ("kind", "n", *_FAMILY, *_BOUND_KEYS.values()),
    "montecarlo": (*_MC_EVERY, *dict.fromkeys(key for row in _MC_KINDS.values() for key in row)),
    "verify": (*_SYSTEM, *_SOLVER, "initial", "mu"),
    "kappa-pc": (*_FREQUENCIES, *_FAMILY, *_SOLVER, "initial"),
}


def _convert(key: str, value, name: Optional[str] = None):
    """value converted by key's _SETTINGS converter; ConfigurationError names the setting."""
    convert = _SETTINGS[key]
    try:
        return convert(value)
    except (TypeError, ValueError):
        if convert is _floats:
            raise ConfigurationError(f"{key}: expected comma-separated numbers, got {value!r}") from None
        raise ConfigurationError(f"bad value for {name or key}: {value!r}") from None


def _setting(cfg: dict, key: str):
    """cfg[key]; ConfigurationError names a missing key."""
    if key not in cfg:
        raise ConfigurationError(f"missing required setting: {key}")
    return cfg[key]


def _load_config(args: argparse.Namespace) -> dict:
    """The settings of args.command, from --config and the flags, each converted by _SETTINGS.

    A JSON key that no subcommand reads is an error; one that only other
    subcommands read is dropped, so one file can serve several subcommands.
    A JSON null, like an absent flag, leaves the setting unset.
    """
    row = (*_COMMANDS[args.command], *_EVERY)
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ConfigurationError("config JSON must be an object")
        unknown = sorted(set(values) - set(_SETTINGS))
        if unknown:
            raise ConfigurationError(f"unknown setting in {args.config}: {', '.join(unknown)}")
    values.update((key, value) for key, value in vars(args).items() if value is not None)
    cfg = {key: _convert(key, value) for key, value in values.items() if key in row and value is not None}
    if "WINFREE_SEED" in os.environ:
        cfg["seed"] = _convert("seed", os.environ["WINFREE_SEED"], "WINFREE_SEED")
    cfg.setdefault("seed", 0)
    if cfg["seed"] < 0:
        raise ConfigurationError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def _quantile_frequencies(n: int, gamma: float) -> np.ndarray:
    """Deterministic equal-mass quantile sample of uniform[1-gamma, 1+gamma]."""
    if not np.isfinite(gamma):
        raise ConfigurationError(f"gamma must be finite, got {gamma}")
    return 1.0 - gamma + 2.0 * gamma * (np.arange(1, n + 1) - 0.5) / n


def _system_config(cfg: dict) -> SystemConfig:
    if "omega" in cfg:
        omega = cfg["omega"]
        n = cfg.get("n", len(omega))
    else:
        n = cfg.get("n", 100)
        omega = _quantile_frequencies(n, cfg.get("gamma", 1.0))
    return SystemConfig(n=n, omega=omega, kappa=cfg.get("kappa", 1.0))


def _interaction_spec(cfg: dict) -> InteractionSpec:
    family = cfg.get("family", "sinusoidal")
    for key, owner in _FAMILY_OF.items():
        if key in cfg and family != owner:
            raise ConfigurationError(f"{key} is read only by family {owner}, but family is {family}")
    if family == "sinusoidal":
        return model.sinusoidal()
    if family == "power_cosine":
        return model.power_cosine(cfg.get("power", 1))
    if family == "rectified_poisson":
        return model.rectified_poisson(cfg.get("r_pk", 0.0))
    if family == "custom":
        i_table = model.load_custom_table(_setting(cfg, "influence_table"))
        s_table = model.load_custom_table(_setting(cfg, "sensitivity_table"))
        return model.custom_interaction(i_table, s_table)
    raise ConfigurationError(f"unknown interaction family: {family}")


def _solver_options(cfg: dict) -> SolverOptions:
    """The solver settings given, over the CLI's defaults; SolverOptions owns the rest and the checks."""
    given = {key: cfg[key] for key in _SOLVER if key in cfg}
    return SolverOptions(**{"method": "dormand_prince45", "horizon": 500.0, "sample_stride": 1.0, **given})


def _mc_config(cfg: dict) -> McConfig:
    return McConfig(
        samples=cfg.get("samples", 1000),
        seed=cfg["seed"],
        workers=cfg.get("workers", 1),
    )


def _initial_state(cfg: dict, n: int) -> np.ndarray:
    if "initial" in cfg:
        return cfg["initial"]  # the step loop checks its length and finiteness
    return np.random.default_rng((cfg["seed"], 0)).uniform(-np.pi, np.pi, n)


def _write_json(cfg: dict, payload: dict, default_path: str) -> None:
    path = cfg.get("output", default_path)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path != "-":
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
        raise
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
    n = 800 if cfg.get("full") else cfg.get("n", 100)
    kappa_grid = cfg.get("kappa_grid", np.empty(0))
    gamma_grid = cfg.get("gamma_grid", np.empty(0))
    if kappa_grid.size == 0 or gamma_grid.size == 0:
        raise ConfigurationError("sweep requires non-empty kappa_grid and gamma_grid")
    opts = _solver_options(cfg)
    spec = _interaction_spec(cfg)
    seed = cfg["seed"]
    rows = ["kappa,gamma,regime,death_fraction,mean_R_final"]
    cell = 0
    omegas = [_quantile_frequencies(n, float(gamma)) for gamma in gamma_grid]  # every gamma checked before a run
    for gamma, omega in zip(gamma_grid, omegas):
        # the cells of one gamma share omega: integrate them as one batch with
        # per-row kappa (each row is bitwise its own simulate call)
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
    n = cfg.get("n", 100)
    params = BoundParams(**{f: cfg.get(k) for f, k in _BOUND_KEYS.items()})
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
    if kind not in _MC_KINDS:
        raise ConfigurationError(f"unknown montecarlo kind: {kind}")
    unread = [key for key in _COMMANDS["montecarlo"] if key in cfg and key not in (*_MC_EVERY, *_MC_KINDS[kind])]
    if unread:
        raise ConfigurationError(f"montecarlo kind {kind} does not read: {', '.join(unread)}")
    mc = _mc_config(cfg)
    spec = _interaction_spec(cfg)
    bound_params: Optional[BoundParams] = None
    if kind == "order-param-cdf":
        n = cfg.get("n", 10)
        t_level = cfg.get("t_level", 0.5)
        est = montecarlo.empirical_order_param_cdf(n, t_level, mc, spec)
        params = {"n": n, "t_level": t_level}
        if 0.0 < t_level < 1.0:  # the bound's domain; the estimate's reaches sup I
            bound_params = BoundParams(t_level=t_level)
    elif kind == "death":
        config = _system_config(cfg)
        est = montecarlo.empirical_death_probability(config, spec, _solver_options(cfg), mc)
        n, params = config.n, {"n": config.n, "kappa": config.kappa}
        eps = config.kappa / config.omega_max - 2.0 if config.omega_max > 0 else 1.0
        if 0.0 < eps:
            bound_params = BoundParams(epsilon=min(eps, 1.0))
    else:  # escape: integrates to t_horizon, its stride clamped to it as in estimate_escape_measure
        config, delta, t_horizon = _system_config(cfg), cfg.get("delta", 0.5), cfg.get("t_horizon", 10.0)
        opts = _solver_options({**cfg, "horizon": t_horizon,
                                "sample_stride": min(cfg.get("sample_stride", 1.0), t_horizon)})
        est = montecarlo.estimate_escape_measure(config, spec, delta, t_horizon, opts, mc)
        n, params = config.n, {"n": config.n, "kappa": config.kappa, "delta": delta, "T": t_horizon}
        bound_params = BoundParams(delta=delta, T=t_horizon, kappa=config.kappa)
    bound_kind, bound = montecarlo.BOUND_KINDS[kind], None
    if bound_params is not None and spec.family in thresholds.BOUNDS[bound_kind].families:
        bound = thresholds.probability_bound(bound_kind, n, bound_params, spec)
    _write_json(cfg, montecarlo.result_json_dict(kind, params, est, bound), "-")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    config = _system_config(cfg)
    opts = _solver_options(cfg)
    initial = _initial_state(cfg, config.n)
    mu = cfg.get("mu", 0.5)
    traj = integrate.simulate(config, model.sinusoidal(), initial, opts)
    report = integrate.verify_theorem_conclusions(traj, config, mu)
    _write_json(cfg, {**dataclasses.asdict(report), "all_ok": report.all_ok}, "-")
    return EXIT_OK


def cmd_kappa_pc(cfg: dict) -> int:
    config = _system_config(cfg)
    spec = _interaction_spec(cfg)
    opts = _solver_options(cfg)
    initial = _initial_state(cfg, config.n)
    value = integrate.estimate_pathwise_critical_coupling(config, spec, initial, opts)
    _write_json(cfg, {"kappa_pc": value, "horizon_dependent": True}, "-")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="winfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
        p.add_argument("--config", help="JSON configuration file")
        for key in (*row, *_EVERY):
            flag = "--" + key.replace("_", "-")
            if _SETTINGS[key] is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=key, help="comma-separated numbers" if _SETTINGS[key] is _floats else None)
    return parser


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """'--omega -0.5,0.2' as '--omega=-0.5,0.2'.

    argparse reads a word that starts with '-' and is not one plain number as
    the next flag, so a vector whose first entry is negative needs the '='
    spelling; this gives it that spelling, under any name.  '--kappa=-1'
    reads as '--kappa -1', so joining a scalar changes nothing, and
    '--full -1' is an error either way.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        word = argv[i]
        if (word.startswith("--") and len(word) > 2 and "=" not in word and i + 1 < len(argv)
                and _NEGATIVE_VALUE.match(argv[i + 1])):
            out.append(f"{word}={argv[i + 1]}")
            i += 2
        else:
            out.append(word)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        cfg = _load_config(args)
        return args.func(cfg)
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except json.JSONDecodeError as exc:
        print(f"configuration error: malformed JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
