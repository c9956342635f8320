"""The benchmark's workloads: seeded inputs, fixed op lists and output oracles.

A workload is a fixed list of ops.  An op is one public call into winfree;
the runner issues them one after another (a closed loop, one caller,
workers=1).  Every input comes from the workload seed; winfree receives only
the generated values (frequency vectors, couplings, initial phases and the
McConfig seeds).

Each op's check returns None for a correct output and a message otherwise.
The checks hold for any correct program and any random stream the Monte Carlo
estimators use: they compare against bounds, against references from
reference.py, or against exact outcomes (est == 1.0), never against the bits
of one stream.  Each op also carries perturbations, wrong outputs that the
self-check feeds through the check to show that it bites.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

import reference
from winfree import cli, equilibria, integrate, model, montecarlo, thresholds

WORKLOADS = ("mc-death", "mc-short", "equilibria", "cli-sweep")

# Unit of work counted by units_per_s, per workload.
UNITS = {"mc-death": "samples", "mc-short": "samples", "equilibria": "systems", "cli-sweep": "commands"}


@dataclass
class Op:
    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # (label, wrong output from a correct one) pairs for the self-check
    perturbations: tuple = ()
    # turns the raw output into what check() reads; runs outside the timing
    post: Callable[[object], object] = lambda out: out


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: list = field(default_factory=list)


def _fmt(values) -> str:
    return ",".join(f"{x:.17g}" for x in np.asarray(values, dtype=float))


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, count)]


def _estimate_count(est, samples: int) -> Optional[str]:
    if est.count != samples:
        return f"count {est.count} != samples {samples}"
    return None


# --- mc-death: criterion-5 system, the integrate step loop -----------------

DEATH_N, DEATH_KAPPA = 50, 2.5
DEATH_OPS, DEATH_SAMPLES = 4, 4


def _mc_death(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    config = model.SystemConfig(n=DEATH_N, omega=rng.uniform(-1.0, 1.0, DEATH_N), kappa=DEATH_KAPPA)
    spec = model.sinusoidal()
    opts = integrate.dp45_options(horizon=500.0, sample_stride=5.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    r_floor = thresholds.limit_R_lower_bound(1.0, DEATH_KAPPA) - 0.02

    def op(name, mc_seed, samples):
        mc = montecarlo.McConfig(samples=samples, seed=mc_seed)

        def check(est):
            if est.estimate != 1.0:
                return f"death fraction {est.estimate} != 1.0"
            return _estimate_count(est, samples)

        return Op(
            name, samples,
            lambda: montecarlo.empirical_death_probability(config, spec, opts, mc, r_floor=r_floor),
            check,
            (("one sample survives", lambda e: replace(e, estimate=(samples - 1) / samples)),
             ("sample lost", lambda e: replace(e, count=samples - 1))),
        )

    mc_seeds = _seeds(rng, DEATH_OPS + 1)
    ops = [op(f"death[{i}]", s, DEATH_SAMPLES) for i, s in enumerate(mc_seeds[:-1])]
    return Workload("mc-death", seed, ops, [op("death-warmup", mc_seeds[-1], 1)])


# --- mc-short: cheap samples, per-sample overhead ---------------------------

CDF_N, CDF_T, CDF_SAMPLES = (5, 10, 20), (0.2, 0.5, 0.8), 2000
CDF_REFERENCE_DRAWS = 100_000
ESCAPE_N, ESCAPE_KAPPA, ESCAPE_DELTA, ESCAPE_T, ESCAPE_SAMPLES = 10, 2.0, 0.5, 10.0, 2000


def _cdf_op(name, n, t, samples, mc_seed, p_refs, draws) -> Op:
    mc = montecarlo.McConfig(samples=samples, seed=mc_seed)
    bound = reference.order_param_cdf_bound(n, t)

    def check(est):
        p_ref = float(p_refs()[CDF_T.index(t)])
        if est.estimate > bound + 3.0 * est.std_error:
            return f"N={n} t={t}: estimate {est.estimate} above bound {bound} + 3 SE"
        pooled = (est.estimate * samples + p_ref * draws) / (samples + draws)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / samples + 1.0 / draws))
        # + 4 hits: where the expected count is near zero the normal
        # approximation fails, and two hits against 0.06 expected are not a defect
        if abs(est.estimate - p_ref) > 4.0 * se + 4.0 / samples:
            return f"N={n} t={t}: estimate {est.estimate} vs reference {p_ref} beyond 4 SE ({se}) + 4 hits"
        return _estimate_count(est, samples)

    return Op(
        name, samples,
        lambda: montecarlo.empirical_order_param_cdf(n, t, mc),
        check,
        (("estimate +0.1", lambda e: replace(e, estimate=e.estimate + 0.1)),),
    )


def _escape_op(name, samples, mc_seed) -> Op:
    config = model.SystemConfig(n=ESCAPE_N, omega=np.zeros(ESCAPE_N), kappa=ESCAPE_KAPPA)
    spec = model.sinusoidal()
    opts = integrate.dp45_options(horizon=ESCAPE_T, sample_stride=0.25, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    mc = montecarlo.McConfig(samples=samples, seed=mc_seed)
    bound = reference.escape_measure_bound(ESCAPE_N, ESCAPE_KAPPA, ESCAPE_DELTA, ESCAPE_T)

    def check(est):
        if est.estimate > bound + 3.0 * est.std_error:
            return f"escape estimate {est.estimate} above bound {bound} + 3 SE"
        return _estimate_count(est, samples)

    def too_high(est):
        p = 0.5
        return replace(est, estimate=p, std_error=math.sqrt(p * (1 - p) / samples))

    return Op(
        name, samples,
        lambda: montecarlo.estimate_escape_measure(config, spec, ESCAPE_DELTA, ESCAPE_T, opts, mc),
        check,
        (("escape estimate 0.5", too_high),),
    )


def _mc_short(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    mc_seeds = iter(_seeds(rng, len(CDF_N) * len(CDF_T) + 3))
    ops = []
    p_refs = {}
    for n in CDF_N:
        # independent stream: the reference shares no draws with the estimator
        p_refs[n] = functools.cache(lambda n=n: reference.order_param_cdf(
            n, CDF_T, np.random.default_rng([seed, 2, n]), CDF_REFERENCE_DRAWS))
        for t in CDF_T:
            ops.append(_cdf_op(f"cdf[N={n},t={t}]", n, t, CDF_SAMPLES, next(mc_seeds), p_refs[n], CDF_REFERENCE_DRAWS))
    ops.append(_escape_op("escape", ESCAPE_SAMPLES, next(mc_seeds)))
    warmup = [_cdf_op("cdf-warmup", 5, 0.5, 100, next(mc_seeds), p_refs[5], CDF_REFERENCE_DRAWS),
              _escape_op("escape-warmup", 100, next(mc_seeds))]
    return Workload("mc-short", seed, ops, warmup)


# --- equilibria: signature scan, W polynomial, critical coupling ------------

# (N, systems); omega ~ U(-0.2, 0.2) at kappa = 1 sits far above kappa_c
# (about 0.1), where every signature has one simple root: 2^N equilibria.
EQ_SYSTEMS = ((6, 2), (7, 2), (8, 1))
EQ_OMEGA, EQ_KAPPA = 0.2, 1.0
KC_VECTORS = 100
FIXED_POINT_TOL = 1e-9
ROOT_MATCH_TOL = 1e-6


def _match_roots(found, ref, what: str) -> Optional[str]:
    found = np.sort(np.asarray(found, dtype=float))
    if found.size != ref.size:
        return f"{what}: {found.size} roots, reference has {ref.size}"
    worst = float(np.max(np.abs(found - ref))) if ref.size else 0.0
    if worst > ROOT_MATCH_TOL:
        return f"{what}: root off the reference by {worst:.3g}"
    return None


def _roots_reference(config):
    return functools.cache(lambda: reference.r_equation_roots(config.omega, config.kappa))


def _enumerate_op(name, config, ref) -> Op:
    def check(records):
        bad = _match_roots([r.R for r in records], ref(), f"N={config.n} records")
        if bad:
            return bad
        theta = np.array([r.theta for r in records])
        residual = float(np.max(np.abs(reference.sinusoidal_field(config.omega, config.kappa, theta))))
        if residual > FIXED_POINT_TOL:
            return f"N={config.n}: record is not a fixed point, max |F| = {residual:.3g}"
        return None

    def shift_theta(records):
        first = records[0]
        return [replace(first, theta=first.theta + 1e-3)] + list(records[1:])

    return Op(
        name, 1,
        lambda: equilibria.enumerate_equilibria(config),
        check,
        (("record dropped", lambda recs: list(recs[1:])),
         ("theta shifted 1e-3", shift_theta),
         ("R shifted 1e-5", lambda recs: [replace(r, R=r.R + 1e-5) for r in recs])),
    )


def _wpoly_op(name, config, ref) -> Op:
    def run():
        poly = equilibria.build_W_polynomial(config)
        return poly.roots_in(0.0, 2.1)

    return Op(
        name, 1, run,
        lambda roots: _match_roots(roots, ref(), f"N={config.n} W roots"),
        (("W root shifted 1e-5", lambda roots: np.asarray(roots) + 1e-5),),
    )


def _kc_op(name, vectors) -> Op:
    def check(values):
        for omega, kc in zip(vectors, values):
            lo, hi = reference.critical_coupling_bounds(omega.size)
            ratio = kc / float(np.max(np.abs(omega)))
            if not lo - 1e-12 <= ratio <= hi + 1e-12:
                return f"kappa_c/|omega|_inf = {ratio} outside [{lo}, {hi}] at n={omega.size}"
        return None

    return Op(
        name, len(vectors),
        lambda: [equilibria.critical_coupling(omega) for omega in vectors],
        check,
        (("kappa_c x1.5", lambda vals: [1.5 * vals[0]] + list(vals[1:])),),
    )


def _equilibria(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])

    def system(n):
        return model.SystemConfig(n=n, omega=rng.uniform(-EQ_OMEGA, EQ_OMEGA, n), kappa=EQ_KAPPA)

    ops = []
    for n, count in EQ_SYSTEMS:
        for i in range(count):
            config = system(n)
            ref = _roots_reference(config)
            ops.append(_enumerate_op(f"enumerate[N={n},{i}]", config, ref))
    ops.append(_wpoly_op("wpoly[N=8]", config, ref))
    vectors = [rng.uniform(-2.0, 2.0, int(rng.integers(1, 17))) for _ in range(KC_VECTORS)]
    ops.append(_kc_op("critical_coupling", vectors))
    small = system(4)
    small_ref = _roots_reference(small)
    warmup = [_enumerate_op("enumerate-warmup", small, small_ref), _wpoly_op("wpoly-warmup", small, small_ref),
              _kc_op("critical_coupling-warmup", vectors[:1])]
    return Workload("equilibria", seed, ops, warmup)


# --- cli-sweep: in-process winfree.cli.main ---------------------------------

@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str
    files: dict  # path -> text, read after the call

    @property
    def output_bytes(self) -> int:
        return len(self.stdout) + len(self.stderr) + sum(len(t) for t in self.files.values())


def _call_cli(argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue(), {})


def _read_files(paths):
    """Reads the command's output files and removes them, so that the next
    pass cannot pass its check on a stale file."""
    def post(run: CliRun) -> CliRun:
        files = {}
        for p in paths:
            if os.path.exists(p):
                with open(p) as fh:
                    files[p] = fh.read()
                os.remove(p)
        return replace(run, files=files)
    return post


def _cli_op(name, argv, check, perturbations=(), paths=()) -> Op:
    def full_check(run: CliRun):
        if run.code != 0:
            return f"{name}: exit code {run.code}: {run.stderr.strip()[:200]}"
        return check(run)

    perturbations = (("exit code 1", lambda r: replace(r, code=1)),) + tuple(perturbations)
    return Op(name, 1, lambda: _call_cli(argv), full_check, perturbations, _read_files(paths))


def _json_out(run: CliRun, path) -> dict:
    return json.loads(run.files[path])


def _edit_json(path, key, value):
    def edit(run: CliRun) -> CliRun:
        data = json.loads(run.files[path])
        data[key] = value
        return replace(run, files={**run.files, path: json.dumps(data)})
    return edit


# Sweep cells and their regimes.  kappa = 0.1: every frequency exceeds
# 2*kappa >= |kappa R sin|, so all oscillators rotate; their rotation numbers
# spread over ~2*gamma >> tol while neighbouring quantile frequencies differ by
# 2*gamma/800 << tol, hence PartialLocking.  kappa = 5 exceeds the sinusoidal
# death threshold max|omega| / ((R0 - mu) sqrt(mu (2 - mu))) ~ 3.5 at mu = 1/2,
# R0 ~ 1, hence CompleteDeath.
SWEEP_KAPPAS, SWEEP_GAMMAS = (0.1, 5.0), (0.25, 0.5)
SWEEP_REGIME = {0.1: "PartialLocking", 5.0: "CompleteDeath"}
SWEEP_HORIZON = 40.0
SIM_N, SIM_KAPPA, SIM_HORIZON, SIM_STRIDE = 200, 5.0, 100.0, 0.5
VERIFY_N, VERIFY_KAPPA = 10, 4.0
KPC_N, KPC_HORIZON, KPC_STRIDE = 5, 20.0, 0.5
KPC_REL_TOL = 1e-4
REFERENCE_DT = 0.01
SINCOS_T0 = 0.40156699  # T0 at N=800, kappa=6, epsilon=1 (paper's reference value)


def _sweep_op(seed, workdir) -> Op:
    path = os.path.join(workdir, "sweep.csv")
    argv = ["sweep", "--full", "--kappa-grid", _fmt(SWEEP_KAPPAS), "--gamma-grid", _fmt(SWEEP_GAMMAS),
            "--horizon", str(SWEEP_HORIZON), "--sample-stride", "0.5", "--seed", str(seed), "--output", path]

    def check(run):
        rows = [line.split(",") for line in run.files[path].strip().splitlines()[1:]]
        if len(rows) != len(SWEEP_KAPPAS) * len(SWEEP_GAMMAS):
            return f"sweep: {len(rows)} cells"
        for kappa, gamma, regime, *_ in rows:
            want = SWEEP_REGIME[float(kappa)]
            if regime != want:
                return f"sweep kappa={kappa} gamma={gamma}: {regime}, expected {want}"
        return None

    def swap(run):
        text = run.files[path].replace("CompleteDeath", "PartialDeath", 1)
        return replace(run, files={**run.files, path: text})

    return _cli_op("cli.sweep", argv, check, (("regime changed", swap),), (path,))


def _simulate_op(rng, workdir) -> Op:
    omega = rng.uniform(-1.0, 1.0, SIM_N)
    theta0 = rng.uniform(-np.pi, np.pi, SIM_N)
    traj_path = os.path.join(workdir, "trajectory.csv")
    summary_path = os.path.join(workdir, "summary.json")
    argv = ["simulate", "--omega=" + _fmt(omega), "--initial=" + _fmt(theta0), "--kappa", str(SIM_KAPPA),
            "--horizon", str(SIM_HORIZON), "--sample-stride", str(SIM_STRIDE),
            "--trajectory-output", traj_path, "--output", summary_path]

    @functools.cache
    def ref_final_r():
        final = reference.rk4_samples(omega, [SIM_KAPPA], theta0, SIM_HORIZON, SIM_HORIZON, REFERENCE_DT)[-1, 0]
        return float(np.mean(1.0 + np.cos(final)))

    rows = int(round(SIM_HORIZON / SIM_STRIDE)) + 1

    def check(run):
        summary = _json_out(run, summary_path)
        if summary["regime"] != "CompleteDeath":
            return f"simulate: regime {summary['regime']}, expected CompleteDeath"
        if abs(summary["final_R"] - ref_final_r()) > 1e-6:
            return f"simulate: final R {summary['final_R']} vs reference {ref_final_r()}"
        lines = run.files[traj_path].strip().splitlines()
        if len(lines) != rows + 1:
            return f"simulate: trajectory has {len(lines) - 1} rows, expected {rows}"
        if abs(float(lines[-1].split(",")[-1]) - summary["final_R"]) > 1e-12:
            return "simulate: trajectory's last R differs from the summary"
        return None

    return _cli_op("cli.simulate", argv, check,
                   (("final R +1e-4", lambda r: _edit_json(summary_path, "final_R", _json_out(r, summary_path)["final_R"] + 1e-4)(r)),),
                   (traj_path, summary_path))


def _verify_op(rng, workdir) -> Op:
    path = os.path.join(workdir, "verify.json")
    argv = ["verify", "--omega=" + _fmt(rng.uniform(-0.5, 0.5, VERIFY_N)),
            "--initial=" + _fmt(rng.uniform(-1.0, 1.0, VERIFY_N)), "--kappa", str(VERIFY_KAPPA),
            "--horizon", "30", "--sample-stride", "0.1", "--mu", "0.5", "--output", path]

    def check(run):
        report = _json_out(run, path)
        return None if report["all_ok"] is True else f"verify: {report}"

    return _cli_op("cli.verify", argv, check, (("all_ok false", _edit_json(path, "all_ok", False)),), (path,))


def _kappa_pc_op(rng, workdir) -> Op:
    omega = rng.uniform(-1.0, 1.0, KPC_N)
    theta0 = rng.uniform(-np.pi, np.pi, KPC_N)
    path = os.path.join(workdir, "kappa_pc.json")
    argv = ["kappa-pc", "--omega=" + _fmt(omega), "--initial=" + _fmt(theta0),
            "--horizon", str(KPC_HORIZON), "--sample-stride", str(KPC_STRIDE), "--output", path]
    verdicts = {}

    def check(run):
        kappa = _json_out(run, path)["kappa_pc"]
        if kappa not in verdicts:
            # the reference integrator must see death just above kappa_pc and
            # a full rotation just below it
            dead = reference.all_dead(reference.rk4_samples(
                omega, [kappa * (1 + KPC_REL_TOL), kappa * (1 - KPC_REL_TOL)],
                theta0, KPC_HORIZON, KPC_STRIDE, REFERENCE_DT))
            verdicts[kappa] = None if kappa > 0 and dead[0] and not dead[1] else (
                f"kappa-pc {kappa}: reference death at (1 +- {KPC_REL_TOL}) x kappa_pc is {dead.tolist()}")
        return verdicts[kappa]

    def off(run):
        kappa = _json_out(run, path)["kappa_pc"]
        return _edit_json(path, "kappa_pc", kappa * 1.01)(run)

    return _cli_op("cli.kappa-pc", argv, check, (("kappa_pc x1.01", off),), (path,))


def _bounds_ops(rng) -> list:
    t0_argv = ["bounds", "--kind", "SincosTime", "--n", "800", "--kappa", "6", "--epsilon", "1"]

    def t0_check(run):
        t0 = json.loads(run.stdout)["T0"]
        return None if abs(t0 - SINCOS_T0) < 1e-6 else f"bounds SincosTime: T0 {t0} != {SINCOS_T0}"

    n, t = int(rng.integers(2, 41)), float(rng.uniform(0.05, 0.95))
    cdf_argv = ["bounds", "--kind", "OrderParamCDF", "--n", str(n), "--t-level", f"{t:.17g}"]
    want = reference.order_param_cdf_bound(n, t)

    def cdf_check(run):
        value = json.loads(run.stdout)["value"]
        return None if abs(value - want) <= 1e-12 * max(1.0, want) else f"bounds OrderParamCDF: {value} != {want}"

    def stdout_edit(key, value):
        def edit(run):
            data = json.loads(run.stdout)
            data[key] = value
            return replace(run, stdout=json.dumps(data))
        return edit

    return [_cli_op("cli.bounds[SincosTime]", t0_argv, t0_check, (("T0 +1e-3", stdout_edit("T0", SINCOS_T0 + 1e-3)),)),
            _cli_op("cli.bounds[OrderParamCDF]", cdf_argv, cdf_check, (("value x2", stdout_edit("value", 2 * want + 1e-3)),))]


def _critical_coupling_op(rng, n) -> Op:
    omega = rng.uniform(-1.0, 1.0, n)
    lo, hi = reference.critical_coupling_bounds(n)
    omega_max = float(np.max(np.abs(omega)))

    def check(run):
        ratio = float(run.stdout.split()[0]) / omega_max
        # the command prints 10 significant digits
        if not lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9):
            return f"critical-coupling: ratio {ratio} outside [{lo}, {hi}]"
        return None

    return _cli_op("cli.critical-coupling", ["critical-coupling", "--omega=" + _fmt(omega)], check,
                   (("kappa_c x2", lambda r: replace(r, stdout=f"{2 * hi * omega_max:.10g}\n")),))


def _cli_sweep(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    cli_seed = int(rng.integers(0, 2**31))
    ops = [_sweep_op(cli_seed, workdir), _simulate_op(rng, workdir), _verify_op(rng, workdir),
           _kappa_pc_op(rng, workdir)] + _bounds_ops(rng) + [_critical_coupling_op(rng, SIM_N)]
    return Workload("cli-sweep", seed, ops, ops[-3:])


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's ops for this seed; cli outputs go under workdir."""
    if name == "mc-death":
        return _mc_death(seed)
    if name == "mc-short":
        return _mc_short(seed)
    if name == "equilibria":
        return _equilibria(seed)
    if name == "cli-sweep":
        return _cli_sweep(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
